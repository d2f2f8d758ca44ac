"""Exact k-connectivity and failure-resilience decisions.

A graph survives any m node failures iff it is (m+1)-connected, so the
universal quantifier over failure sets is decided exactly via vertex
connectivity (Menger) rather than by sampling. Fast paths: k=1 by
traversal, k=2 by articulation-point search; k >= 3 by a node-split
network built once per graph as CSR and solved with a capped Dinic max flow
per probe pair, with early termination at the queried threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from .errors import InvalidParameterError, OracleRefusedError
from .graph import GraphTopology, component_labels, min_degree

_BRUTE_FORCE_NODE_CAP = 16


@dataclass
class ResilienceVerdict:
    connected: bool
    min_degree: int
    k_connected_up_to: int  # vertex connectivity kappa
    query_k: int

    @property
    def is_k_connected(self) -> bool:
        return self.k_connected_up_to >= self.query_k


def is_connected(g: GraphTopology) -> bool:
    if g.n < 1:
        raise InvalidParameterError("is_connected requires at least one node")
    return component_labels(g)[0] == 1


def min_degree_at_least(g: GraphTopology, k: int) -> bool:
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    return min_degree(g) >= k


def remove_nodes(g: GraphTopology, victims) -> GraphTopology:
    """New graph on the surviving nodes, relabeled 0..n-|victims|-1 in an
    order-preserving way, keeping only edges between survivors."""
    victims = set(victims)
    if not victims <= set(range(g.n)):
        raise InvalidParameterError("victims must be a subset of node ids")
    alive = np.ones(g.n, dtype=bool)
    alive[[int(v) for v in victims]] = False
    relabel = np.cumsum(alive) - 1
    kept = g.pairs[alive[g.pairs].all(axis=1)]
    return GraphTopology(g.n - len(victims), relabel[kept])


# -- articulation points (k=2 fast path) -----------------------------------

def _has_articulation_point(g: GraphTopology) -> bool:
    """Iterative Hopcroft-Tarjan cut-vertex search; assumes g connected."""
    n = g.n
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    timer = 0
    root = 0
    root_children = 0
    stack = [(root, iter(indices[indptr[root]:indptr[root + 1]]))]
    disc[root] = low[root] = timer
    timer += 1
    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if disc[v] == -1:
                parent[v] = u
                disc[v] = low[v] = timer
                timer += 1
                if u == root:
                    root_children += 1
                stack.append((v, iter(indices[indptr[v]:indptr[v + 1]])))
                advanced = True
                break
            elif v != parent[u] and disc[v] < low[u]:
                low[u] = disc[v]
        if not advanced:
            stack.pop()
            pu = parent[u]
            if pu != -1:
                if low[u] < low[pu]:
                    low[pu] = low[u]
                if pu != root and low[u] >= disc[pu]:
                    return True
    return root_children > 1


# -- local vertex connectivity via node-split max flow ----------------------

def _kappa_probe_pairs(g: GraphTopology):
    """Pairs whose local connectivities attain kappa (Esfahanian-Hakimi):
    a minimum-degree node v against its non-neighbors, plus non-adjacent
    pairs among v's neighbors."""
    v = int(np.diff(g.indptr).argmin())
    nbrs = g.indices[g.indptr[v]:g.indptr[v + 1]]
    others = np.ones(g.n, dtype=bool)
    others[nbrs] = others[v] = False
    for w in np.flatnonzero(others).tolist():
        yield v, w
    for x, y in combinations(nbrs.tolist(), 2):
        if not g.has_edge(x, y):
            yield x, y


def _capped_kappa(g: GraphTopology, cap: int, stop_below: int) -> int:
    """min(cap, local connectivity over the probe pairs), each flow capped at
    the running minimum; stops once the minimum drops below stop_below.

    Node-split reduction, built once per graph as CSR: node u becomes
    u_in=2u, u_out=2u+1 with a unit arc; each edge gives unit arcs
    u_out->v_in and v_out->u_in; a super-source S=2n has a zero-capacity arc
    to every u_out. Per pair (s, t) the S->s_out arc carries the cap and
    Dinic runs from S to t_in, so the flow counts internally disjoint s-t
    paths up to the cap.
    """
    n = g.n
    ends = g.pairs.astype(np.int32)
    nodes = np.arange(n, dtype=np.int32)
    tails = np.concatenate([2 * nodes, 2 * ends[:, 0] + 1, 2 * ends[:, 1] + 1,
                            np.full(n, 2 * n, dtype=np.int32)])
    heads = np.concatenate([2 * nodes + 1, 2 * ends[:, 1], 2 * ends[:, 0],
                            2 * nodes + 1])
    caps = np.ones(tails.size, dtype=np.int32)
    caps[-n:] = 0
    order = np.lexsort((heads, tails))
    indptr = np.zeros(2 * n + 2, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=2 * n + 1), out=indptr[1:])
    net = csr_array((caps[order], heads[order], indptr), shape=(2 * n + 1,) * 2)
    source_arcs = net.data[-n:]  # S's row, sorted by head: S->u_out at u
    for s, t in _kappa_probe_pairs(g):
        source_arcs[s] = cap
        cap = min(cap, maximum_flow(net, 2 * n, 2 * t, method="dinic").flow_value)
        source_arcs[s] = 0
        if cap < stop_below:
            break
    return cap


def vertex_connectivity(g: GraphTopology) -> int:
    """Exact vertex connectivity kappa; 0 for disconnected or single-node."""
    n = g.n
    if n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.edge_count() == n * (n - 1) // 2:
        return n - 1
    return _capped_kappa(g, min_degree(g), 1)


def is_k_connected(g: GraphTopology, k: int) -> bool:
    """True iff n >= k+1 and the graph stays connected after removing any
    k-1 nodes (equivalently kappa >= k)."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    n = g.n
    if n < k + 1:
        return False
    if k == 1:
        return is_connected(g)
    if min_degree(g) < k:
        return False
    if not is_connected(g):
        return False
    if k == 2:
        return not _has_articulation_point(g)
    return _capped_kappa(g, k, k) >= k


def survives_node_failures(g: GraphTopology, m: int) -> bool:
    """Connected after an arbitrary set of m node failures == (m+1)-connected."""
    if m < 0:
        raise InvalidParameterError(f"m must be >= 0, got {m}")
    return is_k_connected(g, m + 1)


def assess_resilience(g: GraphTopology, k: int) -> ResilienceVerdict:
    return ResilienceVerdict(
        connected=is_connected(g) if g.n >= 1 else False,
        min_degree=min_degree(g) if g.n >= 1 else 0,
        k_connected_up_to=vertex_connectivity(g),
        query_k=k,
    )


# -- exhaustive oracle -------------------------------------------------------

def brute_force_k_connected(g: GraphTopology, k: int) -> bool:
    """Definitional check: enumerate every (k-1)-subset of nodes and verify
    each residual graph is connected (and n >= k+1). Bitmask traversal keeps
    the enumeration cheap, but the node count is capped."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if g.n > _BRUTE_FORCE_NODE_CAP:
        raise OracleRefusedError(
            f"brute-force oracle refuses n={g.n} > {_BRUTE_FORCE_NODE_CAP}"
        )
    n = g.n
    if n < k + 1:
        return False
    adj = [0] * n
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    full = (1 << n) - 1
    for victims in combinations(range(n), k - 1):
        dead = 0
        for v in victims:
            dead |= 1 << v
        alive = full & ~dead
        start = alive & -alive
        visited = start
        frontier = start
        while frontier:
            reach = 0
            f = frontier
            while f:
                b = f & -f
                reach |= adj[b.bit_length() - 1]
                f ^= b
            frontier = reach & alive & ~visited
            visited |= frontier
        if visited != alive:
            return False
    return True
