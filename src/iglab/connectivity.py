"""Exact k-connectivity and failure-resilience decisions.

A graph survives any m node failures iff it is (m+1)-connected, so the
universal quantifier over failure sets is decided exactly via vertex
connectivity (Menger) rather than by sampling. Fast paths: k=1 by
traversal, k=2 by articulation-point search; k >= 3 by Even's test on a
maximum-adjacency order, with Dinic max flows on a node-split network built
once per graph as CSR.
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


# -- k >= 3: Even's test on a maximum-adjacency order ------------------------

def _even_k_connected(g: GraphTopology, k: int) -> bool:
    """Even's test (SIAM J. Comput. 4:393, 1975); needs n > k.

    For an order v_1..v_n, the graph is k-connected iff each non-adjacent
    pair among v_1..v_k has k internally disjoint paths, and each later v_j
    has k such paths from a source joined to v_1..v_{j-1}. k earlier
    neighbours are k paths of length one, and a maximum-adjacency order
    (from node 0, take the node with the most visited neighbours, lowest id
    on ties) gives most nodes k of them, so few flows run.

    Node-split CSR network, built once: u_in=2u -> u_out=2u+1 with unit
    capacity, unit arcs u_out->v_in and v_out->u_in per edge, and arcs from a
    super-source S=2n to every u_in and u_out, of capacity 0 until a check
    sets them: S->a_out to k for a pair check, S->u_in to 1 per earlier u for
    the set check (so u's own unit arc still binds). Dinic runs from S to the
    target's u_in.
    """
    n = g.n
    visited_nbrs = np.zeros(n, dtype=np.int64)
    order, earlier = [], []
    for _ in range(n):
        v = int(visited_nbrs.argmax())
        order.append(v)
        earlier.append(int(visited_nbrs[v]))
        visited_nbrs[g.indices[g.indptr[v]:g.indptr[v + 1]]] += 1
        visited_nbrs[v] = -n  # below any unvisited count for good
    ends = g.pairs.astype(np.int32)
    split = np.arange(2 * n, dtype=np.int32)
    tails = np.concatenate([split[::2], 2 * ends[:, 0] + 1, 2 * ends[:, 1] + 1,
                            np.full(2 * n, 2 * n, dtype=np.int32)])
    heads = np.concatenate([split[1::2], 2 * ends[:, 1], 2 * ends[:, 0], split])
    caps = np.ones(tails.size, dtype=np.int32)
    caps[-2 * n:] = 0
    row_order = np.lexsort((heads, tails))
    indptr = np.zeros(2 * n + 2, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=2 * n + 1), out=indptr[1:])
    net = csr_array((caps[row_order], heads[row_order], indptr), shape=(2 * n + 1,) * 2)
    source_arcs = net.data[-2 * n:]  # S's row, sorted by head: S->h at h
    for a, b in combinations(order[:k], 2):
        if not g.has_edge(a, b):
            source_arcs[2 * a + 1] = k
            if maximum_flow(net, 2 * n, 2 * b, method="dinic").flow_value < k:
                return False
            source_arcs[2 * a + 1] = 0
    source_arcs[[2 * u for u in order[:k]]] = 1
    for v, count in zip(order[k:], earlier[k:]):
        if count < k and maximum_flow(net, 2 * n, 2 * v, method="dinic").flow_value < k:
            return False
        source_arcs[2 * v] = 1
    return True


def vertex_connectivity(g: GraphTopology) -> int:
    """Exact vertex connectivity kappa; 0 for disconnected or single-node."""
    kappa = 0
    while is_k_connected(g, kappa + 1):
        kappa += 1
    return kappa


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
    return _even_k_connected(g, k)


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
