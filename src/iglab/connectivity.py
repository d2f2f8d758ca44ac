"""Exact k-connectivity and failure-resilience decisions.

A graph survives any m node failures iff it is (m+1)-connected, so the
universal quantifier over failure sets is decided exactly via vertex
connectivity (Menger) rather than by sampling. After the n > k and
minimum-degree filters, k = 1 is decided by components and every k >= 2 by
Even's test, which is exact for any node order. The order starts at a
greedily grown (k+1)-clique and is placed in rounds: each round takes every
node that already has k placed neighbours, and only a stall searches. A
stalled node with k - 1 placed neighbours needs one more path, found by one
breadth-first search through the unplaced nodes; one with fewer runs an
early-exit augmenting-path search over the graph's own CSR adjacency,
node-split only implicitly. A disconnected graph fails a check, so k >= 2
needs no components pass. is_k_connected is the one decision, for library
callers and trials alike; only Even's test makes the graph build its CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidParameterError, OracleRefusedError
from .graph import GraphTopology, _from_pairs, component_labels, min_degree

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
    relabel, pairs = np.cumsum(alive) - 1, g.pairs
    # an order-preserving relabel keeps the surviving rows sorted, i < j
    return _from_pairs(g.n - len(victims), relabel[pairs[alive[pairs].all(axis=1)]])


def _adjacency(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """The CSR rows as Python lists, for the searches that walk them."""
    indptr, indices = indptr.tolist(), indices.tolist()
    return [indices[indptr[u]:indptr[u + 1]] for u in range(len(indptr) - 1)]


# -- k >= 2: Even's test, placing the nodes in rounds ----------------------

def _has_k_paths(adj: list[list[int]], k: int, t: int, source: set[int]) -> bool:
    """True iff k paths from distinct nodes of `source` reach t, sharing
    no node but t.

    Up to k breadth-first searches run backwards from t_in over the residual
    graph of the node-split network, which is never built: state 2u is u_in,
    2u + 1 is u_out, u_in -> u_out has unit capacity, and each edge {u, w}
    gives unit arcs u_out -> w_in and w_out -> u_in. nxt[u] = w is one unit of
    flow on u_out -> w_in, so u carries a path iff u is in nxt. A search stops
    at the first u_in it reaches with u in source, and pushes one unit back
    along the path it found. No flow arc points into a source: a new arc
    points into a node whose u_in the search scanned, and the search stops
    before it scans the source it found. So the flow never leads a search to
    a source, and a source u that carries no path is taken as soon as a
    neighbour scan reaches u_out, since u_out leads on only to u_in: any
    augmenting path will do, so this finds the same number of paths without
    scanning the rest of the layer.
    """
    nxt: dict[int, int] = {}
    for _ in range(k):
        par = {2 * t: -1}
        queue = [2 * t]
        found = -1
        for x in queue:
            u = x >> 1
            if x & 1:  # u_out is entered from u_in, or from the flow's w_in
                y = 2 * nxt.get(u, u)
                if y not in par:
                    par[y] = x
                    queue.append(y)
                continue
            if u in nxt and x + 1 not in par:  # back over u's used unit arc
                par[x + 1] = x
                queue.append(x + 1)
            for w in adj[u]:
                y = 2 * w + 1
                if y not in par and nxt.get(w) != u:
                    par[y] = x
                    if w in source and w not in nxt:  # w_out leads on only to w_in
                        par[2 * w] = y
                        found = 2 * w
                        break
                    queue.append(y)
            if found >= 0:
                break
        if found < 0:
            return False
        x = found
        while x != 2 * t:
            y = par[x]
            if x >> 1 != y >> 1:
                if x & 1:
                    nxt[x >> 1] = y >> 1
                else:  # w_in -> u_out cancels u_out -> w_in
                    del nxt[y >> 1]
            x = y
    return True


def _has_kth_path(adj: list[list[int]], t: int, placed: set[int]) -> bool:
    """_has_k_paths(adj, k, t, placed) for a node t outside `placed` with
    exactly k - 1 neighbours in it: True iff a path leads from t through
    nodes outside `placed` to a node of `placed` that is not t's neighbour.

    Given k paths from distinct placed nodes to t, sharing no node but t,
    cut each at the last placed node before t. The pieces still share no
    node but t and start at distinct placed nodes, and no placed node lies
    inside one. At most k - 1 of them start at t's placed neighbours, so one
    starts at another placed node s and reaches t through unplaced nodes
    only. Conversely, such a path from s and the k - 1 edges from t's
    placed neighbours are k paths from distinct placed nodes that share no
    node but t. So one breadth-first search from t decides it: it expands
    unplaced nodes only, with t's placed neighbours marked as seen, and
    stops at the first placed node it reaches.
    """
    seen = {t, *(w for w in adj[t] if w in placed)}
    queue = [t]
    for u in queue:
        for w in adj[u]:
            if w not in seen:
                if w in placed:
                    return True
                seen.add(w)
                queue.append(w)
    return False


def _greedy_clique(adj: list[list[int]], k: int, a: int) -> list[int]:
    """A clique of at most k + 1 nodes grown from a, without backtracking.

    Each step adds the candidate with the most neighbours among the other
    candidates (lowest id on ties), then keeps only its neighbours, so the
    work is at most k passes that intersect each of a's neighbours' lists
    with the candidates."""
    members, candidates = [a], set(adj[a])
    while len(members) <= k and candidates:
        v = max(candidates, key=lambda u: (len(candidates.intersection(adj[u])), -u))
        members.append(v)
        candidates.intersection_update(adj[v])
    return members


def _even_k_connected(indptr: np.ndarray, indices: np.ndarray,
                      adj: list[list[int]], k: int) -> bool:
    """Even's test (SIAM J. Comput. 4:393, 1975), the decision for every
    k >= 2 once n > k and the minimum degree is at least k; k = 1 is left to
    components, which are cheaper.

    For any order v_1..v_n, the graph is k-connected iff each non-adjacent
    pair among v_1..v_k has k internally disjoint paths, and each later v_j
    has k paths from distinct v_1..v_{j-1}, disjoint but for v_j. Non-adjacent
    a and b have k internally disjoint paths iff k paths from distinct
    neighbours of a reach b; G - a is not needed, since a path through a can
    start after it. A node with k earlier neighbours has k paths of length
    one, so the order is built to give most nodes that many:
    - it starts with a clique grown greedily from a highest-degree node, so
      its first k nodes are pairwise adjacent when the clique reaches k + 1
      nodes; otherwise it is topped up to k nodes as a stall would be;
    - each round then places, in one numpy step, every unplaced node that
      already has k placed neighbours; none of them needs a search;
    - when none has, it stalls: the unplaced node with the most placed
      neighbours (lowest id on ties) is placed after a search from the placed
      set. With k - 1 placed neighbours that search is one breadth-first
      search (_has_kth_path); with fewer it is the augmenting-path search.
      A node outside the placed nodes' component fails either search, so
      disconnected graphs need no separate pass.
    The graph is given as its CSR arrays and as their rows in `adj`.
    """
    n = indptr.size - 1
    degrees = np.diff(indptr)
    placed_nbrs = np.zeros(n, dtype=np.int64)
    placed: set[int] = set()

    def place(nodes) -> None:
        nodes = np.asarray(nodes)
        placed.update(nodes.tolist())
        if nodes.size == 1:  # one row holds no repeats
            placed_nbrs[indices[indptr[nodes[0]]:indptr[nodes[0] + 1]]] += 1
        else:
            lens = degrees[nodes]
            ends = lens.cumsum()
            at = np.repeat(indptr[nodes] - ends + lens, lens) + np.arange(ends[-1])
            np.add(placed_nbrs, np.bincount(indices[at], minlength=n), out=placed_nbrs)
        placed_nbrs[nodes] = -n  # below any unplaced count for good

    first = _greedy_clique(adj, k, int(degrees.argmax()))
    place(first)
    while len(first) < k:
        first.append(int(placed_nbrs.argmax()))
        place(first[-1:])
    for a, b in combinations(first[:k], 2):
        near_a = set(adj[a])
        if b not in near_a and not _has_k_paths(adj, k, b, near_a):
            return False
    while len(placed) < n:
        ready = np.flatnonzero(placed_nbrs >= k)
        if not ready.size:
            v = int(placed_nbrs.argmax())
            if not (_has_kth_path(adj, v, placed) if placed_nbrs[v] == k - 1
                    else _has_k_paths(adj, k, v, placed)):
                return False
            ready = [v]
        place(ready)
    return True


def vertex_connectivity(g: GraphTopology) -> int:
    """Exact vertex connectivity kappa; 0 for disconnected or single-node."""
    if not is_k_connected(g, 1):
        return 0
    kappa, delta = 1, min_degree(g)
    adj = _adjacency(g.indptr, g.indices)  # one adjacency serves every k
    while (g.n > kappa + 1 and delta > kappa
           and _even_k_connected(g.indptr, g.indices, adj, kappa + 1)):
        kappa += 1
    return kappa


def is_k_connected(g: GraphTopology, k: int) -> bool:
    """True iff n >= k+1 and the graph stays connected after removing any
    k-1 nodes (equivalently kappa >= k). Only Even's test, for k >= 2, reads
    the CSR; the checks before it read the edge array."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if g.n < k + 1 or min_degree(g) < k:
        return False
    if k == 1:
        return is_connected(g)
    return _even_k_connected(g.indptr, g.indices, _adjacency(g.indptr, g.indices), k)


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
