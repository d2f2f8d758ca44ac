"""Immutable undirected simple graph on dense integer node ids.

The graph is one CSR adjacency (`indptr`, `indices`) over both directions
of every edge, with each row sorted and free of repeats. It is built once
per graph and set read-only, so instances can be shared freely across
concurrent trial workers. `pairs` and `edges` are derived from it, not stored.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InvalidParameterError


class GraphTopology:
    """Undirected simple graph on nodes 0..n-1.

    `edges` may be any iterable of (i, j) integer pairs or an (E, 2) integer
    array; pairs are normalised to i < j and duplicates dropped.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise InvalidParameterError(f"node count must be non-negative, got {n}")
        self.n = n = int(n)
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if ends.size == 0:
            ends = np.empty((0, 2), dtype=np.int64)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise InvalidParameterError(f"edges must be (i, j) pairs, got shape {ends.shape}")
        if ends.dtype.kind not in "iu":
            raise InvalidParameterError(f"edges must be integer node ids, got {ends.dtype}")
        i, j = ends.astype(np.int64, copy=False).T
        bad = (i == j) | (i < 0) | (j < 0) | (i >= n) | (j >= n)
        if bad.any():
            i, j = ends[bad.argmax()].tolist()
            if i == j:
                raise InvalidParameterError(f"self-loop at node {i}")
            raise InvalidParameterError(f"edge ({i},{j}) out of range for n={n}")
        # one sort of the keys row * n + column of both directions drops the
        # repeats and orders every row
        keys = keys_seen_at_least(np.concatenate((i * n + j, j * n + i)), 1)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = keys % n
        for a in (self.indptr, self.indices):
            a.flags.writeable = False

    # -- queries ---------------------------------------------------------

    @property
    def pairs(self) -> np.ndarray:
        """The edges as a sorted (E, 2) int64 array of rows (i, j), i < j."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        return np.stack((rows[upper], self.indices[upper]), axis=1)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as (i, j) tuples with i < j."""
        return frozenset(zip(*self.pairs.T.tolist()))

    def has_edge(self, i: int, j: int) -> bool:
        return 0 <= i < self.n and 0 <= j < self.n and j in self.neighbors(i)

    def neighbors(self, i: int) -> frozenset[int]:
        if not 0 <= i < self.n:
            raise InvalidParameterError(f"node {i} out of range for n={self.n}")
        return frozenset(self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def edge_count(self) -> int:
        return self.indices.size // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphTopology):
            return NotImplemented
        # node v occurs deg(v) times in indices, so they fix indptr too
        return self.n == other.n and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"GraphTopology(n={self.n}, edges={self.edge_count()})"


def keys_seen_at_least(keys: np.ndarray, d: int) -> np.ndarray:
    """Sorted distinct values that occur at least d >= 1 times in `keys`.

    Sorts `keys` in place, so callers pass arrays they no longer need. Then
    s[i] is kept when it starts a run (s[i] != s[i-1]) at least d long
    (s[i] == s[i+d-1]). np.unique(return_counts=True) gives the same values
    but hashes integer keys, which is many times slower.
    """
    keys.sort()
    if keys.size < d:
        return keys[:0]
    head = keys[:keys.size - d + 1]
    keep = keys[d - 1:] == head
    keep[1:] &= head[1:] != head[:-1]
    return head[keep]


def intersect_graphs(g1: GraphTopology, g2: GraphTopology) -> GraphTopology:
    """Graph whose edge set is the intersection of the two edge sets."""
    if g1.n != g2.n:
        raise InvalidParameterError(f"node count mismatch: {g1.n} vs {g2.n}")
    n = g1.n
    keys1, keys2 = (pairs[:, 0] * n + pairs[:, 1] for pairs in (g1.pairs, g2.pairs))
    common = np.intersect1d(keys1, keys2, assume_unique=True)
    return GraphTopology(n, np.stack((common // n, common % n), axis=1))


def min_degree(g: GraphTopology) -> int:
    if g.n < 1:
        raise InvalidParameterError("min_degree requires at least one node")
    return int(np.diff(g.indptr).min())


def degree_histogram(g: GraphTopology) -> dict[int, int]:
    """Map degree value -> number of nodes with that degree."""
    counts = np.bincount(np.diff(g.indptr)).tolist()
    return {d: c for d, c in enumerate(counts) if c}


def component_labels(g: GraphTopology) -> tuple[int, np.ndarray]:
    """(number of components, component label of each node), labels numbered
    in order of each component's smallest node."""
    roots = _component_roots(g.n, np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices)
    smallest = roots == np.arange(g.n)
    return int(smallest.sum()), (np.cumsum(smallest) - 1)[roots]


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component, over the arcs (u[a], v[a])
    of a graph on nodes 0..n-1 that list every edge in both directions.

    FastSV hooking (Zhang, Azad & Hu, SIAM PP 2020): each round hooks both
    f[u] and u onto the smaller grandparent f[f[v]] across every arc (u, v),
    then jumps every node to its grandparent. Since f[x] <= x throughout, an
    edge whose ends' grandparents differ lowers one of them, so once no
    grandparent changes they are equal on every component and equal to its
    smallest node. Rounds grow about like log n, not like the diameter.
    """
    f = np.arange(n)
    gf = f.copy()
    while True:
        gv = gf[v]
        np.minimum.at(f, f[u], gv)
        np.minimum.at(f, u, gv)
        f = f[f]
        gf, last = f[f], gf
        if np.array_equal(gf, last):
            return gf


def connected_components(g: GraphTopology) -> list[set[int]]:
    """Maximal mutually-reachable node sets; disjoint cover of all nodes,
    ordered by smallest node."""
    count, labels = component_labels(g)
    order = np.argsort(labels, kind="stable")
    blocks = [set(b.tolist()) for b in np.split(order, np.cumsum(np.bincount(labels))[:-1])]
    return sorted(blocks, key=min) if count else []


# -- edge-list text format (CLI debug dump) ------------------------------

def dump_edge_list(g: GraphTopology) -> str:
    """Text form: header "n=<count>" then one "i j" line per edge, i < j."""
    lines = [f"n={g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.pairs.tolist())
    return "\n".join(lines) + "\n"


def load_edge_list(text: str) -> GraphTopology:
    header, *rows = text.splitlines() or [""]
    if not header.strip().startswith("n="):
        raise InvalidParameterError("edge list must start with 'n=<count>' header")
    try:
        n = int(header.strip()[2:])
        edges = [(int(i), int(j)) for i, j in (row.split() for row in rows if row.strip())]
    except ValueError as exc:
        raise InvalidParameterError(f"malformed edge list: {exc}") from None
    return GraphTopology(n, edges)
