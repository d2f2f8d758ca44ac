"""Immutable undirected simple graph on dense integer node ids.

Each edge is stored once, as a row (i, j) with i < j of a sorted,
de-duplicated (E, 2) int64 array `pairs`, together with a CSR adjacency
(`indptr`, `indices`) over both directions whose rows are sorted. The arrays
are built once per graph and set read-only, so instances can be shared
freely across concurrent trial workers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import InvalidParameterError


class GraphTopology:
    """Undirected simple graph on nodes 0..n-1.

    `edges` may be any iterable of (i, j) pairs or an (E, 2) integer array;
    pairs are normalised to i < j and duplicates dropped.
    """

    __slots__ = ("n", "pairs", "indptr", "indices", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise InvalidParameterError(f"node count must be non-negative, got {n}")
        self.n = n = int(n)
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                          dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise InvalidParameterError(f"edges must be (i, j) pairs, got shape {ends.shape}")
        lo = np.minimum(ends[:, 0], ends[:, 1])
        hi = np.maximum(ends[:, 0], ends[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            i, j = ends[bad.argmax()].tolist()
            if i == j:
                raise InvalidParameterError(f"self-loop at node {i}")
            raise InvalidParameterError(f"edge ({i},{j}) out of range for n={n}")
        keys = keys_seen_at_least(lo * n + hi, 1)
        pairs = np.stack((keys // n, keys % n), axis=1)
        # both directions, sorted by (row, column)
        both = np.sort(np.concatenate((keys, pairs[:, 1] * n + pairs[:, 0])))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs.ravel(), minlength=n), out=indptr[1:])
        self.pairs, self.indptr, self.indices = pairs, indptr, both % n
        for a in (self.pairs, self.indptr, self.indices):
            a.flags.writeable = False
        self._edges: frozenset[tuple[int, int]] | None = None

    # -- queries ---------------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as (i, j) tuples with i < j, built on first use."""
        if self._edges is None:
            self._edges = frozenset(zip(self.pairs[:, 0].tolist(), self.pairs[:, 1].tolist()))
        return self._edges

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            return False
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        k = int(np.searchsorted(row, j))
        return k < row.size and bool(row[k] == j)

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def edge_count(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphTopology):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.pairs, other.pairs)

    def __hash__(self) -> int:
        return hash((self.n, self.pairs.tobytes()))

    def __repr__(self) -> str:
        return f"GraphTopology(n={self.n}, edges={len(self.pairs)})"


def keys_seen_at_least(keys: np.ndarray, d: int) -> np.ndarray:
    """Sorted distinct values that occur at least d >= 1 times in `keys`.

    One sort, then keep s[i] when it starts a run (s[i] != s[i-1]) that is
    at least d long (s[i] == s[i+d-1]). np.unique(return_counts=True) gives
    the same values but hashes integer keys, which is many times slower.
    """
    s = np.sort(keys)
    if s.size < d:
        return s[:0]
    head = s[:s.size - d + 1]
    keep = s[d - 1:] == head
    keep[1:] &= head[1:] != head[:-1]
    return head[keep]


class DegreeHistogram(dict):
    """Map degree value -> number of nodes with that degree."""


def intersect_graphs(g1: GraphTopology, g2: GraphTopology) -> GraphTopology:
    """Graph whose edge set is the intersection of the two edge sets."""
    if g1.n != g2.n:
        raise InvalidParameterError(
            f"node count mismatch: {g1.n} vs {g2.n}"
        )
    n = g1.n
    keys1, keys2 = (g.pairs[:, 0] * n + g.pairs[:, 1] for g in (g1, g2))
    common = np.intersect1d(keys1, keys2, assume_unique=True)
    return GraphTopology(n, np.stack((common // n, common % n), axis=1))


def min_degree(g: GraphTopology) -> int:
    if g.n < 1:
        raise InvalidParameterError("min_degree requires at least one node")
    return int(np.diff(g.indptr).min())


def degree_histogram(g: GraphTopology) -> DegreeHistogram:
    counts = np.bincount(np.diff(g.indptr)).tolist()
    return DegreeHistogram((d, c) for d, c in enumerate(counts) if c)


def component_labels(g: GraphTopology) -> tuple[int, np.ndarray]:
    """(number of components, component label of each node)."""
    adj = csr_array((np.ones(g.indices.size, dtype=np.int8), g.indices, g.indptr),
                    shape=(g.n, g.n))
    count, labels = _csgraph_components(adj, directed=False)
    return int(count), labels


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
