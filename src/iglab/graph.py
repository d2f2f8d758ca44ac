"""Immutable undirected simple graph on dense integer node ids.

The graph stores its edges once, as the sorted (E, 2) int64 array `pairs`
of distinct rows (i, j), i < j: the form every sampler produces. Its CSR
adjacency (`indptr`, `indices`, both directions of every edge, each row
sorted) is built from `pairs` on first access and kept. Every array is
read-only, so instances can be shared across threads; two threads that
reach a graph's CSR first may both build it, and build the same arrays.
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

    __slots__ = ("n", "pairs", "_csr_arrays")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise InvalidParameterError(f"node count must be non-negative, got {n}")
        n = int(n)
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
        keys = np.minimum(i, j)
        keys *= n
        keys += np.maximum(i, j)
        keys = keys_seen_at_least(keys, 1)  # rebinding frees the keys with repeats
        self._adopt(n, _split_keys(keys, n))

    def _adopt(self, n: int, pairs: np.ndarray) -> None:
        pairs.flags.writeable = False
        self.n, self.pairs, self._csr_arrays = n, pairs, None

    # -- queries ---------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        return self._ensure_csr()[0]

    @property
    def indices(self) -> np.ndarray:
        return self._ensure_csr()[1]

    def _ensure_csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr_arrays is None:
            self._csr_arrays = _csr(self.n, self.pairs)
        return self._csr_arrays

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as (i, j) tuples with i < j."""
        return frozenset(zip(*self.pairs.T.tolist()))

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            return False
        row = self._row(i)
        at = row.searchsorted(j, side="right")  # just past j, if the row holds it
        return bool(at and row[at - 1] == j)

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(self._row(i).tolist())

    def degree(self, i: int) -> int:
        return self._row(i).size

    def _row(self, i: int) -> np.ndarray:
        """Node i's neighbours, ascending: its row of the CSR."""
        if not 0 <= i < self.n:
            raise InvalidParameterError(f"node {i} out of range for n={self.n}")
        indptr, indices = self._ensure_csr()
        return indices[indptr[i]:indptr[i + 1]]

    def edge_count(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphTopology):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.pairs, other.pairs)

    def __hash__(self) -> int:
        return hash((self.n, self.pairs.tobytes()))

    def __repr__(self) -> str:
        return f"GraphTopology(n={self.n}, edges={self.edge_count()})"


def _from_pairs(n: int, pairs: np.ndarray) -> GraphTopology:
    """The graph whose `pairs` is `pairs`, kept and set read-only, for the
    internal producers of the constructor's canonical form: sorted, distinct
    int64 rows (i, j), 0 <= i < j < n. Nothing is checked."""
    g = object.__new__(GraphTopology)
    g._adopt(n, pairs)
    return g


def _split_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The pairs (key // n, key % n) of the keys, as an (E, 2) int64 array."""
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def _csr(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) over both directions of the distinct edges
    (i, j), i < j, that are the rows of `pairs`. One sort of the keys
    row * n + column orders every row. Both arrays are read-only."""
    i, j = pairs.T
    keys = np.concatenate((i * n + j, j * n + i))
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    keys -= keys // n * n  # keys % n; numpy's integer % by a scalar is slower
    indptr.flags.writeable = keys.flags.writeable = False
    return indptr, keys


def keys_seen_at_least(keys: np.ndarray, d: int) -> np.ndarray:
    """Sorted distinct values that occur at least d >= 1 times in `keys`.

    Sorts `keys` in place, so callers pass arrays they no longer need. For
    d >= 2 only the positions i with s[i] == s[i+d-1], which lie in runs at
    least d long, are gathered; then the first of each run of equal values
    is kept. np.unique(return_counts=True) gives the same values but hashes
    integer keys, which is many times slower.
    """
    keys.sort()
    if keys.size < d:
        return keys[:0]
    if d > 1:
        keys = keys[np.flatnonzero(keys[d - 1:] == keys[:keys.size - d + 1])]
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def intersect_graphs(g1: GraphTopology, g2: GraphTopology) -> GraphTopology:
    """Graph whose edge set is the intersection of the two edge sets."""
    if g1.n != g2.n:
        raise InvalidParameterError(f"node count mismatch: {g1.n} vs {g2.n}")
    n = g1.n
    keys1, keys2 = (pairs[:, 0] * n + pairs[:, 1] for pairs in (g1.pairs, g2.pairs))
    return _from_pairs(n, _split_keys(np.intersect1d(keys1, keys2, assume_unique=True), n))


def min_degree(g: GraphTopology) -> int:
    if g.n < 1:
        raise InvalidParameterError("min_degree requires at least one node")
    return int(np.bincount(g.pairs.ravel(), minlength=g.n).min())


def degree_histogram(g: GraphTopology) -> dict[int, int]:
    """Map degree value -> number of nodes with that degree."""
    counts = np.bincount(np.bincount(g.pairs.ravel(), minlength=g.n)).tolist()
    return {d: c for d, c in enumerate(counts) if c}


def component_labels(g: GraphTopology) -> tuple[int, np.ndarray]:
    """(number of components, component label of each node), labels numbered
    in order of each component's smallest node."""
    i, j = g.pairs.T
    roots = _component_roots(g.n, np.concatenate((i, j)), np.concatenate((j, i)))
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
    blocks = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return [set(b.tolist()) for b in blocks[:count]]  # no block when n = 0


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
