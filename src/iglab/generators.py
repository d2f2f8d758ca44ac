"""Samplers for every random-graph family used by the model and its proof
machinery: uniform and binomial object-ring assignments, the d-overlap
graph, Erdos-Renyi layers, the full composed model, and the
binomial-to-uniform ring coupling.

All samplers take an explicit numpy Generator. Use trial_rng() to derive
deterministic per-trial streams from a base seed so trial i is reproducible
independently of trial ordering or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InfeasibleCouplingError, InvalidParameterError
from .graph import GraphTopology, _from_pairs, _split_keys, keys_seen_at_least
from .theory import ModelParams

# Sampler cutoff between rejection sampling and per-row partial shuffles;
# both are exact-uniform, the cutoff is performance-only. Rejection also
# needs K(K-1) <= 2P: a row of K iid draws is all-distinct with probability
# about exp(-K(K-1)/2P), so past that bound redraws would dominate.
_REJECTION_DENSITY_CUTOFF = 0.1

# Most within-object node pairs, sum over objects of C(U_i, 2), that
# _overlap_keys builds. graph_from_rings peaks (ru_maxrss rise over the
# RSS before the call, in a child at 6.5e6 and 2.0e7 pairs, n = 10^4) at
# ~6-7 bytes per pair for d >= 2 when the keys fit int32 and ~18 when they
# need int64, ~1.1 GB at the budget; for d = 1, where nearly every pair is
# an edge, at ~19 and ~25, and at ~20 bytes per edge under tracemalloc.
# The largest count any test or benchmark workload reaches is ~5.0e5
# (n = 1000, K = 100, P = 10^4), 120 times below; n = 10^5, K = 100,
# P = 10^4 would need ~5e9.
_PAIR_KEY_BUDGET = 60_000_000


def trial_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Counter-based (Philox) stream keyed by (base_seed, path).

    Distinct paths give statistically independent streams, so concurrent
    trials never share state. A negative seed or path element raises
    InvalidParameterError.
    """
    if base_seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {base_seed}")
    if any(p < 0 for p in path):
        raise InvalidParameterError(f"stream path elements must be >= 0, got {path}")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class ObjectAssignment:
    """Per-node object rings drawn from the pool {0..pool_size-1}."""

    rings: np.ndarray | list  # sorted integer rings: an (n, K) matrix or one array per node
    pool_size: int

    @property
    def node_count(self) -> int:
        return len(self.rings)

    def ring_sets(self) -> list[set[int]]:
        return [set(map(int, r)) for r in self.rings]


@dataclass
class HalfCountSummary:
    """Per-object node counts U_i."""

    u_counts: np.ndarray


def _ring_members(assign: ObjectAssignment) -> tuple[np.ndarray, np.ndarray]:
    """(objects, lens): the rings of nodes 0, 1, ... back to back and each
    ring's size. Raises InvalidParameterError for objects outside the pool."""
    rings = assign.rings
    if isinstance(rings, np.ndarray):
        objects, lens = rings.ravel(), np.full(len(rings), rings.shape[1])
    else:
        objects = np.concatenate([np.empty(0, np.int64), *rings])
        lens = np.fromiter(map(len, rings), dtype=np.int64, count=len(rings))
    if objects.size and not (0 <= objects.min() and objects.max() < assign.pool_size):
        raise InvalidParameterError(f"ring objects must lie in 0..{assign.pool_size - 1}, "
                                    f"got {objects.min()}..{objects.max()}")
    return objects, lens


def half_count_summary(assign: ObjectAssignment) -> HalfCountSummary:
    return HalfCountSummary(
        u_counts=np.bincount(_ring_members(assign)[0], minlength=assign.pool_size))


# -- ring samplers ---------------------------------------------------------

def _uniform_row_blocks(n: int, P: int, rng: np.random.Generator):
    """The rows of an n x P matrix of iid U[0, 1) draws, in blocks of about
    2^20 entries (8 MB), so a large n x P never has to fit in memory. The
    generator fills blocks in row order: the draws do not depend on the
    block size."""
    rows = max(1, (1 << 20) // P)
    for start in range(0, n, rows):
        yield rng.random((min(rows, n - start), P))


def _smallest_k(keys: np.ndarray, K: int) -> np.ndarray:
    """Sorted column indices of the K smallest entries of each row. On iid
    uniform rows, each row's indices are a uniform K-subset."""
    return np.sort(np.argpartition(keys, K - 1, axis=1)[:, :K], axis=1)


def gen_object_rings_uniform(n: int, K: int, P: int,
                             rng: np.random.Generator) -> ObjectAssignment:
    """Independent uniform K-subsets of {0..P-1}, one per node: the rows of
    an (n, K) integer matrix, each sorted ascending; int32 from the rejection
    sampler when P <= 2^31, else int64."""
    if not (1 <= K <= P):
        raise InvalidParameterError(f"need 1 <= K <= P, got K={K}, P={P}")
    if n < 0:
        raise InvalidParameterError(f"n must be non-negative, got {n}")
    if K / P <= _REJECTION_DENSITY_CUTOFF and K * (K - 1) <= 2 * P:
        # iid draws conditioned on all-distinct rows == uniform K-subset;
        # only the rows just redrawn can still repeat an object. Sorted rows
        # repeat one where the flat matrix equals itself shifted by one, at
        # any offset but a row's last. (np.unique would find the rows too,
        # but its first call imports numpy.ma, ~1 MB of resident memory.)
        # An int32 draw below P <= 2^31 gives the int64 draw's values from the
        # same stretch of the stream, in half the bytes to sort.
        ring = np.int32 if P <= 1 << 31 else np.int64
        mat = rng.integers(0, P, size=(n, K), dtype=ring)
        mat.sort(axis=1)
        flat = mat.ravel()
        same = np.flatnonzero(flat[1:] == flat[:-1])
        repeats = np.zeros(n, dtype=bool)
        repeats[same[same % K != K - 1] // K] = True
        redraw = np.flatnonzero(repeats)
        while redraw.size:
            mat[redraw] = np.sort(rng.integers(0, P, size=(redraw.size, K), dtype=ring), axis=1)
            drawn = mat[redraw]
            redraw = redraw[(drawn[:, 1:] == drawn[:, :-1]).any(axis=1)]
    else:
        mat = np.concatenate([np.empty((0, K), np.int64),
                              *(_smallest_k(keys, K) for keys in _uniform_row_blocks(n, P, rng))])
    return ObjectAssignment(rings=mat, pool_size=P)


def gen_object_rings_binomial(n: int, x: float, P: int,
                              rng: np.random.Generator) -> ObjectAssignment:
    """Each (node, object) membership an independent Bernoulli(x) draw."""
    if not (0.0 <= x <= 1.0):
        raise InvalidParameterError(f"x must be in [0,1], got {x}")
    if P < 1:
        raise InvalidParameterError(f"P must be >= 1, got {P}")
    if n < 0:
        raise InvalidParameterError(f"n must be non-negative, got {n}")
    rings = [np.nonzero(row)[0] for keys in _uniform_row_blocks(n, P, rng)
             for row in keys < x]
    return ObjectAssignment(rings=rings, pool_size=P)


# -- overlap graph ---------------------------------------------------------

def _overlap_keys(assign: ObjectAssignment, d: int) -> np.ndarray:
    """Sorted keys i * n + j, i < j, of the node pairs whose rings share >= d
    objects; int32 when every key fits, else int64.

    Inverted-index counting: one sort of the keys obj * n + node groups the
    ring memberships by object, with node ids ascending inside each object.
    Every two members lo < hi of an object give the key lo * n + hi, and the
    keys seen at least d times are the edges. Same graph as pairwise set
    intersection, much cheaper in the sparse regime. Raises
    InvalidParameterError, before any pair is built, when the pairs number
    more than _PAIR_KEY_BUDGET.
    """
    objects, lens = _ring_members(assign)
    n, P = lens.size, assign.pool_size
    counts = np.bincount(objects, minlength=P)
    pair_keys = int((counts * (counts - 1) // 2).sum())
    if pair_keys > _PAIR_KEY_BUDGET:
        raise InvalidParameterError(
            f"the rings give {pair_keys} within-object node pairs, above the "
            f"budget of {_PAIR_KEY_BUDGET}; lower n or K, or raise P")
    # every key is below n * max(n, P) and every offset into the keys below
    # pair_keys; int32 halves the bytes each sort moves
    key = np.int32 if max(n * max(n, P), pair_keys) <= 1 << 31 else np.int64
    members = np.sort(objects.astype(key, copy=False) * n
                      + np.repeat(np.arange(n, dtype=key), lens))
    # the member nodes, key % n: numpy's integer % by a scalar takes several
    # times as long as a floor division, a multiply and a subtraction
    members -= members // n * n
    return keys_seen_at_least(_member_pair_keys(members, counts, n, pair_keys), d)


def _member_pair_keys(members: np.ndarray, counts: np.ndarray, n: int,
                      pair_keys: int) -> np.ndarray:
    """The pair_keys keys lo * n + hi, one for every two members lo < hi of
    an object, in no set order and of the dtype of `members`. `members` holds
    the member nodes of object 0, then of object 1, and so on, each object's
    ascending; counts[o] is how many object o has.

    The keys are written one member column at a time. Taken largest first,
    the objects with a j-th member (from 0) are the first have[j + 1], and one
    broadcast add pairs the j-th member of each with its first j members,
    read from a matrix of the earlier columns times n. That matrix keeps only
    as many columns as fit in the keys' own size; past them, a column's
    earlier members are gathered per object into its block of keys, so peak
    memory stays a small multiple of the keys on any ring set.
    """
    # first[r]: where the r-th largest object's members start in `members`;
    # have[s]: how many objects have at least s members
    first = (np.cumsum(counts) - counts)[np.argsort(-counts)]
    have = np.cumsum(np.bincount(counts, minlength=3)[::-1])[::-1]
    paired = int(have[2])  # objects with two members or more
    widest = have.size - 2  # the most earlier members a column pairs with
    kept = min(widest, pair_keys // max(paired, 1))
    # earlier[i, r]: member i of the r-th largest object, times n
    earlier = np.empty((kept, paired), dtype=members.dtype)
    if kept < widest:
        # window[p, i]: members[p + i], padded so every object's row fits
        window = sliding_window_view(np.pad(members, (0, widest)), widest)
    keys = np.empty(pair_keys, dtype=members.dtype)
    end = 0
    for j in range(have.size - 1):
        h = int(min(have[j + 1], paired))  # a lone member pairs with no one
        col = members[first[:h] + j]
        if j <= kept:
            np.add(earlier[:j, :h], col, out=keys[end:end + j * h].reshape(j, h))
        else:
            block = keys[end:end + j * h].reshape(h, j)
            np.multiply(window[first[:h], :j], n, out=block)
            block += col[:, None]
        if j < kept:
            np.multiply(col, n, out=earlier[j, :h])
        end += j * h
    return keys


def _check_expected_pairs(n: int, K: int, P: int) -> None:
    """Refuse, before any ring is drawn, rings of K of P objects on n nodes
    whose expected within-object node pairs, E[sum over objects of
    C(U_i, 2)] = P * C(n, 2) * (K/P)^2, exceed _PAIR_KEY_BUDGET."""
    expected = P * math.comb(n, 2) * (K / P) ** 2
    if expected > _PAIR_KEY_BUDGET:
        raise InvalidParameterError(
            f"rings of K={K} of P={P} objects on n={n} nodes give about "
            f"{expected:.3g} within-object node pairs, above the budget of "
            f"{_PAIR_KEY_BUDGET}; lower n or K, or raise P")


def graph_from_rings(assign: ObjectAssignment, d: int) -> GraphTopology:
    """Edge (i, j) iff rings i and j share at least d objects."""
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    n = assign.node_count
    return _from_pairs(n, _split_keys(_overlap_keys(assign, d), n))


# -- Erdos-Renyi -----------------------------------------------------------

def _decode_pair_index(q: np.ndarray, n: int) -> np.ndarray:
    """Invert the lexicographic (i<j) pair index i*(2n-i-1)/2 + (j-i-1)."""
    rows = np.arange(n, dtype=np.int64)
    first = rows * (2 * n - rows - 1) // 2  # index of the pair (i, i + 1)
    i = np.searchsorted(first, q, side="right") - 1
    return np.stack((i, q - first[i] + i + 1), axis=1)


def gen_er(n: int, p: float, rng: np.random.Generator) -> GraphTopology:
    """Erdos-Renyi G(n, p): each of the C(n,2) edges present independently
    with probability p. Drawn as a Bin(C(n,2), p) count of pair indices,
    taken uniformly without replacement by numpy's sampler: Floyd's
    algorithm in O(edge count), except past 1/20 of more than 10^4 pairs,
    where it shuffles the tail of all C(n,2) indices, 8 B each."""
    if n < 0:
        raise InvalidParameterError(f"n must be non-negative, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError(f"p must be in [0,1], got {p}")
    m_pairs = n * (n - 1) // 2
    idx = rng.choice(m_pairs, size=rng.binomial(m_pairs, p), replace=False, shuffle=False)
    # increasing pair indices decode to pairs in ascending order
    idx.sort()
    return _from_pairs(n, _decode_pair_index(idx, n))


# -- full model ------------------------------------------------------------

def gen_model_graph(params: ModelParams, rng: np.random.Generator) -> GraphTopology:
    """Sample the composed model: d-overlap graph thinned by friendship and
    link survival, i.e. distributed as G_d(n,K,P) intersected with an
    Erdos-Renyi layer at p = f*g. Only the overlap edges are thinned, the
    intersection never looks at other pairs, and they are thinned as keys,
    before they are split into pairs."""
    n, K, P = params.n, params.K, params.P
    _check_expected_pairs(n, K, P)
    keys = _overlap_keys(gen_object_rings_uniform(n, K, P, rng), params.d)
    if params.p < 1.0:
        keys = keys[rng.random(keys.size) < params.p]
    return _from_pairs(n, _split_keys(keys, n))


# -- coupling machinery ------------------------------------------------------

@dataclass
class CouplingThreshold:
    x: float
    admissible: bool  # K >= x*P + sqrt(3*(x*P + ln n)*ln n)


def coupling_threshold_x(K: int, P: int, n: int) -> CouplingThreshold:
    """Binomial membership probability x = (K/P)(1 - sqrt(3 ln n / K)) under
    which the binomial-ring graph is dominated by the uniform-ring graph."""
    if n < 2 or K < 1 or P < K:
        raise InvalidParameterError(f"need n >= 2 and 1 <= K <= P, got n={n}, K={K}, P={P}")
    ln_n = math.log(n)
    if K <= 3 * ln_n:
        raise InfeasibleCouplingError(
            f"coupling infeasible: K={K} <= 3 ln n = {3 * ln_n:.4f}"
        )
    x = (K / P) * (1.0 - math.sqrt(3.0 * ln_n / K))
    admissible = K >= x * P + math.sqrt(3.0 * (x * P + ln_n) * ln_n)
    return CouplingThreshold(x=x, admissible=admissible)


@dataclass
class CoupledPair:
    h: GraphTopology  # binomial-ring overlap graph
    g: GraphTopology  # uniform-ring overlap graph from the same uniforms
    coupling_valid: bool  # every binomial ring fit inside size K
    x: float


def gen_coupled_pair(n: int, K: int, P: int, d: int,
                     rng: np.random.Generator) -> CoupledPair:
    """Joint sample of the binomial-ring graph H and a uniform-K-ring graph G
    on one probability space.

    Both ring sets come from one n x P matrix of iid U[0, 1) draws. H's ring
    of a node is the objects whose entry is below the coupling threshold x,
    G's ring is the objects with the K smallest entries. So each H ring is a
    Bernoulli(x) subset and each G ring a uniform K-subset, and an H ring of
    at most K objects lies inside its G ring. H's edges are then contained in
    G's whenever no H ring has more than K objects (coupling_valid).
    Like gen_model_graph, it refuses before the draw when G's expected
    within-object pairs, which bound H's since x < K/P, exceed the budget.
    """
    thr = coupling_threshold_x(K, P, n)
    _check_expected_pairs(n, K, P)
    rings_b, blocks_u = [], []
    for keys in _uniform_row_blocks(n, P, rng):
        rings_b.extend(np.nonzero(row)[0] for row in keys < thr.x)
        blocks_u.append(_smallest_k(keys, K))
    h = graph_from_rings(ObjectAssignment(rings=rings_b, pool_size=P), d)
    g = graph_from_rings(ObjectAssignment(rings=np.concatenate(blocks_u), pool_size=P), d)
    valid = max(map(len, rings_b)) <= K
    return CoupledPair(h=h, g=g, coupling_valid=valid, x=thr.x)
