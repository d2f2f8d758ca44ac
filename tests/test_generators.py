import math
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iglab.errors import (
    InfeasibleCouplingError,
    InvalidParameterError,
)
from iglab.generators import (
    ObjectAssignment,
    _decode_pair_index,
    coupling_threshold_x,
    gen_coupled_pair,
    gen_er,
    gen_model_graph,
    gen_object_rings_binomial,
    gen_object_rings_uniform,
    graph_from_rings,
    half_count_summary,
    trial_rng,
)
from iglab.graph import GraphTopology
from iglab.theory import ModelParams, edge_prob_model, edge_prob_overlap


def assignment(*rings, pool):
    return ObjectAssignment(
        rings=[np.array(sorted(r), dtype=np.int64) for r in rings], pool_size=pool
    )


def test_trial_rng_deterministic_and_disjoint():
    a = trial_rng(42, 3).integers(0, 1 << 30, 8)
    b = trial_rng(42, 3).integers(0, 1 << 30, 8)
    c = trial_rng(42, 4).integers(0, 1 << 30, 8)
    assert (a == b).all()
    assert (a != c).any()


@pytest.mark.parametrize("seed, path", [(-1, ()), (0, (3, -2))])
def test_trial_rng_rejects_negative_seed_or_path(seed, path):
    with pytest.raises(InvalidParameterError, match="must be >= 0"):
        trial_rng(seed, *path)


# -- uniform rings -----------------------------------------------------------

def test_uniform_rings_sizes_and_full_pool():
    rng = trial_rng(1, 0)
    assign = gen_object_rings_uniform(50, 4, 30, rng)
    assert all(len(r) == 4 and len(set(r)) == 4 for r in assign.rings)
    full = gen_object_rings_uniform(10, 7, 7, trial_rng(1, 1))
    assert all(set(r) == set(range(7)) for r in full.rings)


def test_uniform_rings_dense_branch():
    # K/P > 0.1 takes the partial-shuffle path; still exact K-subsets
    assign = gen_object_rings_uniform(200, 5, 12, trial_rng(2, 0))
    assert all(len(set(r)) == 5 and max(r) < 12 for r in assign.rings)


@pytest.mark.parametrize("P", [4000, 10 ** 4, 2 ** 31 - 1, 2 ** 31])
def test_int32_ring_draw_matches_the_int64_draw(P):
    # The rejection sampler draws its ring matrix as int32. Its values, and
    # where it leaves the stream, must be those of the int64 draw, or every
    # seed's rings and thinning draws (and so every CSV) would change. Odd
    # sizes leave half of a 64-bit word unused.
    wide, narrow = trial_rng(21, P % 997), trial_rng(21, P % 997)
    for size in [(300, 38), (7, 3), (1, 1)]:
        drawn = narrow.integers(0, P, size=size, dtype=np.int32)
        assert drawn.dtype == np.int32
        assert np.array_equal(wide.integers(0, P, size=size, dtype=np.int64), drawn)
        assert wide.random() == narrow.random()
    rings = gen_object_rings_uniform(50, 3, P, trial_rng(22)).rings
    assert rings.dtype == np.int32 and rings.max() < P


def test_uniform_rings_inclusion_frequency():
    n, K, P = 40000, 3, 10
    assign = gen_object_rings_uniform(n, K, P, trial_rng(3, 0))
    counts = np.bincount(np.concatenate(assign.rings), minlength=P)
    expect = n * K / P
    sigma = math.sqrt(n * (K / P) * (1 - K / P))
    assert np.all(np.abs(counts - expect) < 4 * sigma)


def test_uniform_rings_large_rings_in_sparse_pool_finish():
    # K/P = 0.05 but K(K-1)/2P = 12.5: a row of iid draws is all-distinct with
    # probability ~e^-12.5, so rejection sampling redraws each row ~3e5 times.
    # Run in a child process so a hang fails the test instead of stalling the suite.
    code = (
        "import numpy as np\n"
        "from iglab.generators import gen_object_rings_uniform, trial_rng\n"
        "a = gen_object_rings_uniform(10, 500, 10 ** 4, trial_rng(4, 0))\n"
        "assert len(a.rings) == 10\n"
        "for r in a.rings:\n"
        "    assert len(r) == 500 and (np.diff(r) > 0).all() and 0 <= r[0] and r[-1] < 10 ** 4\n"
    )
    try:
        done = subprocess.run([sys.executable, "-c", code], timeout=20,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        pytest.fail("gen_object_rings_uniform(10, 500, 10**4) did not finish in 20 s")
    assert done.returncode == 0, done.stderr


def test_overlap_pair_budget_fails_fast(tmp_path):
    # n = 10^5, K = 100, P = 10^4 puts ~1000 nodes on each object, so the
    # within-object node pairs number ~5e9 (40 GB as int64 keys alone). The run must stop
    # with exit 2 before building them. The child's address space is capped,
    # so a build that does start ends in MemoryError, not the OOM killer.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from iglab.cli import main\n"
        "sys.exit(main(['simulate', '-n', '100000', '-K', '100', '-P', '10000',\n"
        "               '-d', '2', '--trials', '1', '--workers', '1',\n"
        "               '--out', sys.argv[1]]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run.csv")],
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "within-object node pairs" in done.stderr


@pytest.mark.parametrize("argv", [
    "'simulate', '-n', '100000', '-K', '500', '-P', '10000', '-d', '2',"
    " '--trials', '1', '--workers', '1', '--out', sys.argv[1]",
    "'verify', 'coupling', '-n', '100000', '-K', '500', '-P', '10000', '-d', '2',"
    " '--trials', '1'",
], ids=["simulate", "verify-coupling"])
def test_oversized_model_refused_before_ring_draw(argv, tmp_path):
    # n = 10^5, K = 500, P = 10^4 expects P * C(n, 2) * (K/P)^2 ~ 1.25e11
    # within-object node pairs. Its dense rings alone look at 10^9 uniforms
    # (~17 s), so both the composed model and the coupling must refuse
    # before drawing any ring.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from iglab.cli import main\n"
        f"sys.exit(main([{argv}]))\n"
    )
    try:
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run.csv")],
                              timeout=10, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        pytest.fail(f"main([{argv}]) was not refused within 10 s")
    assert done.returncode == 2, done.stderr
    assert "within-object node pairs" in done.stderr


@pytest.mark.parametrize("call", [
    "graph_from_rings(gen_object_rings_uniform(20000, 500, 10000, trial_rng(0, 0)), 2)",
    "graph_from_rings(gen_object_rings_binomial(20000, 0.0378, 10000, trial_rng(0, 0)), 2)",
    "main(['verify', 'coupling', '-n', '20000', '-K', '500', '-P', '10000', '-d', '2',"
    " '--trials', '1'])",
], ids=["uniform", "binomial", "coupling-refused-before-draw"])
def test_dense_ring_draws_fit_before_pair_budget(call):
    # K = 500 of P = 10^4 takes the dense uniform branch, and binomial rings
    # at x = 0.0378 hold about as many objects: both look at n x P = 2e8
    # uniforms (1.5 GiB as one float64 matrix). Drawn in row blocks, the
    # rings fit under the child's 1.5 GiB address-space cap, and the pair
    # budget refuses them (exit 2). verify coupling at the same size is
    # refused by the expected-pair check before it draws any ring.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from iglab.cli import main\n"
        "from iglab.errors import InvalidParameterError\n"
        "from iglab.generators import (gen_object_rings_binomial, gen_object_rings_uniform,\n"
        "                              graph_from_rings, trial_rng)\n"
        "try:\n"
        f"    sys.exit({call})\n"
        "except InvalidParameterError as exc:\n"
        "    print(exc, file=sys.stderr)\n"
        "    sys.exit(2)\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "within-object node pairs" in done.stderr


def test_pair_build_memory_on_skewed_rings():
    # Object 0 is in 4,000 of the 20,000 rings (8.0e6 of the 8.1e6 pair
    # keys), the rest of the objects in about two each. A matrix of earlier
    # member columns as wide as object 0's 4,000 members took 93 bytes per
    # pair key in a trial build; the pair build must stay within 16 (int32
    # keys). Measured as the ru_maxrss rise over the call, in a child so
    # that the suite's own peak does not hide it.
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from iglab.generators import (ObjectAssignment, gen_object_rings_uniform,\n"
        "                              graph_from_rings, trial_rng)\n"
        "n, P = 20000, 10 ** 5\n"
        "rings = gen_object_rings_uniform(n, 8, P - 1, trial_rng(5, 0)).rings + 1\n"
        "rings[:4000, 0] = 0\n"
        "counts = np.bincount(rings.ravel())\n"
        "pair_keys = int((counts * (counts - 1) // 2).sum())\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "pairs = graph_from_rings(ObjectAssignment(rings=rings, pool_size=P), 2).pairs\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(pair_keys, len(pairs), (after - before) * 1024 / pair_keys)\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    pair_keys, edges, per_pair = done.stdout.split()
    assert int(pair_keys) > 8_000_000 and int(edges) > 0
    assert float(per_pair) <= 16, f"{per_pair} bytes per pair key"


def test_uniform_rings_validation():
    with pytest.raises(InvalidParameterError):
        gen_object_rings_uniform(5, 4, 3, trial_rng(0, 0))


@pytest.mark.parametrize("draw", [lambda rng: gen_er(-1, 0.5, rng),
                                  lambda rng: gen_er(-2, 1.0, rng),
                                  lambda rng: gen_er(-3, 0.5, rng),
                                  lambda rng: gen_object_rings_binomial(-1, 0.5, 10, rng)],
                         ids=["er-1", "er-2-full", "er-3", "binomial-1"])
def test_samplers_refuse_negative_node_counts(draw):
    with pytest.raises(InvalidParameterError, match="n must be non-negative"):
        draw(trial_rng(0, 0))


# -- overlap graph -------------------------------------------------------------

def test_graph_from_rings_hand_examples():
    a = assignment({0, 1}, {1, 2}, {2, 3}, pool=5)
    assert graph_from_rings(a, 1).edges == {(0, 1), (1, 2)}
    assert graph_from_rings(a, 3).edges == frozenset()  # d above ring sizes
    same = assignment({0, 1, 2}, {0, 1, 2}, {0, 1, 2}, pool=5)
    assert graph_from_rings(same, 2).edges == set(combinations(range(3), 2))
    apart = assignment({0}, {1, 2}, {3}, {4}, pool=5)  # no object shared
    assert graph_from_rings(apart, 1).edges == frozenset()
    gaps = assignment(set(), {0, 1}, set(), {1, 2}, {0, 1, 2}, set(), pool=4)
    assert graph_from_rings(gaps, 1).edges == {(1, 3), (1, 4), (3, 4)}
    assert graph_from_rings(gaps, 2).edges == {(1, 4), (3, 4)}
    # no node, one node, and rings with no object at all give no edge
    for n, rings in [(0, np.empty((0, 3), dtype=np.int64)), (0, []),
                     (1, np.array([[0, 1, 2]])), (1, [np.array([0, 1])]),
                     (3, [np.empty(0, dtype=np.int64)] * 3)]:
        assign = ObjectAssignment(rings=rings, pool_size=3)
        for d in (1, 2):
            assert graph_from_rings(assign, d) == GraphTopology(n)


def test_graph_from_rings_matches_pairwise_intersection():
    rng = trial_rng(11, 0)
    assign = gen_object_rings_uniform(30, 4, 15, rng)
    for d in (1, 2, 3):
        g = graph_from_rings(assign, d)
        sets = assign.ring_sets()
        expect = {(i, j) for i in range(30) for j in range(i + 1, 30)
                  if len(sets[i] & sets[j]) >= d}
        assert g.edges == expect


@st.composite
def ragged_rings(draw):
    """(P, rings): one ring per node as a set of objects of 0..P-1. The
    first ring holds every object and the last none; a crowd of nodes that
    hold object 0 alone can make that object far larger than the rest."""
    P = draw(st.integers(1, 12))
    middle = draw(st.lists(st.sets(st.integers(0, P - 1), max_size=P), max_size=30))
    crowd = draw(st.integers(0, 30))
    return P, [set(range(P)), *middle, *[{0}] * crowd, set()]


@settings(max_examples=150, deadline=None)
@given(ragged_rings())
# object 0 has 21 members and objects 1..30 two or three, 296 pair keys
# over 31 objects: the earlier-column matrix keeps 296 // 31 = 9 columns,
# so columns 10..20 of object 0 are gathered
@example((31, [set(range(31)), *({k, k + 1} for k in range(1, 30)), *[{0}] * 20, set()]))
def test_overlap_pairs_match_pairwise_intersection_on_ragged_rings(case):
    P, rings = case
    assign = assignment(*rings, pool=P)
    for d in (1, 2, 3):
        expect = [(i, j) for i, j in combinations(range(len(rings)), 2)
                  if len(rings[i] & rings[j]) >= d]
        got = graph_from_rings(assign, d).pairs
        assert got.dtype == np.int64
        assert got.tolist() == [list(e) for e in expect]


def _pairwise_overlap_pairs(rings, d):
    """Reference edge list: the pairs (i, j), i < j, whose rings share at
    least d objects, read off the matrix of pairwise intersection sizes."""
    used, cols = np.unique(np.concatenate(rings), return_inverse=True)
    member = np.zeros((len(rings), used.size))
    member[np.repeat(np.arange(len(rings)), [len(r) for r in rings]), cols] = 1
    i, j = np.nonzero(np.triu(member @ member.T >= d, 1))
    return np.stack((i, j), axis=1)


@pytest.mark.parametrize("n, P", [(2200, 10 ** 6), (2048, 2 ** 20)],
                         ids=["past-int32", "at-int32-bound"])
def test_overlap_pairs_match_pairwise_intersection_in_both_key_widths(n, P):
    # The keys obj * n + node and lo * n + hi stay below n * max(n, P): past
    # 2^31 they need int64, at 2^31 int32 still holds them. The rings use
    # the top 60 objects, so overlaps of 1, 2 and 3 are all common, and the
    # last node holds object P - 1, which makes the largest key n * P - 1.
    rng = trial_rng(13, n)
    rings = [np.sort(rng.choice(60, 3, replace=False)) + P - 60 for _ in range(n - 1)]
    rings.append(np.array([P - 3, P - 2, P - 1]))
    assign = ObjectAssignment(rings=rings, pool_size=P)
    for d in (1, 2, 3):
        expect = _pairwise_overlap_pairs(rings, d)
        assert len(expect) > 0
        assert np.array_equal(graph_from_rings(assign, d).pairs, expect)


def _reference_model_graph(params, rng):
    """gen_model_graph rebuilt from its definition on the same draws: one
    sorted ring per node (rejection over the whole matrix, or the K smallest
    of P uniforms per row), pairwise intersections, then friendship and link
    thinning of the sorted pairs."""
    n, K, P = params.n, params.K, params.P
    if K / P <= 0.1 and K * (K - 1) <= 2 * P:
        mat = np.sort(rng.integers(0, P, size=(n, K), dtype=np.int64), axis=1)
        while (bad := np.nonzero((np.diff(mat, axis=1) == 0).any(axis=1))[0]).size:
            mat[bad] = np.sort(rng.integers(0, P, size=(bad.size, K), dtype=np.int64), axis=1)
    else:
        mat = np.argsort(rng.random((n, P)), axis=1)[:, :K]
    pairs = _pairwise_overlap_pairs(list(np.sort(mat, axis=1)), params.d)
    return GraphTopology(n, pairs[rng.random(len(pairs)) < params.p])


@pytest.mark.parametrize("n, K, P", [(300, 10, 100), (300, 12, 100), (500, 120, 5000)],
                         ids=["rejection", "dense", "dense-blocks"])
def test_gen_model_graph_matches_reference_on_fixed_seeds(n, K, P):
    for d in (1, 2, 3):
        params = ModelParams(n=n, K=K, P=P, d=d, f=0.9, g=0.7)
        for i in range(2):
            g = gen_model_graph(params, trial_rng(34, d, i))
            assert g.edge_count() > 0
            assert g == _reference_model_graph(params, trial_rng(34, d, i))
        # unthinned, the model graph is the public ring sampler and overlap
        # graph on the same stream
        unthinned = ModelParams(n=n, K=K, P=P, d=d, f=1.0, g=1.0)
        assert gen_model_graph(unthinned, trial_rng(35, d)) == graph_from_rings(
            gen_object_rings_uniform(n, K, P, trial_rng(35, d)), d)


@pytest.mark.parametrize("bad", [1_100_000, -1], ids=["above-pool", "negative"])
@pytest.mark.parametrize("form", [list, np.array], ids=["ring-list", "ring-matrix"])
def test_ring_objects_outside_the_pool_are_refused(bad, form):
    # Pair keys are sized from n * max(n, P), so an object at or above P
    # would overflow int32 keys and drop or invent edges (nodes 0 and 1 share
    # both objects), and a negative object would fail inside bincount.
    n, P = 2000, 10 ** 6
    rings = [sorted({5, bad})] * 2 + [[2 * v + 7, 2 * v + 8] for v in range(2, n)]
    assign = ObjectAssignment(rings=form([np.array(r) for r in rings]), pool_size=P)
    with pytest.raises(InvalidParameterError, match="ring objects"):
        graph_from_rings(assign, 2)
    with pytest.raises(InvalidParameterError, match="ring objects"):
        half_count_summary(assign)


def test_graph_from_rings_object_label_invariance():
    rng = trial_rng(12, 0)
    assign = gen_object_rings_uniform(20, 3, 9, rng)
    perm = trial_rng(12, 1).permutation(9)
    permuted = ObjectAssignment(
        rings=[np.sort(perm[r]) for r in assign.rings], pool_size=9
    )
    assert graph_from_rings(assign, 2) == graph_from_rings(permuted, 2)


# -- Erdos-Renyi ----------------------------------------------------------------

def test_decode_pair_index_roundtrip():
    for n in (2, 3, 7, 50, 1000):
        m = n * (n - 1) // 2
        idx = np.arange(m) if m < 3000 else np.linspace(0, m - 1, 2500, dtype=np.int64)
        pairs = _decode_pair_index(idx, n)
        back = pairs[:, 0] * (2 * n - pairs[:, 0] - 1) // 2 + (pairs[:, 1] - pairs[:, 0] - 1)
        assert (back == idx).all()
        assert (pairs[:, 0] < pairs[:, 1]).all()


def test_gen_er_endpoints():
    assert gen_er(6, 0.0, trial_rng(0, 0)).edges == frozenset()
    assert len(gen_er(6, 1.0, trial_rng(0, 0)).edges) == 15


def test_gen_er_edge_count_statistics():
    totals = [gen_er(100, 0.1, trial_rng(21, i)).edge_count() for i in range(1000)]
    mean = np.mean(totals)
    sigma_mean = math.sqrt(4950 * 0.1 * 0.9 / 1000)
    assert abs(mean - 495.0) < 4 * sigma_mean


def test_gen_er_pair_inclusion_frequencies():
    """Each of the 15 pairs at n = 6, p = 0.3 is an edge in a share of
    T = 20 000 draws (seeds trial_rng(33, i)) within z = 4 standard errors
    of p: about 1e-3 family-wise."""
    n, p, trials = 6, 0.3, 20_000
    hits = np.zeros(n * n, dtype=np.int64)
    for i in range(trials):
        pairs = gen_er(n, p, trial_rng(33, i)).pairs
        hits[pairs[:, 0] * n + pairs[:, 1]] += 1
    freq = hits[[i * n + j for i, j in combinations(range(n), 2)]] / trials
    assert np.abs(freq - p).max() < 4 * math.sqrt(p * (1 - p) / trials), freq


def test_gen_er_node_degree_mean():
    """Node 0's mean degree over T = 2000 draws at n = 200, p = 0.3 (seeds
    trial_rng(34, i)) lies within z = 4 standard errors of (n - 1) p. Its
    19 900 pairs are more than 10^4 and its ~6000 edges more than 1/20 of
    them, so numpy's sampler shuffles the tail of every pair index here
    rather than running Floyd's algorithm."""
    n, p, trials = 200, 0.3, 2000
    degrees = [np.count_nonzero(gen_er(n, p, trial_rng(34, i)).pairs[:, 0] == 0)
               for i in range(trials)]
    sigma_mean = math.sqrt((n - 1) * p * (1 - p) / trials)
    assert abs(np.mean(degrees) - (n - 1) * p) < 4 * sigma_mean


def test_gen_er_memory_per_edge():
    """Peak bytes per edge of one G(2000, 0.004) draw (~8000 edges), read by
    tracemalloc, which sees every numpy allocation. Floyd's algorithm keeps
    the drawn pair indices (8 B/edge) and a hash set of a power of two above
    1.2 times their count (8 B a slot, ~16 B/edge here); decoding them into
    the (E, 2) pairs adds their row indices, a few temporaries and the
    pairs. A draw that keeps a gap, a position and a kept index per edge
    next to its pairs (~70 B/edge) fails the bound."""
    rng = trial_rng(0, 0)
    tracemalloc.start()
    try:
        g = gen_er(2000, 0.004, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.edge_count() <= 50, f"peak {peak / g.edge_count():.1f} B/edge"


# -- full model -------------------------------------------------------------------

def test_gen_model_graph_trivial_regimes():
    dead = ModelParams(n=20, K=3, P=10, d=1, f=1.0, g=0.0)
    assert gen_model_graph(dead, trial_rng(0, 0)).edges == frozenset()
    full = ModelParams(n=10, K=4, P=4, d=1, f=1.0, g=1.0)
    assert len(gen_model_graph(full, trial_rng(0, 1)).edges) == 45


def test_gen_model_graph_edge_frequency_matches_formula():
    params = ModelParams(n=40, K=3, P=10, d=2, f=0.9, g=0.8)
    t = edge_prob_model(params)
    pairs = 40 * 39 // 2
    trials = 300
    hits = sum(gen_model_graph(params, trial_rng(31, i)).edge_count()
               for i in range(trials))
    total = pairs * trials
    sigma = math.sqrt(total * t * (1 - t))
    assert abs(hits - total * t) < 4 * sigma


def test_fixed_pair_indicator_chi_square():
    # one pair observed across independent graphs is Bernoulli(t)
    from scipy import stats
    params = ModelParams(n=6, K=3, P=10, d=2, f=1.0, g=0.7)
    t = edge_prob_model(params)
    trials = 20000
    hits = sum(gen_model_graph(params, trial_rng(33, i)).has_edge(0, 1)
               for i in range(trials))
    chi2, p = stats.chisquare([hits, trials - hits],
                              [trials * t, trials * (1 - t)])
    assert p > 1e-3


# -- binomial rings ------------------------------------------------------------

def test_binomial_rings_endpoints():
    empty = gen_object_rings_binomial(10, 0.0, 20, trial_rng(0, 0))
    assert all(len(r) == 0 for r in empty.rings)
    full = gen_object_rings_binomial(10, 1.0, 20, trial_rng(0, 1))
    assert all(len(r) == 20 for r in full.rings)


def test_binomial_rings_object_count_statistics():
    n, x, P = 400, 0.05, 5000
    assign = gen_object_rings_binomial(n, x, P, trial_rng(41, 0))
    mean_u = half_count_summary(assign).u_counts.mean()
    sigma_mean = math.sqrt(n * x * (1 - x) / P)
    assert abs(mean_u - n * x) < 4 * sigma_mean


# -- coupling --------------------------------------------------------------------

def test_coupling_threshold_values():
    thr = coupling_threshold_x(100, 10 ** 4, 1000)
    assert thr.x == pytest.approx(0.01 * (1 - math.sqrt(3 * math.log(1000) / 100)))
    assert thr.x == pytest.approx(0.0054477, abs=1e-6)
    assert thr.admissible


def test_coupling_threshold_infeasible():
    with pytest.raises(InfeasibleCouplingError):
        coupling_threshold_x(10, 100, 1000)  # K <= 3 ln n


def test_coupled_pair_containment_on_valid_trials():
    for i in range(15):
        pair = gen_coupled_pair(200, 50, 500, 2, trial_rng(61, i))
        if pair.coupling_valid:
            assert pair.h.edges <= pair.g.edges
        # uniform-side rings produced a graph on the right node set
        assert pair.g.n == pair.h.n == 200


@pytest.mark.parametrize("d", [1, 2])
def test_coupled_pair_marginal_edge_laws(d):
    # Whatever the coupling does, G's rings are uniform K-subsets and H's are
    # Bernoulli(x) subsets, so a pair is an edge of G with probability
    # s(K, P, d) and of H with probability P[Bin(P, x^2) >= d].
    n, K, P, trials = 10, 30, 400, 300
    x = coupling_threshold_x(K, P, n).x
    q = x * x
    expect_g = edge_prob_overlap(K, P, d)
    expect_h = 1 - sum(math.comb(P, u) * q ** u * (1 - q) ** (P - u) for u in range(d))
    draws = [gen_coupled_pair(n, K, P, d, trial_rng(63, d, i)) for i in range(trials)]
    pairs = n * (n - 1) // 2
    for expect, edges in ((expect_g, [pair.g.edge_count() for pair in draws]),
                          (expect_h, [pair.h.edge_count() for pair in draws])):
        sigma_mean = np.std(edges) / math.sqrt(trials)
        assert abs(np.mean(edges) - pairs * expect) < 4 * sigma_mean


def test_coupled_pair_uniform_side_ring_sizes():
    pair = gen_coupled_pair(100, 40, 300, 2, trial_rng(62, 0))
    assert pair.x > 0
    # spot-check via regenerating the rings deterministically is overkill;
    # the graph pair itself is the contract
    assert isinstance(pair.coupling_valid, bool)
