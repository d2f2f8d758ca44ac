import math
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

from iglab.errors import (
    DegenerateRegimeError,
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
    gen_multiset_graph,
    gen_object_rings_binomial,
    gen_object_rings_uniform,
    graph_from_rings,
    half_count_summary,
    poissonization_edge_prob,
    poissonization_summary,
    trial_rng,
)
from iglab.graph import GraphTopology
from iglab.theory import ModelParams, edge_prob_model, poisson_pmf


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


@pytest.mark.parametrize("command", [["simulate", "--workers", "1", "--out", "{tmp}/run.csv"],
                                     ["verify", "coupling"]], ids=["uniform", "binomial"])
def test_dense_ring_draws_fit_before_pair_budget(tmp_path, command):
    # K = 500 of P = 10^4 takes the dense uniform branch, and verify coupling
    # draws binomial rings: both look at n x P = 2e8 uniforms (1.5 GiB as one
    # float64 matrix). Drawn in row blocks, the rings fit under the child's
    # 1.5 GiB address-space cap, and the pair budget stops the run with exit 2.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from iglab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    args = [a.format(tmp=tmp_path) for a in command]
    args += ["-n", "20000", "-K", "500", "-P", "10000", "-d", "2", "--trials", "1"]
    done = subprocess.run([sys.executable, "-c", code, *args],
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "within-object node pairs" in done.stderr


def test_uniform_rings_validation():
    with pytest.raises(InvalidParameterError):
        gen_object_rings_uniform(5, 4, 3, trial_rng(0, 0))


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
    nothing = assignment(set(), set(), set(), pool=3)
    assert graph_from_rings(nothing, 1) == GraphTopology(3)


def test_graph_from_rings_matches_pairwise_intersection():
    rng = trial_rng(11, 0)
    assign = gen_object_rings_uniform(30, 4, 15, rng)
    for d in (1, 2, 3):
        g = graph_from_rings(assign, d)
        sets = assign.ring_sets()
        expect = {(i, j) for i in range(30) for j in range(i + 1, 30)
                  if len(sets[i] & sets[j]) >= d}
        assert g.edges == expect


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


def test_gen_model_graph_explicit_layers_same_distribution():
    params = ModelParams(n=40, K=3, P=10, d=2, f=0.9, g=0.8)
    t = edge_prob_model(params)
    pairs = 40 * 39 // 2
    trials = 300
    hits = sum(gen_model_graph(params, trial_rng(32, i), explicit_layers=True).edge_count()
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
    summary = half_count_summary(assign)
    mean_u = summary.u_counts.mean()
    sigma_mean = math.sqrt(n * x * (1 - x) / P)
    assert abs(mean_u - n * x) < 4 * sigma_mean
    assert (summary.w_counts == summary.u_counts // 2).all()
    assert summary.y == int(summary.w_counts.sum())


# -- multiset graphs -------------------------------------------------------------

def test_multiset_graph_small_cases():
    assert gen_multiset_graph(5, 0, 1, trial_rng(0, 0)).edges == frozenset()
    g = gen_multiset_graph(5, 1, 1, trial_rng(0, 1))
    assert len(g.edges) == 1
    assert gen_multiset_graph(5, 3, 4, trial_rng(0, 2)).edges == frozenset()


def test_multiset_graph_pair_retention_probability():
    # P[specific pair kept in L_2(5, 3)] = P[Bin(3, 1/10) >= 2] = 0.028
    p_expect = 3 * 0.01 * 0.9 + 0.001
    assert p_expect == pytest.approx(0.028)
    trials = 200000
    hits = sum(gen_multiset_graph(5, 3, 2, trial_rng(51, i)).has_edge(0, 1)
               for i in range(trials))
    sigma = math.sqrt(trials * p_expect * (1 - p_expect))
    assert abs(hits - trials * p_expect) < 4 * sigma


def test_multiset_graph_distinct_edge_count_mean():
    n, b = 12, 40
    m = n * (n - 1) // 2
    expect = m * (1 - (1 - 1 / m) ** b)
    trials = 2000
    totals = [gen_multiset_graph(n, b, 1, trial_rng(52, i)).edge_count()
              for i in range(trials)]
    sigma_mean = np.std(totals) / math.sqrt(trials)
    assert abs(np.mean(totals) - expect) < 4 * sigma_mean


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


def test_coupled_pair_uniform_side_ring_sizes():
    pair = gen_coupled_pair(100, 40, 300, 2, trial_rng(62, 0))
    assert pair.x > 0
    # spot-check via regenerating the rings deterministically is overkill;
    # the graph pair itself is the contract
    assert isinstance(pair.coupling_valid, bool)


# -- Poissonization ----------------------------------------------------------------

def test_poissonization_against_series_oracle():
    summary = poissonization_summary(1000, 10 ** 4, 5e-4, 2)
    series = sum(poisson_pmf(summary.mu, j) for j in range(2, 52))
    assert summary.edge_prob == pytest.approx(series, rel=1e-9)


def test_poissonization_sandwich_bound():
    for (n, P, x, d) in [(1000, 10 ** 4, 5e-4, 2), (500, 2000, 2e-3, 1),
                         (2000, 10 ** 5, 2e-4, 3)]:
        s = poissonization_summary(n, P, x, d)
        lower = s.mu ** d * math.exp(-s.mu) / math.factorial(d)
        upper = lower / (1 - s.mu / (d + 1))
        assert lower < s.edge_prob < upper


def test_poissonization_first_order_tail():
    # d=1, mu -> 0: rho/mu -> 1
    s = poissonization_summary(5000, 10 ** 4, 1e-5, 1)
    assert s.edge_prob / s.mu == pytest.approx(1.0, abs=5e-3)


def test_poissonization_degenerate_regime():
    with pytest.raises(DegenerateRegimeError):
        poissonization_edge_prob(100, 10, 1e-4, 1)


def test_poissonization_validates_inputs():
    with pytest.raises(InvalidParameterError):
        poissonization_edge_prob(1000, 100, 0.0, 1)
    with pytest.raises(InvalidParameterError):
        poissonization_edge_prob(2, 100, 0.5, 1)
