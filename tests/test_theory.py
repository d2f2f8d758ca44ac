import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from iglab.errors import InvalidParameterError
from iglab.theory import (
    ModelParams,
    alpha_from_params,
    approx_edge_prob_overlap,
    check_regime,
    edge_prob_model,
    edge_prob_overlap,
    edge_prob_overlap_exact,
    low_degree_mean,
    poisson_degree_mean,
    poisson_pmf,
    predicted_finite_prob,
    predicted_limit_prob,
    solve_critical,
)


def overlap_prob_bruteforce(K, P, d):
    """Enumerate all ordered pairs of K-subsets of {0..P-1} and count overlap >= d."""
    subsets = list(combinations(range(P), K))
    hits = 0
    for a in subsets:
        sa = set(a)
        for b in subsets:
            if len(sa.intersection(b)) >= d:
                hits += 1
    return Fraction(hits, len(subsets) ** 2)


# -- edge_prob_overlap --------------------------------------------------------

def test_overlap_trivial_values():
    assert edge_prob_overlap_exact(1, 5, 1) == Fraction(1, 5)
    assert edge_prob_overlap_exact(3, 3, 2) == 1
    assert edge_prob_overlap_exact(3, 10, 2) == Fraction(11, 60)


def test_overlap_matches_bruteforce_small():
    for K, P, d in [(2, 5, 1), (2, 5, 2), (3, 6, 2), (4, 7, 3), (3, 8, 1), (5, 7, 4)]:
        assert edge_prob_overlap_exact(K, P, d) == overlap_prob_bruteforce(K, P, d)


def test_overlap_validates_params():
    with pytest.raises(InvalidParameterError):
        edge_prob_overlap_exact(3, 2, 1)  # K > P
    with pytest.raises(InvalidParameterError):
        edge_prob_overlap_exact(3, 10, 0)  # d < 1
    with pytest.raises(InvalidParameterError):
        edge_prob_overlap_exact(2, 10, 3)  # d > K


def test_overlap_complement_identity():
    # d=1 overlap is the complement of disjointness
    for K, P in [(2, 6), (3, 9), (4, 12), (5, 11)]:
        expect = 1 - Fraction(math.comb(P - K, K), math.comb(P, K))
        assert edge_prob_overlap_exact(K, P, 1) == expect


def test_overlap_legal_below_double_ring():
    # P < 2K uses the general support and stays a probability
    val = edge_prob_overlap_exact(5, 7, 1)
    assert val == 1  # rings of 5 from 7 must intersect
    assert 0 < edge_prob_overlap_exact(5, 7, 4) < 1


_HALF_POOL_OVERLAP = (
    "import math\n"
    "from fractions import Fraction\n"
    "from iglab.theory import edge_prob_overlap_exact\n"
    "K, P = 50_000, 100_000\n"
    "below = sum(math.comb(K, u) * math.comb(P - K, K - u) for u in range(2))\n"
    "assert edge_prob_overlap_exact(K, P, 2) == 1 - Fraction(below, math.comb(P, K))\n"
)


@pytest.mark.parametrize("args", [
    ["-c", _HALF_POOL_OVERLAP],
    ["-m", "iglab.cli", "edge-prob", "-K", "50000", "-P", "100000", "-d", "2"],
], ids=["exact", "cli"])
def test_overlap_at_half_pool_sums_the_short_side(args):
    # At K = P/2 = 5*10^4 the tail u >= 2 has 49,999 big-integer terms and
    # its complement u < 2 has two. Run in a child process so a hang fails
    # the test instead of stalling the suite.
    try:
        done = subprocess.run([sys.executable, *args], timeout=20,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        pytest.fail("s(K = 50000, P = 100000, d = 2) did not finish in 20 s")
    assert done.returncode == 0, done.stderr


def test_overlap_matches_comb_sum_for_small_pools():
    for P in range(1, 30):
        for K in range(1, P + 1):
            for d in range(1, K + 1):
                tail = sum(math.comb(K, u) * math.comb(P - K, K - u) for u in range(d, K + 1))
                assert edge_prob_overlap_exact(K, P, d) == Fraction(tail, math.comb(P, K))


_BOTH_SIDES_LONG = (
    "import math\n"
    "from fractions import Fraction\n"
    "from iglab.theory import edge_prob_overlap_exact\n"
    "K, P, d = 50_000, 100_000, 25_000\n"
    "# at K = P/2 the overlap u and K - u have one law, so\n"
    "# P[U >= K/2] = (1 + P[U = K/2]) / 2\n"
    "middle = Fraction(math.comb(K, d) ** 2, math.comb(P, K))\n"
    "assert edge_prob_overlap_exact(K, P, d) == (1 + middle) / 2\n"
)


def test_overlap_with_both_sides_long_finishes():
    # Both sides of u = 25,000 have 25,000 big-integer terms. Run in a child
    # process so a slow sum fails the test instead of stalling the suite.
    try:
        done = subprocess.run([sys.executable, "-c", _BOTH_SIDES_LONG], timeout=20,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        pytest.fail("s(K = 50000, P = 100000, d = 25000) did not finish in 20 s")
    assert done.returncode == 0, done.stderr


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda P: st.tuples(st.just(P), st.integers(1, P)).flatmap(
        lambda t: st.tuples(st.just(t[0]), st.just(t[1]), st.integers(1, t[1])))))
def test_overlap_monotonicity(kpd):
    P, K, d = kpd
    s = edge_prob_overlap_exact(K, P, d)
    assert 0 <= s <= 1
    if K < P:
        assert edge_prob_overlap_exact(K + 1, P, d) >= s  # nondecreasing in K
    assert edge_prob_overlap_exact(K, P + 1, d) <= s  # nonincreasing in P
    if d < K:
        assert edge_prob_overlap_exact(K, P, d + 1) <= s  # nonincreasing in d


# -- edge_prob_model ----------------------------------------------------------

def test_model_edge_prob():
    base = dict(n=100, K=3, P=10, d=2)
    assert edge_prob_model(ModelParams(**base, f=0.0, g=0.7)) == 0.0
    s = edge_prob_overlap(3, 10, 2)
    assert edge_prob_model(ModelParams(**base, f=1.0, g=1.0)) == s
    t = edge_prob_model(ModelParams(**base, f=0.5, g=0.5))
    assert t == pytest.approx(float(Fraction(11, 240)), rel=1e-12)


# -- approx_edge_prob_overlap -------------------------------------------------

def test_approx_formula_values():
    assert approx_edge_prob_overlap(10, 100000, 1) == pytest.approx(0.001)
    assert approx_edge_prob_overlap(10, 90000, 2) == pytest.approx(0.5 * (100 / 90000) ** 2)
    assert approx_edge_prob_overlap(10, 10, 1) == 1.0  # clamped


def test_approx_accuracy_in_asymptotic_regime():
    # K large, K^2/P small: the asymptotic form is close to exact
    exact = edge_prob_overlap(100, 10 ** 6, 2)
    approx = approx_edge_prob_overlap(100, 10 ** 6, 2)
    assert abs(approx - exact) / exact < 0.05


def test_approx_known_error_at_moderate_density():
    # at K^2/P ~ 0.13 the asymptotic form is off by ~14% (oracle-frozen)
    exact = edge_prob_overlap(36, 10 ** 4, 2)
    approx = approx_edge_prob_overlap(36, 10 ** 4, 2)
    assert abs(approx - exact) / exact == pytest.approx(0.142412, abs=1e-4)


# -- scaling law ----------------------------------------------------------------

def make_params_with_t(n, t, g=None):
    """K=P,d=1 makes s=1 so t = f*g exactly."""
    return ModelParams(n=n, K=1, P=1, d=1, f=t if g is None else t / g,
                       g=1.0 if g is None else g)


def test_alpha_examples():
    n = 1000
    t0 = math.log(n) / n
    assert alpha_from_params(make_params_with_t(n, t0), 0) == pytest.approx(0, abs=1e-12)
    p0 = ModelParams(n=n, K=3, P=10, d=2, f=0.0, g=1.0)
    assert alpha_from_params(p0, 0) == pytest.approx(-math.log(1000))
    t2 = 2 * math.log(n) / n
    expect = math.log(1000) - math.log(math.log(1000))
    assert alpha_from_params(make_params_with_t(n, t2), 1) == pytest.approx(expect)


def test_alpha_rejects_tiny_n():
    with pytest.raises(InvalidParameterError):
        alpha_from_params(ModelParams(n=2, K=1, P=1, d=1, f=1, g=1), 0)


def test_alpha_inverts_scaling_law():
    for n in (10, 100, 5000):
        for m in (0, 1, 3):
            for alpha in (-2.0, 0.0, 1.5):
                t = (math.log(n) + m * math.log(math.log(n)) + alpha) / n
                if not 0 <= t <= 1:
                    continue
                back = alpha_from_params(make_params_with_t(n, t), m)
                assert back == pytest.approx(alpha, rel=1e-12, abs=1e-12)


def test_predicted_limit_examples():
    assert predicted_limit_prob(math.inf, 5) == 1.0
    assert predicted_limit_prob(-math.inf, 0) == 0.0
    assert predicted_limit_prob(-math.inf, 3) == 0.0
    assert predicted_limit_prob(0.0, 0) == pytest.approx(math.exp(-1))
    assert predicted_limit_prob(0.0, 2) == pytest.approx(math.exp(-0.5))


def test_predicted_limit_for_any_failure_budget():
    # m! overflows a float from m = 171 on
    assert predicted_limit_prob(0.0, 500) == 1.0
    assert predicted_limit_prob(-1000.0, 0) == 0.0  # exp(-alpha) overflows
    # lgamma(1) = lgamma(2) = 0, so m = 0 and 1 keep the direct form's bits
    for alpha in (-3.7, -0.2, 0.0, 1.1, 6.5):
        for m in (0, 1):
            assert predicted_limit_prob(alpha, m) == math.exp(-math.exp(-alpha))


def test_predicted_limit_strictly_increasing():
    alphas = [-5, -1, 0, 1, 5]
    vals = [predicted_limit_prob(a, 1) for a in alphas]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(0 < v < 1 for v in vals)


# -- regime checks --------------------------------------------------------------

def test_check_regime_paper_scale_setting():
    flags = {c.name: c for c in check_regime(
        ModelParams(n=60000, K=10, P=90000, d=2, f=0.005, g=0.9))}
    assert not flags["K/P = o(1/(n ln n))"].ok  # pool too small vs n ln n


def test_check_regime_moderate_density_warns():
    flags = {c.name: c for c in check_regime(
        ModelParams(n=1000, K=36, P=10 ** 4, d=2, f=1, g=1))}
    cond = flags["K^2/P = o(1/ln n)"]
    assert cond.value == pytest.approx(36 ** 2 * math.log(1000) / 10 ** 4)
    assert not cond.ok


def test_check_regime_all_pass_when_asymptotic():
    n = 10 ** 6
    params = ModelParams(n=n, K=round(n ** 0.4), P=n ** 2, d=2, f=1, g=1)
    assert all(c.ok for c in check_regime(params))


# -- Poisson pieces ---------------------------------------------------------------

def test_poisson_degree_mean_examples():
    assert poisson_degree_mean(50, 0.0, 0) == 50
    assert poisson_degree_mean(50, 0.0, 3) == 0.0
    n = 1000
    assert poisson_degree_mean(n, math.log(n) / n, 0) == pytest.approx(1.0)


def test_poisson_degree_means_sum_to_n():
    n, t = 500, 0.01
    total = sum(poisson_degree_mean(n, t, h) for h in range(200))
    assert total == pytest.approx(n, rel=1e-6)


def test_finite_prediction_pins_the_roadmap_cells():
    # n = 2000, K = 36, P = 10^4, d = 2 at alpha = 0, that is g = g*(m)
    base = ModelParams(n=2000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    for m, mean, prob in ((0, 0.98938, 0.3718), (1, 1.37827, 0.2520), (2, 1.36908, 0.2543)):
        params = base.replace(g=solve_critical("g", base, m).value)
        assert abs(alpha_from_params(params, m)) < 1e-9
        assert low_degree_mean(params, m) == pytest.approx(mean, abs=1e-5)
        assert round(predicted_finite_prob(params, m), 4) == prob


@pytest.mark.parametrize("n, K, P, d, g", [(2, 1, 3, 1, 0.5), (5, 2, 6, 1, 0.9),
                                           (12, 3, 20, 2, 1.0), (40, 6, 50, 2, 0.3)])
def test_low_degree_mean_matches_a_direct_binomial_sum(n, K, P, d, g):
    params = ModelParams(n=n, K=K, P=P, d=d, f=1.0, g=g)
    t = edge_prob_model(params)
    assert 0.0 < t < 1.0
    for m in range(n + 2):
        cdf = sum(math.comb(n - 1, h) * t ** h * (1 - t) ** (n - 1 - h)
                  for h in range(min(m, n - 1) + 1))
        assert low_degree_mean(params, m) == pytest.approx(n * cdf, rel=1e-12, abs=1e-300)
        assert predicted_finite_prob(params, m) == pytest.approx(math.exp(-n * cdf), rel=1e-12)


def test_low_degree_mean_cost_does_not_grow_with_m():
    # a sum over every degree 0..m takes ~0.5 us a term, ~12 s for these calls
    params = ModelParams(n=10 ** 9, K=36, P=10 ** 4, d=2, f=1.0, g=0.95)
    mid = int(params.n * edge_prob_model(params))  # 6983624, the median degree
    started = time.perf_counter()
    assert low_degree_mean(params, 10 ** 7) == params.n
    assert low_degree_mean(params, 10 ** 5) == 0.0
    # mid sums the terms below the peak, mid + 1 the tail above it
    for m in (mid, mid + 1):
        assert low_degree_mean(params, m) == pytest.approx(params.n / 2, rel=1e-3)
    assert time.perf_counter() - started < 0.5


def test_low_degree_terms_sum_to_one_at_large_n():
    # mid sums the terms h <= mid, about 11 standard deviations of them
    # before they stop changing the sum, and mid + 1 takes one minus the
    # terms h >= mid + 2; with the term at mid + 1 they must make 1. Terms
    # that are exp of lgamma values near 2e10 summed to ~0.9999969 here.
    params = ModelParams(n=10 ** 9, K=36, P=10 ** 4, d=2, f=1.0, g=0.95)
    n, t = params.n, edge_prob_model(params)
    mid = int(n * t)
    lower = low_degree_mean(params, mid) / n
    upper = 1.0 - low_degree_mean(params, mid + 1) / n
    assert lower + binom.pmf(mid + 1, n - 1, t) + upper == pytest.approx(1.0, abs=1e-12)


def test_low_degree_mean_edge_cases():
    assert low_degree_mean(ModelParams(n=30, K=3, P=10, d=1, f=0.0, g=1.0), 0) == 30.0
    assert low_degree_mean(ModelParams(n=30, K=3, P=3, d=1, f=1.0, g=1.0), 28) == 0.0
    assert low_degree_mean(ModelParams(n=30, K=3, P=3, d=1, f=1.0, g=1.0), 29) == 30.0
    with pytest.raises(InvalidParameterError):
        low_degree_mean(ModelParams(n=30, K=3, P=10, d=1, f=1.0, g=1.0), -1)


def test_poisson_pmf():
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(0.0, 3) == 0.0
    assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1))
    assert sum(poisson_pmf(5.0, ell) for ell in range(201)) == pytest.approx(1.0, abs=1e-12)


# -- critical parameters ----------------------------------------------------------

def test_critical_g_closed_form():
    params = ModelParams(n=1000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    res = solve_critical("g", params, 0)
    assert res.feasible
    thr = math.log(1000) / 1000
    assert res.value == pytest.approx(thr / edge_prob_overlap(36, 10 ** 4, 2))
    # plugging g* back in gives alpha = 0
    assert alpha_from_params(params.replace(g=res.value), 0) == pytest.approx(0, abs=1e-9)


def test_critical_f_matches_hand_division():
    params = ModelParams(n=500, K=4, P=20, d=1, f=1.0, g=0.8)
    res = solve_critical("f", params, 1)
    thr = (math.log(500) + math.log(math.log(500))) / 500
    assert res.value == pytest.approx(thr / (0.8 * edge_prob_overlap(4, 20, 1)))


def test_critical_g_infeasible_reports_unclamped():
    params = ModelParams(n=1000, K=2, P=10 ** 6, d=2, f=1.0, g=1.0)
    res = solve_critical("g", params, 0)
    assert not res.feasible
    assert res.value > 1.0


def _meets(params, m):
    """t >= (ln n + m ln ln n)/n, computed the way the solver does."""
    n = params.n
    return edge_prob_model(params) >= (math.log(n) + m * math.log(math.log(n))) / n


# (n, K, P, d, f, g, m): the doubling search, its first step, both
# infeasible branches and the K = P = d edge.
K_CASES = [
    (1000, 2, 10 ** 4, 2, 1.0, 1.0, 0),
    (1000, 2, 2000, 2, 0.7, 1.0, 2),
    (500, 3, 900, 3, 1.0, 0.3, 1),
    (1000, 1, 10, 1, 1.0, 1.0, 0),        # K* = d
    (1000, 3, 50, 2, 0.001, 1.0, 0),      # even K = P misses
    (10, 3, 3, 3, 1.0, 1.0, 0),           # K = P = d meets
    (10, 3, 3, 3, 0.1, 1.0, 0),           # K = P = d misses
]


def test_critical_K_matches_linear_scan():
    for n, K, P, d, f, g, m in K_CASES:
        params = ModelParams(n=n, K=K, P=P, d=d, f=f, g=g)
        res = solve_critical("K", params, m)
        scan = next((k for k in range(d, P + 1) if _meets(params.replace(K=k), m)), None)
        if scan is None:
            assert (res.feasible, res.value) == (False, math.inf), (params, m)
        else:
            assert res.feasible and res.value == scan, (params, m, scan)
    params = ModelParams(n=1000, K=2, P=10 ** 4, d=2, f=1.0, g=1.0)
    assert solve_critical("K", params, 0).value == 36


P_CASES = [
    (1000, 36, 100, 2, 1.0, 1.0, 0),
    (1000, 5, 5, 1, 0.8, 1.0, 2),
    (10, 3, 3, 3, 1.0, 1.0, 0),           # K = P = d
    (1000, 4, 4, 2, 0.001, 1.0, 0),       # even P = K misses
    (10 ** 15, 1, 1, 1, 1.0, 1.0, 0),     # still met at the 10^12 cap
]


def test_critical_P_is_maximal():
    for n, K, P, d, f, g, m in P_CASES:
        params = ModelParams(n=n, K=K, P=P, d=d, f=f, g=g)
        res = solve_critical("P", params, m)
        if not _meets(params.replace(P=K), m):
            assert (res.feasible, res.value) == (False, -math.inf), (params, m)
        elif _meets(params.replace(P=10 ** 12), m):
            assert (res.feasible, res.value) == (False, math.inf), (params, m)
        else:
            P_star = int(res.value)
            assert res.feasible and P_star >= K, (params, m)
            assert _meets(params.replace(P=P_star), m), (params, m)
            assert not _meets(params.replace(P=P_star + 1), m), (params, m)


def test_critical_K_search_stays_near_the_answer():
    # The answer is K* = 351 of P = 10^6; a search that probes K near P/2
    # sums ~5*10^5 big-integer terms per probe and does not finish in time.
    # At f = 0.001 even K = P misses, which must be seen without walking up.
    code = (
        "from iglab.theory import ModelParams, solve_critical\n"
        "params = ModelParams(n=1000, K=2, P=10 ** 6, d=2, f=1, g=1)\n"
        "assert solve_critical('K', params, 0).value == 351\n"
        "res = solve_critical('K', params.replace(f=0.001), 0)\n"
        "assert (res.feasible, res.value) == (False, float('inf'))\n"
    )
    try:
        done = subprocess.run([sys.executable, "-c", code], timeout=20,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        pytest.fail("solve_critical('K', P = 10**6) did not finish in 20 s")
    assert done.returncode == 0, done.stderr


def test_critical_m_is_maximal():
    params = ModelParams(n=1000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    res = solve_critical("m", params, 0)
    m_star = int(res.value)
    t = edge_prob_model(params)
    n, lnln = 1000, math.log(math.log(1000))
    assert t >= (math.log(n) + m_star * lnln) / n
    assert t < (math.log(n) + (m_star + 1) * lnln) / n


N_CASES = [
    (3, 36, 10 ** 4, 2, 1.0, 0.9, 0),
    (3, 36, 10 ** 4, 2, 1.0, 0.9, 3),
    (3, 3, 10 ** 6, 2, 1.0, 1.0, 0),      # n* found past the prefix scan
    (3, 4, 4, 1, 1.0, 1.0, 0),            # t = 1: n* = 3
    (3, 1, 10 ** 15, 1, 1.0, 1.0, 0),     # no n <= 10^15 meets
]


def test_critical_n_is_minimal():
    for n, K, P, d, f, g, m in N_CASES:
        params = ModelParams(n=n, K=K, P=P, d=d, f=f, g=g)
        res = solve_critical("n", params, m)
        if edge_prob_model(params) == 0 or not _meets(params.replace(n=10 ** 15), m):
            assert (res.feasible, res.value) == (False, math.inf), (params, m)
            continue
        n_star = int(res.value)
        assert res.feasible and _meets(params.replace(n=n_star), m), (params, m)
        below = range(3, n_star) if n_star <= 1001 else [*range(3, 1001), n_star - 1]
        assert not any(_meets(params.replace(n=v), m) for v in below), (params, m)


def test_critical_n_infeasible_when_t_zero():
    params = ModelParams(n=3, K=3, P=10, d=2, f=0.0, g=1.0)
    res = solve_critical("n", params, 0)
    assert (res.feasible, res.value) == (False, math.inf)
