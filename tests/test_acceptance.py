"""Acceptance gate: eleven end-to-end checks, each printing one PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
under plain `pytest -v` they appear in the captured output of failures.
"""

import itertools
import math
import os
import random
import time
from fractions import Fraction

import numpy as np

from iglab.cli import main as cli_main
from iglab.connectivity import (
    brute_force_k_connected,
    is_connected,
    is_k_connected,
    remove_nodes,
    survives_node_failures,
)
from iglab.experiments import (
    ExperimentConfig,
    coupling_validity_rate,
    degree_law_test,
    gap_test,
    run_resilience_trials,
)
from iglab.generators import (
    gen_er,
    gen_object_rings_uniform,
    graph_from_rings,
    trial_rng,
)
from iglab.theory import (
    ModelParams,
    alpha_from_params,
    edge_prob_overlap_exact,
    predicted_finite_prob,
    predicted_limit_prob,
    solve_critical,
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"acceptance[{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def test_a01_exact_edge_probability():
    """edge_prob_overlap vs brute-force subset enumeration, zero tolerance."""
    started = time.perf_counter()
    mismatches = 0
    cases = 0
    for P in range(1, 13):
        for K in range(1, P + 1):
            # by symmetry, fix the first ring and enumerate the second
            first = frozenset(range(K))
            total = math.comb(P, K)
            overlap_counts = [0] * (K + 1)
            for other in itertools.combinations(range(P), K):
                overlap_counts[len(first & frozenset(other))] += 1
            for d in range(1, K + 1):
                oracle = Fraction(sum(overlap_counts[d:]), total)
                cases += 1
                if edge_prob_overlap_exact(K, P, d) != oracle:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    _report("exact-edge-probability", ok,
            f"{cases} (K,P,d) cases, {mismatches} mismatches, {elapsed:.1f}s (< 10s)")


def test_a02_generator_fidelity():
    """Single-pair edge frequency at (K=3, P=10, d=2, f=g=1) over 1e6 samples.

    Each sample is one independent two-node model draw: a pair of uniform
    3-rings from a 10-pool, adjacent iff they share >= 2 objects. Pairs are
    drawn from the package ring sampler in batches.
    """
    started = time.perf_counter()
    samples = 10 ** 6
    chunk = 10 ** 5
    hits = 0
    for c in range(samples // chunk):
        assign = gen_object_rings_uniform(2 * chunk, 3, 10, trial_rng(1002, c))
        mat = np.stack(assign.rings)
        a, b = mat[0::2], mat[1::2]
        overlap = (a[:, :, None] == b[:, None, :]).sum(axis=(1, 2))
        hits += int((overlap >= 2).sum())
    p = float(Fraction(11, 60))
    sigma = math.sqrt(samples * p * (1 - p))
    dev = abs(hits - samples * p)
    elapsed = time.perf_counter() - started
    ok = dev < 4 * sigma and elapsed < 30.0
    _report("generator-fidelity", ok,
            f"freq {hits / samples:.6f} vs 11/60 = {p:.6f}, "
            f"|dev| = {dev / sigma:.2f} sigma (< 4), {elapsed:.1f}s (< 30s)")


def _random_graph_mix(count, seed, n_lo, n_hi):
    rnd = random.Random(seed)
    out = []
    for i in range(count):
        n = rnd.randint(n_lo, n_hi)
        rng = trial_rng(seed, i)
        if i % 2 == 0:
            out.append(gen_er(n, rnd.choice([0.15, 0.3, 0.5, 0.7, 0.9]), rng))
        else:
            P = rnd.randint(3, 12)
            K = rnd.randint(1, P)
            d = rnd.randint(1, K)
            out.append(graph_from_rings(gen_object_rings_uniform(n, K, P, rng), d))
    return out


def test_a03_connectivity_oracle_agreement():
    started = time.perf_counter()
    disagreements = 0
    checks = 0
    graphs = _random_graph_mix(500, seed=1003, n_lo=2, n_hi=10)
    for g in graphs:
        for k in range(1, g.n + 1):
            checks += 1
            if is_k_connected(g, k) != brute_force_k_connected(g, k):
                disagreements += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 60.0
    _report("connectivity-oracle-agreement", ok,
            f"{len(graphs)} graphs, {checks} (graph,k) checks, "
            f"{disagreements} disagreements, {elapsed:.1f}s (< 60s)")


def _exhaustive_survival(g, m):
    if g.n < m + 2:
        return False
    nodes = range(g.n)
    return all(
        is_connected(remove_nodes(g, victims))
        for size in range(m + 1)
        for victims in itertools.combinations(nodes, size)
    )


def test_a04_resilience_equivalence():
    started = time.perf_counter()
    rnd = random.Random(1004)
    disagreements = 0
    graphs = _random_graph_mix(200, seed=1004, n_lo=2, n_hi=12)
    for g in graphs:
        m = rnd.randint(0, 3)
        if survives_node_failures(g, m) != _exhaustive_survival(g, m):
            disagreements += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 60.0
    _report("resilience-equivalence", ok,
            f"{len(graphs)} graphs (m <= 3), {disagreements} disagreements, "
            f"{elapsed:.1f}s (< 60s)")


def test_a05_zero_one_transition():
    """Connectivity probability crosses from <= 0.25 to >= 0.75 around g*.

    The probes sit where the limit law exp(-exp(-alpha)) gives 0.10 and
    0.90, i.e. alpha = -ln ln 10 and alpha = -ln ln(10/9). Since n*t is
    linear in g and alpha = 0 at g*, alpha = ln n * (g/g* - 1), so each probe
    is g = g* * (1 + alpha/ln n). A fixed +-15% step in g would instead sit
    at alpha = +-0.15 ln n, where the limit law gives less than 0.75 for
    n < ~5000 (0.70 at n = 1000), so the upper bar would ask for more than
    the theorem gives.
    """
    started = time.perf_counter()
    base = ModelParams(n=2000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    g_star = solve_critical("g", base, 0).value
    probes = []  # (alpha, g, predicted limit), lower probe first
    for target in (0.10, 0.90):
        alpha = -math.log(-math.log(target))
        g = g_star * (1.0 + alpha / math.log(base.n))
        # an unreachable probe fails here rather than being moved elsewhere
        assert 0.0 < g <= 1.0, (
            f"probe g = {g:.4f} at alpha = {alpha:.3f} is outside (0, 1]")
        assert abs(alpha_from_params(base.replace(g=g), 0) - alpha) < 1e-9
        assert abs(predicted_limit_prob(alpha, 0) - target) < 1e-9
        probes.append((alpha, g, target))
    (alpha_lo, lo_g, lim_lo), (alpha_hi, hi_g, lim_hi) = probes
    p_lo = run_resilience_trials(
        ExperimentConfig(base.replace(g=lo_g), 0, 500, 1005)).empirical_prob
    p_hi = run_resilience_trials(
        ExperimentConfig(base.replace(g=hi_g), 0, 500, 1006)).empirical_prob
    elapsed = time.perf_counter() - started
    ok = p_lo <= 0.25 and p_hi >= 0.75 and elapsed < 600.0
    _report("zero-one-transition", ok,
            f"g* = {g_star:.4f}; P[conn] = {p_lo:.3f} at alpha = {alpha_lo:+.3f}, "
            f"g = {lo_g:.4f} (limit {lim_lo:.2f}, need <= 0.25), "
            f"{p_hi:.3f} at alpha = {alpha_hi:+.3f}, g = {hi_g:.4f} "
            f"(limit {lim_hi:.2f}, need >= 0.75), {elapsed:.0f}s (< 600s)")


def test_a06_limit_probability_calibration():
    started = time.perf_counter()
    base = ModelParams(n=2000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    g_zero = solve_critical("g", base, 0).value  # alpha = 0 at this g
    params = base.replace(g=g_zero)
    assert abs(alpha_from_params(params, 0)) < 1e-9
    p_emp = run_resilience_trials(ExperimentConfig(params, 0, 1000, 1007)).empirical_prob
    target = math.exp(-1.0)
    elapsed = time.perf_counter() - started
    ok = abs(p_emp - target) <= 0.12 and elapsed < 600.0
    _report("limit-probability-calibration", ok,
            f"g = {g_zero:.4f}, P[conn] = {p_emp:.3f} vs e^-1 = {target:.4f} "
            f"(tol 0.12), {elapsed:.0f}s (< 600s)")


def test_a07_poisson_isolated_node_law():
    started = time.perf_counter()
    base = ModelParams(n=2000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    g_zero = solve_critical("g", base, 0).value
    params = base.replace(g=g_zero)  # lambda_{n,0} = n e^{-n t} = e^{-alpha} = 1
    (entry,) = degree_law_test(params, 2000, base_seed=1008, hs=(0,)).entries
    assert abs(entry.lam - 1.0) <= 1e-12  # so the TV is against Poisson(1)
    mean, tv = entry.mean_count, entry.tv_distance
    elapsed = time.perf_counter() - started
    ok = abs(mean - 1.0) <= 0.15 and tv <= 0.08 and elapsed < 900.0
    _report("poisson-isolated-node-law", ok,
            f"mean isolated = {mean:.3f} (tol 1 +- 0.15), TV vs Poisson(1) = "
            f"{tv:.3f} (<= 0.08), {elapsed:.0f}s (< 900s)")


def test_a08_coupling_validity_and_containment():
    started = time.perf_counter()
    n, K, P, d = 1000, 100, 10 ** 4, 2
    # exact per-ring overflow probability P[Bin(P, x) > K] bounds the
    # expected invalidity rate before any sampling
    from scipy import stats
    from iglab.generators import coupling_threshold_x
    x = coupling_threshold_x(K, P, n).x
    overflow = float(stats.binom.sf(K, P, x))
    expected_validity = (1.0 - overflow) ** n
    assert expected_validity > 0.999, "oracle says this setting cannot reach 0.99"
    # coupling_validity_rate raises ContainmentViolationError on any valid
    # trial where H is not a subgraph of G, so finishing means 100% containment
    report = coupling_validity_rate(n, K, P, d, trials=200, base_seed=1009)
    elapsed = time.perf_counter() - started
    ok = report.validity_rate >= 0.99 and elapsed < 300.0
    _report("coupling-validity-containment", ok,
            f"validity {report.validity_rate:.4f} (>= 0.99, oracle predicts "
            f"{expected_validity:.6f}), containment asserted on "
            f"{report.containment_checked} valid trials, {elapsed:.0f}s (< 300s)")


def test_a09_degree_connectivity_gap():
    started = time.perf_counter()
    params = ModelParams(n=1000, K=36, P=10 ** 4, d=2, f=1.0, g=0.9)
    report = gap_test(params, trials=500, k=2, base_seed=1010)
    elapsed = time.perf_counter() - started
    ok = report.frequency <= 0.02 and elapsed < 600.0
    _report("degree-connectivity-gap", ok,
            f"gap frequency {report.frequency:.4f} "
            f"({report.occurrences}/{report.trials}, <= 0.02), "
            f"{elapsed:.0f}s (< 600s)")


def test_a10_csv_determinism(tmp_path):
    started = time.perf_counter()
    max_workers = os.cpu_count() or 1
    outputs = []
    for tag, workers in (("w1", 1), ("wmax", max_workers)):
        sim = tmp_path / f"sim_{tag}.csv"
        swp = tmp_path / f"swp_{tag}.csv"
        rc1 = cli_main(["simulate", "-n", "200", "-K", "4", "-P", "50", "-d", "1",
                        "-g", "0.8", "--trials", "64", "--seed", "77",
                        "--workers", str(workers), "--out", str(sim)])
        rc2 = cli_main(["sweep", "-n", "200", "-K", "4", "-P", "50", "-d", "1",
                        "--axis", "g", "--values", "0.4,0.7,1.0",
                        "--trials", "32", "--seed", "78",
                        "--workers", str(workers), "--out", str(swp)])
        assert rc1 == 0 and rc2 == 0
        outputs.append((sim.read_bytes(), swp.read_bytes()))
    elapsed = time.perf_counter() - started
    identical = outputs[0] == outputs[1]
    ok = identical and elapsed < 120.0
    _report("csv-determinism", ok,
            f"workers 1 vs {max_workers}: simulate and sweep CSVs "
            f"{'byte-identical' if identical else 'DIFFER'}, "
            f"{elapsed:.0f}s (< 120s)")


def test_a11_finite_n_calibration_past_one_failure():
    """At alpha = 0 (g = g*(m)) on n = 2000, K = 36, P = 10^4, d = 2, the
    frequency of surviving any m node failures, for m = 1 and m = 2, lies
    within z = 3.5 standard errors sqrt(f (1 - f) / T) of the finite-n
    prediction f = exp(-E[X]), E[X] = n P[Bin(n - 1, t) <= m]. T = 1000
    trials per m, drawn through run_resilience_trials with base seed 1011
    for m = 1 and 1012 for m = 2; the seeds and z were fixed before any
    trial was run. The bound is ~0.048 at f ~ 0.25, a false failure rate of
    ~5e-4 per point; the limits e^{-1} and e^{-1/2} sit 8 and 25 standard
    errors from f, so this also shows that the finite-n value, not the
    limit, is what these n give.
    """
    started = time.perf_counter()
    base = ModelParams(n=2000, K=36, P=10 ** 4, d=2, f=1.0, g=1.0)
    trials, z = 1000, 3.5
    ok, details = True, []
    for m, seed in ((1, 1011), (2, 1012)):
        params = base.replace(g=solve_critical("g", base, m).value)
        assert abs(alpha_from_params(params, m)) < 1e-9
        finite = predicted_finite_prob(params, m)
        p_emp = run_resilience_trials(ExperimentConfig(params, m, trials, seed)).empirical_prob
        bound = z * math.sqrt(finite * (1 - finite) / trials)
        ok = ok and abs(p_emp - finite) <= bound
        details.append(f"m = {m}, g = {params.g:.4f}: P[survive] = {p_emp:.3f} vs "
                       f"finite-n {finite:.4f} (tol {bound:.3f}), limit "
                       f"{predicted_limit_prob(0.0, m):.3f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600.0
    _report("finite-n-calibration", ok,
            "; ".join(details) + f", {elapsed:.0f}s (< 600s)")
