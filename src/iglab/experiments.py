"""Monte-Carlo estimation harness and statistical verification tests.

Every trial draws its graph from a deterministic stream derived from
(base_seed, sweep point, trial index), so results are bit-identical for any
worker count and trial ordering. Aggregation is pure counting.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .connectivity import is_k_connected, min_degree_at_least, survives_node_failures
from .errors import ContainmentViolationError, InvalidParameterError
from .generators import gen_coupled_pair, gen_er, gen_model_graph, trial_rng
from .graph import degree_histogram, intersect_graphs
from .theory import (
    CriticalResult,
    ModelParams,
    alpha_from_params,
    check_regime,
    edge_prob_model,
    poisson_degree_mean,
    poisson_pmf,
    predicted_limit_prob,
    solve_critical,
)

WORKERS_ENV_VAR = "RG_LAB_THREADS"
_WILSON_Z = 1.959963984540054  # two-sided 95%

DOMINANCE_SLACK_DEFAULT = 0.02  # finite-n stand-in for the 1-o(1/ln n) factor


def default_workers() -> int:
    """RG_LAB_THREADS if set (an integer >= 1), else the CPU count."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidParameterError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {env!r}")
        return workers
    return os.cpu_count() or 1


def resolve_workers(workers: int | None, trials: int) -> int:
    """Worker processes used for `trials` trials: `workers` if given (>= 1),
    else default_workers(), and never more than one per trial."""
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    return min(workers, trials)


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval; stable near probabilities 0 and 1."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise InvalidParameterError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    m: int
    trials: int
    base_seed: int
    sweep: tuple[str, tuple] | None = None  # (axis name, values)

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.m < 0:
            raise InvalidParameterError("m must be >= 0")


@dataclass
class ExperimentResult:
    sweep_param: str
    sweep_value: float | int | None
    params: ModelParams
    m: int
    trials: int
    successes: int
    empirical_prob: float
    ci_low: float
    ci_high: float
    alpha: float
    predicted_limit: float
    critical: CriticalResult | None
    seed: int
    wall_time: float

    def to_dict(self) -> dict:
        p = self.params
        return {
            "sweep_param": self.sweep_param,
            "sweep_value": self.sweep_value,
            "n": p.n, "K": p.K, "P": p.P, "d": p.d, "f": p.f, "g": p.g,
            "m": self.m,
            "trials": self.trials,
            "successes": self.successes,
            "empirical_prob": self.empirical_prob,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "alpha": self.alpha,
            "predicted_limit": self.predicted_limit,
            "critical_value": self.critical.value if self.critical else None,
            "critical_feasible": self.critical.feasible if self.critical else None,
            "seed": self.seed,
            "wall_time": self.wall_time,
        }


def _trial_success(params: ModelParams, m: int, base_seed: int,
                   path_prefix: tuple, idx: int) -> bool:
    rng = trial_rng(base_seed, *path_prefix, idx)
    return survives_node_failures(gen_model_graph(params, rng), m)


def _run_chunk(params: ModelParams, m: int, base_seed: int,
               path_prefix: tuple, lo: int, hi: int) -> int:
    return sum(_trial_success(params, m, base_seed, path_prefix, i)
               for i in range(lo, hi))


def _count_successes(params: ModelParams, m: int, trials: int, base_seed: int,
                     path_prefix: tuple = (), workers: int | None = None) -> int:
    workers = resolve_workers(workers, trials)
    if workers == 1:
        return _run_chunk(params, m, base_seed, path_prefix, 0, trials)
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_chunk, params, m, base_seed, path_prefix,
                        int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        return sum(f.result() for f in futures)


def _make_result(params: ModelParams, m: int, trials: int, successes: int,
                 base_seed: int, sweep_param: str, sweep_value,
                 critical: CriticalResult | None, started: float) -> ExperimentResult:
    lo, hi = wilson_interval(successes, trials)
    alpha = alpha_from_params(params, m) if params.n >= 3 else math.nan
    pred = predicted_limit_prob(alpha, m) if params.n >= 3 else math.nan
    return ExperimentResult(
        sweep_param=sweep_param,
        sweep_value=sweep_value,
        params=params,
        m=m,
        trials=trials,
        successes=successes,
        empirical_prob=successes / trials,
        ci_low=lo,
        ci_high=hi,
        alpha=alpha,
        predicted_limit=pred,
        critical=critical,
        seed=base_seed,
        wall_time=time.perf_counter() - started,
    )


def run_resilience_trials(cfg: ExperimentConfig,
                          workers: int | None = None) -> ExperimentResult:
    """Estimate P[model graph survives m node failures] over cfg.trials
    independent samples."""
    started = time.perf_counter()
    succ = _count_successes(cfg.params, cfg.m, cfg.trials, cfg.base_seed,
                            (), workers)
    return _make_result(cfg.params, cfg.m, cfg.trials, succ, cfg.base_seed,
                        "", None, None, started)


def _apply_sweep_value(params: ModelParams, m: int, axis: str, value):
    if axis == "m":
        return params, int(value)
    if axis in ("n", "K", "P"):
        return params.replace(**{axis: int(value)}), m
    if axis in ("f", "g"):
        return params.replace(**{axis: float(value)}), m
    raise InvalidParameterError(f"unknown sweep axis {axis!r}")


def sweep_experiment(cfg: ExperimentConfig,
                     workers: int | None = None) -> list[ExperimentResult]:
    """One resilience estimate per sweep value, each row carrying the
    critical value of the swept axis (the figure protocol's vertical line)."""
    if cfg.sweep is None:
        raise InvalidParameterError("sweep_experiment needs cfg.sweep set")
    axis, values = cfg.sweep
    critical = solve_critical(axis, cfg.params, cfg.m)
    rows = []
    for point_idx, value in enumerate(values):
        params, m = _apply_sweep_value(cfg.params, cfg.m, axis, value)
        started = time.perf_counter()
        succ = _count_successes(params, m, cfg.trials, cfg.base_seed,
                                (point_idx,), workers)
        rows.append(_make_result(params, m, cfg.trials, succ, cfg.base_seed,
                                 axis, value, critical, started))
    return rows


# -- statistical verification tests -----------------------------------------

@dataclass
class DegreeLawEntry:
    h: int
    lam: float
    mean_count: float
    tv_distance: float
    chi2: float
    p_value: float


@dataclass
class DegreeLawReport:
    params: ModelParams
    trials: int
    entries: list[DegreeLawEntry]
    regime_warnings: list = field(default_factory=list)


def _tv_against_poisson(counts: np.ndarray, lam: float) -> float:
    """Total-variation distance between the empirical law of the counts and
    Poisson(lam)."""
    trials = len(counts)
    hi = int(max(counts.max(initial=0), lam + 10 * math.sqrt(lam + 1) + 10))
    emp = np.bincount(counts, minlength=hi + 1) / trials
    pois = np.array([poisson_pmf(lam, v) for v in range(hi + 1)])
    tail = max(0.0, 1.0 - pois.sum())  # Poisson mass beyond the window
    return 0.5 * (np.abs(emp - pois).sum() + tail)


def _chi2_against_poisson(counts: np.ndarray, lam: float) -> tuple[float, float]:
    """Chi-square GOF with cells pooled so every expected count is >= 5."""
    trials = len(counts)
    hi = int(max(counts.max(initial=0), math.ceil(lam) + 1))
    obs = np.bincount(counts, minlength=hi + 2).astype(float)
    exp = np.array([poisson_pmf(lam, v) for v in range(hi + 1)]) * trials
    exp = np.append(exp, max(0.0, trials - exp.sum()))  # upper tail cell
    # pool adjacent cells until each expected >= 5
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    if len(pooled_exp) < 2:
        return 0.0, 1.0
    chi2, p = stats.chisquare(pooled_obs, pooled_exp)
    return float(chi2), float(p)


def degree_law_test(params: ModelParams, trials: int, base_seed: int = 0,
                    hs: tuple[int, ...] = (0, 1, 2, 3)) -> DegreeLawReport:
    """Compare the trial-to-trial law of the number of degree-h nodes with
    its asymptotic Poisson law. Reports distances, never a hard verdict."""
    t = edge_prob_model(params)
    per_h: dict[int, list[int]] = {h: [] for h in hs}
    for i in range(trials):
        g = gen_model_graph(params, trial_rng(base_seed, i))
        hist = degree_histogram(g)
        for h in hs:
            per_h[h].append(hist.get(h, 0))
    entries = []
    for h in hs:
        counts = np.array(per_h[h])
        lam = poisson_degree_mean(params.n, t, h)
        tv = _tv_against_poisson(counts, lam)
        chi2, p = _chi2_against_poisson(counts, lam)
        entries.append(DegreeLawEntry(h=h, lam=lam, mean_count=float(counts.mean()),
                                      tv_distance=tv, chi2=chi2, p_value=p))
    warnings = [c for c in check_regime(params) if not c.ok]
    return DegreeLawReport(params=params, trials=trials, entries=entries,
                           regime_warnings=warnings)


@dataclass
class DominanceReport:
    p_model: float
    p_er: float
    z: float
    difference: float
    margin: float
    holds: bool
    trials: int


def dominance_test(params: ModelParams, trials: int, k: int,
                   eps_z: float = DOMINANCE_SLACK_DEFAULT,
                   base_seed: int = 0) -> DominanceReport:
    """Check that the model's k-connectivity probability is not below that of
    an Erdos-Renyi graph at the slightly thinned edge probability
    z = t*(1-eps_z), using paired per-trial seeds."""
    t = edge_prob_model(params)
    z = t * (1.0 - eps_z)
    succ_model = succ_er = 0
    for i in range(trials):
        gm = gen_model_graph(params, trial_rng(base_seed, i, 0))
        ge = gen_er(params.n, z, trial_rng(base_seed, i, 1))
        succ_model += is_k_connected(gm, k)
        succ_er += is_k_connected(ge, k)
    p_model = succ_model / trials
    p_er = succ_er / trials
    lo_m, hi_m = wilson_interval(succ_model, trials)
    lo_e, hi_e = wilson_interval(succ_er, trials)
    hw = (hi_m - lo_m) / 2 + (hi_e - lo_e) / 2
    margin = 2.0 * hw
    return DominanceReport(p_model=p_model, p_er=p_er, z=z,
                           difference=p_model - p_er, margin=margin,
                           holds=p_model >= p_er - margin, trials=trials)


@dataclass
class GapReport:
    frequency: float
    occurrences: int
    trials: int
    ci_low: float
    ci_high: float
    k: int


def gap_test(params: ModelParams, trials: int, k: int,
             base_seed: int = 0) -> GapReport:
    """Frequency of 'minimum degree >= k yet not k-connected' across trials.
    The theory says this gap event vanishes asymptotically."""
    if params.n > 16 and k > 3:
        raise InvalidParameterError(
            "gap_test cost guard: k <= 3 required for n > 16"
        )
    occurrences = 0
    for i in range(trials):
        g = gen_model_graph(params, trial_rng(base_seed, i))
        if min_degree_at_least(g, k) and not is_k_connected(g, k):
            occurrences += 1
    lo, hi = wilson_interval(occurrences, trials)
    return GapReport(frequency=occurrences / trials, occurrences=occurrences,
                     trials=trials, ci_low=lo, ci_high=hi, k=k)


@dataclass
class CouplingReport:
    validity_rate: float
    valid_trials: int
    trials: int
    ci_low: float
    ci_high: float
    containment_checked: int
    x: float


def coupling_validity_rate(n: int, K: int, P: int, d: int, trials: int,
                           base_seed: int = 0) -> CouplingReport:
    """Fraction of coupled-pair draws where every binomial ring fit in K.
    On every valid draw, subgraph containment is asserted outright."""
    valid = 0
    checked = 0
    x = math.nan
    for i in range(trials):
        pair = gen_coupled_pair(n, K, P, d, trial_rng(base_seed, i))
        x = pair.x
        if pair.coupling_valid:
            valid += 1
            checked += 1
            if intersect_graphs(pair.h, pair.g) != pair.h:
                raise ContainmentViolationError(
                    f"containment violated on valid trial {i}"
                )
    lo, hi = wilson_interval(valid, trials)
    return CouplingReport(validity_rate=valid / trials, valid_trials=valid,
                          trials=trials, ci_low=lo, ci_high=hi,
                          containment_checked=checked, x=x)
