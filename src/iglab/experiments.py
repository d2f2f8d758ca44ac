"""Monte-Carlo estimation harness and statistical verification tests.

Every loop over trials maps a per-trial function through _trial_map. The
parent process runs trials itself and starts worker processes only once the
mean trial time so far, times the trials left, says they would save more
than their start-up cost; then it works as one of them, and the pool lasts
for the rest of the run. Trial i draws from trial_rng(base_seed, *path, i)
and records come back in index order, so results are bit-identical for any
worker count and any schedule; aggregation is pure counting of the
per-trial records.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import chdtrc

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

DOMINANCE_SLACK = 0.02  # finite-n stand-in for the 1-o(1/ln n) factor

# Wall time, in seconds, that starting the worker processes adds to a run:
# the break-even _trial_map weighs a pool's saving against. Measured on 2
# CPUs (Python 3.11, numpy 2.4, scipy 1.17): a `simulate` CLI call of four
# near-free trials at --workers 2 took a median 25 ms with a pool of one
# worker forced and 9 ms serial (40 alternated pairs). Alone, with numpy and
# scipy loaded, ProcessPoolExecutor start + one map + shutdown took 7 ms for
# one worker and 13.5 ms for two, and a bare fork + waitpid 4 ms.
_POOL_START_S = 0.016


def resolve_workers(workers: int | None, trials: int) -> int:
    """Most processes, the parent included, that a run of `trials` trials
    may use: `workers` if given, else RG_LAB_THREADS if set, else the CPU
    count, and never more than one per trial or per CPU. A given count or
    RG_LAB_THREADS must be an integer >= 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        try:
            workers = int(env) if env else os.cpu_count() or 1
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidParameterError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {env!r}")
    elif workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    return min(workers, trials, os.cpu_count() or 1)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; stable near probabilities 0 and 1."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise InvalidParameterError("successes must lie in [0, trials]")
    phat = successes / trials
    z = _WILSON_Z
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


def _trial_chunk(trial, indices: range) -> list:
    return [trial(i) for i in indices]


@contextmanager
def _trial_map(workers: int | None, trials: int):
    """Yield map_trials(trial) -> [trial(0), ..., trial(trials - 1)].

    The parent runs trials itself, in index order, until the mean trial time
    times the trials left says that w processes would save more than
    _POOL_START_S: mean * left * (w - 1) / w > _POOL_START_S, checked after
    every trial. It then starts one pool of w - 1 worker processes, which
    later calls in the run share. With a pool, the trials left are split into
    w contiguous chunks: the workers take chunks 2..w and the parent runs
    chunk 1. The pool is shut down when the run ends, also when a trial
    raises. `trial` derives its streams from the index and must pickle: a
    module-level function or a functools.partial of one."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    workers = resolve_workers(workers, trials)
    pool = None

    def map_trials(trial) -> list:
        nonlocal pool
        records, started = [], time.perf_counter()
        while pool is None and len(records) < trials:
            records.append(trial(len(records)))
            done = len(records)
            mean = (time.perf_counter() - started) / done
            if mean * (trials - done) * (workers - 1) / workers > _POOL_START_S:
                pool = ProcessPoolExecutor(max_workers=workers - 1)
        first, left = len(records), trials - len(records)
        bounds = [first + -(-left * j // workers) for j in range(workers + 1)]
        chunks = [pool.submit(_trial_chunk, trial, range(lo, hi))
                  for lo, hi in zip(bounds[1:-1], bounds[2:]) if lo < hi]
        records += _trial_chunk(trial, range(bounds[0], bounds[1]))
        for chunk in chunks:
            records += chunk.result()
        return records

    try:
        yield map_trials
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _resilience_trial(params: ModelParams, m: int, base_seed: int,
                      path_prefix: tuple, i: int) -> bool:
    rng = trial_rng(base_seed, *path_prefix, i)
    return survives_node_failures(gen_model_graph(params, rng), m)


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
    with _trial_map(workers, cfg.trials) as map_trials:
        succ = sum(map_trials(partial(_resilience_trial, cfg.params, cfg.m,
                                      cfg.base_seed, ())))
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
    with _trial_map(workers, cfg.trials) as map_trials:
        for point_idx, value in enumerate(values):
            params, m = _apply_sweep_value(cfg.params, cfg.m, axis, value)
            started = time.perf_counter()
            succ = sum(map_trials(partial(_resilience_trial, params, m,
                                          cfg.base_seed, (point_idx,))))
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
    # Pearson's statistic and its chi-square(cells - 1) upper tail: the float
    # operations of scipy.stats.chisquare, without importing scipy.stats.
    o, e = np.array(pooled_obs), np.array(pooled_exp)
    chi2 = ((o - e) ** 2 / e).sum()
    return float(chi2), float(chdtrc(len(e) - 1, chi2))


def _degree_trial(params: ModelParams, hs: tuple[int, ...], base_seed: int,
                  i: int) -> tuple[int, ...]:
    hist = degree_histogram(gen_model_graph(params, trial_rng(base_seed, i)))
    return tuple(hist.get(h, 0) for h in hs)


def degree_law_test(params: ModelParams, trials: int, base_seed: int = 0,
                    hs: tuple[int, ...] = (0, 1, 2, 3)) -> DegreeLawReport:
    """Compare the trial-to-trial law of the number of degree-h nodes with
    its asymptotic Poisson law. Reports distances, never a hard verdict."""
    t = edge_prob_model(params)
    with _trial_map(None, trials) as map_trials:
        records = map_trials(partial(_degree_trial, params, hs, base_seed))
    entries = []
    for h, counts in zip(hs, np.array(records, dtype=np.int64).T):
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


def _dominance_trial(params: ModelParams, z: float, k: int, base_seed: int,
                     i: int) -> tuple[bool, bool]:
    gm = gen_model_graph(params, trial_rng(base_seed, i, 0))
    ge = gen_er(params.n, z, trial_rng(base_seed, i, 1))
    return is_k_connected(gm, k), is_k_connected(ge, k)


def dominance_test(params: ModelParams, trials: int, k: int,
                   base_seed: int = 0) -> DominanceReport:
    """Check that the model's k-connectivity probability is not below that of
    an Erdos-Renyi graph at the slightly thinned edge probability
    z = t*(1-DOMINANCE_SLACK), using paired per-trial seeds."""
    t = edge_prob_model(params)
    z = t * (1.0 - DOMINANCE_SLACK)
    with _trial_map(None, trials) as map_trials:
        records = map_trials(partial(_dominance_trial, params, z, k, base_seed))
    succ_model, succ_er = map(sum, zip(*records))
    p_model, p_er = succ_model / trials, succ_er / trials
    lo_m, hi_m = wilson_interval(succ_model, trials)
    lo_e, hi_e = wilson_interval(succ_er, trials)
    margin = (hi_m - lo_m) + (hi_e - lo_e)  # twice the summed half-widths
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


def _gap_trial(params: ModelParams, k: int, base_seed: int, i: int) -> bool:
    g = gen_model_graph(params, trial_rng(base_seed, i))
    return min_degree_at_least(g, k) and not is_k_connected(g, k)


def gap_test(params: ModelParams, trials: int, k: int,
             base_seed: int = 0) -> GapReport:
    """Frequency of 'minimum degree >= k yet not k-connected' across trials.
    The theory says this gap event vanishes asymptotically."""
    with _trial_map(None, trials) as map_trials:
        occurrences = sum(map_trials(partial(_gap_trial, params, k, base_seed)))
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


def _coupling_trial(n: int, K: int, P: int, d: int, base_seed: int,
                    i: int) -> tuple[bool, float]:
    pair = gen_coupled_pair(n, K, P, d, trial_rng(base_seed, i))
    if pair.coupling_valid and intersect_graphs(pair.h, pair.g) != pair.h:
        raise ContainmentViolationError(f"containment violated on valid trial {i}")
    return pair.coupling_valid, pair.x


def coupling_validity_rate(n: int, K: int, P: int, d: int, trials: int,
                           base_seed: int = 0) -> CouplingReport:
    """Fraction of coupled-pair draws where every binomial ring fit in K.
    On every valid draw, subgraph containment is asserted outright."""
    with _trial_map(None, trials) as map_trials:
        records = map_trials(partial(_coupling_trial, n, K, P, d, base_seed))
    valid = sum(ok for ok, _ in records)
    lo, hi = wilson_interval(valid, trials)
    return CouplingReport(validity_rate=valid / trials, valid_trials=valid,
                          trials=trials, ci_low=lo, ci_high=hi,
                          containment_checked=valid, x=records[-1][1])
