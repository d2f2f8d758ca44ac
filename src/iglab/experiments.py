"""Monte-Carlo estimation harness and statistical verification tests.

Every loop over trials is one _map_trials call. A simulate or sweep run is a
list of rows, one per sweep value, each built and checked before any trial;
then the trials of every row run as one batch. The parent process runs
trials itself and forks worker processes only once the mean trial time so
far says that sharing the trials left with them would save more than their
start-up cost; then it queues the trials left on a pipe, and every process,
the parent included, takes the next one from it as soon as it is free. Each
worker sends its records back through a pipe of its own and exits. Workers
are forked, so this needs os.fork (POSIX); elsewhere every trial runs in the
parent. Trial i of a row draws from trial_rng(base_seed, *path, i) and each
record is placed by its index, so results are bit-identical for any worker
count and any schedule; aggregation is pure counting of the per-trial
records.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import time
import traceback
from dataclasses import dataclass, field
from functools import cache, partial
from typing import NoReturn

import numpy as np

from .connectivity import _edges_k_connected, is_k_connected, min_degree_at_least
from .errors import ContainmentViolationError, InvalidParameterError
from .generators import (
    _check_expected_pairs,
    _model_edges,
    gen_coupled_pair,
    gen_er,
    gen_model_graph,
    trial_rng,
)
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

# Wall time, in seconds, that forking the worker processes adds to a run: the
# break-even _map_trials weighs their saving against. Measured on 2 CPUs
# (Python 3.11, numpy 2.4, scipy 1.17): a `simulate` CLI call of four
# near-free trials at --workers 2 took a median 6.0-6.6 ms with one worker
# forced and 1.5-1.6 ms serial (three runs of 40 alternated pairs). Alone,
# with numpy and scipy loaded, _map_trials of two near-free trials took
# 2.3-2.5 ms with the worker forced.
_FORK_START_S = 0.005


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a cpuset-limited container may see more CPUs than it may use),
    else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | None, trials: int) -> int:
    """Most processes, the parent included, that a run of `trials` trials
    may use: `workers` if given, else RG_LAB_THREADS if set, else the usable
    CPUs, and never more than one per trial or per usable CPU. A given count
    or RG_LAB_THREADS must be an integer >= 1. Workers are forked, so where
    os.fork does not exist the count is always 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        try:
            workers = int(env) if env else _usable_cpus()
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidParameterError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {env!r}")
    elif workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    return min(workers, trials, _usable_cpus())


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


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process,
    chained as the __cause__ of that exception when the parent re-raises it."""

    def __str__(self) -> str:
        return self.args[0]


def _dealt(tokens: int, chunk: int, trials: int):
    """The trial indices this process takes from the token pipe `tokens`:
    one 4-byte token at a time, each the first index of a chunk of `chunk`
    consecutive trials below `trials`, until the pipe is empty. A pipe read
    of 4 bytes is never split, and all tokens are written before any process
    reads, so every read returns one whole token or, at the end, nothing."""
    while token := os.read(tokens, 4):
        start = int.from_bytes(token, "little")
        yield from range(start, min(start + chunk, trials))


def _run_dealt(trial, indices, pipe: int) -> NoReturn:
    """The whole life of a forked worker: run trial(i) for each index it is
    dealt, write one pickle to `pipe` and leave by os._exit, so that nothing
    the parent set up (atexit hooks, buffered output, a test runner) runs
    twice. The pickle is ([(i, trial(i)), ...], None, None), or (None,
    exception, traceback) when a trial raised; an exception that does not
    pickle is sent as its repr."""
    code = 1
    try:
        try:
            data = pickle.dumps(([(i, trial(i)) for i in indices], None, None))
        except BaseException as exc:
            tb = traceback.format_exc()
            try:
                data = pickle.dumps((None, exc, tb))
            except Exception:
                data = pickle.dumps((None, RuntimeError(repr(exc)), tb))
        with open(pipe, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


@cache
def _keep_freed_memory() -> None:
    """Have glibc's malloc keep up to 64 MiB of freed heap in this process
    (M_TRIM_THRESHOLD) and take every block below 32 MiB from the heap
    (M_MMAP_THRESHOLD), once per process; forked workers inherit both.
    These are the ceilings that glibc's own dynamic rule can reach: 32 MiB is
    its DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and the trim threshold it sets
    is twice the mmap threshold. Left to that rule, the thresholds follow the
    largest block freed so far, about 1 MB at n = 2000, so the heap shrank
    at the end of every trial and the next trial took about 500 minor page
    faults to grow it again; with the ceilings a trial reuses the heap the
    one before it left. Where libc has no mallopt (macOS, Windows) this does
    nothing. No result depends on it."""
    import ctypes  # here, not at import: numpy has loaded it by the first trial
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def _collect(pid: int, data: bytes, status: int) -> list:
    """The (index, record) pairs that worker pid wrote, or its exception
    raised again."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
        raise RuntimeError(f"worker process {pid} {how} before it returned its trials")
    records, exc, tb = pickle.loads(data)
    if exc is not None:
        raise exc from _RemoteTraceback(tb)
    return records


def _map_trials(trial, trials: int, workers: int | None) -> list:
    """[trial(0), ..., trial(trials - 1)], run by at most w processes, w from
    resolve_workers(workers, trials).

    The parent runs trials itself, in index order, until the mean trial time
    says that sharing the trials left with w - 1 workers would save more than
    _FORK_START_S: mean * (left - ceil(left / w)) > _FORK_START_S, checked
    after every trial, so a last trial never forks. It then writes the trials
    left as 4-byte tokens into a new pipe, closes its write end and forks the
    workers. Every process, the parent included, takes one token at a time
    and runs its trials until the pipe is empty (_dealt), so no process sits
    idle while trials are still queued. At most 1024 tokens (4096 bytes)
    are written, in one write that fits an empty pipe, whose capacity is at
    least one page, so it never blocks; with more trials left, a token
    stands for a chunk of ceil(left / 1024) consecutive trials. Each worker
    sends its (index, record) pairs, or its exception, back through its own
    pipe, and the parent places the records by index. After each of its own
    trials the parent polls the pipes and reads and reaps every worker that
    has finished, so a trial that raises in a worker, or a worker that dies,
    is reported at the parent's next trial boundary; then it reads and reaps
    the rest. When a trial raises or a worker dies, every worker still
    running is killed and reaped before the error leaves. `trial` derives
    its streams from the index; it is never pickled, only its records are.
    Every call first has malloc keep its freed heap (_keep_freed_memory)."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    _keep_freed_memory()
    workers = resolve_workers(workers, trials)
    records, started = [], time.perf_counter()
    while len(records) < trials:
        records.append(trial(len(records)))
        left = trials - len(records)
        mean = (time.perf_counter() - started) / len(records)
        if mean * (left - math.ceil(left / workers)) > _FORK_START_S:
            break
    first = len(records)
    if first == trials:
        return records
    records += [None] * (trials - first)
    workers = min(workers, trials - first)
    chunk = math.ceil((trials - first) / 1024)
    children = {}  # read end -> (its pipe, pid) of each worker not yet reaped
    finished = select.poll()  # not select.select, which refuses descriptors >= 1024

    def reap(read: int) -> None:
        pipe, pid = children[read]
        finished.unregister(read)
        with pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        del children[read]
        for i, record in _collect(pid, data, status):
            records[i] = record

    tokens, write = os.pipe()
    try:
        try:
            os.write(write, b"".join(i.to_bytes(4, "little")
                                     for i in range(first, trials, chunk)))
        finally:
            os.close(write)
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_dealt(trial, _dealt(tokens, chunk, trials), write)
            os.close(write)
            children[read] = (open(read, "rb"), pid)
            finished.register(read, select.POLLIN)
        for i in _dealt(tokens, chunk, trials):
            records[i] = trial(i)
            for read, _ in finished.poll(0):
                reap(read)
        for read in list(children):
            reap(read)
    finally:
        os.close(tokens)
        for pipe, pid in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return records


def _resilience_trial(rows: tuple, trials: int, base_seed: int, t: int) -> bool:
    params, m, path = rows[t // trials]
    rng = trial_rng(base_seed, *path, t % trials)
    return _edges_k_connected(params.n, _model_edges(params, rng), m + 1)


def _run_rows(cfg: ExperimentConfig, rows: list, workers: int | None,
              axis: str = "", critical: CriticalResult | None = None
              ) -> list[ExperimentResult]:
    """One result per (params, m, path, sweep value) row, its trial i drawn
    from trial_rng(cfg.base_seed, *path, i). Every row is checked before the
    first trial; then the cfg.trials trials of every row run as one batch."""
    for params, m, _, _ in rows:
        if m < 0:
            raise InvalidParameterError(f"m must be >= 0, got {m}")
        _check_expected_pairs(params.n, params.K, params.P)
    started = time.perf_counter()
    trial = partial(_resilience_trial, tuple(row[:3] for row in rows),
                    cfg.trials, cfg.base_seed)
    records = _map_trials(trial, len(rows) * cfg.trials, workers)
    wall_time = time.perf_counter() - started
    results = []
    for j, (params, m, _, value) in enumerate(rows):
        successes = sum(records[j * cfg.trials:(j + 1) * cfg.trials])
        lo, hi = wilson_interval(successes, cfg.trials)
        alpha = alpha_from_params(params, m) if params.n >= 3 else math.nan
        pred = predicted_limit_prob(alpha, m) if params.n >= 3 else math.nan
        results.append(ExperimentResult(
            sweep_param=axis, sweep_value=value, params=params, m=m,
            trials=cfg.trials, successes=successes,
            empirical_prob=successes / cfg.trials, ci_low=lo, ci_high=hi,
            alpha=alpha, predicted_limit=pred, critical=critical,
            seed=cfg.base_seed, wall_time=wall_time))
    return results


def run_resilience_trials(cfg: ExperimentConfig,
                          workers: int | None = None) -> ExperimentResult:
    """Estimate P[model graph survives m node failures] over cfg.trials
    independent samples, trial i drawn from trial_rng(cfg.base_seed, i)."""
    return _run_rows(cfg, [(cfg.params, cfg.m, (), None)], workers)[0]


def sweep_experiment(cfg: ExperimentConfig,
                     workers: int | None = None) -> list[ExperimentResult]:
    """One resilience estimate per sweep value, each row carrying the
    critical value of the swept axis (the figure protocol's vertical line).
    Row j's trial i draws from trial_rng(cfg.base_seed, j, i)."""
    if cfg.sweep is None or not cfg.sweep[1]:
        raise InvalidParameterError("sweep_experiment needs cfg.sweep with a value")
    axis, values = cfg.sweep
    critical = solve_critical(axis, cfg.params, cfg.m)
    cast = int if axis in ("n", "K", "P", "m") else float
    rows = []
    for j, value in enumerate(values):
        point = {**vars(cfg.params), "m": cfg.m, axis: cast(value)}
        m = point.pop("m")
        rows.append((ModelParams(**point), m, (j,), value))
    return _run_rows(cfg, rows, workers, axis, critical)


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
    """Chi-square GOF with cells pooled so every expected count is >= 5.
    (nan, nan) when fewer than two pooled cells remain: then there is no test."""
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
        return math.nan, math.nan
    # Pearson's statistic and its chi-square(cells - 1) upper tail: the float
    # operations of scipy.stats.chisquare, without importing scipy.stats.
    from scipy.special import chdtrc  # only here: no trial needs scipy
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
    records = _map_trials(partial(_degree_trial, params, hs, base_seed), trials, None)
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
    records = _map_trials(partial(_dominance_trial, params, z, k, base_seed), trials, None)
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
    occurrences = sum(_map_trials(partial(_gap_trial, params, k, base_seed), trials, None))
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
    records = _map_trials(partial(_coupling_trial, n, K, P, d, base_seed), trials, None)
    valid = sum(ok for ok, _ in records)
    lo, hi = wilson_interval(valid, trials)
    return CouplingReport(validity_rate=valid / trials, valid_trials=valid,
                          trials=trials, ci_low=lo, ci_high=hi,
                          containment_checked=valid, x=records[-1][1])
