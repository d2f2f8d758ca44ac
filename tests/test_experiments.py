import contextlib
import ctypes
import math
import operator
import os
import signal
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from iglab import experiments
from iglab.connectivity import is_connected, survives_node_failures
from iglab.errors import InvalidParameterError
from iglab.experiments import (
    ExperimentConfig,
    degree_law_test,
    coupling_validity_rate,
    dominance_test,
    gap_test,
    run_resilience_trials,
    sweep_experiment,
    wilson_interval,
)
from iglab.generators import gen_model_graph, trial_rng
from iglab.graph import _component_roots, connected_components, min_degree
from iglab.theory import ModelParams, alpha_from_params, poisson_pmf, predicted_limit_prob


def test_wilson_interval_examples():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0.2 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0) and 0.65 < lo < 0.8
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo == pytest.approx(2 * 1.96 * math.sqrt(0.25 / 100), rel=0.05)


def test_wilson_interval_validation():
    with pytest.raises(InvalidParameterError):
        wilson_interval(5, 0)
    with pytest.raises(InvalidParameterError):
        wilson_interval(5, 4)


def test_trivial_regimes():
    # f = 0 kills every edge; complete-graph parameters survive everything
    dead = ExperimentConfig(
        params=ModelParams(n=30, K=3, P=10, d=1, f=0.0, g=1.0),
        m=0, trials=20, base_seed=7,
    )
    assert run_resilience_trials(dead, workers=1).successes == 0
    full = ExperimentConfig(
        params=ModelParams(n=10, K=2, P=2, d=1, f=1.0, g=1.0),
        m=3, trials=20, base_seed=7,
    )
    res = run_resilience_trials(full, workers=1)
    assert res.successes == 20
    assert res.empirical_prob == 1.0


def test_worker_count_does_not_change_results():
    cfg = ExperimentConfig(
        params=ModelParams(n=60, K=4, P=20, d=2, f=0.9, g=0.9),
        m=0, trials=40, base_seed=11,
    )
    serial = run_resilience_trials(cfg, workers=1)
    parallel = run_resilience_trials(cfg, workers=4)
    assert serial.successes == parallel.successes
    assert serial.to_dict()["empirical_prob"] == parallel.to_dict()["empirical_prob"]


def test_worker_count_is_capped_at_cpus_and_trials(monkeypatch):
    # a huge count would fork that many processes at the first map
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    assert experiments.resolve_workers(10 ** 6, 10 ** 6) == 3
    assert experiments.resolve_workers(8, 2) == 2
    monkeypatch.setenv("RG_LAB_THREADS", str(10 ** 6))
    assert experiments.resolve_workers(None, 10 ** 6) == 3
    monkeypatch.delenv("RG_LAB_THREADS")
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    assert experiments.resolve_workers(None, 10) == 1
    assert experiments.resolve_workers(4, 10) == 1


def test_worker_count_follows_the_cpus_this_process_may_use(monkeypatch):
    # a cpuset-limited container counts the host's CPUs but may run on fewer
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    assert experiments.resolve_workers(None, 10) == 1
    assert experiments.resolve_workers(4, 10) == 1
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    assert experiments.resolve_workers(None, 10) == 4
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert experiments.resolve_workers(None, 10) == 1


def test_worker_count_is_one_without_fork(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.delattr(experiments.os, "fork")
    assert experiments.resolve_workers(None, 10) == 1
    assert experiments.resolve_workers(4, 10) == 1
    with pytest.raises(InvalidParameterError):
        experiments.resolve_workers(0, 10)


def _count_forks(monkeypatch) -> list:
    """Record the pid of every worker that experiments forks."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        forks.append(pid)  # in the worker itself, a copy of the list gets 0
        return pid

    monkeypatch.setattr(experiments.os, "fork", counting_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_points_share_one_pool(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)  # workers even on one CPU
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)  # workers for any trial cost
    forks = _count_forks(monkeypatch)
    cfg = ExperimentConfig(params=ModelParams(n=60, K=4, P=20, d=2, f=0.9, g=0.9),
                           m=0, trials=12, base_seed=5,
                           sweep=("g", (0.5, 0.7, 0.9)))
    rows = sweep_experiment(cfg, workers=2)
    assert len(forks) == 1
    serial = sweep_experiment(cfg, workers=1)
    assert [r.successes for r in rows] == [r.successes for r in serial]


def _map_all(workers, trials, trial):
    return experiments._map_trials(trial, trials, workers)


def _fail_at(bad: int, i: int) -> int:
    if i == bad:
        raise ValueError(f"trial {i} failed")
    return i


@pytest.mark.parametrize("workers", [2, 3])
def test_trial_map_does_not_depend_on_the_schedule(monkeypatch, workers):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    params = ModelParams(n=60, K=4, P=20, d=2, f=0.9, g=0.9)
    trials = (operator.neg, partial(experiments._degree_trial, params, (0, 1, 2), 5))
    monkeypatch.setattr(experiments, "_FORK_START_S", math.inf)
    serial = [_map_all(workers, 7, trial) for trial in trials]
    assert serial[0] == [-i for i in range(7)]
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    forks = _count_forks(monkeypatch)
    assert [_map_all(workers, 7, trial) for trial in trials] == serial
    assert len(forks) == 2 * (workers - 1)


def test_cheap_trials_start_no_pool(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    # ~1 ms a trial: a worker would pay only if the first trial took > 5 ms
    cfg = ExperimentConfig(params=ModelParams(n=10, K=2, P=6, d=1, f=1.0, g=1.0),
                           m=0, trials=3, base_seed=5)
    run_resilience_trials(cfg, workers=2)
    assert forks == []


def test_no_worker_is_forked_that_could_not_save_time(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    forks = _count_forks(monkeypatch)
    # one trial left runs in the parent as fast as in a worker
    assert _map_all(4, 2, operator.neg) == [0, -1]
    assert forks == []
    # two trials left: one worker, not one per process the run may use
    assert _map_all(4, 3, operator.neg) == [0, -1, -2]
    assert len(forks) == 1


@contextlib.contextmanager
def _time_limit(seconds: float, hang: str):
    """Raise TimeoutError(hang) if the block runs longer than `seconds`."""
    def hung(signum, frame):
        raise TimeoutError(hang)

    before = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, before)


def _fail_in(bad: int, parent: int, i: int) -> int:
    """Trial i, which raises in the first trial that a worker runs (bad = 1)
    or the first that the parent runs after trial 0, which it runs before
    the fork (bad = 2). The parent's trials take 10 ms, so that a worker
    takes some before the parent has run them all."""
    in_parent = os.getpid() == parent
    if in_parent:
        time.sleep(0.01)
    if i and in_parent == (bad == 2):
        raise ValueError(f"trial {i} failed")
    return i


@pytest.mark.parametrize("bad", [1, 2])  # in a worker, in the parent
def test_no_worker_outlives_a_failed_trial(monkeypatch, bad):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    forks = _count_forks(monkeypatch)
    with pytest.raises(ValueError, match=r"trial \d+ failed") as exc:
        _map_all(2, 40, partial(_fail_in, bad, os.getpid()))
    assert len(forks) == 1
    assert (type(exc.value.__cause__).__name__ == "_RemoteTraceback") == (bad == 1)
    _assert_no_child_left()


def _die_in_a_worker(bad: int, parent: int, ran: list, i: int) -> int:
    """Trial i; a worker dies in the bad-th trial it runs, by os._exit(3)
    when bad is 3, else by SIGKILL. The parent's trials take 10 ms, so that
    a worker takes many before the parent has run them all."""
    if os.getpid() == parent:
        time.sleep(0.01)
        return i
    ran.append(i)  # a worker appends to its own copy of the list
    if len(ran) == bad:
        if bad == 3:
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@pytest.mark.parametrize("bad, reported", [(3, "exited with status 3"),
                                           (5, "was killed by signal 9")])
def test_a_worker_that_exits_is_named_and_reaped(monkeypatch, bad, reported):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    with _time_limit(30.0, "_map_trials still waits on a worker that exited"):
        with pytest.raises(RuntimeError, match=reported):
            _map_all(2, 42, partial(_die_in_a_worker, bad, os.getpid(), []))
    _assert_no_child_left()


def _slow_fail_in_a_worker(parent: int, ran: list, i: int) -> int:
    time.sleep(0.05)
    ran.append(i)  # a worker appends to its own copy of the list
    if os.getpid() != parent:
        raise ValueError(f"trial {i} failed")
    return i


def test_a_failed_worker_is_reported_at_the_next_trial_boundary(monkeypatch):
    # The parent runs trial 0, forks, and takes trials from the queue while
    # the worker's first trial raises after 50 ms. Reading the worker's pipe
    # only once the queue is empty would lose about two seconds.
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    ran = []
    with pytest.raises(ValueError, match=r"trial \d+ failed") as exc:
        _map_all(2, 42, partial(_slow_fail_in_a_worker, os.getpid(), ran))
    assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
    assert ran[0] == 0 and len(ran[1:]) <= 3, ran
    _assert_no_child_left()


def _pid_and_neg(parent: int, i: int) -> tuple[int, int]:
    if os.getpid() != parent:
        time.sleep(0.02)
    return os.getpid(), -i


def test_a_slow_worker_leaves_the_queue_to_the_parent(monkeypatch):
    # A fixed split, the parent taking trial 0 and every second trial after
    # it, gives the parent 20 of 40 however long the worker's trials take.
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    parent = os.getpid()
    trial = partial(_pid_and_neg, parent)
    serial = _map_all(1, 40, trial)
    forks = _count_forks(monkeypatch)
    records = _map_all(2, 40, trial)
    assert len(forks) == 1
    assert [neg for _, neg in records] == [neg for _, neg in serial]
    assert [pid for pid, _ in records].count(parent) >= 30, records
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_more_trials_than_one_page_of_tokens(monkeypatch, workers):
    # 4999 trials left after trial 0 go out as 1000 tokens of 5 trials each
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    forks = _count_forks(monkeypatch)
    with _time_limit(30.0, "_map_trials blocked writing its tokens"):
        assert _map_all(workers, 5000, operator.neg) == [-i for i in range(5000)]
    assert len(forks) == workers - 1
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_no_descriptor_outlives_a_trial_map(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    forks = _count_forks(monkeypatch)
    before = set(os.listdir("/proc/self/fd"))
    assert _map_all(2, 6, operator.neg) == [-i for i in range(6)]
    assert set(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ValueError, match="trial 3 failed"):
        _map_all(2, 6, partial(_fail_at, 3))
    assert set(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 2
    _assert_no_child_left()


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_trials_do_not_fault_their_memory_in_again():
    # Left to glibc's dynamic thresholds, each n = 2000 trial handed its
    # arrays back to the kernel and took about 500 minor page faults to get
    # them again; a fresh interpreter, so no earlier test has set mallopt.
    code = (
        "import resource\n"
        "from functools import partial\n"
        "from iglab import experiments\n"
        "from iglab.theory import ModelParams\n"
        "params = ModelParams(n=2000, K=36, P=10000, d=2, f=1.0, g=0.5169849666)\n"
        "trial = partial(experiments._resilience_trial, ((params, 0, ()),), 30, 4242)\n"
        "experiments._map_trials(trial, 30, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "experiments._map_trials(trial, 30, 1)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100, f"{done.stdout.strip()} minor faults per trial"


@pytest.mark.parametrize("libc", [
    object(),  # a libc without mallopt (macOS)
    OSError("no C library"),
    TypeError("name must be a str"),  # CDLL(None) on Windows
], ids=["no-mallopt", "OSError", "TypeError"])
def test_trials_run_where_mallopt_cannot_be_found(monkeypatch, libc):
    params = ModelParams(n=60, K=4, P=20, d=2, f=0.9, g=0.9)
    trial = partial(experiments._resilience_trial, ((params, 0, ()),), 10, 5)
    expected = _map_all(1, 10, trial)
    lookups = []

    def cdll(name):
        lookups.append(name)
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    experiments._keep_freed_memory.cache_clear()
    try:
        assert _map_all(1, 10, trial) == expected
        assert _map_all(1, 10, trial) == expected
    finally:
        experiments._keep_freed_memory.cache_clear()
    assert lookups == [None]  # once per process


@pytest.mark.parametrize("axis, values", [
    ("g", (0.5, 1.5)),  # outside [0, 1]
    ("n", (200, 10 ** 6)),  # past the within-object pair budget
    ("m", (0, -1)),
])
def test_sweep_refuses_a_bad_row_before_any_trial(monkeypatch, axis, values):
    calls = []

    def counting(params, rng):
        calls.append(params)
        return gen_model_graph(params, rng)

    monkeypatch.setattr(experiments, "gen_model_graph", counting)
    cfg = ExperimentConfig(params=ModelParams(n=200, K=4, P=30, d=1, f=1.0, g=0.5),
                           m=0, trials=50, base_seed=1, sweep=(axis, values))
    with pytest.raises(InvalidParameterError):
        sweep_experiment(cfg, workers=1)
    assert calls == []


def test_sweep_rows_share_the_batch_wall_time():
    cfg = ExperimentConfig(params=ModelParams(n=60, K=4, P=20, d=2, f=0.9, g=0.9),
                           m=0, trials=3, base_seed=5, sweep=("m", (0, 1)))
    first, second = sweep_experiment(cfg, workers=1)
    assert first.wall_time == second.wall_time > 0


def test_verify_reports_do_not_depend_on_worker_count(monkeypatch):
    params = ModelParams(n=60, K=4, P=30, d=1, f=1.0, g=0.6)

    def reports():
        return (degree_law_test(params, trials=30, base_seed=3),
                dominance_test(params, trials=30, k=2, base_seed=3),
                gap_test(params, trials=30, k=2, base_seed=3),
                coupling_validity_rate(200, 50, 500, 2, trials=6, base_seed=3))

    monkeypatch.setenv("RG_LAB_THREADS", "1")
    serial = reports()
    monkeypatch.setenv("RG_LAB_THREADS", "2")
    assert reports() == serial


def test_m_zero_matches_plain_connectivity():
    cfg = ExperimentConfig(
        params=ModelParams(n=40, K=3, P=15, d=1, f=0.8, g=0.6),
        m=0, trials=60, base_seed=13,
    )
    res = run_resilience_trials(cfg, workers=1)
    direct = sum(
        is_connected(gen_model_graph(cfg.params, trial_rng(cfg.base_seed, i)))
        for i in range(cfg.trials)
    )
    assert res.successes == direct


@pytest.mark.parametrize("m", [0, 1, 2])
def test_resilience_trial_matches_the_public_decision(m):
    # on these sparse models some graphs pass the min-degree filter and still
    # are not (m + 1)-connected
    gaps = 0
    for params in (ModelParams(n=20, K=4, P=80, d=1, f=1.0, g=1.0),
                   ModelParams(n=12, K=3, P=20, d=1, f=1.0, g=1.0)):
        rows = ((params, m, ()),)
        for i in range(100):
            g = gen_model_graph(params, trial_rng(7, i))
            verdict = survives_node_failures(g, m)
            assert experiments._resilience_trial(rows, 100, 7, i) == verdict
            gaps += min_degree(g) > m and not verdict
            a, b = gen_model_graph(params, trial_rng(7, i)).pairs.T
            roots = _component_roots(g.n, np.concatenate((a, b)), np.concatenate((b, a)))
            assert (roots == np.arange(g.n)).sum() == len(connected_components(g))
    assert gaps > 0


def test_sweep_rows_carry_per_point_predictions():
    base = ModelParams(n=200, K=4, P=30, d=1, f=1.0, g=0.5)
    cfg = ExperimentConfig(params=base, m=0, trials=10, base_seed=3,
                           sweep=("g", (0.3, 0.6, 0.9)))
    rows = sweep_experiment(cfg, workers=1)
    assert [r.sweep_value for r in rows] == [0.3, 0.6, 0.9]
    for r in rows:
        assert r.sweep_param == "g"
        assert r.params.g == r.sweep_value
        expect_alpha = alpha_from_params(r.params, 0)
        assert r.alpha == pytest.approx(expect_alpha)
        assert r.predicted_limit == pytest.approx(predicted_limit_prob(expect_alpha, 0))
        assert r.ci_low <= r.empirical_prob <= r.ci_high
        assert r.critical is not None and r.critical.axis == "g"
    # the shared critical value is the g solving the zero-offset equation
    assert rows[0].critical.value == rows[1].critical.value


def test_sweep_requires_axis():
    cfg = ExperimentConfig(params=ModelParams(n=10, K=2, P=5, d=1, f=1.0, g=1.0),
                           m=0, trials=5, base_seed=0)
    with pytest.raises(InvalidParameterError):
        sweep_experiment(cfg)


def test_degree_law_report_smoke():
    params = ModelParams(n=300, K=5, P=100, d=1, f=1.0, g=0.9)
    report = degree_law_test(params, trials=150, base_seed=21, hs=(0, 1))
    assert len(report.entries) == 2
    for entry in report.entries:
        assert 0.0 <= entry.tv_distance <= 1.0
        assert entry.lam >= 0.0
        # lambda is below 1e-20 here, so no two cells expect 5: no chi-square
        assert math.isnan(entry.chi2) and math.isnan(entry.p_value)
    # dense regime: isolated nodes should be rare in both law and data
    iso = report.entries[0]
    assert iso.mean_count <= iso.lam + 5 * math.sqrt(iso.lam + 1) + 1


def _pooled_cells(counts, lam):
    """Reference pooling: cells 0..top against Poisson(lam) plus an upper
    tail cell, merged left to right until each expects >= 5; a short
    remainder joins the last full cell."""
    trials = len(counts)
    top = int(max(counts.max(), math.ceil(lam) + 1))
    obs = np.bincount(counts, minlength=top + 2).astype(float)
    exp = np.array([poisson_pmf(lam, v) for v in range(top + 1)]) * trials
    exp = np.append(exp, max(0.0, trials - exp.sum()))
    cells, run = [], [0.0, 0.0]
    for o, e in zip(obs, exp):
        run = [run[0] + o, run[1] + e]
        if run[1] >= 5.0:
            cells.append(run)
            run = [0.0, 0.0]
    if run[1] > 0 and cells:
        cells[-1] = [cells[-1][0] + run[0], cells[-1][1] + run[1]]
    return [c[0] for c in cells], [c[1] for c in cells]


def test_chi2_against_poisson_matches_scipy_chisquare():
    from scipy import stats

    rng = np.random.default_rng(12)
    for _ in range(200):
        lam = float(rng.choice([0.05, 0.5, 2.0, 7.0, 30.0]))
        drift = float(rng.choice([1.0, 1.3]))  # drawn from the law, and off it
        counts = rng.poisson(lam * drift, size=int(rng.integers(5, 600)))
        obs, exp = _pooled_cells(counts, lam)
        chi2, p = experiments._chi2_against_poisson(counts, lam)
        if len(exp) < 2:
            assert math.isnan(chi2) and math.isnan(p)
            continue
        ref = stats.chisquare(obs, exp)
        assert chi2 == pytest.approx(float(ref.statistic), rel=1e-12, abs=0)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-12, abs=0)


def test_dominance_report_smoke():
    params = ModelParams(n=100, K=4, P=30, d=1, f=1.0, g=0.8)
    report = dominance_test(params, trials=120, k=1, base_seed=5)
    assert report.z < report.p_model or report.z < 1.0  # z is a probability
    assert 0.0 <= report.p_model <= 1.0 and 0.0 <= report.p_er <= 1.0
    assert report.holds  # generous margin at these sizes
    assert report.difference == pytest.approx(report.p_model - report.p_er)


def test_gap_report_smoke_and_cost_guard():
    params = ModelParams(n=60, K=4, P=30, d=1, f=1.0, g=0.6)
    report = gap_test(params, trials=100, k=2, base_seed=9)
    assert report.occurrences == report.frequency * report.trials
    assert report.ci_low <= report.frequency <= report.ci_high
    assert gap_test(params, trials=1, k=4, base_seed=0).k == 4


def test_coupling_report_smoke():
    report = coupling_validity_rate(200, 50, 500, 2, trials=10, base_seed=2)
    assert report.trials == 10
    assert report.containment_checked == report.valid_trials
    assert 0.0 <= report.validity_rate <= 1.0
    assert report.x > 0


def test_config_validation():
    params = ModelParams(n=10, K=2, P=5, d=1, f=1.0, g=1.0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(params=params, m=-1, trials=5, base_seed=0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(params=params, m=0, trials=0, base_seed=0)
