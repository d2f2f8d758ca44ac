"""iglab benchmark: drive one workload through the iglab CLI, check its
outputs against a serial replay through the public API, and print the
result as one JSON line.

    python3 bench/run.py --workload simulate_r0 --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics (setup_s, trials_per_s,
peak_rss_mb, failed_share) with tracing off. --trace 1 makes three CLI
calls alternating with the experiments call they wrap, then an untraced and
a traced serial pass over the same trials, and prints the per-layer metrics.
The workloads and what each metric should move are described in README.md
next to this file. Run from the root of a checkout;
iglab is imported from its src/ directory, nothing is installed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("simulate_r0", "simulate_k3", "sweep_m1")
# Seed kept out of every run made while the benchmark was tuned; a later
# performance claim must also hold on it.
HELD_OUT_SEED = 4242
SETUP_REPEATS = 3
SOLVE_REPEATS = 25
OVERHEAD_PAIRS = 3  # CLI / experiments call pairs in a traced run

# What a user pays before the first trial: a fresh interpreter imports iglab,
# parses and validates the parameters and, for a sweep, solves for the
# critical value (sweep_experiment does so before its first point; simulate
# does not call the solver).
SETUP_CHILD = """
import json, sys, time
import iglab
from iglab.cli import build_parser
spec = json.loads(sys.argv[1])
build_parser().parse_args(spec["argv"])
params = iglab.ModelParams(**spec["params"])
iglab.ExperimentConfig(params=params, m=spec["m"], trials=spec["trials"],
                       base_seed=spec["seed"])
if spec["solve"]:
    iglab.solve_critical("g", params, spec["m"])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="run the workload at self-test size")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


@dataclass
class CliRun:
    wall: float
    code: int
    output: bytes             # CSV bytes
    successes: list[int] | None


def cli_once(wl, seed: int, workers: int, out_dir: Path) -> CliRun:
    """One in-process call of the iglab console entry point."""
    from iglab import cli

    out = out_dir / f"{wl.name}.csv"
    argv = wl.cli_argv(seed, workers, str(out))
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed run, not a benchmark crash
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    if code != 0:
        return CliRun(wall, code, b"", None)
    data = out.read_bytes()
    rows = csv.DictReader(io.StringIO(data.decode()))
    return CliRun(wall, code, data, [int(r["successes"]) for r in rows])


def experiments_call(wl, seed: int, workers: int) -> float:
    """Wall time of the experiments-layer call that the CLI subcommand wraps."""
    from iglab import ExperimentConfig, run_resilience_trials, sweep_experiment

    t0 = time.perf_counter()
    if wl.command == "sweep":
        cfg = ExperimentConfig(params=wl.params(), m=wl.m, trials=wl.trials,
                               base_seed=seed, sweep=("g", wl.g_values))
        sweep_experiment(cfg, workers=workers)
    else:
        cfg = ExperimentConfig(params=wl.params(wl.g_values[0]), m=wl.m,
                               trials=wl.trials, base_seed=seed)
        run_resilience_trials(cfg, workers=workers)
    return time.perf_counter() - t0


def setup_once(wl, seed: int, workers: int) -> float:
    sweep = wl.command == "sweep"
    # The parameters the CLI validates: a sweep leaves g at its default 1.
    params = wl.params() if sweep else wl.params(wl.g_values[0])
    spec = {"argv": wl.cli_argv(seed, workers, "setup.csv"),
            "params": {k: getattr(params, k) for k in ("n", "K", "P", "d", "f", "g")},
            "m": wl.m, "trials": wl.trials, "seed": seed, "solve": sweep}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(spec)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1]) - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool workers
    and set-up interpreters), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("iglab/*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # exported checkouts carry no history; see source_sha256
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def fingerprint(wl, args, nproc: int, workers: int, digest: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": nproc, "workers": workers, "git_commit": git_commit(),
        "source_sha256": digest, "workload": wl.name,
        "size": "tiny" if args.tiny else "full", "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class Checks:
    """Correctness checks; each failure is charged to the trials it spoils."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.results: dict[str, dict] = {}

    def add(self, name: str, ok: bool, failed_trials: int = 0, detail=None):
        charge = 0 if ok else max(1, failed_trials)
        self.results[name] = {"ok": ok, "failed_trials": charge, "detail": detail}

    def whole_run(self, name: str, ok: bool, detail=None):
        self.add(name, ok, self.attempted, detail)

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(r["failed_trials"] for r in self.results.values()))


def check_cli_runs(checks: Checks, runs: list[CliRun], ref) -> None:
    checks.whole_run("exit_code", all(r.code == 0 for r in runs),
                     [r.code for r in runs])
    checks.whole_run("output_repeat", len({r.output for r in runs}) == 1)
    diff = max((sum(abs(a - b) for a, b in zip(r.successes, ref.successes))
                if len(r.successes) == len(ref.successes) else checks.attempted
                for r in runs if r.successes is not None), default=0)
    checks.add("recount", diff == 0, diff,
               {"cli": [r.successes for r in runs], "serial": ref.successes})


def check_oracle(checks: Checks, wl, ref, seed: int) -> None:
    """The program's verdicts against networkx, on the trial set's first full
    decision and on two constructed graphs, one of them not k-connected."""
    from iglab import survives_node_failures
    from workloads import glued_graphs, oracle_truths

    if wl.k < 2:
        return
    cases = ref.oracle_cases + [(g, survives_node_failures(g, wl.m))
                                for g in glued_graphs(seed, wl.k)]
    truths = oracle_truths([g for g, _ in cases], wl.k)
    wrong = sum(t != verdict for t, (_, verdict) in zip(truths, cases))
    # Without a trial graph and a "no" the check could not catch a decider
    # that accepts too often.
    ok = wrong == 0 and bool(ref.oracle_cases) and not all(truths)
    checks.add("oracle", ok, wrong,
               {"graphs": len(cases), "trial_graphs": len(ref.oracle_cases),
                "not_k_connected": truths.count(False), "disagree": wrong})


def check_count_repeat(checks: Checks, key: str, counts: dict) -> None:
    """Compare this run's counts with any earlier run of the same code,
    workload and seed; the union is kept for the next run."""
    path = RUNS / "counts" / f"{key}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in counts if k in earlier and earlier[k] != counts[k])
    checks.whole_run("count_repeat", not differ,
                     {k: [earlier[k], counts[k]] for k in differ})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **counts}, indent=1, sort_keys=True))


def run_end_to_end(wl, seed, seconds, workers, checks, out_dir):
    from workloads import serial_pass

    setup = [setup_once(wl, seed, workers) for _ in range(SETUP_REPEATS)]
    runs: list[CliRun] = []
    started = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - started < seconds:
        runs.append(cli_once(wl, seed, workers, out_dir))
    rss = peak_rss_mb()
    ref = serial_pass(wl, seed)
    check_cli_runs(checks, runs, ref)
    check_oracle(checks, wl, ref, seed)
    counts = {"successes": ref.successes,
              "output_sha256": hashlib.sha256(runs[0].output).hexdigest()}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (statistics.median(wl.total_trials / r.wall for r in runs),
                         "trials/s"),
        "peak_rss_mb": (rss, "MB"),
        # Rule-of-succession estimate: never 0, so a bound relative to the
        # parent's median stays defined; the raw counts are in the result.
        "failed_share": ((checks.failed + 1) / (checks.attempted + 2), "ratio"),
    }
    samples = {"setup_s": setup, "cli_wall_s": [r.wall for r in runs],
               "serial_pass_s": ref.seconds}
    return metrics, counts, samples, None


def run_traced(wl, seed, workers, used, checks, out_dir):
    from iglab import solve_critical
    from tracing import Tracer, layer_metrics, traced_pass
    from workloads import TINY, serial_pass

    solve_ms = []
    for _ in range(SOLVE_REPEATS):
        t0 = time.perf_counter()
        solve_critical("g", wl.params(), wl.m)
        solve_ms.append((time.perf_counter() - t0) * 1e3)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))  # pool start-up before any timing
    serial_pass(TINY[wl.name], seed)  # first-call costs stay out of every timing
    # The CLI call and the experiments call it wraps alternate in order, so
    # that a drift in machine speed does not land on one side of the pair.
    runs, experiments_walls = [], []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            experiments_walls.append(experiments_call(wl, seed, workers))
        runs.append(cli_once(wl, seed, workers, out_dir))
        if not pair % 2:
            experiments_walls.append(experiments_call(wl, seed, workers))
    ref = serial_pass(wl, seed)
    tracer = Tracer()
    counts = traced_pass(wl, seed, tracer)
    check_cli_runs(checks, runs, ref)
    check_oracle(checks, wl, ref, seed)
    checks.add("traced_recount", counts["successes"] == ref.successes,
               sum(abs(a - b) for a, b in zip(counts["successes"], ref.successes)))

    cli_walls = [r.wall for r in runs]
    trials_per_s = wl.total_trials / statistics.median(cli_walls)
    serial_per_s = wl.total_trials / ref.seconds
    traced_s = sum(tracer.ms("experiments.trial").values()) / 1e3
    layers = layer_metrics(wl, tracer, counts)
    metrics = {
        "theory.solve_critical_ms": (statistics.median(solve_ms), "ms"),
        **layers,
        "experiments.serial_trials_per_s": (serial_per_s, "trials/s"),
        "experiments.parallel_efficiency": (trials_per_s / (used * serial_per_s), "ratio"),
        "cli.overhead_ms": (statistics.median(
            c - e for c, e in zip(cli_walls, experiments_walls)) * 1e3, "ms"),
        "trace.overhead_share": ((traced_s - ref.seconds) / ref.seconds, "ratio"),
    }
    repeat = {name: layers[name][0] for name in (
        "generators.pair_keys", "generators.edges",
        "connectivity.full_share", "connectivity.probe_pairs")}
    repeat.update(successes=ref.successes,
                  output_sha256=hashlib.sha256(runs[0].output).hexdigest())
    samples = {"cli_wall_s": cli_walls, "experiments_wall_s": experiments_walls,
               "serial_pass_s": ref.seconds, "traced_pass_s": traced_s,
               "trials_per_s": trials_per_s, "self_ms": tracer.self_ms()}
    return metrics, repeat, samples, tracer.dump()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iglab" / "__init__.py").is_file():
        print(f"bench: no iglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import iglab

    if not Path(iglab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: iglab imported from {iglab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import FULL, TINY

    wl = (TINY if args.tiny else FULL)[args.workload]
    nproc = len(os.sched_getaffinity(0))
    used = min(nproc, wl.trials)
    size = "tiny" if args.tiny else "full"
    digest = source_digest()
    out_dir = RUNS / f"{wl.name}-{size}-{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks(wl.total_trials)

    if args.trace:
        metrics, counts, samples, spans = run_traced(
            wl, args.seed, nproc, used, checks, out_dir)
    else:
        metrics, counts, samples, spans = run_end_to_end(
            wl, args.seed, args.seconds, nproc, checks, out_dir)
    check_count_repeat(checks, f"{digest[:16]}-{wl.name}-{size}-{args.seed}", counts)

    report = {"fingerprint": fingerprint(wl, args, nproc, used, digest),
              "checks": checks.results, "counts": counts, "samples": samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, default=str))
    if spans is not None:
        (out_dir / "spans.json").write_text(json.dumps(spans))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}", file=sys.stderr)
    bad = [name for name, r in checks.results.items() if not r["ok"]]
    print(f"checks: {'all passed' if not bad else 'FAILED ' + ', '.join(bad)}",
          file=sys.stderr)
    print(json.dumps({"bench": report}, default=str))
    print(json.dumps({
        "correct": not bad,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
