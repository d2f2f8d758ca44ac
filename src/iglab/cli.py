"""Command-line laboratory front end.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 internal
invariant violation (e.g. coupling containment failure).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import (
    ContainmentViolationError,
    InfeasibleCouplingError,
    InvalidParameterError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    coupling_validity_rate,
    degree_law_test,
    dominance_test,
    gap_test,
    resolve_workers,
    run_resilience_trials,
    sweep_axis_type,
    sweep_experiment,
)
from .generators import gen_model_graph, trial_rng
from .graph import dump_edge_list
from .theory import (
    CRITICAL_AXES,
    ModelParams,
    alpha_from_params,
    approx_edge_prob_overlap,
    check_regime,
    edge_prob_overlap_exact,
    predicted_finite_prob,
    predicted_limit_prob,
    solve_critical,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

CSV_COLUMNS = [
    "sweep_param", "sweep_value", "n", "K", "P", "d", "f", "g", "m",
    "trials", "successes", "empirical_prob", "ci_low", "ci_high",
    "alpha", "predicted_limit", "critical_value", "seed",
]

_MAX_RATIONAL_DIGITS = 64


def _fmt(x) -> str:
    """Frozen textual form: 9 significant digits for floats."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.9g}"
    return str(x)


def _fmt_rational(frac) -> str:
    num, den = frac.numerator, frac.denominator
    # compared as integers: str() of an int past 4300 digits raises ValueError
    if max(num, den) < 10 ** _MAX_RATIONAL_DIGITS:
        return f"{num}/{den}"
    return "(rational too large to print)"


def _add_ring_args(p: argparse.ArgumentParser, need_n: bool = True) -> None:
    if need_n:
        p.add_argument("-n", type=int, required=True, help="node count")
    p.add_argument("-K", type=int, required=True, help="object ring size")
    p.add_argument("-P", type=int, required=True, help="object pool size")
    p.add_argument("-d", type=int, required=True, help="overlap threshold")


def _add_model_args(p: argparse.ArgumentParser, need_n: bool = True) -> None:
    _add_ring_args(p, need_n)
    p.add_argument("-f", type=float, default=1.0, help="friendship probability")
    p.add_argument("-g", type=float, default=1.0, help="link-survival probability")


def _params_from_args(args, n: int | None = None) -> ModelParams:
    """The model flags as checked ModelParams; a command without -f and -g
    (verify coupling) has both at 1."""
    return ModelParams(n=n if n is not None else args.n, K=args.K, P=args.P,
                       d=args.d, f=getattr(args, "f", 1.0), g=getattr(args, "g", 1.0))


# -- subcommands -------------------------------------------------------------

def cmd_edge_prob(args) -> int:
    p = _params_from_args(args, n=2).p  # n is unused; K, P, d, f, g are checked
    s = edge_prob_overlap_exact(args.K, args.P, args.d)
    approx = approx_edge_prob_overlap(args.K, args.P, args.d)
    s_f = float(s)
    t = p * s_f
    # from the rational: s > 0 (d <= K), but s_f underflows to 0 at large d
    rel = float(abs(Fraction(approx) - s) / s)
    print(f"s exact    = {_fmt_rational(s)}")
    print(f"s float    = {_fmt(s_f)}")
    print(f"t = f*g*s  = {_fmt(t)}")
    print(f"s approx   = {_fmt(approx)}  (asymptotic (K^2/P)^d / d!)")
    print(f"rel error  = {_fmt(rel)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    params = _params_from_args(args)
    alpha = alpha_from_params(params, args.m)
    pred = predicted_limit_prob(alpha, args.m)
    print(f"alpha           = {_fmt(alpha)}")
    print(f"predicted limit = {_fmt(pred)}")
    print(f"finite-n        = {_fmt(predicted_finite_prob(params, args.m))}"
          "  (exp(-E[X]), X = nodes of degree <= m)")
    for cond in check_regime(params):
        if not cond.ok:
            print(f"regime warning: {cond.name}: {cond.description} "
                  f"(threshold {_fmt(cond.threshold)})")
    return EXIT_OK


def cmd_critical(args) -> int:
    params = _params_from_args(args)
    res = solve_critical(args.axis, params, args.m)
    marker = "" if res.feasible else "  INFEASIBLE"
    print(f"critical {res.axis}* = {_fmt(res.value)}{marker}")
    if res.alpha_at_value is not None:
        print(f"alpha at value = {_fmt(res.alpha_at_value)}")
    if res.note:
        print(f"note: {res.note}")
    return EXIT_OK


# The run fields of simulate and sweep as (name, type, default); a default
# of None marks a required field. Each is a flag (-x for a one-letter name,
# --name otherwise) and a config-file key.
_RUN_FIELDS = (
    ("n", int, None), ("K", int, None), ("P", int, None), ("d", int, None),
    ("f", float, 1.0), ("g", float, 1.0), ("m", int, 0),
    ("trials", int, None), ("seed", int, 0),
)


def _parse_config_file(path: Path) -> dict:
    """Flat key=value format with an optional [sweep] section holding
    axis=<name> and values=<comma list>. Any other key is refused."""
    cfg: dict = {}
    known = tuple(name for name, _, _ in _RUN_FIELDS)
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[sweep]":
            known = ("axis", "values")
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise InvalidParameterError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(known)}")
        cfg[key] = val
    return cfg


def _parse(cast, name: str, text: str):
    try:
        return cast(text)
    except ValueError:
        raise InvalidParameterError(f"{name} must be {cast.__name__}, got {text!r}") from None


def _resolve_run_config(args, want_sweep: bool) -> ExperimentConfig:
    """Each run field from its flag, else the config file, else its default.
    An unknown sweep axis is left to solve_critical, which refuses it before
    any trial runs."""
    raw = _parse_config_file(Path(args.config)) if args.config else {}
    run = {}
    for name, cast, default in _RUN_FIELDS:
        value = getattr(args, name)
        if value is None:
            value = _parse(cast, name, raw[name]) if name in raw else default
        if value is None:
            raise InvalidParameterError(f"missing required field {name!r}")
        run[name] = value
    m, trials, seed = run.pop("m"), run.pop("trials"), run.pop("seed")
    sweep = None
    if want_sweep:
        axis = args.axis or raw.get("axis")
        values = args.values or raw.get("values")
        if not axis or not values:
            raise InvalidParameterError("sweep needs an axis and a value list")
        cast = sweep_axis_type(axis)
        sweep = (axis, tuple(_parse(cast, axis, v) for v in values.split(",")))
    return ExperimentConfig(params=ModelParams(**run), m=m, trials=trials,
                            base_seed=seed, sweep=sweep)


def _csv_rows(rows: list[ExperimentResult]) -> str:
    out = [",".join(CSV_COLUMNS)]
    for r in rows:
        d = r.to_dict()
        out.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def _write_outputs(csv_text: str, rows: list[ExperimentResult],
                   out_path: Path, cfg: ExperimentConfig,
                   started: str, workers: int) -> None:
    try:
        out_path.write_text(csv_text)
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc}") from exc
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    manifest = {
        "tool": "iglab",
        "version": __version__,
        "config": {
            **asdict(cfg.params),
            "m": cfg.m,
            "trials": cfg.trials,
            "sweep": list(cfg.sweep) if cfg.sweep else None,
            "workers": workers,
        },
        "base_seed": cfg.base_seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            # not platform.platform(): it runs `uname -p` in a subprocess
            "platform": "-".join((platform.system(), platform.release(),
                                  platform.machine())),
        },
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": {out_path.name: f"sha256:{digest}"},
    }
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    summary = [r.to_dict() for r in rows]
    print(json.dumps({"rows": summary}, indent=2, default=str))
    print(f"wrote {out_path} and {manifest_path}", file=sys.stderr)


def cmd_run(args) -> int:
    """The simulate and sweep subcommands."""
    cfg = _resolve_run_config(args, want_sweep=args.command == "sweep")
    points = len(cfg.sweep[1]) if cfg.sweep else 1
    workers = resolve_workers(args.workers, points * cfg.trials)
    started = datetime.now(timezone.utc).isoformat()
    if cfg.sweep:
        rows = sweep_experiment(cfg, workers=workers)
    else:
        rows = [run_resilience_trials(cfg, workers=workers)]
    _write_outputs(_csv_rows(rows), rows, Path(args.out), cfg, started, workers)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    if args.subtest == "degree":
        report = degree_law_test(params, args.trials, base_seed=args.seed)
        print("degree-law test (Poisson law of degree-h node counts)")
        for e in report.entries:
            chi2 = ("no test (fewer than two cells expect >= 5)" if math.isnan(e.p_value)
                    else f"chi2={_fmt(e.chi2)} p={_fmt(e.p_value)}")
            print(f"  h={e.h}: lambda={_fmt(e.lam)} mean={_fmt(e.mean_count)} "
                  f"TV={_fmt(e.tv_distance)} {chi2}")
        for w in report.regime_warnings:
            print(f"  regime warning: {w.name}: {w.description}")
        payload = {"entries": [asdict(e) for e in report.entries]}
    elif args.subtest == "dominance":
        report = dominance_test(params, args.trials, args.k, base_seed=args.seed)
        print("stochastic-dominance test (model vs thinned Erdos-Renyi)")
        print(f"  P[model {args.k}-conn] = {_fmt(report.p_model)}")
        print(f"  P[ER(z)  {args.k}-conn] = {_fmt(report.p_er)}  (z = {_fmt(report.z)})")
        print(f"  difference = {_fmt(report.difference)}  margin = {_fmt(report.margin)}"
              f"  holds = {report.holds}")
        payload = asdict(report)
    elif args.subtest == "gap":
        report = gap_test(params, args.trials, args.k, base_seed=args.seed)
        print("gap test (min degree >= k yet not k-connected)")
        print(f"  frequency = {_fmt(report.frequency)} "
              f"({report.occurrences}/{report.trials}) "
              f"CI [{_fmt(report.ci_low)}, {_fmt(report.ci_high)}]")
        payload = asdict(report)
    else:  # coupling
        report = coupling_validity_rate(params.n, params.K, params.P, params.d,
                                        args.trials, base_seed=args.seed)
        print("coupling validity (binomial rings fit inside K; containment asserted)")
        print(f"  x = {_fmt(report.x)}")
        print(f"  validity rate = {_fmt(report.validity_rate)} "
              f"({report.valid_trials}/{report.trials}) "
              f"CI [{_fmt(report.ci_low)}, {_fmt(report.ci_high)}]")
        print(f"  containment checked on {report.containment_checked} valid trials")
        payload = asdict(report)
    print(json.dumps(payload, indent=2, default=str))
    return EXIT_OK


def cmd_dump_graph(args) -> int:
    params = _params_from_args(args)
    g = gen_model_graph(params, trial_rng(args.seed, 0))
    text = dump_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iglab",
        description="Interest-overlap random graph laboratory: edge "
                    "probabilities, connectivity predictions, critical "
                    "parameters, and Monte-Carlo resilience experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edge-prob", help="exact/asymptotic edge probabilities")
    _add_model_args(p, need_n=False)
    p.set_defaults(func=cmd_edge_prob)

    p = sub.add_parser("predict", help="scaling deviation, limit and finite-n probabilities")
    _add_model_args(p)
    p.add_argument("-m", type=int, default=0, help="failure budget")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("critical", help="critical value of one parameter axis")
    _add_model_args(p)
    p.add_argument("-m", type=int, default=0)
    p.add_argument("--axis", required=True, choices=CRITICAL_AXES)
    p.set_defaults(func=cmd_critical)

    for name, want_sweep in (("simulate", False), ("sweep", True)):
        p = sub.add_parser(name, help=f"run {name} experiment, emit CSV + manifest")
        p.add_argument("--config", help="key=value config file")
        for field, cast, _ in _RUN_FIELDS:
            p.add_argument(f"-{field}" if len(field) == 1 else f"--{field}", type=cast)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", required=True, help="output CSV path")
        p.set_defaults(func=cmd_run)
        if want_sweep:
            p.add_argument("--axis", choices=CRITICAL_AXES)
            p.add_argument("--values", help="comma-separated sweep values")

    p = sub.add_parser("verify", help="statistical verification subtests")
    vsub = p.add_subparsers(dest="subtest", required=True)
    for name in ("degree", "dominance", "gap", "coupling"):
        vp = vsub.add_parser(name)
        (_add_ring_args if name == "coupling" else _add_model_args)(vp)
        vp.add_argument("--trials", type=int, default=200)
        vp.add_argument("--seed", type=int, default=0)
        if name in ("dominance", "gap"):
            vp.add_argument("-k", type=int, default=1)
        vp.set_defaults(func=cmd_verify, subtest=name)

    p = sub.add_parser("dump-graph", help="sample one model graph, dump edge list")
    _add_model_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dump_graph)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one iglab command; may be called repeatedly in one process.

    The parser is built once per process, on the first call. The
    subcommand functions are bound into it at build time, so patching
    ``cli.cmd_*`` after the first call does not reach ``main``.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ContainmentViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (InvalidParameterError, InfeasibleCouplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
