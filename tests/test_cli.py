import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from iglab import cli, experiments
from iglab.cli import CSV_COLUMNS, main
from iglab.errors import ContainmentViolationError
from iglab.generators import CoupledPair
from iglab.graph import GraphTopology
from iglab.theory import (
    ModelParams,
    alpha_from_params,
    predicted_finite_prob,
    predicted_limit_prob,
    solve_critical,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_edge_prob_exact_output(capsys):
    assert run_cli("edge-prob", "-K", 3, "-P", 10, "-d", 2) == 0
    out = capsys.readouterr().out
    assert "11/60" in out
    assert "0.183333333" in out


def test_edge_prob_respects_thinning(capsys):
    assert run_cli("edge-prob", "-K", 3, "-P", 10, "-d", 2,
                   "-f", 0.5, "-g", 0.5) == 0
    out = capsys.readouterr().out
    t = 0.25 * 11 / 60
    assert f"{t:.9g}" in out


@pytest.mark.parametrize("argv, shown", [
    (("-K", 300, "-P", 400, "-d", 200), "s approx   = 1 "),  # (K^2/P)^d overflows
    (("-K", 200, "-P", 100000, "-d", 180), "s approx   = 0 "),  # d! overflows
])
def test_edge_prob_approximation_does_not_overflow(capsys, argv, shown):
    assert run_cli("edge-prob", *argv) == 0
    out = capsys.readouterr().out
    assert shown in out
    # approx is exactly 1 or 0, so |approx - s| / s is 0 where s = 1 and 1 where
    # approx = 0; s > 0 there, though as a float it underflows to 0
    assert f"rel error  = {0 if shown.endswith('1 ') else 1}\n" in out


def test_validation_exit_code(capsys):
    assert run_cli("edge-prob", "-K", 11, "-P", 10, "-d", 2) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("-f", 5), ("-g", -0.1)])
def test_edge_prob_rejects_probability_outside_unit_interval(flag, value, capsys):
    assert run_cli("edge-prob", "-K", 4, "-P", 10, "-d", 1, flag, value) == 2
    err = capsys.readouterr().err
    assert f"{flag[1]} must be in [0,1], got {float(value)}" in err


def test_predict_output(capsys):
    assert run_cli("predict", "-n", 1000, "-K", 36, "-P", 10000, "-d", 2,
                   "-g", 0.95) == 0
    out = capsys.readouterr().out
    params = ModelParams(n=1000, K=36, P=10000, d=2, f=1.0, g=0.95)
    alpha = alpha_from_params(params, 0)
    assert f"{alpha:.9g}" in out
    assert f"{predicted_limit_prob(alpha, 0):.9g}" in out


def test_predict_prints_the_finite_n_prediction_under_the_limit(capsys):
    base = ModelParams(n=2000, K=36, P=10000, d=2, f=1.0, g=1.0)
    params = base.replace(g=solve_critical("g", base, 1).value)
    assert run_cli("predict", "-n", 2000, "-K", 36, "-P", 10000, "-d", 2,
                   "-g", repr(params.g), "-m", 1) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("predicted limit"))
    assert lines[at + 1].startswith(f"finite-n        = {predicted_finite_prob(params, 1):.9g} ")
    assert f"{predicted_finite_prob(params, 1):.4f}" == "0.2520"


def test_predict_and_simulate_take_a_failure_budget_past_170(tmp_path, capsys):
    # m! overflows a float from m = 171 on; the limit is 1 at these alphas
    assert run_cli("predict", "-n", 10, "-K", 3, "-P", 15, "-d", 1, "-m", 500) == 0
    assert "predicted limit = 1\n" in capsys.readouterr().out
    out = tmp_path / "run.csv"
    assert run_cli("simulate", "-n", 10, "-K", 3, "-P", 15, "-d", 1, "--trials", 2,
                   "-m", 200, "--workers", 1, "--out", out) == 0
    assert _read_csv(out)[0]["predicted_limit"] == "1"


def test_critical_output_matches_solver(capsys):
    assert run_cli("critical", "--axis", "g", "-n", 1000, "-K", 36,
                   "-P", 10000, "-d", 2) == 0
    out = capsys.readouterr().out
    res = solve_critical("g", ModelParams(n=1000, K=36, P=10000, d=2,
                                          f=1.0, g=1.0), 0)
    assert f"{res.value:.9g}" in out
    assert "INFEASIBLE" not in out


def test_critical_reports_infeasible(capsys):
    # n too small for any g in (0, 1] to reach the connectivity threshold
    assert run_cli("critical", "--axis", "g", "-n", 5, "-K", 2,
                   "-P", 100, "-d", 2) == 0
    assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("axis, extra, shown, note", [
    ("m", ("-K", 2), "critical m* = ", "even m=0 violates the inequality"),
    ("g", ("-K", 36, "-f", 0), "critical g* = inf", "no finite crossing"),
], ids=["m-below-zero", "g-without-crossing"])
def test_critical_reports_infeasible_axes(axis, extra, shown, note, capsys):
    assert run_cli("critical", "--axis", axis, "-n", 1000, "-P", 10000,
                   "-d", 2, *extra) == 0
    out = capsys.readouterr().out
    assert shown in out and "INFEASIBLE" in out
    assert note in out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run_cli("simulate", "-n", 50, "-K", 3, "-P", 12, "-d", 1,
                   "-g", 0.8, "--trials", 25, "--seed", 9,
                   "--workers", 1, "--out", out) == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    rows = _read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == "50" and row["trials"] == "25" and row["seed"] == "9"
    assert 0.0 <= float(row["empirical_prob"]) <= 1.0
    assert float(row["ci_low"]) <= float(row["empirical_prob"]) <= float(row["ci_high"])
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["config"]["trials"] == 25
    assert manifest["config"]["workers"] == 1
    assert list(manifest["outputs"]) == ["run.csv"]
    assert manifest["outputs"]["run.csv"].startswith("sha256:")
    assert set(manifest["environment"]) == {"python", "numpy", "scipy",
                                            "cpu_count", "platform"}


SMALL_RUNS = {
    "simulate": ("simulate", "-n", 30, "-K", 3, "-P", 12, "-d", 1, "-g", 0.8,
                 "--trials", 2, "--seed", 1),
    "sweep": ("sweep", "-n", 30, "-K", 3, "-P", 12, "-d", 1, "--axis", "g",
              "--values", "0.5,0.8", "--trials", 2, "--seed", 1),
}

VERIFY_RUNS = {
    "degree": ("verify", "degree", "-n", 30, "-K", 3, "-P", 12, "-d", 1),
    "dominance": ("verify", "dominance", "-n", 30, "-K", 3, "-P", 12, "-d", 1,
                  "-k", 1),
    "gap": ("verify", "gap", "-n", 30, "-K", 3, "-P", 12, "-d", 1, "-k", 2),
    "coupling": ("verify", "coupling", "-n", 200, "-K", 50, "-P", 500, "-d", 2),
}


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_bad_worker_env_is_a_validation_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("RG_LAB_THREADS", value)
    out = tmp_path / "run.csv"
    assert run_cli(*SMALL_RUNS["simulate"], "--out", out) == 2
    assert "RG_LAB_THREADS" in capsys.readouterr().err
    assert not out.exists()
    # verify takes no --workers flag but follows the same worker policy
    assert run_cli(*VERIFY_RUNS["gap"], "--trials", 2) == 2
    assert "RG_LAB_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("subtest", list(VERIFY_RUNS))
def test_verify_zero_trials_is_a_validation_error(capsys, subtest):
    assert run_cli(*VERIFY_RUNS[subtest], "--trials", 0) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_is_a_validation_error(tmp_path, capsys, command, workers):
    out = tmp_path / "run.csv"
    assert run_cli(*SMALL_RUNS[command], "--workers", workers, "--out", out) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


NEGATIVE_SEED_RUNS = {
    "simulate": ("simulate", "-n", 10, "-K", 3, "-P", 15, "-d", 1, "--trials", 2,
                 "--seed", -1),
    "sweep": ("sweep", "-n", 10, "-K", 3, "-P", 15, "-d", 1, "--trials", 2,
              "--axis", "g", "--values", "0.5,1.0", "--seed", -1),
    "verify": ("verify", "degree", "-n", 10, "-K", 3, "-P", 15, "-d", 1, "--seed", -1),
    "dump-graph": ("dump-graph", "-n", 10, "-K", 3, "-P", 15, "-d", 1, "--seed", -3),
}


@pytest.mark.parametrize("command", list(NEGATIVE_SEED_RUNS))
def test_negative_seed_is_a_validation_error(tmp_path, capsys, command):
    out = tmp_path / "run.csv"
    argv = NEGATIVE_SEED_RUNS[command]
    if command != "verify":
        argv += ("--out", out)
    assert run_cli(*argv) == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_workers_used(tmp_path, capsys, monkeypatch):
    # three from the environment, capped at one worker per trial
    monkeypatch.setenv("RG_LAB_THREADS", "3")
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)  # not by this host's CPUs
    out = tmp_path / "run.csv"
    assert run_cli(*SMALL_RUNS["simulate"], "--out", out) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["config"]["workers"] == 2


def test_sweep_rows_recompute_predictions(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "-n", 200, "-K", 4, "-P", 30, "-d", 1,
                   "--axis", "g", "--values", "0.4,0.7,1.0",
                   "--trials", 10, "--seed", 1, "--workers", 1,
                   "--out", out) == 0
    rows = _read_csv(out)
    assert [r["sweep_value"] for r in rows] == ["0.4", "0.7", "1"]
    for r in rows:
        params = ModelParams(n=200, K=4, P=30, d=1, f=1.0, g=float(r["g"]))
        alpha = alpha_from_params(params, 0)
        assert float(r["alpha"]) == pytest.approx(alpha, rel=1e-8)
        assert float(r["predicted_limit"]) == pytest.approx(
            predicted_limit_prob(alpha, 0), rel=1e-8)
        assert r["sweep_param"] == "g"
        assert r["critical_value"] == rows[0]["critical_value"]


def test_sweep_over_m_predicts_each_failure_budget(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "-n", 200, "-K", 4, "-P", 30, "-d", 1, "-g", 0.12,
                   "--axis", "m", "--values", "0,1,2", "--trials", 4,
                   "--workers", 1, "--out", out) == 0
    rows = _read_csv(out)
    assert [r["m"] for r in rows] == ["0", "1", "2"]
    params = ModelParams(n=200, K=4, P=30, d=1, f=1.0, g=0.12)
    for m, r in enumerate(rows):
        alpha = alpha_from_params(params, m)
        assert float(r["alpha"]) == pytest.approx(alpha, rel=1e-8)
        assert float(r["predicted_limit"]) == pytest.approx(
            predicted_limit_prob(alpha, m), rel=1e-8)


def test_sweep_over_n_has_no_prediction_at_two_nodes(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
                   "--axis", "n", "--values", "2,60", "--trials", 4,
                   "--workers", 1, "--out", out) == 0
    small, full = _read_csv(out)
    assert small["n"] == "2"
    assert small["alpha"] == small["predicted_limit"] == "nan"
    assert math.isfinite(float(full["alpha"]))


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "run.csv"
    assert run_cli("simulate", "-n", 30, "-K", 3, "-P", 12, "-d", 1,
                   "--trials", 2, "--workers", 1, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and str(out) in err


def test_sweep_rerun_is_byte_identical(tmp_path):
    args = ["sweep", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
            "--axis", "g", "--values", "0.5,0.9",
            "--trials", 16, "--seed", 4]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--workers", 1, "--out", a) == 0
    assert run_cli(*args, "--workers", 3, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_csv_does_not_depend_on_the_schedule(tmp_path, monkeypatch, command):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    argv = {"simulate": ("simulate", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
                         "-g", 0.8, "--trials", 9, "--seed", 4),
            "sweep": ("sweep", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
                      "--axis", "g", "--values", "0.5,0.9",
                      "--trials", 9, "--seed", 4)}[command]
    csvs = []
    for start_s in (math.inf, 0.0):  # forced serial, then workers at once
        monkeypatch.setattr(experiments, "_FORK_START_S", start_s)
        out = tmp_path / f"{start_s}.csv"
        assert run_cli(*argv, "--workers", 2, "--out", out) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# resilience run\n"
        "n = 40\nK = 3\nP = 12\nd = 1\ng = 0.7\n"
        "trials = 12\nseed = 2\n"
        "[sweep]\naxis = g\nvalues = 0.5,0.8\n"
    )
    out = tmp_path / "from_cfg.csv"
    assert run_cli("sweep", "--config", cfg, "--trials", 8,
                   "--workers", 1, "--out", out) == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    assert all(r["trials"] == "8" for r in rows)  # flag wins over file
    assert all(r["n"] == "40" for r in rows)


def test_config_file_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--config", cfg, "--out", out) == 2


@pytest.mark.parametrize("command, text, line, key", [
    ("simulate", "n=40\nK=3\nP=12\nd=1\nG=0.01\ntrials=2\n", 5, "G"),
    ("sweep", "n=40\nK=3\nP=12\nd=1\ntrials=2\n[sweep]\naxis=g\nvalue=0.5\n", 8, "value"),
], ids=["top-level", "sweep-section"])
def test_config_file_rejects_unknown_key(command, text, line, key, tmp_path, capsys):
    # a mistyped key used to be dropped, so G=0.01 ran at the default g = 1
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    assert f"error: {cfg}:{line}: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("how", ["config", "sweep"])
def test_malformed_number_is_a_validation_error(how, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if how == "config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=abc\nK=4\nP=20\nd=1\ntrials=2\n")
        argv = ("simulate", "--config", cfg, "--out", out)
    else:
        argv = ("sweep", "-n", 30, "-K", 3, "-P", 12, "-d", 1, "--trials", 2,
                "--axis", "g", "--values", "0.5,abc", "--out", out)
    assert run_cli(*argv) == 2
    assert "error: " in capsys.readouterr().err


def test_config_sweep_axis_outside_the_solver_axes_is_refused(tmp_path, capsys):
    cfg = tmp_path / "axis.cfg"
    cfg.write_text("n=40\nK=3\nP=12\nd=1\ntrials=2\n[sweep]\naxis = d\nvalues=1,2\n")
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", cfg, "--workers", 1, "--out", out) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert run_cli("simulate", "--config", tmp_path / "nope.cfg",
                   "--out", tmp_path / "x.csv") == 3


def test_verify_gap_and_coupling(capsys):
    assert run_cli("verify", "gap", "-n", 30, "-K", 3, "-P", 12, "-d", 1,
                   "-g", 0.6, "-k", 2, "--trials", 40) == 0
    out = capsys.readouterr().out
    assert "frequency" in out
    assert run_cli("verify", "coupling", "-n", 200, "-K", 50, "-P", 500,
                   "-d", 2, "--trials", 5) == 0
    out = capsys.readouterr().out
    assert "validity rate" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["trials"] == 5


def test_verify_coupling_refuses_d_above_K(capsys):
    # every ring pair shares at most K objects, so every graph would be empty
    assert run_cli("verify", "coupling", "-n", 200, "-K", 50, "-P", 500,
                   "-d", 60, "--trials", 2) == 2
    assert "need 1 <= d <= K <= P" in capsys.readouterr().err
    # nor is there a coupling threshold once K <= 3 ln n (3 ln 1000 = 20.7)
    assert run_cli("verify", "coupling", "-n", 1000, "-K", 10, "-P", 100,
                   "-d", 2, "--trials", 2) == 2
    assert "error: coupling infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-f", "-g"])
def test_verify_coupling_takes_no_thinning_flags(capsys, flag):
    # the coupling draws overlap graphs only; f and g would go unread
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "coupling", "-n", 200, "-K", 50, "-P", 500, "-d", 2,
                flag, 0.0, "--trials", 2)
    assert exc.value.code == 2


# With two workers the violation may be raised in a worker process and then
# has to cross the process boundary. Workers are forked, so they see the
# patched sampler.
@pytest.mark.parametrize("threads", ["1", "2"])
def test_containment_violation_is_raised_and_exits_4(monkeypatch, capsys, threads):
    monkeypatch.setenv("RG_LAB_THREADS", threads)
    # A pair marked valid whose binomial-side graph h has an edge missing from g.
    broken = CoupledPair(h=GraphTopology(4, [(0, 1), (2, 3)]),
                         g=GraphTopology(4, [(0, 1), (1, 2)]),
                         coupling_valid=True, x=0.1)
    monkeypatch.setattr(experiments, "gen_coupled_pair", lambda *args: broken)
    with pytest.raises(ContainmentViolationError, match="valid trial 0$"):
        experiments.coupling_validity_rate(4, 50, 500, 2, trials=3)
    assert run_cli("verify", "coupling", "-n", 200, "-K", 50, "-P", 500,
                   "-d", 2, "--trials", 3) == 4
    assert "invariant violation" in capsys.readouterr().err


def test_containment_violation_in_a_worker_names_its_trial(monkeypatch, capsys):
    # The parent runs trial 0, then forks; every trial a worker runs draws the
    # broken pair. The parent's trials take 10 ms, so that the worker takes
    # some before the parent has run them all.
    monkeypatch.setenv("RG_LAB_THREADS", "2")
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_FORK_START_S", 0.0)
    good = CoupledPair(h=GraphTopology(4, [(0, 1)]), g=GraphTopology(4, [(0, 1)]),
                       coupling_valid=True, x=0.1)
    broken = CoupledPair(h=GraphTopology(4, [(0, 1), (2, 3)]),
                         g=GraphTopology(4, [(0, 1), (1, 2)]),
                         coupling_valid=True, x=0.1)
    parent, ran = os.getpid(), []

    def pair(n, K, P, d, i):
        if os.getpid() != parent:
            return broken
        ran.append(i)
        time.sleep(0.01)
        return good

    monkeypatch.setattr(experiments, "trial_rng", lambda base_seed, i: i)
    monkeypatch.setattr(experiments, "gen_coupled_pair", pair)
    with pytest.raises(ContainmentViolationError, match=r"valid trial \d+$") as exc:
        experiments.coupling_validity_rate(4, 50, 500, 2, trials=20)
    assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
    assert int(str(exc.value).split()[-1]) not in ran, ran  # the worker's trial
    assert run_cli("verify", "coupling", "-n", 200, "-K", 50, "-P", 500,
                   "-d", 2, "--trials", 20) == 4
    assert "invariant violation" in capsys.readouterr().err


def test_verify_degree_and_dominance(capsys):
    assert run_cli("verify", "degree", "-n", 80, "-K", 4, "-P", 25, "-d", 1,
                   "-g", 0.9, "--trials", 30) == 0
    out = capsys.readouterr().out
    assert "h=0" in out and "TV=" in out
    assert run_cli("verify", "dominance", "-n", 50, "-K", 3, "-P", 15,
                   "-d", 1, "-g", 0.8, "-k", 1, "--trials", 40) == 0
    out = capsys.readouterr().out
    assert "holds = True" in out


def test_verify_degree_says_when_there_is_no_chi_square_test(capsys):
    # every lambda is below 1e-7, so no two pooled cells expect a count of 5
    assert run_cli("verify", "degree", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
                   "--trials", 50) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "h=" in line]
    assert len(lines) == 4
    for line in lines:
        assert "no test" in line and "chi2=" not in line and "p=" not in line


def test_dump_graph_stdout_and_file(tmp_path, capsys):
    assert run_cli("dump-graph", "-n", 8, "-K", 3, "-P", 6, "-d", 1,
                   "--seed", 5) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n=8"
    path = tmp_path / "g.txt"
    assert run_cli("dump-graph", "-n", 8, "-K", 3, "-P", 6, "-d", 1,
                   "--seed", 5, "--out", path) == 0
    assert path.read_text() == out


def test_second_call_builds_no_parser(monkeypatch, capsys):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli.build_parser()
    assert calls  # the count sees a parser being built
    assert run_cli("edge-prob", "-K", 3, "-P", 10, "-d", 2) == 0
    calls.clear()
    assert run_cli("edge-prob", "-K", 3, "-P", 10, "-d", 2) == 0
    assert calls == []


def test_calls_share_no_parser_state(tmp_path, capsys):
    base = ("simulate", "-n", 30, "-K", 3, "-P", 12, "-d", 1, "--trials", 2)
    with pytest.raises(SystemExit) as exc:
        run_cli(*base)  # no --out: argparse rejects it
    assert exc.value.code == 2
    # values a parser that kept state would carry into the next call
    assert run_cli(*base, "-g", 0.5, "--seed", 7, "--workers", 1,
                   "--out", tmp_path / "first.csv") == 0
    later, fresh = tmp_path / "later.csv", tmp_path / "fresh.csv"
    assert run_cli(*base, "--out", later) == 0
    proc = subprocess.run([sys.executable, "-m", "iglab.cli",
                           *map(str, (*base, "--out", fresh))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert later.read_bytes() == fresh.read_bytes()

    def workers(csv_path):
        manifest = csv_path.with_suffix(".csv.manifest.json")
        return json.loads(manifest.read_text())["config"]["workers"]
    assert workers(later) == workers(fresh)


def test_help_text_does_not_change_between_calls():
    # in a fresh interpreter, so that the first call is the one that builds
    code = """
import contextlib, io
from iglab.cli import main
for argv in (["--help"], ["simulate", "--help"]):
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                main(argv)
            except SystemExit as exc:
                assert exc.code == 0, exc.code
        texts.append(buf.getvalue())
    assert texts[0].startswith("usage: iglab"), texts[0]
    assert texts[0] == texts[1], texts
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "iglab.cli", "edge-prob",
         "-K", "3", "-P", "10", "-d", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "11/60" in proc.stdout


def test_rational_past_the_int_string_limit_is_not_printed():
    # str() of an int with more than 4300 digits raises ValueError
    huge = Fraction(1, 10 ** 5000)
    assert cli._fmt_rational(huge) == "(rational too large to print)"
    assert cli._fmt_rational(Fraction(11, 60)) == "11/60"


# Start-up time is almost all imports, and a simulate or sweep run needs
# numpy and the top-level scipy package (for its version) only. These
# modules would each add time: scipy.special serves just the verify-degree
# chi-square, which imports it where it runs.
HEAVY_MODULES = ("scipy.sparse", "scipy.special", "scipy.linalg", "scipy.stats",
                 "scipy.optimize", "networkx", "hypothesis")


def loaded_heavy_modules(code):
    """Heavy modules loaded after running `code` in a fresh interpreter."""
    code += f"\nimport sys; print([m for m in {HEAVY_MODULES!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_heavy_modules_unloaded():
    assert loaded_heavy_modules("import iglab.cli") == "[]"


def test_simulate_and_sweep_runs_leave_heavy_modules_unloaded(tmp_path):
    # the modules are not deferred into the trials: whole runs never load them
    runs = [[*map(str, SMALL_RUNS[c]), "--workers", "1", "--out", str(tmp_path / f"{c}.csv")]
            for c in ("simulate", "sweep")]
    code = f"from iglab.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0"
    assert loaded_heavy_modules(code) == "[]"
    assert all((tmp_path / f"{c}.csv").exists() for c in ("simulate", "sweep"))
