import csv
import json
import math
import subprocess
import sys
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
    edge_prob_model,
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


def test_manifest_records_workers_used(tmp_path, capsys, monkeypatch):
    # three from the environment, capped at one worker per trial
    monkeypatch.setenv("RG_LAB_THREADS", "3")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)  # not by this host's CPUs
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
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    argv = {"simulate": ("simulate", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
                         "-g", 0.8, "--trials", 9, "--seed", 4),
            "sweep": ("sweep", "-n", 60, "-K", 3, "-P", 15, "-d", 1,
                      "--axis", "g", "--values", "0.5,0.9",
                      "--trials", 9, "--seed", 4)}[command]
    csvs = []
    for start_s in (math.inf, 0.0):  # forced serial, then a pool at once
        monkeypatch.setattr(experiments, "_POOL_START_S", start_s)
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


# With two workers the violation is raised in a worker process and has to
# cross the process boundary. Workers start by fork, Linux's default start
# method, so they see the patched sampler.
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
    # The parent runs trial 0, then the pool starts: with 3 trials and two
    # processes the parent takes trial 1 and the worker trial 2.
    monkeypatch.setenv("RG_LAB_THREADS", "2")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_POOL_START_S", 0.0)
    good = CoupledPair(h=GraphTopology(4, [(0, 1)]), g=GraphTopology(4, [(0, 1)]),
                       coupling_valid=True, x=0.1)
    broken = CoupledPair(h=GraphTopology(4, [(0, 1), (2, 3)]),
                         g=GraphTopology(4, [(0, 1), (1, 2)]),
                         coupling_valid=True, x=0.1)
    monkeypatch.setattr(experiments, "trial_rng", lambda base_seed, i: i)
    monkeypatch.setattr(experiments, "gen_coupled_pair",
                        lambda n, K, P, d, i: broken if i == 2 else good)
    with pytest.raises(ContainmentViolationError, match="valid trial 2$") as exc:
        experiments.coupling_validity_rate(4, 50, 500, 2, trials=3)
    assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
    assert run_cli("verify", "coupling", "-n", 200, "-K", 50, "-P", 500,
                   "-d", 2, "--trials", 3) == 4
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


def test_dump_graph_stdout_and_file(tmp_path, capsys):
    assert run_cli("dump-graph", "-n", 8, "-K", 3, "-P", 6, "-d", 1,
                   "--seed", 5) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n=8"
    path = tmp_path / "g.txt"
    assert run_cli("dump-graph", "-n", 8, "-K", 3, "-P", 6, "-d", 1,
                   "--seed", 5, "--out", path) == 0
    assert path.read_text() == out


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


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, iglab.cli; assert 'scipy.stats' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
