"""Self-tests of the benchmark at tiny size: every declared metric prints
with its unit and every check passes. Run with `python3 -m pytest -q bench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_prints_every_metric_and_passes_every_check(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(lines[-2])["bench"]
    assert result["correct"], report["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if workload in ("simulate_k3", "sweep_m1"):
        oracle = report["checks"]["oracle"]["detail"]
        assert oracle["trial_graphs"] >= 1 and oracle["not_k_connected"] >= 1
    for key in ("python", "numpy", "scipy", "nproc", "workers", "git_commit",
                "source_sha256", "seed", "held_out_seed"):
        assert key in report["fingerprint"]


def test_same_seed_repeats_counts():
    """A second run of one seed meets the first one's stored counts."""
    for _ in range(2):
        done = _run(ROOT, "sweep_m1", 1, seed=5)
        report = json.loads(done.stdout.strip().splitlines()[-2])["bench"]
        assert report["checks"]["count_repeat"]["ok"], report["checks"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "simulate_r0", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
