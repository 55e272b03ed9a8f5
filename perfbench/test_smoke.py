"""Tests of the benchmark itself: smoke runs of every workload, and the checks.

Run with `python -m pytest perfbench`.  The smoke runs use tiny sizes, so
the whole file takes seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    """The result line and the full record of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    result, _ = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        value = result["metrics"][spec["name"]]
        assert value["unit"] == spec["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0


def test_traced_self_times_cover_the_solve() -> None:
    # The record holds every per-layer value, also those BENCHMARK.json omits.
    metrics = _smoke("verify-grid", 1)[1]["values"]
    assert metrics["walk.step.calls"] > 0 and metrics["reduced.project.calls"] > 0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.traced_solve_s"], rel=0.05)


def test_run_refuses_a_directory_without_sources(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _curve_csv(path: Path, probs) -> Path:
    path.write_text("step,probability\n" + "".join(f"{t},{p:.12g}\n" for t, p in enumerate(probs)))
    return path


def test_reduced_check_accepts_the_reference_and_rejects_a_perturbation(tmp_path: Path) -> None:
    n, beta = 10**4, 0.8
    phi = math.asin(beta)
    eta = checks.corrected_eta(phi, n)
    probs = checks.reference_curve(n, phi, eta, checks.peak_window(n, phi, eta))
    good = checks.check_reduced(0, "", _curve_csv(tmp_path / "good.csv", probs), n=n, beta=beta)
    assert good.ok and good.work == len(probs) - 1
    probs[len(probs) // 3] += 1e-7
    bad = checks.check_reduced(0, "", _curve_csv(tmp_path / "bad.csv", probs), n=n, beta=beta)
    assert not bad.ok
    probs[len(probs) // 3] = math.nan
    assert not checks.check_reduced(0, "", _curve_csv(tmp_path / "nan.csv", probs), n=n, beta=beta).ok
    assert not checks.check_reduced(1, "", tmp_path / "good.csv", n=n, beta=beta).ok


def test_verify_check_needs_every_check_to_pass() -> None:
    lines = [f"check-{i}: max deviation 1.000e-15 (tolerance 1e-10): PASS" for i in range(7)]
    passing = "\n".join(lines + ["verify: PASS (7/7 checks)"]) + "\n"
    assert checks.check_verify(0, passing, None, trajectory_steps=10).ok
    failing = passing.replace("verify: PASS (7/7", "verify: FAIL (6/7")
    assert not checks.check_verify(1, failing, None, trajectory_steps=10).ok
    assert not checks.check_verify(0, passing.replace("1.000e-15", "nan", 1), None, trajectory_steps=10).ok


def test_sweep_check_rejects_a_malformed_row(tmp_path: Path) -> None:
    out = tmp_path / "sweep.csv"
    out.write_text("n,beta,eta,sigma,t_star_predicted,t_star_measured,peak_probability,mode\n"
                   "16,0,0,0.25,6,six,0.5,dtqw-full\n")
    outcome = checks.check_sweep(0, "", out, n_values=[16], betas=[0.0], max_full_n=16)
    assert not outcome.ok and "malformed" in outcome.why
