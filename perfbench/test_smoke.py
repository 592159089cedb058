"""Smoke test of the benchmark itself, at tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is reported with its unit in
both modes on every workload, and that a failed oracle gate is counted.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _invoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=175, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    result = _invoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _amplitude_two(seed, base):
    # variance builds its per-bond table at amplitude 1 whatever the config
    # says, so the exact gate (sigma^2 = amplitude^2 = 4) must fail
    return workloads.mc_variance(seed, base, tiny=True, amplitude=2.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_oracle_gate_is_counted(trace):
    args = run.parse_args(["--workload", "mc-variance", "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--tiny"])
    clean, _ = run.run(args)
    broken, failures = run.run(args, build=_amplitude_two)
    assert clean["failed"] == 0 and clean["correct"]
    assert broken["failed"] >= 1 and not broken["correct"]
    assert any("variance_table.csv" in m for m in failures)
    if trace:
        assert clean["metrics"]["fail_ratio"]["value"] == 0
        assert broken["metrics"]["fail_ratio"]["value"] == broken["failed"] / broken["attempted"]


def test_own_orbit_count_recurrence():
    # |tr M^T - 2| for M = [[2, 1], [1, 1]]: 1, 5, 16, 45, 121 (Lucas numbers L_2T - 2)
    assert [workloads.period_point_count(T) for T in range(1, 6)] == [1, 5, 16, 45, 121]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_text(p.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-variance", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
