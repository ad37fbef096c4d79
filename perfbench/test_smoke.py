"""Smoke test of the benchmark: every workload at a tiny horizon.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs in both trace modes at the "smoke" scale. The test checks
that the output check passes, that every metric of BENCHMARK.json is printed
with its unit, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "33",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert "fail_ratio 0 (0 of" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + run.MIN_CALLS
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]


def test_output_check_catches_a_changed_schedule():
    expected = json.loads(run.EXPECTED_PATH.read_text())["bench"]
    good = expected["sched_idfl"]["0"]
    assert run.check_outputs("sched_idfl", 0, dict(good), expected) == []
    bad = dict(good, tx_sha256="0" * 64)
    problems = run.check_outputs("sched_idfl", 0, bad, expected)
    assert any("tx_sha256" in p for p in problems)
    assert any("Proposition 1" in p for p in problems)
    loss = expected["train_mlp"]["0"]
    drifted = dict(loss, final_loss=[x * (1 + 1e-6) for x in loss["final_loss"]])
    assert any("final_loss" in p for p in run.check_outputs("train_mlp", 0, drifted, expected))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sched_async", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
