"""Smoke test of the benchmark: every workload at its shortest setting.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit and that the correctness checks ran and passed. Asserts no timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    detail = json.loads(info)["detail"]
    if workload == "train_desk":
        assert detail["checked_losses"] >= 1 and detail["checked_parity_images"] >= 1
    else:
        assert detail["checked_vs_reference"] >= 1
        assert detail["checked_vs_features"] == (detail["frames"] if trace else 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("loop_desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
