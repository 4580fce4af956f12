"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "20250809",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        shown = [line.split() for line in lines if line.startswith(f"{name} = ")]
        assert shown and shown[0][3] == unit, name
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert any(line.startswith("failed_share = 0 ") for line in lines)
    if trace:
        # K = D aborts the sweep at the seed; see the probe in workloads.py
        assert result["metrics"]["scoring.run_sweep.full_removal_errors"]["value"] == 1


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "perfbench" / "run.py", "fit-d256", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
