"""Smoke test of the benchmark harness: every workload at M=2, in seconds.

    python -m pytest perfbench

The repository's own suite (``tests/``) does not collect this file.
"""

from __future__ import annotations

import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def smoke_run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_and_checks(workload, trace):
    lines = smoke_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name

    checks = re.fullmatch(r"checks: (\d+) passed, 0 failed", lines[-2])
    assert checks and int(checks.group(1)) > 0
    assert any(line.startswith("environment: ") for line in lines)


def test_failed_command_is_counted(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import bench

    counters = bench.Counters()
    with pytest.raises(bench.OperationFailed):
        counters.cli("evaluate", tmp_path / "missing.rfsq", tmp_path / "missing.csv")
    assert (counters.attempted, counters.failed) == (1, 1)

    counters.check(False, "deliberately failed check")
    out = io.StringIO()
    assert bench.emit_result(counters, {}, out) == 1
    result = json.loads(out.getvalue().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_every_per_layer_metric_belongs_to_one_layer():
    mapped = [name for layer in LAYERS.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for layer in LAYERS.values():
        for move in layer["moves"]:
            assert move["metric"] in e2e | set(mapped), move
