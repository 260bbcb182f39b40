"""The walkthroughs in demos/ run to completion, warnings as errors. The
slowest, ``02_size_accuracy_tradeoff``, takes about 4 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_forest_to_surrogate",
        "02_size_accuracy_tradeoff",
        "03_rfsq_files",
        "04_multinomial_logit_core",
    ],
)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
