"""The quick walkthroughs in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo 05 trains for tens of seconds and is left out
QUICK_DEMOS = [
    "01_synthetic_pair.py",
    "02_keypoint_graph.py",
    "03_sinkhorn_temperatures.py",
    "04_gradient_check.py",
    "06_pipeline_tour.py",
]


@pytest.mark.parametrize("script", QUICK_DEMOS)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
