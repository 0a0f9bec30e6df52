"""The demo scripts run to completion against the current package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_runtime_tour.py", "02_collective_clock_walkthrough.py",
         "03_overhead_comparison.py", "04_checkpoint_restart.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
