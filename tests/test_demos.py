"""Smoke test: demos 01-05 run to completion (demo 06 is acceptance criterion 6)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_quadratic_hides_linear.py",
    "02_pendulum_region_of_validity.py",
    "03_manifold_reduction_3d.py",
    "04_double_pendulum_rom.py",
    "05_beam_truncation.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    # run from an empty directory so the CSV files the demos write land there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
