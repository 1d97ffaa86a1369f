"""Each demo runs to completion against the package in ``src/``.

The demos read certificate fields and print them, so they break when a field
they use is renamed or removed.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ("disconnect_walkthrough.py", "counterexample_tour.py", "shift_halves.py",
         "function_range_splitting.py", "riesz_projections.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
