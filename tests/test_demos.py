"""Run every script under demos/ as a user would, so a demo that calls
a removed or renamed library function fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "03_primitive_form_series.py":
        assert "verify_primitive: True" in proc.stdout


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with no cases, silently
    assert "03_primitive_form_series.py" in [p.name for p in DEMOS]
