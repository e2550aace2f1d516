"""The demos run to completion against the current API and write nothing
inside the repository."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _files(root: Path) -> dict:
    """Every file under root with its modification time, so that a demo
    rewriting a file that already exists shows too."""
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")
            if "__pycache__" not in p.parts and ".hypothesis" not in p.parts}


@pytest.mark.parametrize("demo", ["nonlinear_rate", "entropy_inequalities",
                                  "extinction", "linear_flow", "delay_ode",
                                  "weighted_spectrum", "sweep_rates",
                                  "stationary_profiles"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    before = _files(ROOT / "demos")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _files(ROOT / "demos") == before
    assert list(tmp_path.iterdir()) == []
