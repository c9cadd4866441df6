"""The walk-throughs in demos/ run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_flat_g2_algebra.py",
                                  "04_kummer_gluing.py",
                                  "05_torus_iteration.py"])
def test_demo_runs(name):
    # these call theta, theta_split, torsion_form, positivity_threshold,
    # make_model_problem (reading its psi) and solve; about 4 s together
    # on one BLAS thread
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
