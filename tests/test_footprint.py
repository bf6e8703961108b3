"""Import footprint: shooting loads none of SciPy's solver packages.

Each of ``scipy.linalg``, ``scipy.sparse.linalg`` and ``scipy.sparse.csgraph``
adds 0.12-0.15 s to the import and 7-10 MB of resident memory (measured on a
2-core x86 host), which every command would pay; the signal metrics need
only ``scipy.sparse``.
"""

import os
import subprocess
import sys
from pathlib import Path

import metamorph

SRC = Path(metamorph.__file__).resolve().parent.parent

SHOTS = """
import sys

import numpy as np

from metamorph import DynamicsConfig, FunctionalMetric, ShootingState, integrate_forward
from metamorph.kernels import gaussian
from metamorph.meshes import icosphere

fs = icosphere(1)
state0 = ShootingState(fs.vertices, fs.signals, 0.1 * fs.vertices, np.full(fs.n_vertices, 0.1))
for metric in (FunctionalMetric(0, "lumped"), FunctionalMetric(1, "p1")):
    integrate_forward(state0, fs, DynamicsConfig(1.0, 1.0, gaussian(0.5), metric, n_steps=2))
heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
print(" ".join(name for name in heavy if name in sys.modules))
"""


def test_shots_load_no_scipy_solver_package():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", SHOTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == ""
