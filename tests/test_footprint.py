"""Import footprint: neither shots nor the CLI load any SciPy module.

Importing ``scipy.sparse`` alone adds about 0.2 s and 22 MB of resident
memory to NumPy's (measured on a 2-core x86 host), which every command would
pay; the signal metrics multiply their cell blocks with NumPy alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import metamorph

SRC = Path(metamorph.__file__).resolve().parent.parent

RUNS = """
import json
import sys
from pathlib import Path

import numpy as np

from metamorph import DynamicsConfig, FunctionalMetric, ShootingState, integrate_forward
from metamorph.cli import main
from metamorph.fileio import write_fshape
from metamorph.kernels import gaussian
from metamorph.meshes import icosphere

fs = icosphere(1)
state0 = ShootingState(fs.vertices, fs.signals, 0.1 * fs.vertices, np.full(fs.n_vertices, 0.1))
for metric in (FunctionalMetric(0, "lumped"), FunctionalMetric(1, "p1")):
    integrate_forward(state0, fs, DynamicsConfig(1.0, 1.0, gaussian(0.5), metric, n_steps=2))

work = Path(sys.argv[1])
write_fshape(work / "src.fsh", fs)
write_fshape(work / "tgt.fsh", fs.with_(vertices=1.1 * fs.vertices))
config = {
    "metric": {"s": 1},
    "n_steps": 2,
    "schedule": [{"scale_p": 1.0, "scale_f": 1.0, "iters": 2}],
}
(work / "config.json").write_text(json.dumps(config))
common = ["--config", str(work / "config.json")]
assert main(["match", str(work / "src.fsh"), str(work / "tgt.fsh"), *common, "--out", str(work / "m")]) == 0
momenta = ["--p0", str(work / "m" / "p0.txt"), "--pf", str(work / "m" / "pf.txt")]
assert main(["shoot", str(work / "src.fsh"), *momenta, *common, "--out", str(work / "s")]) == 0
print("scipy modules:", [name for name in sys.modules if name.split(".")[0] == "scipy"])
"""


def test_shots_and_cli_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", RUNS, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "scipy modules: []"
