"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks of its outputs.

Each workload class builds its inputs in ``__init__`` (the set-up), runs one
operation in ``run`` (the timed call), turns the raw result into the values
the checks need in ``collect`` (untimed), checks a run's outputs in
``check`` and summarises one output in ``report``. Every check is a plain
function of outputs, so the tests can feed it deliberately wrong ones.
Program calls go through module attributes (``dynamics.integrate_forward``,
``matching.match``, ``cli.main``) so that a traced run sees the wrappers of
``spans.instrument``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from metamorph import cli, dynamics, matching
from metamorph.dynamics import DynamicsConfig, MatchProblem
from metamorph.fem import FunctionalMetric
from metamorph.fileio import write_fshape
from metamorph.fshape import ShootingState
from metamorph.kernels import GrassmannKernelSpec, RadialKernelSpec, gaussian
from metamorph.matching import MatchConfig, ScaleStage
from metamorph.meshes import bump_signal, grid_square, icosphere
from metamorph.sphere import SphereState, integrate_sphere, sphere_vertex_momenta
from metamorph.varifold import VarifoldKernels, to_varifold

import reference

ORACLE_STEPS = 400
ORACLE_RTOL = 0.01
RADII_SPREAD_TOL = 1e-3
OWN_DISTANCE_RTOL = 1e-8
GRADCHECK_TOL = 1e-4
GRADCHECK_DIRECTIONS = 3
GRADCHECK_EPS = 1e-5


# ---------------------------------------------------------------------------
# checks


def oracle_errors(x_end, f_end, oracle_end: SphereState) -> tuple[float, float]:
    """Relative errors of the mean end radius and mean end signal."""
    radius = float(np.sqrt((x_end**2).sum(axis=1)).mean())
    signal = float(f_end.mean())
    return (
        abs(radius - oracle_end.radius) / abs(oracle_end.radius),
        abs(signal - oracle_end.signal) / abs(oracle_end.signal),
    )


def radii_spread(x_end) -> float:
    r = np.sqrt((x_end**2).sum(axis=1))
    return float((r.max() - r.min()) / r.mean())


def check_oracle(x_end, f_end, oracle_end: SphereState) -> list[str]:
    """Mean end radius and mean end signal against the sphere ODE."""
    err_r, err_f = oracle_errors(x_end, f_end, oracle_end)
    if err_r <= ORACLE_RTOL and err_f <= ORACLE_RTOL:
        return []
    return [f"sphere oracle: radius error {err_r:.3e}, signal error {err_f:.3e} (limit {ORACLE_RTOL})"]


def check_radii(x_end) -> list[str]:
    """The vertices of the shot sphere stay on one sphere."""
    spread = radii_spread(x_end)
    return [] if spread <= RADII_SPREAD_TOL else [f"vertex radii spread {spread:.3e} > {RADII_SPREAD_TOL}"]


def check_pf_constant(pf_states, pf0) -> list[str]:
    """The functional momentum is never integrated: every sample is pf0's bytes."""
    ref = np.asarray(pf0).tobytes()
    bad = [k for k, pf in enumerate(pf_states) if np.asarray(pf).tobytes() != ref]
    return [f"pf changed at samples {bad}"] if bad else []


def check_rhs_count(rhs_evals: int, n_steps: int) -> list[str]:
    expected = 4 * n_steps
    return [] if rhs_evals == expected else [f"{rhs_evals} RHS evaluations, expected {expected}"]


def check_monotone(history, stages: int) -> list[str]:
    """Accepted J strictly decreases within each stage of the history.

    Rows are (iteration, J, energy, fidelity). A stage opens with a row that
    repeats the previous iteration number (its J uses the new kernels); every
    other row is one accepted iteration later than the one before.
    """
    opened = 1
    for prev, row in zip(history, history[1:]):
        if row[0] == prev[0]:
            opened += 1
        elif row[0] != prev[0] + 1:
            return [f"history jumps from iteration {prev[0]} to {row[0]}"]
        elif not row[1] < prev[1]:
            return [f"J did not decrease at iteration {row[0]}: {prev[1]!r} -> {row[1]!r}"]
    if opened != stages:
        return [f"history has {opened} stages, expected {stages}"]
    return []


def check_reduction(history, max_ratio: float) -> list[str]:
    ratio = history[-1][3] / history[0][3]
    return [] if ratio <= max_ratio else [f"fidelity fell only to {ratio:.3f} of its start"]


def check_own_distance(reported: float, own: float) -> list[str]:
    err = abs(reported - own) / abs(own)
    if err <= OWN_DISTANCE_RTOL:
        return []
    return [f"final fidelity {reported!r} vs own varifold distance {own!r} (rel {err:.2e})"]


def check_identical(payloads) -> list[str]:
    bad = [k for k, p in enumerate(payloads) if p != payloads[0]]
    return [f"momenta of runs {bad} differ from run 0"] if bad else []


def check_gradient(errors) -> list[str]:
    worst = max(errors)
    return [] if worst < GRADCHECK_TOL else [f"gradient vs central differences: {worst:.3e} >= {GRADCHECK_TOL}"]


def gradient_errors(p0, pf, problem: MatchProblem, rng):
    """Relative error of the adjoint directional derivative against central
    differences of ``objective`` along random unit directions."""
    gp, gpf = dynamics.euclidean_objective_gradient(p0, pf, problem)
    errors = []
    for _ in range(GRADCHECK_DIRECTIONS):
        dp = rng.standard_normal(p0.shape)
        dpf = rng.standard_normal(pf.shape)
        norm = np.sqrt((dp**2).sum() + (dpf**2).sum())
        dp, dpf = dp / norm, dpf / norm
        eps = GRADCHECK_EPS
        Jp = matching.objective(p0 + eps * dp, pf + eps * dpf, problem)[0]
        Jm = matching.objective(p0 - eps * dp, pf - eps * dpf, problem)[0]
        fd = (Jp - Jm) / (2.0 * eps)
        analytic = float((gp * dp).sum() + (gpf * dpf).sum())
        errors.append(abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12))
    return errors


def _mesh(fs):
    return np.asarray(fs.vertices), np.asarray(fs.signals), np.asarray(fs.cells)


# ---------------------------------------------------------------------------
# workloads


class SphereShoot:
    """Forward shooting of criterion 4's constant-signal sphere."""

    name = "sphere_shoot"
    stages = 0
    SIZES = {"full": {"level": 4, "n_steps": 2}, "smoke": {"level": 2, "n_steps": 2}}
    R0, RHO0, PF, SIGMA, GAMMA_V, GAMMA_F = 0.6, -0.25, -0.6, 0.3, 1.0, 5.0

    def __init__(self, seed: int, size: str, workdir: Path):
        params = self.SIZES[size]
        jitter = 1.0 + 0.01 * (np.random.default_rng(seed).random(2) - 0.5)
        self.rho0 = self.RHO0 * jitter[0]
        self.pf_s = self.PF * jitter[1]
        self.mesh = icosphere(params["level"], radius=self.R0)
        p0, pf = sphere_vertex_momenta(self.mesh, self.rho0, self.pf_s)
        self.cfg = DynamicsConfig(
            self.GAMMA_V,
            self.GAMMA_F,
            gaussian(self.SIGMA),
            FunctionalMetric(0, "lumped"),
            n_steps=params["n_steps"],
        )
        self.state0 = ShootingState(self.mesh.vertices, self.mesh.signals, p0, pf)
        self.describe = (
            f"icosphere({params['level']}) r {self.R0}: {self.mesh.n_vertices} vertices, "
            f"{self.mesh.n_cells} triangles; rho0 {self.rho0:.6f}, pf {self.pf_s:.6f}, "
            f"gaussian {self.SIGMA}, lumped L2, n_steps {params['n_steps']}"
        )

    def run(self, k: int):
        return dynamics.integrate_forward(self.state0, self.mesh, self.cfg)

    def collect(self, traj):
        return {
            "x": traj.final.x,
            "f": traj.final.f,
            "pf_states": [s.pf for s in traj.states],
            "final_J": dynamics.reduced_hamiltonian(traj.final, self.mesh, self.cfg),
            "iterations": 0,
            "bytes_written": 0,
        }

    def oracle_end(self) -> SphereState:
        path = integrate_sphere(
            SphereState(self.R0, 0.0, self.rho0, self.pf_s),
            self.GAMMA_V,
            self.GAMMA_F,
            self.SIGMA,
            ORACLE_STEPS,
        )
        return path[-1]

    def report(self, out) -> str:
        err_r, err_f = oracle_errors(out["x"], out["f"], self.oracle_end())
        return (
            f"oracle errors: radius {err_r:.3e}, signal {err_f:.3e}; "
            f"radii spread {radii_spread(out['x']):.3e}; energy at t=1 {out['final_J']:.6g}, "
            f"at t=0 {dynamics.reduced_hamiltonian(self.state0, self.mesh, self.cfg):.6g}"
        )

    def check(self, outputs) -> list[str]:
        oracle = self.oracle_end()
        failures = []
        for out in outputs:
            failures += check_oracle(out["x"], out["f"], oracle)
            failures += check_radii(out["x"])
            failures += check_pf_constant(out["pf_states"], self.state0.pf)
        return failures

    def check_counts(self, counts) -> list[str]:
        return check_rhs_count(counts["dynamics.rhs_evals"], self.cfg.n_steps)


class _Match:
    """Checks and report shared by the two match workloads."""

    stages: int
    FIDELITY_REDUCTION: float

    def check(self, outputs) -> list[str]:
        failures = []
        for out in outputs:
            failures += check_monotone(out["history"], self.stages)
            failures += check_reduction(out["history"], self.FIDELITY_REDUCTION)
            failures += check_own_distance(out["history"][-1][3], out["own_fidelity"])
        return failures + check_identical([out["momenta"] for out in outputs])

    def check_counts(self, counts) -> list[str]:
        return []

    def report(self, out) -> str:
        history = out["history"]
        return (
            f"accepted iterations {history[-1][0]}, final J {history[-1][1]:.6g}, "
            f"final/initial fidelity {history[-1][3] / history[0][3]:.4f}"
        )


class DigitsMatch(_Match):
    """`metamorph match` through ``cli.main`` on criterion 9's textured squares."""

    name = "digits_match"
    stages = 2
    SIZES = {"full": {"m": 20, "n_steps": 4, "iters": 1}, "smoke": {"m": 6, "n_steps": 4, "iters": 1}}
    SIGMA_P, SIGMA_F = 0.2, 0.7
    FIDELITY_REDUCTION = 0.25  # criterion 9's property

    def __init__(self, seed: int, size: str, workdir: Path):
        params = self.SIZES[size]
        # Both bump centres turn by one seeded angle about the square's centre.
        angle = 0.1 * (np.random.default_rng(seed).random() - 0.5)
        c, s = np.cos(angle), np.sin(angle)
        centre = np.array([c * 0.3 - s * 0.3, s * 0.3 + c * 0.3, 0.0])
        src = grid_square(params["m"])
        tgt = grid_square(params["m"])
        src = src.with_(signals=bump_signal(src, -centre, 0.35))
        tgt = tgt.with_(signals=bump_signal(tgt, centre, 0.35))
        self.target = _mesh(tgt)
        self.workdir = workdir
        self.src_path = workdir / "source.fsh"
        self.tgt_path = workdir / "target.fsh"
        self.cfg_path = workdir / "config.json"
        write_fshape(self.src_path, src)
        write_fshape(self.tgt_path, tgt)
        config = {
            "gamma_V": 20.0,
            "gamma_f": 1.0,
            "gamma_W": 20.0,
            "deformation_kernel": {
                "family": "gaussian",
                "terms": [{"weight": 1.0, "sigma": 0.4}, {"weight": 1.0, "sigma": 0.2}],
            },
            "fidelity": {"sigma_p": self.SIGMA_P, "sigma_f": self.SIGMA_F, "kt_mode": "unoriented_squared"},
            "metric": {"s": 0, "scheme": "lumped"},
            "n_steps": params["n_steps"],
            "schedule": [
                {"scale_p": 2.0, "scale_f": 1.0, "iters": params["iters"]},
                {"scale_p": 1.0, "scale_f": 1.0, "iters": params["iters"]},
            ],
            "step_init": 1.0,
            "grad_tol": 1e-8,
        }
        self.cfg_path.write_text(json.dumps(config))
        self.n_steps = params["n_steps"]
        self.describe = (
            f"grid_square({params['m']}): {src.n_vertices} vertices, {src.n_cells} triangles; "
            f"bump centres turned by {angle:.6f} rad; gamma_V 20, gamma_f 1, gamma_W 20, "
            f"kernel gaussian 0.4+0.2, lumped L2, n_steps {params['n_steps']}, "
            f"schedule 2x{params['iters']} iterations"
        )

    def run(self, k: int):
        out = self.workdir / f"match-{k}"
        argv = [
            "match",
            str(self.src_path),
            str(self.tgt_path),
            "--config",
            str(self.cfg_path),
            "--out",
            str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"metamorph match exited with {code}")
        return out

    def collect(self, out):
        history = json.loads((out / "manifest.json").read_text())["objective_history"]
        final_vtk = out / "trajectory" / f"state_{self.n_steps:04d}.vtk"
        own = reference.varifold_distance(
            reference.read_vtk(final_vtk), self.target, self.SIGMA_P, self.SIGMA_F
        )
        return {
            "history": history,
            "momenta": (out / "p0.txt").read_bytes() + (out / "pf.txt").read_bytes(),
            "own_fidelity": own,
            "final_J": history[-1][1],
            "iterations": history[-1][0],
            "bytes_written": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
        }


class H1Match(_Match):
    """Library ``match`` with the H1 signal metric on criterion 10's spheres."""

    name = "h1_match"
    stages = 1
    SIZES = {
        "full": {"src": 2, "tgt": 3, "n_steps": 3, "iters": 4},
        "smoke": {"src": 1, "tgt": 2, "n_steps": 3, "iters": 4},
    }
    SIGMA_P, SIGMA_F = 0.3, 0.7
    # At this budget the fidelity falls to about 23.5% of its start.
    FIDELITY_REDUCTION = 0.3

    def __init__(self, seed: int, size: str, workdir: Path):
        params = self.SIZES[size]
        self.seed = seed
        phase = 0.1 * (np.random.default_rng(seed).random(3) - 0.5)
        self.src = icosphere(params["src"])
        tgt = icosphere(params["tgt"])
        x = tgt.vertices
        texture = np.sin(3 * x[:, 0] + phase[0]) * np.sin(3 * x[:, 1] + phase[1]) + 0.3 * np.cos(
            4 * x[:, 2] + phase[2]
        )
        self.tgt = tgt.with_(signals=texture)
        self.cfg = MatchConfig(
            gamma_V=50.0,
            gamma_f=0.42,
            gamma_W=20.0,
            deformation_kernel=gaussian(0.4),
            fidelity_kernels=VarifoldKernels(
                kp=gaussian(self.SIGMA_P),
                kf=gaussian(self.SIGMA_F),
                kt=GrassmannKernelSpec("unoriented_squared"),
            ),
            metric=FunctionalMetric(1, "p1"),
            n_steps=params["n_steps"],
            scale_schedule=(ScaleStage(1.0, 1.0, params["iters"]),),
            step_init=1.0,
            grad_tol=1e-10,
        )
        self.problem = MatchProblem(
            template=self.src,
            target=to_varifold(self.tgt),
            fidelity_kernels=self.cfg.fidelity_kernels,
            gamma_W=self.cfg.gamma_W,
            dynamics=self.cfg.dynamics(),
        )
        self.describe = (
            f"icosphere({params['src']}) ({self.src.n_vertices} vertices, {self.src.n_cells} triangles) "
            f"onto textured icosphere({params['tgt']}) ({self.tgt.n_vertices}, {self.tgt.n_cells}); "
            f"texture phases {np.array2string(phase, precision=6)}; H1 p1, gamma_V 50, "
            f"gamma_f 0.42, gamma_W 20, kernel gaussian 0.4, n_steps {params['n_steps']}, "
            f"{params['iters']} iterations"
        )

    def run(self, k: int):
        return matching.match(self.src, self.tgt, self.cfg)

    def collect(self, result):
        end = result.trajectory.final
        history = [list(row) for row in result.objective_history]
        own = reference.varifold_distance(
            (end.x, end.f, np.asarray(self.src.cells)), _mesh(self.tgt), self.SIGMA_P, self.SIGMA_F
        )
        return {
            "history": history,
            "p0": result.p0,
            "pf": result.pf,
            "momenta": result.p0.tobytes() + result.pf.tobytes(),
            "own_fidelity": own,
            "final_J": history[-1][1],
            "iterations": history[-1][0],
            "bytes_written": 0,
        }

    def check(self, outputs) -> list[str]:
        rng = np.random.default_rng(self.seed)
        errors = gradient_errors(outputs[0]["p0"], outputs[0]["pf"], self.problem, rng)
        return super().check(outputs) + check_gradient(errors)


WORKLOADS = {w.name: w for w in (SphereShoot, DigitsMatch, H1Match)}
