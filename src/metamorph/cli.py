"""Command-line interface.

Exit codes: 0 success, 1 user error (bad files, bad config, violations),
2 internal error. Output directories are written to a temporary sibling and
renamed into place on success, so failures leave nothing behind.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .dynamics import MatchProblem, euclidean_objective_gradient
from .fileio import (
    RunManifest,
    UserError,
    config_to_dict,
    file_sha256,
    load_config,
    read_fshape,
    read_momenta,
    tool_versions,
    write_manifest,
    write_momenta,
    write_trajectory,
)
from .fshape import ShootingDiverged, validate_fshape
from .matching import MatchConfig, match, objective, shoot
from .sphere import SphereState, integrate_sphere
from .varifold import fidelity, to_varifold

GRADCHECK_TOL = 1e-4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metamorph",
        description="Joint geometric-photometric matching of textured meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check mesh invariants")
    p.add_argument("fshape")

    p = sub.add_parser("distance", help="varifold fidelity between two meshes")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--config", required=True)

    p = sub.add_parser("shoot", help="forward geodesic from given momenta")
    p.add_argument("source")
    p.add_argument("--p0", required=True, help="text matrix of geometric momenta")
    p.add_argument("--pf", required=True, help="text vector of functional momenta")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("match", help="register source onto target")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sphere-oracle", help="integrate the sphere geodesic ODEs")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--f0", type=float, default=0.0)
    p.add_argument("--rho0", type=float, required=True)
    p.add_argument("--pf", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--gammaV", type=float, default=1.0)
    p.add_argument("--gammaF", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("gradcheck", help="adjoint gradient vs finite differences")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--config", required=True)
    p.add_argument("--directions", type=int, default=20)
    return parser


class _AtomicDir:
    """Create the output directory atomically: temp sibling, rename on success."""

    def __init__(self, target: str):
        self.target = Path(target)
        if self.target.exists():
            raise UserError(f"{self.target}: output path already exists")
        self.target.parent.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(
            tempfile.mkdtemp(dir=self.target.parent, prefix=f".{self.target.name}-")
        )

    def __enter__(self) -> Path:
        return self.tmp

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            os.replace(self.tmp, self.target)
        else:
            shutil.rmtree(self.tmp, ignore_errors=True)
        return False


def _cmd_validate(args) -> int:
    fs = read_fshape(args.fshape)
    violations = validate_fshape(fs)
    for v in violations:
        print(v)
    if violations:
        return 1
    print(f"ok: {fs.n_vertices} vertices, {fs.n_cells} cells (d={fs.dim_d}, n={fs.dim_n})")
    return 0


def _load_pair(args):
    source = read_fshape(args.source)
    target = read_fshape(args.target)
    for name, fs in (("source", source), ("target", target)):
        violations = validate_fshape(fs)
        if violations:
            raise UserError(f"{name} mesh is invalid: {violations[0]}")
    if (source.dim_d, source.dim_n) != (target.dim_d, target.dim_n):
        raise UserError(
            f"source (d={source.dim_d}, n={source.dim_n}) and target "
            f"(d={target.dim_d}, n={target.dim_n}) must share the cell "
            "dimension d and the ambient dimension n"
        )
    return source, target


def _cmd_distance(args) -> int:
    source, target = _load_pair(args)
    cfg = load_config(args.config)
    value = fidelity(source, to_varifold(target), cfg.fidelity_kernels)
    print(f"{value:.17g}")
    return 0


def _cmd_shoot(args) -> int:
    source = read_fshape(args.source)
    violations = validate_fshape(source)
    if violations:
        raise UserError(f"source mesh is invalid: {violations[0]}")
    cfg = load_config(args.config)
    p0 = read_momenta(args.p0, (source.n_vertices, source.dim_n))
    pf = read_momenta(args.pf, (source.n_vertices,))
    started = time.perf_counter()
    try:
        traj = shoot(source, p0, pf, cfg)
    except ShootingDiverged as exc:
        raise UserError(f"shot diverged: {exc}") from None
    elapsed = time.perf_counter() - started
    with _AtomicDir(args.out) as tmp:
        write_trajectory(tmp / "trajectory", source, traj, cfg.dynamics())
        manifest = RunManifest(
            command="shoot",
            config=config_to_dict(cfg),
            input_hashes={
                "source": file_sha256(args.source),
                "p0": file_sha256(args.p0),
                "pf": file_sha256(args.pf),
            },
            versions=tool_versions(),
            timings={"shoot_seconds": elapsed},
            objective_history=[],
        )
        write_manifest(tmp / "manifest.json", manifest)
    print(f"trajectory written to {args.out}")
    return 0


def _cmd_match(args) -> int:
    source, target = _load_pair(args)
    cfg = load_config(args.config)
    started = time.perf_counter()
    result = match(source, target, cfg)
    elapsed = time.perf_counter() - started
    with _AtomicDir(args.out) as tmp:
        write_momenta(tmp / "p0.txt", result.p0)
        write_momenta(tmp / "pf.txt", result.pf)
        write_trajectory(tmp / "trajectory", source, result.trajectory, cfg.dynamics())
        manifest = RunManifest(
            command="match",
            config=config_to_dict(cfg),
            input_hashes={
                "source": file_sha256(args.source),
                "target": file_sha256(args.target),
            },
            versions=tool_versions(),
            timings={"match_seconds": elapsed},
            objective_history=[list(row) for row in result.objective_history],
        )
        write_manifest(tmp / "manifest.json", manifest)
    last = result.objective_history[-1]
    print(
        f"finished after {last[0]} accepted iterations: J={last[1]:.6g} "
        f"energy={last[2]:.6g} fidelity={last[3]:.6g} "
        f"(converged={result.converged}, {result.reason})"
    )
    return 0


def _cmd_sphere_oracle(args) -> int:
    try:
        state0 = SphereState(
            radius=args.r0,
            signal=args.f0,
            momentum=args.rho0,
            signal_momentum=args.pf,
        )
        path = integrate_sphere(state0, args.gammaV, args.gammaF, args.sigma, args.steps)
    except (ValueError, RuntimeError) as exc:
        raise UserError(str(exc)) from None
    rows = ["t,r,f,rho,pf"]
    times = np.linspace(0.0, 1.0, args.steps + 1)
    for t, s in zip(times, path):
        rows.append(
            f"{t:.17g},{s.radius:.17g},{s.signal:.17g},{s.momentum:.17g},{s.signal_momentum:.17g}"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n")
    print(f"endpoint: r={path[-1].radius:.6g} f={path[-1].signal:.6g}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.directions < 1:
        raise UserError(f"--directions must be at least 1, got {args.directions}")
    source, target = _load_pair(args)
    cfg = load_config(args.config)
    problem = MatchProblem(
        template=source,
        target=to_varifold(target),
        fidelity_kernels=cfg.fidelity_kernels,
        gamma_W=cfg.gamma_W,
        dynamics=cfg.dynamics(),
    )
    rng = np.random.default_rng(0)
    scale = 0.05 * float(np.abs(source.vertices).max() + 1.0)
    p0 = scale * rng.standard_normal(source.vertices.shape)
    pf = scale * rng.standard_normal(source.n_vertices)
    gp, gpf = euclidean_objective_gradient(p0, pf, problem)
    worst = 0.0
    eps = 1e-5 * (1.0 + scale)
    for _ in range(args.directions):
        dp = rng.standard_normal(p0.shape)
        dpf = rng.standard_normal(pf.shape)
        norm = np.sqrt((dp**2).sum() + (dpf**2).sum())
        dp /= norm
        dpf /= norm
        Jp = objective(p0 + eps * dp, pf + eps * dpf, problem)[0]
        Jm = objective(p0 - eps * dp, pf - eps * dpf, problem)[0]
        fd = (Jp - Jm) / (2.0 * eps)
        analytic = float((gp * dp).sum() + (gpf * dpf).sum())
        denom = max(abs(fd), abs(analytic), 1e-12)
        worst = max(worst, abs(fd - analytic) / denom)
    print(f"max relative gradient error over {args.directions} directions: {worst:.3e}")
    return 0 if worst < GRADCHECK_TOL else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "distance": _cmd_distance,
    "shoot": _cmd_shoot,
    "match": _cmd_match,
    "sphere-oracle": _cmd_sphere_oracle,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
