"""Registration by geodesic shooting: adaptive-step gradient descent on momenta.

Minimizes

    J(p0, pf) = quad_form(kernel, x0, p0) / (2 gamma_V)
              + pf . D(x0)^-1 pf / (2 gamma_f)
              + gamma_W * fidelity(end state, target)

over the initial momenta, with a coarse-to-fine schedule on the fidelity
kernel widths. The p0 step is the plain gradient. The pf step is the
gradient under the metric that J puts on pf: D(x0) dJ/dpf, with D(x0) the
template's signal metric (the lumped mass for lumped L2, mass plus stiffness
for H1), so every frequency of the signal momentum moves at a comparable
rate. The descent accepts a step only if J strictly decreases, shrinking the
step on rejection and growing it on acceptance. Momenta start at zero, so
the whole procedure is deterministic.

Each momenta pair is shot once, and J is read from the shot alone: its
energy from the trajectory's initial velocity, its fidelity from the end
state. ``objective`` returns the trajectory with J, and the descent keeps the
trajectory of the accepted candidate: the gradient transports its adjoint
backward along it, the next stage scores it under its rescaled fidelity
kernels (the flow does not depend on them), and the result returns it, without
the end state's fshape and cell geometry that scoring and the gradient shared.
So the descent's shots keep their RK4 stage points for the adjoint, while
``shoot``, which no gradient follows, keeps none.

A line-search candidate is rejected as soon as its energy, which its shot
reads from its first flow-field evaluation, reaches the current J: the
fidelity is at least 0 and gamma_W at least 0, so its J could not be lower.
Its shot then stops after that one evaluation, in place of 4 * n_steps, and
every accept or reject decision is the one the full shot would give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    DynamicsConfig,
    MatchProblem,
    Trajectory,
    euclidean_objective_gradient,
    integrate_forward,
)
from .fem import FunctionalMetric, assemble_metric
from .fshape import DiscreteFshape, ShootingDiverged, ShootingState
from .kernels import GrassmannKernelSpec, RadialKernelSpec, gaussian
from .varifold import VarifoldKernels, fidelity, to_varifold

STEP_UNDERFLOW_FACTOR = 1e-12
STEP_SHRINK = 0.5
STEP_GROW = 1.2


@dataclass(frozen=True)
class ScaleStage:
    """One coarse-to-fine stage: width multipliers and its iteration budget."""

    scale_p: float
    scale_f: float
    iters: int

    def __post_init__(self):
        if self.scale_p <= 0 or self.scale_f <= 0:
            raise ValueError("kernel scales must be positive")
        if self.iters < 0:
            raise ValueError("iteration budget must be nonnegative")


@dataclass(frozen=True)
class MatchConfig:
    """Weights, kernels, schedule and descent settings for one registration."""

    gamma_V: float
    gamma_f: float
    gamma_W: float
    deformation_kernel: RadialKernelSpec
    fidelity_kernels: VarifoldKernels
    metric: FunctionalMetric
    n_steps: int = 10
    scale_schedule: tuple[ScaleStage, ...] = (
        ScaleStage(2.0, 2.0, 100),
        ScaleStage(1.0, 1.0, 100),
    )
    step_init: float = 1.0
    grad_tol: float = 1e-6

    def __post_init__(self):
        self.dynamics()  # DynamicsConfig checks gamma_V, gamma_f and n_steps
        if self.gamma_W <= 0:
            raise ValueError("gamma_W must be positive")
        if self.step_init <= 0:
            raise ValueError("step_init must be positive")
        if not self.scale_schedule:
            raise ValueError("scale_schedule must contain at least one stage")

    def dynamics(self) -> DynamicsConfig:
        return DynamicsConfig(
            gamma_V=self.gamma_V,
            gamma_f=self.gamma_f,
            kernel=self.deformation_kernel,
            metric=self.metric,
            n_steps=self.n_steps,
        )


def digits_preset(
    gamma_V: float = 1.0, gamma_f: float = 1.0, gamma_W: float = 1.0
) -> MatchConfig:
    """Flat textured-square preset: two-width Gaussian deformation kernel
    (0.2 and 0.1 on a square of edge 2), Gaussian fidelity kernels with
    sigma_p = 0.05 and sigma_f = 0.7, unoriented frame kernel, L2 lumped metric.
    """
    deformation = RadialKernelSpec("gaussian", ((1.0, 0.2), (1.0, 0.1)))
    fid = VarifoldKernels(
        kp=gaussian(0.05), kf=gaussian(0.7), kt=GrassmannKernelSpec("unoriented_squared")
    )
    return MatchConfig(
        gamma_V=gamma_V,
        gamma_f=gamma_f,
        gamma_W=gamma_W,
        deformation_kernel=deformation,
        fidelity_kernels=fid,
        metric=FunctionalMetric(order=0, scheme="lumped"),
    )


@dataclass(frozen=True)
class MatchResult:
    """Optimal momenta, final trajectory and per-iteration history.

    The trajectory is the accepted shot's states and energies; it keeps
    neither the adjoint's stage points, solves and velocities nor the end
    fshape that scoring built.
    """

    p0: np.ndarray
    pf: np.ndarray
    trajectory: Trajectory
    objective_history: tuple[tuple[int, float, float, float], ...]
    converged: bool
    reason: str


def _problem(
    source: DiscreteFshape, target_var, cfg: MatchConfig, stage: ScaleStage
) -> MatchProblem:
    return MatchProblem(
        template=source,
        target=target_var,
        fidelity_kernels=cfg.fidelity_kernels.rescaled(stage.scale_p, stage.scale_f),
        gamma_W=cfg.gamma_W,
        dynamics=cfg.dynamics(),
    )


def objective(
    p0: np.ndarray, pf: np.ndarray, problem: MatchProblem
) -> tuple[float, float, float, Trajectory]:
    """Objective value, its (energy, fidelity) split and the forward shot;
    J = energy + gamma_W * fidelity."""
    traj = _descent_shot(p0, pf, problem)
    return (*_score(traj, problem), traj)


def _descent_shot(
    p0: np.ndarray, pf: np.ndarray, problem: MatchProblem, energy_bound: float | None = None
) -> Trajectory | None:
    """The shot of (p0, pf) from the template, with its stage points for the
    adjoint; None if its energy reaches ``energy_bound``."""
    template = problem.template
    state0 = ShootingState(x=template.vertices, f=template.signals, p=p0, pf=pf)
    return integrate_forward(
        state0, template, problem.dynamics, keep_stages=True, energy_bound=energy_bound
    )


def _score(traj: Trajectory, problem: MatchProblem) -> tuple[float, float, float]:
    """(J, energy, fidelity) of a shot."""
    fid = fidelity(traj.end, problem.target, problem.fidelity_kernels)
    return traj.energy + problem.gamma_W * fid, traj.energy, fid


def shoot(
    source: DiscreteFshape, p0: np.ndarray, pf: np.ndarray, cfg: MatchConfig
) -> Trajectory:
    """Forward geodesic from the source with the given momenta; it keeps no
    stage points, so no adjoint can run on it."""
    state0 = ShootingState(x=source.vertices, f=source.signals, p=p0, pf=pf)
    return integrate_forward(state0, source, cfg.dynamics())


def match(
    source: DiscreteFshape, target: DiscreteFshape, cfg: MatchConfig
) -> MatchResult:
    """Register source onto target by gradient descent on the initial momenta.

    Runs every stage of the coarse-to-fine schedule, warm-starting each stage
    with the momenta of the previous one. Within a stage the accepted
    objective values decrease strictly; the fidelity kernels (and hence J)
    change at stage boundaries.
    """
    if source.dim_d != target.dim_d or source.dim_n != target.dim_n:
        raise ValueError("source and target must share simplex/ambient dimensions")
    target_var = to_varifold(target)
    pf_metric = assemble_metric(source, cfg.metric)
    p0 = np.zeros_like(source.vertices)
    pf = np.zeros(source.n_vertices)
    history: list[tuple[int, float, float, float]] = []
    iteration = 0
    step = cfg.step_init
    converged = False
    reason = "max iterations"
    traj = _descent_shot(p0, pf, _problem(source, target_var, cfg, cfg.scale_schedule[0]))
    for stage in cfg.scale_schedule:
        problem = _problem(source, target_var, cfg, stage)
        J, energy, fid = _score(traj, problem)
        if not np.isfinite(J):
            raise RuntimeError(f"objective is not finite at initialization ({J})")
        history.append((iteration, J, energy, fid))
        converged = False
        reason = "max iterations"
        for _ in range(stage.iters):
            gp, gpf = euclidean_objective_gradient(p0, pf, problem, trajectory=traj)
            gpf = pf_metric @ gpf
            gnorm = float(np.sqrt((gp**2).sum() + (gpf**2).sum()))
            if gnorm < cfg.grad_tol:
                converged = True
                reason = "gradient tolerance reached"
                break
            accepted = False
            while step >= STEP_UNDERFLOW_FACTOR * cfg.step_init:
                cand_p0 = p0 - step * gp
                cand_pf = pf - step * gpf
                try:
                    # a candidate whose energy alone reaches J is not shot further
                    tc = _descent_shot(cand_p0, cand_pf, problem, energy_bound=J)
                    Jc, ec, fc = _score(tc, problem) if tc is not None else (np.inf, None, None)
                except ShootingDiverged:
                    Jc = np.inf
                if np.isfinite(Jc) and Jc < J:
                    p0, pf, traj = cand_p0, cand_pf, tc
                    J, energy, fid = Jc, ec, fc
                    iteration += 1
                    history.append((iteration, J, energy, fid))
                    step *= STEP_GROW
                    accepted = True
                    break
                step *= STEP_SHRINK
            if not accepted:
                reason = "step underflow"
                converged = False
                break
        if reason == "step underflow":
            break
    return MatchResult(
        p0=p0,
        pf=pf,
        trajectory=replace(traj, stages=(), solves=(), velocities=()),
        objective_history=tuple(history),
        converged=converged,
        reason=reason,
    )
