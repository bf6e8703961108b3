"""Registration by geodesic shooting: L-BFGS descent on the initial momenta.

Minimizes

    J(p0, pf) = quad_form(kernel, x0, p0) / (2 gamma_V)
              + pf . D(x0)^-1 pf / (2 gamma_f)
              + gamma_W * fidelity(end state, target)

over z = (p0, pf), with a coarse-to-fine schedule on the fidelity kernel
widths. The descent is limited-memory BFGS (Liu & Nocedal, Math.
Programming 45, 1989; Nocedal & Wright, Numerical Optimization, §7.2) in the
metric J puts on the momenta: the two-loop recursion over the last MEMORY
curvature pairs (s, y) starts from H0 = gamma diag(I, D(x0)), with D(x0) the
template's signal metric (the lumped mass for lumped L2, mass plus stiffness
for H1), so every frequency of the signal momentum moves at a comparable
rate, and gamma = s'y / y' diag(I, D) y from the newest pair. A pair is
completed at the start of the next iteration, from the gradient that
iteration needs anyway, and kept only if s'y > CURVATURE_FLOOR |s| |y|. J
changes at a stage boundary, so the pairs start afresh there.

An iteration with no pair, the first of each stage, or one whose direction
is not a descent direction, takes the preconditioned gradient step
-step (gp, D(x0) gpf) with the carried step: ``step_init`` at first, then
t step STEP_GROW after such an iteration is accepted at t. Along the
direction d, candidates z + t d start at t = 1 and halve (STEP_SHRINK) until
the Armijo test J(z + t d) < J + ARMIJO t g'd holds. Momenta start at zero,
so the whole procedure is deterministic.

Each momenta pair is shot once, and J is read from the shot alone: its
energy from the trajectory's initial velocity, its fidelity from the end
state. ``objective`` returns the trajectory with J, and the descent keeps the
trajectory of the accepted candidate: the gradient transports its adjoint
backward along it, the next stage scores it under its rescaled fidelity
kernels (the flow does not depend on them), and the result returns it, with
its initial momenta as the result's, without the end state's fshape and cell
geometry that scoring and the gradient shared. So the descent's shots keep
their RK4 stage points for the adjoint, while ``shoot``, which no gradient
follows, keeps none.

A line-search candidate is rejected as soon as its energy, which its shot
reads from its first flow-field evaluation, reaches its Armijo bound: the
fidelity is at least 0 and gamma_W at least 0, so its J could not be lower.
Its shot then stops after that one evaluation, in place of 4 * n_steps, and
every accept or reject decision is the one the full shot would give.
"""

from __future__ import annotations

from collections import deque
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
MEMORY = 8
ARMIJO = 1e-4
CURVATURE_FLOOR = 1e-12


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
    fshape that scoring built. p0 and pf are its initial momenta, not copies.
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


def _two_loop(g: np.ndarray, pairs, precondition) -> np.ndarray:
    """The L-BFGS direction -H g (Nocedal & Wright, Numerical Optimization,
    Algorithm 7.4). H is the inverse Hessian that the curvature pairs
    (s, y, 1 / s'y), oldest first, build from H0 = gamma * precondition, with
    gamma = s'y / y' precondition(y) for the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    _, y, rho = pairs[-1]
    r = precondition(q) / (rho * (y @ precondition(y)))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * (y @ r)) * s
    return -r


def match(
    source: DiscreteFshape, target: DiscreteFshape, cfg: MatchConfig
) -> MatchResult:
    """Register source onto target by L-BFGS descent on the initial momenta.

    Runs every stage of the coarse-to-fine schedule, warm-starting each stage
    with the momenta of the previous one. Within a stage the accepted
    objective values decrease strictly; the fidelity kernels (and hence J)
    change at stage boundaries, so the curvature pairs start afresh there.
    """
    if source.dim_d != target.dim_d or source.dim_n != target.dim_n:
        raise ValueError("source and target must share simplex/ambient dimensions")
    target_var = to_varifold(target)
    pf_metric = assemble_metric(source, cfg.metric)
    k = source.vertices.size

    def momenta(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[:k].reshape(source.vertices.shape), z[k:]

    def precondition(v: np.ndarray) -> np.ndarray:
        """diag(I, D(x0)) v, the metric J puts on the momenta."""
        return np.concatenate((v[:k], pf_metric @ v[k:]))

    z = np.zeros(k + source.n_vertices)
    history: list[tuple[int, float, float, float]] = []
    iteration = 0
    step = cfg.step_init
    converged = False
    reason = "max iterations"
    traj = _descent_shot(*momenta(z), _problem(source, target_var, cfg, cfg.scale_schedule[0]))
    for stage in cfg.scale_schedule:
        problem = _problem(source, target_var, cfg, stage)
        J, energy, fid = _score(traj, problem)
        if not np.isfinite(J):
            raise RuntimeError(f"objective is not finite at initialization ({J})")
        history.append((iteration, J, energy, fid))
        converged = False
        reason = "max iterations"
        pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
        s = None
        for _ in range(stage.iters):
            gp, gpf = euclidean_objective_gradient(
                traj.initial.p, traj.initial.pf, problem, trajectory=traj
            )
            g = np.concatenate((gp.ravel(), gpf))
            if s is not None:
                # the pair of the last accepted step, from the gradient this
                # iteration needs anyway
                y = g - g_last
                sy = s @ y
                if sy > CURVATURE_FLOOR * np.linalg.norm(s) * np.linalg.norm(y):
                    pairs.append((s, y, 1.0 / sy))
            Dg = precondition(g)
            if np.sqrt(Dg @ Dg) < cfg.grad_tol:
                converged = True
                reason = "gradient tolerance reached"
                break
            if pairs:
                d = _two_loop(g, pairs, precondition)
                if g @ d >= 0:  # not a descent direction
                    pairs.clear()
            pairless = not pairs
            if pairless:
                d = -step * Dg
            slope = g @ d
            t = 1.0
            while t >= STEP_UNDERFLOW_FACTOR:
                cand = z + t * d
                # Armijo: the candidate must reach J + ARMIJO t g'd, and one
                # whose energy alone reaches that is not shot further
                bound = J + ARMIJO * t * slope
                try:
                    tc = _descent_shot(*momenta(cand), problem, energy_bound=bound)
                    Jc, ec, fc = _score(tc, problem) if tc is not None else (np.inf, None, None)
                except ShootingDiverged:
                    Jc = np.inf
                if Jc < bound:
                    s, g_last = t * d, g
                    if pairless:
                        step = t * step * STEP_GROW
                    z, traj = cand, tc
                    J, energy, fid = Jc, ec, fc
                    iteration += 1
                    history.append((iteration, J, energy, fid))
                    break
                t *= STEP_SHRINK
            else:
                reason = "step underflow"
                break
        if reason == "step underflow":
            break
    return MatchResult(
        p0=traj.initial.p,
        pf=traj.initial.pf,
        trajectory=replace(traj, stages=(), solves=(), velocities=()),
        objective_history=tuple(history),
        converged=converged,
        reason=reason,
    )
