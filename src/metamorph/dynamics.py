"""Hamiltonian core: geodesic shooting, adjoint transport, objective gradient.

The flow state is (x, f, p, pf): vertex positions, vertex signals, geometric
momentum and functional momentum. The reduced Hamiltonian is

    H(x, f, p, pf) = quad_form(kernel, x, p) / (2 gamma_V)
                   + pf . D(x)^-1 pf / (2 gamma_f)

with D(x) the signal-metric matrix. Geodesics follow the canonical equations;
pf is a conserved quantity and is never integrated. H is quadratic in the
momenta, so H at a sample is 1/2 <(p, pf), (dx, df)>, and a shot's energy
and its gradient in (p0, pf) follow from the initial velocity. The
trajectory keeps the velocity of every step's first flow-field evaluation.
The fidelity's gradient is the exact
discrete adjoint of the forward RK4 scheme: a forward pass made with
``keep_stages`` records the stage points of every step, and h = D(x)^-1 pf
at each of them (a plain shot keeps none), and the backward pass applies the
transposed RK4 step at those same points (Sanz-Serna, SIAM Review 58(1),
2016). Each transposed stage needs one vector-Jacobian product dF(z)^T V of
the flow field. Since F = J grad H with J the canonical symplectic map,
dF^T V equals the Hessian-vector product Hess(H) . (-J V): one forward-mode
derivative of the flow field along w = -J V, in closed form (Vialard,
Risser, Rueckert & Cotter, IJCV 2012). Its kernel part is one symmetric
tiled pass, ``kernel_tangent``; its signal part assembles D(x) once and
solves once for dh = D^-1 (w_pf - dD[w_x] h), then differentiates the
metric's form gradient, both from one set of per-cell terms
(``metric_tangent``).
So an adjoint step costs four such products and no flow-field evaluation,
and the gradient is exact for the discrete objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import (
    FunctionalMetric,
    assemble_metric,
    metric_form_grad_x,
    metric_tangent,
    solve_spd,
)
from .fshape import AdjointState, DiscreteFshape, ShootingDiverged, ShootingState
from .kernels import (
    RadialKernelSpec,
    kernel_conv,
    kernel_tangent,
    quad_form,
    quad_form_grad_x,
)
from .varifold import DiscreteVarifold, VarifoldKernels, grad_fidelity


@dataclass(frozen=True)
class DynamicsConfig:
    """Weights, kernels and integrator settings for the geodesic flow."""

    gamma_V: float
    gamma_f: float
    kernel: RadialKernelSpec
    metric: FunctionalMetric
    n_steps: int = 20

    def __post_init__(self):
        if self.gamma_V <= 0 or self.gamma_f <= 0:
            raise ValueError("gamma_V and gamma_f must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")


@dataclass(frozen=True)
class Trajectory:
    """Geodesic samples at t_k = k / n_steps, k = 0..n_steps, and the stages
    of a shot made with ``keep_stages``.

    ``stages`` is empty unless the shot kept its stages; then ``stages[k]``
    holds the (x, p) points at which the RK4 step from ``states[k]`` to
    ``states[k + 1]`` evaluated the flow field after its first stage (the
    first is ``states[k]`` itself). f does not enter the flow field and pf
    is constant, so (x, p) fixes each stage. ``solves[k]`` then holds
    h = D(x)^-1 pf at the four stages of step k, the first at ``states[k]``.
    ``velocities[k]`` is (dx, df) at ``states[k]``, the first stage of step
    k, for k < n_steps; ``energy`` is the geodesic energy computed from
    ``velocities[0]``. ``template`` is the mesh the shot deformed.
    """

    states: tuple[ShootingState, ...]
    stages: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]
    solves: tuple[tuple[np.ndarray, ...], ...]
    velocities: tuple[tuple[np.ndarray, np.ndarray], ...]
    template: DiscreteFshape

    @cached_property
    def end(self) -> DiscreteFshape:
        """The final state as an fshape, built once and kept, so the fidelity
        and its gradient measure its cells once."""
        return self.template.with_(vertices=self.final.x, signals=self.final.f)

    def hamiltonian(self, k: int) -> float:
        """H at ``states[k]`` for k < n_steps, from its recorded velocity."""
        s = self.states[k]
        return _hamiltonian(s.p, s.pf, *self.velocities[k])

    @property
    def energy(self) -> float:
        return self.hamiltonian(0)

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(self.states))

    @property
    def initial(self) -> ShootingState:
        return self.states[0]

    @property
    def final(self) -> ShootingState:
        return self.states[-1]


@dataclass(frozen=True)
class MatchProblem:
    """Template, target varifold and weights defining one matching objective."""

    template: DiscreteFshape
    target: DiscreteVarifold
    fidelity_kernels: VarifoldKernels
    gamma_W: float
    dynamics: DynamicsConfig

    def __post_init__(self):
        if self.gamma_W < 0:
            raise ValueError("gamma_W must be nonnegative")


def _hamiltonian(p: np.ndarray, pf: np.ndarray, dx: np.ndarray, df: np.ndarray) -> float:
    """H from the momenta and the velocity (dx, df) = dH/d(p, pf): H is
    quadratic in (p, pf), so H = 1/2 <(p, pf), (dx, df)>."""
    return 0.5 * (float(np.sum(p * dx)) + float(pf @ df))


def reduced_hamiltonian(
    state: ShootingState, template: DiscreteFshape, cfg: DynamicsConfig
) -> float:
    """Kinetic energy of the joint flow at the given state."""
    geom = quad_form(cfg.kernel, state.x, state.p) / (2.0 * cfg.gamma_V)
    D = assemble_metric(template.with_(vertices=state.x), cfg.metric)
    sig = float(state.pf @ solve_spd(D, state.pf)) / (2.0 * cfg.gamma_f)
    return geom + sig


def _rhs_blocks(
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    x: np.ndarray,
    p: np.ndarray,
    pf: np.ndarray,
):
    """Time derivatives (dx, df, dp), and h = D(x)^-1 pf, which the adjoint
    linearizes at; dpf is identically zero.

    One fshape per state, so D(x) and its form gradient share one
    ``cell_geometry`` record.
    """
    fs_x = template.with_(vertices=x)
    D = assemble_metric(fs_x, cfg.metric)
    h = solve_spd(D, pf)
    dx = kernel_conv(cfg.kernel, x, x, p) / cfg.gamma_V
    df = h / cfg.gamma_f
    dp = -quad_form_grad_x(cfg.kernel, x, p) / (2.0 * cfg.gamma_V)
    dp += metric_form_grad_x(fs_x, cfg.metric, h) / (2.0 * cfg.gamma_f)
    return dx, df, dp, h


def _rhs_tangent(
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    x: np.ndarray,
    p: np.ndarray,
    h: np.ndarray,
    w: tuple[np.ndarray, np.ndarray, np.ndarray],
):
    """Derivative of ``_rhs_blocks``' (dx, df, dp) at (x, p), where
    h = D(x)^-1 pf, along w = (wx, wp, wpf); one assembly and one solve.
    """
    wx, wp, wpf = w
    fs_x = template.with_(vertices=x)
    D = assemble_metric(fs_x, cfg.metric)
    tangent = metric_tangent(fs_x, cfg.metric, h, wx)
    dh = solve_spd(D, wpf - tangent.dD_h)
    dconv, dgrad = kernel_tangent(cfg.kernel, x, p, wx, wp)
    ddp = -dgrad / (2.0 * cfg.gamma_V)
    ddp += tangent.form_grad_x(dh) / (2.0 * cfg.gamma_f)
    return dconv / cfg.gamma_V, dh / cfg.gamma_f, ddp


def integrate_forward(
    state0: ShootingState,
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    *,
    keep_stages: bool = False,
    energy_bound: float | None = None,
) -> Trajectory | None:
    """Classical fixed-step RK4 on [0, 1]; pf is copied, never integrated.

    The trajectory keeps each step's first-stage velocity for the
    Hamiltonian, the energy and its gradient, and with ``keep_stages`` every
    step's stage points and their h = D(x)^-1 pf, which only the adjoint
    reads. ``states[0]`` is ``state0`` itself. With ``energy_bound``, a shot
    whose energy (read from its first flow-field evaluation) is at or above
    the bound stops there and returns None.
    """
    dt = 1.0 / cfg.n_steps
    pf = state0.pf
    x, f, p = state0.x, state0.f, state0.p
    states = [state0]
    stages = []
    solves = []
    velocities = []
    for k in range(cfg.n_steps):
        step = f"step {k + 1} of {cfg.n_steps}"
        # Overflow is left to the finiteness check below, which names the step.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ax1, af1, ap1, h1 = _rhs_blocks(template, cfg, x, p, pf)
                velocities.append((ax1, af1))
                if energy_bound is not None and k == 0:
                    if _hamiltonian(p, pf, ax1, af1) >= energy_bound:
                        return None
                z2 = (x + 0.5 * dt * ax1, p + 0.5 * dt * ap1)
                ax2, af2, ap2, h2 = _rhs_blocks(template, cfg, *z2, pf)
                z3 = (x + 0.5 * dt * ax2, p + 0.5 * dt * ap2)
                ax3, af3, ap3, h3 = _rhs_blocks(template, cfg, *z3, pf)
                z4 = (x + dt * ax3, p + dt * ap3)
                ax4, af4, ap4, h4 = _rhs_blocks(template, cfg, *z4, pf)
                x = x + (dt / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
                f = f + (dt / 6.0) * (af1 + 2.0 * af2 + 2.0 * af3 + af4)
                p = p + (dt / 6.0) * (ap1 + 2.0 * ap2 + 2.0 * ap3 + ap4)
        except ShootingDiverged as exc:
            raise ShootingDiverged(f"{exc} in {step}") from exc
        if not (
            np.all(np.isfinite(x)) and np.all(np.isfinite(f)) and np.all(np.isfinite(p))
        ):
            raise ShootingDiverged(f"non-finite state after {step}")
        states.append(ShootingState(x=x, f=f, p=p, pf=pf))
        if keep_stages:
            stages.append((z2, z3, z4))
            solves.append((h1, h2, h3, h4))
    return Trajectory(
        tuple(states), tuple(stages), tuple(solves), tuple(velocities), template
    )


def integrate_adjoint_backward(
    traj: Trajectory,
    end: AdjointState,
    template: DiscreteFshape,
    cfg: DynamicsConfig,
) -> AdjointState:
    """Transport adjoint variables from t=1 back to t=0 along the trajectory.

    Each step applies the transpose of the forward RK4 step, linearized at
    the stage points the forward pass recorded, so the result is the exact
    gradient of the discrete objective. The trajectory must come from
    ``integrate_forward(..., keep_stages=True)``. Raises ShootingDiverged
    when the adjoint state turns non-finite.
    """
    if len(traj.stages) != traj.n_steps:
        raise ValueError(
            "the adjoint needs the forward's stage points: "
            "shoot with integrate_forward(..., keep_stages=True)"
        )
    dt = 1.0 / traj.n_steps
    lam = (end.X.copy(), end.F.copy(), end.Pvar.copy(), end.Pf.copy())

    def vjp_at(z, h, *terms):
        """dF(z)^T V = Hess(H) . (-J V), V the weighted sum of the terms.

        grad H is (-dp, 0, dx, df) in (x, f, p, pf) order, and -J V is
        (-V_p, V_x, V_f) in (x, p, pf) order; H does not depend on f.
        """
        Vx, Vf, Vp = (sum(c * b[i] for c, b in terms) for i in range(3))
        w = (-Vp, Vx, Vf)
        if not all(np.all(np.isfinite(b)) for b in w):
            raise ShootingDiverged("non-finite adjoint state")
        ddx, ddf, ddp = _rhs_tangent(template, cfg, *z, h, w)
        return -ddp, np.zeros_like(Vf), ddx, ddf

    for k in range(traj.n_steps - 1, -1, -1):
        s = traj.states[k]
        z2, z3, z4 = traj.stages[k]
        h1, h2, h3, h4 = traj.solves[k]
        g4 = vjp_at(z4, h4, (dt / 6.0, lam))
        g3 = vjp_at(z3, h3, (dt / 3.0, lam), (dt, g4))
        g2 = vjp_at(z2, h2, (dt / 3.0, lam), (dt / 2.0, g3))
        g1 = vjp_at((s.x, s.p), h1, (dt / 6.0, lam), (dt / 2.0, g2))
        lam = tuple(a + sum(gs) for a, *gs in zip(lam, g1, g2, g3, g4))
        if not all(np.all(np.isfinite(b)) for b in lam):
            raise ShootingDiverged(f"non-finite adjoint state at step {k + 1}")
    return AdjointState(X=lam[0], F=lam[1], Pvar=lam[2], Pf=lam[3])


def euclidean_objective_gradient(
    p0: np.ndarray,
    pf: np.ndarray,
    problem: MatchProblem,
    trajectory: Trajectory | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain partial derivatives (dJ/dp0, dJ/dpf) of the matching objective.

    ``trajectory`` is the forward shot of (p0, pf), when the caller already
    has it; otherwise it is shot here. The energy's part of the gradient is
    the shot's initial velocity.
    """
    template = problem.template
    cfg = problem.dynamics
    if trajectory is None:
        state0 = ShootingState(x=template.vertices, f=template.signals, p=p0, pf=pf)
        trajectory = integrate_forward(state0, template, cfg, keep_stages=True)
    gx, gf = grad_fidelity(trajectory.end, problem.target, problem.fidelity_kernels)
    end = AdjointState(
        X=problem.gamma_W * gx,
        F=problem.gamma_W * gf,
        Pvar=np.zeros_like(p0),
        Pf=np.zeros_like(pf),
    )
    adj0 = integrate_adjoint_backward(trajectory, end, template, cfg)
    dx0, df0 = trajectory.velocities[0]
    return dx0 + adj0.Pvar, df0 + adj0.Pf
