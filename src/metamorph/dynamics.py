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
``keep_stages`` records the stage points of every step (a plain shot keeps
none), and the backward pass applies the transposed RK4 step at those same
points (Sanz-Serna, SIAM Review 58(1), 2016). Each transposed
stage needs one vector-Jacobian product dF(z)^T V of the flow field. Since
F = J grad H with J the canonical symplectic map, dF^T V equals the
Hessian-vector product Hess(H) . (-J V), computed by a central finite
difference of grad H along that single direction (two flow-field evaluations
per call). The difference step is the fixed relative step FD_STEP, the cube
root of machine epsilon, which balances truncation against rounding for a
central difference; closed-form vector-Jacobian products would remove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import FunctionalMetric, assemble_metric, metric_form_grad_x, solve_spd
from .fshape import AdjointState, DiscreteFshape, ShootingDiverged, ShootingState
from .kernels import RadialKernelSpec, kernel_conv, quad_form, quad_form_grad_x
from .varifold import DiscreteVarifold, VarifoldKernels, grad_fidelity

FD_STEP = float(np.finfo(float).eps ** (1.0 / 3.0))


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
    is constant, so (x, p) fixes each stage.
    ``velocities[k]`` is (dx, df) at ``states[k]``, the first stage of step
    k, for k < n_steps; ``energy`` is the geodesic energy computed from
    ``velocities[0]``. ``template`` is the mesh the shot deformed.
    """

    states: tuple[ShootingState, ...]
    stages: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]
    velocities: tuple[tuple[np.ndarray, np.ndarray], ...]
    template: DiscreteFshape

    @cached_property
    def end(self) -> DiscreteFshape:
        """The final state as an fshape, built once and kept, so the fidelity
        and its gradient measure its cells once."""
        return self.template.with_(vertices=self.final.x, signals=self.final.f)

    def hamiltonian(self, k: int) -> float:
        """H at ``states[k]`` for k < n_steps, from its recorded velocity."""
        # H is quadratic in (p, pf) and (dx, df) = dH/d(p, pf): H = 1/2 <(p, pf), (dx, df)>
        (dx, df), s = self.velocities[k], self.states[k]
        return 0.5 * (float(np.sum(s.p * dx)) + float(s.pf @ df))

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
    """Time derivatives (dx, df, dp); dpf is identically zero.

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
    return dx, df, dp


def integrate_forward(
    state0: ShootingState,
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    *,
    keep_stages: bool = False,
) -> Trajectory:
    """Classical fixed-step RK4 on [0, 1]; pf is copied, never integrated.

    The trajectory keeps each step's first-stage velocity for the
    Hamiltonian, the energy and its gradient, and with ``keep_stages`` every
    step's stage points, which only the adjoint reads. ``states[0]`` is
    ``state0`` itself.
    """
    dt = 1.0 / cfg.n_steps
    pf = state0.pf
    x, f, p = state0.x, state0.f, state0.p
    states = [state0]
    stages = []
    velocities = []
    for k in range(cfg.n_steps):
        step = f"step {k + 1} of {cfg.n_steps}"
        # Overflow is left to the finiteness check below, which names the step.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ax1, af1, ap1 = _rhs_blocks(template, cfg, x, p, pf)
                velocities.append((ax1, af1))
                z2 = (x + 0.5 * dt * ax1, p + 0.5 * dt * ap1)
                ax2, af2, ap2 = _rhs_blocks(template, cfg, *z2, pf)
                z3 = (x + 0.5 * dt * ax2, p + 0.5 * dt * ap2)
                ax3, af3, ap3 = _rhs_blocks(template, cfg, *z3, pf)
                z4 = (x + dt * ax3, p + dt * ap3)
                ax4, af4, ap4 = _rhs_blocks(template, cfg, *z4, pf)
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
    return Trajectory(tuple(states), tuple(stages), tuple(velocities), template)


def _vjp(
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    x: np.ndarray,
    p: np.ndarray,
    pf: np.ndarray,
    V: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
):
    """dF(z)^T V as Hess(H)(z) . (-J V), by central FD of grad H.

    grad H is (-dp, 0, dx, df) in (x, f, p, pf) order. H does not depend on
    f, so the direction's f block is dropped and the result's is zero.
    """
    Vx, Vf, Vp, Vpf = V
    # -J V in (x, p, pf) block order.
    wx, wp, wpf = -Vp, Vx, Vf
    scale = max(np.abs(wx).max(), np.abs(wp).max(), np.abs(wpf).max())
    if scale == 0.0 or not np.isfinite(scale):
        if not np.isfinite(scale):
            raise ShootingDiverged("non-finite adjoint state")
        zero = np.zeros_like
        return zero(Vx), zero(Vf), zero(Vp), zero(Vpf)
    state_mag = max(np.abs(x).max(), np.abs(p).max(), np.abs(pf).max())
    eps = FD_STEP * (1.0 + state_mag) / scale
    xp, pp, pfp = x + eps * wx, p + eps * wp, pf + eps * wpf
    xm, pm, pfm = x - eps * wx, p - eps * wp, pf - eps * wpf
    dxp, dfp, dpp = _rhs_blocks(template, cfg, xp, pp, pfp)
    dxm, dfm, dpm = _rhs_blocks(template, cfg, xm, pm, pfm)
    inv = 1.0 / (2.0 * eps)
    return (dpm - dpp) * inv, np.zeros_like(Vf), (dxp - dxm) * inv, (dfp - dfm) * inv


def integrate_adjoint_backward(
    traj: Trajectory,
    end: AdjointState,
    template: DiscreteFshape,
    cfg: DynamicsConfig,
) -> AdjointState:
    """Transport adjoint variables from t=1 back to t=0 along the trajectory.

    Each step applies the transpose of the forward RK4 step, linearized at
    the stage points the forward pass recorded, so the result is the exact
    gradient of the discrete objective (up to the FD of ``_vjp``). The
    trajectory must come from ``integrate_forward(..., keep_stages=True)``.
    """
    if len(traj.stages) != traj.n_steps:
        raise ValueError(
            "the adjoint needs the forward's stage points: "
            "shoot with integrate_forward(..., keep_stages=True)"
        )
    dt = 1.0 / traj.n_steps
    pf = traj.initial.pf
    lam = (end.X.copy(), end.F.copy(), end.Pvar.copy(), end.Pf.copy())

    def vjp_at(z, *terms):
        V = tuple(sum(c * b[i] for c, b in terms) for i in range(4))
        return _vjp(template, cfg, *z, pf, V)

    for k in range(traj.n_steps - 1, -1, -1):
        s = traj.states[k]
        z2, z3, z4 = traj.stages[k]
        g4 = vjp_at(z4, (dt / 6.0, lam))
        g3 = vjp_at(z3, (dt / 3.0, lam), (dt, g4))
        g2 = vjp_at(z2, (dt / 3.0, lam), (dt / 2.0, g3))
        g1 = vjp_at((s.x, s.p), (dt / 6.0, lam), (dt / 2.0, g2))
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
