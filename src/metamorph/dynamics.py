"""Hamiltonian core: geodesic shooting, adjoint transport, objective gradient.

The flow state is (x, f, p, pf): vertex positions, vertex signals, geometric
momentum and functional momentum. The reduced Hamiltonian is

    H(x, f, p, pf) = quad_form(kernel, x, p) / (2 gamma_V)
                   + pf . D(x)^-1 pf / (2 gamma_f)

with D(x) the signal-metric matrix. Geodesics follow the canonical equations;
pf is a conserved quantity and is never integrated. Sensitivities are
transported backward through the adjoint linearized system, whose right-hand
side -dF(z)^T Z is evaluated matrix-free: since F = J grad H with J the
canonical symplectic map, -dF^T Z equals the Hessian-vector product
Hess(H) . (J Z), computed by a central finite difference of grad H along the
single direction J Z (two flow-field evaluations per call). The difference
step is the fixed relative step FD_STEP, the cube root of machine epsilon,
which balances truncation against rounding for a central difference; it
stays a constant until the exact discrete adjoint of the RK4 stages
replaces the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FunctionalMetric, assemble_metric, metric_form_grad_x, solve_spd
from .fshape import AdjointState, DiscreteFshape, ShootingState
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
    """Geodesic samples at t_k = k / n_steps, k = 0..n_steps."""

    states: tuple[ShootingState, ...]

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


def _solve_signal_velocity(
    template: DiscreteFshape, cfg: DynamicsConfig, x: np.ndarray, pf: np.ndarray
) -> np.ndarray:
    """h = D(x)^-1 pf on the template connectivity moved to x."""
    fs_x = template.with_(vertices=x)
    D = assemble_metric(fs_x, cfg.metric)
    return solve_spd(D, pf)


def reduced_hamiltonian(
    state: ShootingState, template: DiscreteFshape, cfg: DynamicsConfig
) -> float:
    """Kinetic energy of the joint flow at the given state."""
    geom = quad_form(cfg.kernel, state.x, state.p) / (2.0 * cfg.gamma_V)
    h = _solve_signal_velocity(template, cfg, state.x, state.pf)
    sig = float(state.pf @ h) / (2.0 * cfg.gamma_f)
    return geom + sig


def _rhs_blocks(
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    x: np.ndarray,
    p: np.ndarray,
    pf: np.ndarray,
):
    """Time derivatives (dx, df, dp); dpf is identically zero."""
    fs_x = template.with_(vertices=x)
    D = assemble_metric(fs_x, cfg.metric)
    h = solve_spd(D, pf)
    dx = kernel_conv(cfg.kernel, x, x, p) / cfg.gamma_V
    df = h / cfg.gamma_f
    dp = -quad_form_grad_x(cfg.kernel, x, p) / (2.0 * cfg.gamma_V)
    dp += metric_form_grad_x(fs_x, cfg.metric, h) / (2.0 * cfg.gamma_f)
    return dx, df, dp


def forward_rhs(
    state: ShootingState, template: DiscreteFshape, cfg: DynamicsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full right-hand side (dx, df, dp, dpf) of the geodesic system."""
    dx, df, dp = _rhs_blocks(template, cfg, state.x, state.p, state.pf)
    return dx, df, dp, np.zeros_like(state.pf)


def integrate_forward(
    state0: ShootingState, template: DiscreteFshape, cfg: DynamicsConfig
) -> Trajectory:
    """Classical fixed-step RK4 on [0, 1]; pf is copied, never integrated."""
    dt = 1.0 / cfg.n_steps
    pf = state0.pf
    x = state0.x.copy()
    f = state0.f.copy()
    p = state0.p.copy()
    states = [ShootingState(x=x, f=f, p=p, pf=pf)]
    for k in range(cfg.n_steps):
        ax1, af1, ap1 = _rhs_blocks(template, cfg, x, p, pf)
        ax2, af2, ap2 = _rhs_blocks(
            template, cfg, x + 0.5 * dt * ax1, p + 0.5 * dt * ap1, pf
        )
        ax3, af3, ap3 = _rhs_blocks(
            template, cfg, x + 0.5 * dt * ax2, p + 0.5 * dt * ap2, pf
        )
        ax4, af4, ap4 = _rhs_blocks(template, cfg, x + dt * ax3, p + dt * ap3, pf)
        x = x + (dt / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        f = f + (dt / 6.0) * (af1 + 2.0 * af2 + 2.0 * af3 + af4)
        p = p + (dt / 6.0) * (ap1 + 2.0 * ap2 + 2.0 * ap3 + ap4)
        if not (
            np.all(np.isfinite(x)) and np.all(np.isfinite(f)) and np.all(np.isfinite(p))
        ):
            raise RuntimeError(f"non-finite state after step {k + 1} of {cfg.n_steps}")
        states.append(ShootingState(x=x, f=f, p=p, pf=pf))
    return Trajectory(states=tuple(states))


def _hamiltonian_gradient(
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    x: np.ndarray,
    f: np.ndarray,
    p: np.ndarray,
    pf: np.ndarray,
):
    """grad H in (x, f, p, pf) order, read off the canonical equations."""
    dx, df, dp = _rhs_blocks(template, cfg, x, p, pf)
    return -dp, np.zeros_like(f), dx, df


def _adjoint_rhs(
    template: DiscreteFshape,
    cfg: DynamicsConfig,
    z: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    Z: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
):
    """-dF(z)^T Z as Hess(H)(z) . (J Z), by central FD of grad H."""
    x, f, p, pf = z
    Zx, Zf, Zp, Zpf = Z
    # J Z in (x, f, p, pf) block order.
    vx, vf, vp, vpf = Zp, Zpf, -Zx, -Zf
    scale = max(
        np.abs(vx).max(), np.abs(vf).max(), np.abs(vp).max(), np.abs(vpf).max()
    )
    if scale == 0.0 or not np.isfinite(scale):
        if not np.isfinite(scale):
            raise RuntimeError("non-finite adjoint state")
        zero = np.zeros_like
        return zero(Zx), zero(Zf), zero(Zp), zero(Zpf)
    state_mag = max(np.abs(x).max(), np.abs(f).max(), np.abs(p).max(), np.abs(pf).max())
    eps = FD_STEP * (1.0 + state_mag) / scale
    gp = _hamiltonian_gradient(
        template, cfg, x + eps * vx, f + eps * vf, p + eps * vp, pf + eps * vpf
    )
    gm = _hamiltonian_gradient(
        template, cfg, x - eps * vx, f - eps * vf, p - eps * vp, pf - eps * vpf
    )
    inv = 1.0 / (2.0 * eps)
    return tuple((a - b) * inv for a, b in zip(gp, gm))


def _midpoint_state(nodes, k: int):
    """State at t_{k-1/2} from stored samples.

    Cubic interpolation through four neighboring nodes (one-sided stencils at
    the ends), 4th-order accurate; with only three samples (n_steps 2), the
    quadratic through all three. The interpolated stage states still differ
    from the forward pass's own RK4 stages, so at large momenta the gradient
    keeps an error that only the exact discrete adjoint of the stages removes.
    """
    N = len(nodes) - 1
    if N < 3:
        w = (0.375, 0.75, -0.125) if k == 1 else (-0.125, 0.75, 0.375)
        return tuple(w[0] * a + w[1] * b + w[2] * c for a, b, c in zip(*nodes))
    if k == 1:
        idx, w = (0, 1, 2, 3), (0.3125, 0.9375, -0.3125, 0.0625)
    elif k == N:
        idx, w = (N - 3, N - 2, N - 1, N), (0.0625, -0.3125, 0.9375, 0.3125)
    else:
        idx, w = (k - 2, k - 1, k, k + 1), (-0.0625, 0.5625, 0.5625, -0.0625)
    return tuple(
        w[0] * a + w[1] * b + w[2] * c + w[3] * d
        for a, b, c, d in zip(nodes[idx[0]], nodes[idx[1]], nodes[idx[2]], nodes[idx[3]])
    )


def integrate_adjoint_backward(
    traj: Trajectory,
    end: AdjointState,
    template: DiscreteFshape,
    cfg: DynamicsConfig,
) -> AdjointState:
    """Transport adjoint variables from t=1 back to t=0 along the trajectory.

    RK4 with the same step as the forward pass; interior stage states are
    interpolated between the stored samples to matching (4th) order.
    """
    states = traj.states
    N = len(states) - 1
    dt = 1.0 / N
    nodes = [(s.x, s.f, s.p, s.pf) for s in states]
    Z = (end.X.copy(), end.F.copy(), end.Pvar.copy(), end.Pf.copy())

    def axpy(Zc, coef, dZ):
        return tuple(a + coef * b for a, b in zip(Zc, dZ))

    for k in range(N, 0, -1):
        z1 = nodes[k]
        z0 = nodes[k - 1]
        zmid = _midpoint_state(nodes, k)
        k1 = _adjoint_rhs(template, cfg, z1, Z)
        k2 = _adjoint_rhs(template, cfg, zmid, axpy(Z, -0.5 * dt, k1))
        k3 = _adjoint_rhs(template, cfg, zmid, axpy(Z, -0.5 * dt, k2))
        k4 = _adjoint_rhs(template, cfg, z0, axpy(Z, -dt, k3))
        Z = tuple(
            a - (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(Z, k1, k2, k3, k4)
        )
        if not all(np.all(np.isfinite(b)) for b in Z):
            raise RuntimeError(f"non-finite adjoint state at step {k}")
    return AdjointState(X=Z[0], F=Z[1], Pvar=Z[2], Pf=Z[3])


def euclidean_objective_gradient(
    p0: np.ndarray,
    pf: np.ndarray,
    problem: MatchProblem,
    trajectory: Trajectory | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain partial derivatives (dJ/dp0, dJ/dpf) of the matching objective.

    ``trajectory`` is the forward shot of (p0, pf), when the caller already
    has it; otherwise it is shot here.
    """
    template = problem.template
    cfg = problem.dynamics
    if trajectory is None:
        state0 = ShootingState(x=template.vertices, f=template.signals, p=p0, pf=pf)
        trajectory = integrate_forward(state0, template, cfg)
    end_state = trajectory.final
    fs1 = template.with_(vertices=end_state.x, signals=end_state.f)
    gx, gf = grad_fidelity(fs1, problem.target, problem.fidelity_kernels)
    end = AdjointState(
        X=problem.gamma_W * gx,
        F=problem.gamma_W * gf,
        Pvar=np.zeros_like(p0),
        Pf=np.zeros_like(pf),
    )
    adj0 = integrate_adjoint_backward(trajectory, end, template, cfg)
    grad_p0 = kernel_conv(cfg.kernel, template.vertices, template.vertices, p0)
    grad_p0 = grad_p0 / cfg.gamma_V + adj0.Pvar
    h0 = _solve_signal_velocity(template, cfg, template.vertices, np.asarray(pf, float))
    return grad_p0, h0 / cfg.gamma_f + adj0.Pf
