import tracemalloc

import numpy as np
import pytest

from metamorph import (
    DiscreteFshape,
    DynamicsConfig,
    FunctionalMetric,
    GrassmannKernelSpec,
    MatchConfig,
    MatchProblem,
    RadialKernelSpec,
    ShootingState,
    VarifoldKernels,
    integrate_forward,
    match,
    objective,
    to_varifold,
)
from metamorph import dynamics, fshape
from metamorph.cli import GRADCHECK_TOL
from metamorph.dynamics import (
    _rhs_blocks,
    _rhs_tangent,
    euclidean_objective_gradient,
    integrate_adjoint_backward,
    reduced_hamiltonian,
)
from metamorph.fem import lumped_vertex_weights, solve_spd
from metamorph.fshape import AdjointState
from metamorph.kernels import gaussian, kernel_conv, quad_form
from metamorph.matching import ScaleStage
from metamorph.meshes import icosphere

from conftest import jittered_grid, triangle_strip

KERNEL = RadialKernelSpec("gaussian", ((1.0, 0.4),))
LUMPED = FunctionalMetric(0, "lumped")
H1 = FunctionalMetric(1, "p1")

FID_KERNELS = VarifoldKernels(
    kp=RadialKernelSpec("gaussian", ((1.0, 0.5),)),
    kf=RadialKernelSpec("gaussian", ((1.0, 1.0),)),
    kt=GrassmannKernelSpec("unoriented_squared"),
)


def _config(metric=LUMPED, n_steps=10, gamma_V=1.0, gamma_f=2.0):
    return DynamicsConfig(
        gamma_V=gamma_V, gamma_f=gamma_f, kernel=KERNEL, metric=metric, n_steps=n_steps
    )


def _rest_state(fs):
    return ShootingState(
        x=fs.vertices,
        f=fs.signals,
        p=np.zeros_like(fs.vertices),
        pf=np.zeros(fs.n_vertices),
    )


def _random_state(fs, seed, amp=0.3):
    rng = np.random.default_rng(seed)
    return ShootingState(
        x=fs.vertices,
        f=fs.signals,
        p=amp * rng.standard_normal(fs.vertices.shape),
        pf=amp * rng.standard_normal(fs.n_vertices),
    )


def test_hamiltonian_zero_momenta():
    fs = triangle_strip(4, seed=0)
    assert reduced_hamiltonian(_rest_state(fs), fs, _config()) == 0.0


def test_hamiltonian_pf_zero_term_isolation():
    fs = triangle_strip(4, seed=1)
    rng = np.random.default_rng(2)
    p = rng.standard_normal(fs.vertices.shape)
    state = ShootingState(fs.vertices, fs.signals, p, np.zeros(fs.n_vertices))
    cfg = _config(gamma_V=1.7)
    expected = quad_form(KERNEL, fs.vertices, p) / (2 * 1.7)
    assert reduced_hamiltonian(state, fs, cfg) == pytest.approx(expected, rel=1e-13)


def test_hamiltonian_gamma_f_homogeneity():
    fs = triangle_strip(4, seed=3)
    state = _random_state(fs, 4)
    base = _config(gamma_f=1.0)
    doubled = _config(gamma_f=2.0)
    term = lambda cfg: reduced_hamiltonian(state, fs, cfg) - reduced_hamiltonian(
        ShootingState(state.x, state.f, state.p, np.zeros(fs.n_vertices)), fs, cfg
    )
    assert term(doubled) == pytest.approx(term(base) / 2.0, rel=1e-12)


@pytest.mark.parametrize("metric", [LUMPED, FunctionalMetric(0, "p1"), H1])
def test_trajectory_energy_is_initial_hamiltonian(metric):
    # H is quadratic in the momenta: 1/2 <(p, pf), (dx, df)> at t = 0 is H(0)
    fs = triangle_strip(4, seed=36)
    cfg = _config(metric=metric, n_steps=2, gamma_V=1.7, gamma_f=0.6)
    traj = integrate_forward(_random_state(fs, 37), fs, cfg)
    assert traj.energy == pytest.approx(
        reduced_hamiltonian(traj.initial, fs, cfg), rel=1e-13
    )


def test_objective_and_gradient_reuse_the_shots_velocity(monkeypatch):
    # neither the energy nor its gradient assembles D(x0) or convolves K(x0)
    # again: every assemble and kernel pass is one RHS evaluation's, which
    # makes one fused pass and no separate convolution, and the gradient's
    # adjoint makes one closed-form product per RK4 stage, with one
    # assembly, one solve and one tangent kernel pass each
    names = ["assemble_metric", "solve_spd", "quad_form_grad_x", "kernel_conv"]
    calls = dict.fromkeys(names + ["kernel_tangent", "quad_form"], 0)
    for name in calls:
        original = getattr(dynamics, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dynamics, name, counted)
    src = triangle_strip(4, seed=38)
    cfg = _config(metric=H1, n_steps=3, gamma_V=1.7, gamma_f=0.6)
    problem = MatchProblem(src, to_varifold(triangle_strip(4, seed=39)), FID_KERNELS, 3.0, cfg)
    state0 = _random_state(src, 40)
    _, _, _, traj = objective(state0.p, state0.pf, problem)
    stage_evals = 4 * 3
    assert calls == {
        "assemble_metric": stage_evals,
        "solve_spd": stage_evals,
        "quad_form_grad_x": stage_evals,
        "kernel_conv": 0,
        "kernel_tangent": 0,
        "quad_form": 0,
    }
    calls.update(dict.fromkeys(calls, 0))
    euclidean_objective_gradient(state0.p, state0.pf, problem, trajectory=traj)
    assert calls == {
        "assemble_metric": stage_evals,
        "solve_spd": stage_evals,
        "quad_form_grad_x": 0,
        "kernel_conv": 0,
        "kernel_tangent": stage_evals,
        "quad_form": 0,
    }


def test_forward_rhs_zero_momenta():
    fs = triangle_strip(4, seed=5)
    state = _rest_state(fs)
    dx, df, dp, h = _rhs_blocks(fs, _config(), state.x, state.p, state.pf)
    for block in (dx, df, dp, h):
        np.testing.assert_array_equal(block, 0.0)


def test_forward_rhs_velocity_block():
    fs = triangle_strip(4, seed=6)
    state = _random_state(fs, 7)
    cfg = _config(gamma_V=1.3)
    dx, _, _, _ = _rhs_blocks(fs, cfg, state.x, state.p, state.pf)
    expected = kernel_conv(KERNEL, state.x, state.x, state.p) / 1.3
    np.testing.assert_allclose(dx, expected, rtol=1e-13)


@pytest.mark.parametrize("metric", [LUMPED, FunctionalMetric(0, "p1"), H1])
def test_rhs_evaluation_measures_cells_once(metric, monkeypatch):
    # assembling D(x) and differentiating its form share one geometry record
    measured = []
    compute = fshape._compute_geometry
    monkeypatch.setattr(
        fshape, "_compute_geometry", lambda fs: measured.append(fs) or compute(fs)
    )
    fs = triangle_strip(4, seed=10)
    state = _random_state(fs, 11)
    _rhs_blocks(fs, _config(metric=metric), state.x, state.p, state.pf)
    assert len(measured) == 1


def test_objective_and_gradient_measure_the_end_state_once(monkeypatch):
    # the fidelity and its gradient read one fshape of the shot's end state
    measured = []
    compute = fshape._compute_geometry
    monkeypatch.setattr(
        fshape, "_compute_geometry", lambda fs: measured.append(fs) or compute(fs)
    )
    src = triangle_strip(4, seed=38)
    cfg = _config(metric=H1, n_steps=3)
    problem = MatchProblem(src, to_varifold(triangle_strip(4, seed=39)), FID_KERNELS, 3.0, cfg)
    state0 = _random_state(src, 40)
    _, _, _, traj = objective(state0.p, state0.pf, problem)
    euclidean_objective_gradient(state0.p, state0.pf, problem, trajectory=traj)
    end = traj.final
    at_end = [
        fs
        for fs in measured
        if np.array_equal(fs.vertices, end.x) and np.array_equal(fs.signals, end.f)
    ]
    assert len(at_end) == 1


@pytest.mark.parametrize("metric", [LUMPED, FunctionalMetric(0, "p1"), H1])
def test_forward_rhs_is_minus_hamiltonian_gradient(metric):
    # dp/dt must equal -dH/dx: checked against central FD of the Hamiltonian
    fs = triangle_strip(4, seed=8)
    state = _random_state(fs, 9)
    cfg = _config(metric=metric)
    _, _, dp, _ = _rhs_blocks(fs, cfg, state.x, state.p, state.pf)
    eps = 1e-6
    fd = np.zeros_like(dp)
    for i in range(fs.n_vertices):
        for j in range(3):
            xp = state.x.copy()
            xm = state.x.copy()
            xp[i, j] += eps
            xm[i, j] -= eps
            Hp = reduced_hamiltonian(
                ShootingState(xp, state.f, state.p, state.pf), fs, cfg
            )
            Hm = reduced_hamiltonian(
                ShootingState(xm, state.f, state.p, state.pf), fs, cfg
            )
            fd[i, j] = -(Hp - Hm) / (2 * eps)
    assert np.abs(dp - fd).max() / np.abs(fd).max() < 1e-6


def test_integrate_forward_constant_for_zero_momenta():
    fs = triangle_strip(4, seed=10)
    traj = integrate_forward(_rest_state(fs), fs, _config())
    assert len(traj.states) == _config().n_steps + 1
    for s in traj.states:
        np.testing.assert_array_equal(s.x, fs.vertices)
        np.testing.assert_array_equal(s.f, fs.signals)


def test_trajectory_initial_state_preserved():
    fs = triangle_strip(4, seed=11)
    s0 = _random_state(fs, 12)
    traj = integrate_forward(s0, fs, _config())
    np.testing.assert_array_equal(traj.initial.x, s0.x)
    np.testing.assert_array_equal(traj.initial.p, s0.p)


def test_pf_bitwise_constant_along_trajectory():
    fs = triangle_strip(4, seed=13)
    s0 = _random_state(fs, 14)
    traj = integrate_forward(s0, fs, _config())
    for s in traj.states:
        assert s.pf is traj.states[0].pf  # shared, never copied or integrated


@pytest.mark.parametrize("metric", [LUMPED, H1])
def test_hamiltonian_conservation_and_order(metric):
    fs = jittered_grid(15)
    areas = lumped_vertex_weights(fs)
    rng = np.random.default_rng(16)
    p0 = rng.standard_normal(fs.vertices.shape) * areas[:, None]
    pf = rng.standard_normal(fs.n_vertices) * areas
    drift = {}
    for n in (20, 40):
        cfg = DynamicsConfig(1.0, 1.0, KERNEL, metric, n_steps=n)
        traj = integrate_forward(
            ShootingState(fs.vertices, fs.signals, p0, pf), fs, cfg
        )
        H = [reduced_hamiltonian(s, fs, cfg) for s in traj.states]
        drift[n] = max(abs(h - H[0]) for h in H) / abs(H[0])
    assert drift[20] < 1e-6
    if drift[40] > 1e-14:  # ratio meaningful only above roundoff
        assert drift[20] / drift[40] >= 8.0


def test_time_reversal():
    fs = jittered_grid(17)
    areas = lumped_vertex_weights(fs)
    rng = np.random.default_rng(18)
    p0 = rng.standard_normal(fs.vertices.shape) * areas[:, None]
    pf = rng.standard_normal(fs.n_vertices) * areas
    cfg = DynamicsConfig(1.0, 1.0, KERNEL, LUMPED, n_steps=40)
    fwd = integrate_forward(ShootingState(fs.vertices, fs.signals, p0, pf), fs, cfg)
    e = fwd.final
    back = integrate_forward(ShootingState(e.x, e.f, -e.p, -e.pf), fs, cfg)
    b = back.final
    scale_x = np.abs(fs.vertices).max()
    scale_f = np.abs(fs.signals).max()
    assert np.abs(b.x - fs.vertices).max() / scale_x < 1e-6
    assert np.abs(b.f - fs.signals).max() / scale_f < 1e-6


def test_integrate_forward_nan_detection():
    # enormous momenta blow the flow up within a step
    fs = triangle_strip(4, seed=19)
    state = ShootingState(
        fs.vertices, fs.signals, 1e200 * np.ones_like(fs.vertices), np.zeros(6)
    )
    with np.errstate(all="ignore"), pytest.raises((RuntimeError, ValueError)):
        integrate_forward(state, fs, _config())


def test_pure_lddmm_reduction_matches_landmark_oracle():
    # independent landmark integrator written with explicit loops
    def landmark_rk4(x0, p0, sigma, gamma_V, n_steps):
        def kv(u):
            return np.exp(-u / (2 * sigma**2))

        def kvp(u):
            return -np.exp(-u / (2 * sigma**2)) / (2 * sigma**2)

        P = x0.shape[0]

        def rhs(x, p):
            dx = np.zeros_like(x)
            dp = np.zeros_like(p)
            for i in range(P):
                for j in range(P):
                    u = float(((x[i] - x[j]) ** 2).sum())
                    dx[i] += kv(u) * p[j] / gamma_V
                    dp[i] += -2.0 / gamma_V * kvp(u) * float(p[i] @ p[j]) * (x[i] - x[j])
            return dx, dp

        dt = 1.0 / n_steps
        xs, ps = [x0.copy()], [p0.copy()]
        x, p = x0.copy(), p0.copy()
        for _ in range(n_steps):
            k1 = rhs(x, p)
            k2 = rhs(x + 0.5 * dt * k1[0], p + 0.5 * dt * k1[1])
            k3 = rhs(x + 0.5 * dt * k2[0], p + 0.5 * dt * k2[1])
            k4 = rhs(x + dt * k3[0], p + dt * k3[1])
            x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            p = p + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            xs.append(x.copy())
            ps.append(p.copy())
        return xs, ps

    pts = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0], [0.5, 0.5, 0.8]]
    )
    cells = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4]])
    fs = np.random.default_rng(20)
    p0 = 0.3 * fs.standard_normal((5, 3))
    mesh = triangle_strip(3, seed=None)
    from metamorph import DiscreteFshape

    mesh = DiscreteFshape(pts, np.full(5, 2.5), cells)
    sigma, gamma_V = 0.8, 1.3
    cfg = DynamicsConfig(
        gamma_V,
        1.0,
        RadialKernelSpec("gaussian", ((1.0, sigma),)),
        LUMPED,
        n_steps=20,
    )
    traj = integrate_forward(
        ShootingState(pts, mesh.signals, p0, np.zeros(5)), mesh, cfg
    )
    xs, ps = landmark_rk4(pts, p0, sigma, gamma_V, 20)
    for s, xo, po in zip(traj.states, xs, ps):
        assert np.abs(s.x - xo).max() < 1e-10
        assert np.abs(s.p - po).max() < 1e-10
        np.testing.assert_array_equal(s.f, mesh.signals)  # signals frozen


def test_adjoint_zero_end_state():
    fs = triangle_strip(4, seed=21)
    s0 = _random_state(fs, 22)
    cfg = _config()
    traj = integrate_forward(s0, fs, cfg, keep_stages=True)
    zero = AdjointState(
        X=np.zeros_like(s0.x),
        F=np.zeros(fs.n_vertices),
        Pvar=np.zeros_like(s0.x),
        Pf=np.zeros(fs.n_vertices),
    )
    out = integrate_adjoint_backward(traj, zero, fs, cfg)
    for block in (out.X, out.F, out.Pvar, out.Pf):
        np.testing.assert_array_equal(block, 0.0)


def test_adjoint_block_structure_signal_decoupled():
    # with pf = 0 and a signal-blind fidelity, F and Pf stay zero
    fs = triangle_strip(4, seed=23)
    rng = np.random.default_rng(24)
    p0 = 0.3 * rng.standard_normal(fs.vertices.shape)
    cfg = _config()
    s0 = ShootingState(fs.vertices, fs.signals, p0, np.zeros(fs.n_vertices))
    traj = integrate_forward(s0, fs, cfg, keep_stages=True)
    end = AdjointState(
        X=rng.standard_normal(fs.vertices.shape),
        F=np.zeros(fs.n_vertices),
        Pvar=np.zeros_like(p0),
        Pf=np.zeros(fs.n_vertices),
    )
    out = integrate_adjoint_backward(traj, end, fs, cfg)
    assert np.abs(out.F).max() < 1e-9
    assert np.abs(out.Pf).max() < 1e-9
    assert np.abs(out.X).max() > 0.0


def _polyline(n, seed, dim):
    """Open polyline of n segments in R^dim with random signals."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2.0, n + 1)
    pts = np.zeros((n + 1, dim))
    pts[:, 0] = t
    pts[:, 1] = 0.3 * np.sin(2.0 * t)
    pts += 0.05 * rng.standard_normal(pts.shape)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return DiscreteFshape(pts, rng.standard_normal(n + 1), cells)


TAYLOR_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


@pytest.mark.parametrize(
    "kernel",
    [
        RadialKernelSpec("gaussian", ((1.0, 0.4), (0.5, 0.2))),
        RadialKernelSpec("cauchy", ((1.0, 0.4), (2.0, 0.7))),
    ],
    ids=["gaussian2", "cauchy2"],
)
@pytest.mark.parametrize(
    "metric", [LUMPED, FunctionalMetric(0, "p1"), H1], ids=["lumped", "p1", "h1"]
)
@pytest.mark.parametrize("mesh", ["surface", "curve2", "curve3"])
def test_rhs_tangent_taylor_remainder_is_second_order(mesh, metric, kernel, monkeypatch):
    # |F(z + eps w) - F(z) - eps dF(z) w| must fall as eps^2: the closed-form
    # product is the flow field's exact derivative, with central differences
    # of _rhs_blocks only as the oracle. The metric solves run to near machine
    # precision here, so CG's stopping noise does not blur the smallest eps.
    monkeypatch.setattr(dynamics, "solve_spd", lambda A, b: solve_spd(A, b, rtol=1e-14))
    fs = {
        "surface": triangle_strip(5, seed=44),
        "curve2": _polyline(6, 45, 2),
        "curve3": _polyline(6, 46, 3),
    }[mesh]
    cfg = DynamicsConfig(1.3, 0.7, kernel, metric, n_steps=2)
    rng = np.random.default_rng(47)
    x = fs.vertices
    p, pf = 0.5 * rng.standard_normal(x.shape), rng.standard_normal(fs.n_vertices)
    w = (
        0.1 * rng.standard_normal(x.shape),
        rng.standard_normal(x.shape),
        rng.standard_normal(fs.n_vertices),
    )
    F0 = _rhs_blocks(fs, cfg, x, p, pf)
    dF = _rhs_tangent(fs, cfg, x, p, F0[3], w)
    remainders = []
    for eps in TAYLOR_EPS:
        Fe = _rhs_blocks(fs, cfg, x + eps * w[0], p + eps * w[1], pf + eps * w[2])
        remainders.append(
            max(np.abs(a - b - eps * d).max() for a, b, d in zip(Fe[:3], F0[:3], dF))
        )
    slopes = np.diff(np.log10(remainders)) / np.diff(np.log10(TAYLOR_EPS))
    assert np.all(np.abs(slopes - 2.0) < 0.15), (remainders, slopes)


def test_rhs_tangent_matches_central_differences():
    # the same product against the central difference it replaced, whose own
    # error is O(eps^2)
    fs = triangle_strip(6, seed=48)
    cfg = _config(metric=H1)
    rng = np.random.default_rng(49)
    s = _random_state(fs, 50, amp=0.5)
    w = tuple(rng.standard_normal(b.shape) for b in (s.x, s.p, s.pf))
    h = _rhs_blocks(fs, cfg, s.x, s.p, s.pf)[3]
    dF = _rhs_tangent(fs, cfg, s.x, s.p, h, w)
    eps = 1e-5
    plus = _rhs_blocks(fs, cfg, s.x + eps * w[0], s.p + eps * w[1], s.pf + eps * w[2])
    minus = _rhs_blocks(fs, cfg, s.x - eps * w[0], s.p - eps * w[1], s.pf - eps * w[2])
    for a, b, d in zip(plus[:3], minus[:3], dF):
        np.testing.assert_allclose(d, (a - b) / (2 * eps), rtol=0, atol=1e-7 * np.abs(d).max())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adjoint_raises_on_non_finite_state(bad):
    fs = triangle_strip(4, seed=51)
    s0 = _random_state(fs, 52)
    cfg = _config(n_steps=2)
    traj = integrate_forward(s0, fs, cfg, keep_stages=True)
    X = np.zeros_like(s0.x)
    X[1, 2] = bad
    zero = np.zeros(fs.n_vertices)
    end = AdjointState(X=X, F=zero, Pvar=np.zeros_like(X), Pf=zero)
    with pytest.raises(fshape.ShootingDiverged, match="non-finite adjoint state"):
        integrate_adjoint_backward(traj, end, fs, cfg)


def test_plain_shot_keeps_no_stages():
    # icosphere(3): P = 642. A plain shot keeps the states after the first
    # (x, f, p: 7P floats each), 28P floats over 4 steps, and H at each
    # step's first stage, one float per step; a shot that keeps its stages
    # adds the first-stage velocities (dx, df: 4P floats each) and its 12
    # stage points (72P).
    fs = icosphere(3, radius=0.6)
    P = fs.n_vertices
    cfg = DynamicsConfig(1.0, 5.0, gaussian(0.3), LUMPED, n_steps=4)
    s0 = _random_state(fs, 40, amp=0.1)
    integrate_forward(s0, fs, cfg)  # first-call allocations stay out of the count
    kept, trajs = {}, {}
    for keep in (False, True):
        tracemalloc.start()
        try:
            traj = trajs[keep] = integrate_forward(s0, fs, cfg, keep_stages=keep)
            kept[keep], _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states[0] is s0
        assert len(traj.stages) == (cfg.n_steps if keep else 0)
        assert len(traj.velocities) == (cfg.n_steps if keep else 0)
        assert len(traj.hamiltonians) == cfg.n_steps
    assert kept[False] < 8 * P * 32
    assert kept[True] > 8 * P * (44 + 72)
    # each step's H is 1/2 <(p, pf), (dx, df)> at its first stage, the same
    # float whether or not the shot keeps that velocity
    velocities = zip(trajs[True].states, trajs[True].velocities)
    H = tuple(0.5 * (float(np.sum(s.p * dx)) + float(s.pf @ df)) for s, (dx, df) in velocities)
    assert trajs[False].hamiltonians == trajs[True].hamiltonians == H
    with pytest.raises(ValueError, match="keep_stages"):
        integrate_adjoint_backward(
            integrate_forward(s0, fs, cfg), AdjointState(s0.x, s0.f, s0.p, s0.pf), fs, cfg
        )


def test_descent_shots_keep_their_stages(monkeypatch):
    # every shot that a gradient may follow keeps its stage points
    src = triangle_strip(4, seed=41)
    tgt = triangle_strip(4, seed=42)
    cfg = _config(n_steps=3)
    problem = MatchProblem(src, to_varifold(tgt), FID_KERNELS, 3.0, cfg)
    state0 = _random_state(src, 43, amp=0.1)
    assert len(objective(state0.p, state0.pf, problem)[3].stages) == cfg.n_steps

    shots = []
    original = dynamics.integrate_forward

    def recording(*args, **kw):
        shots.append(original(*args, **kw))
        return shots[-1]

    monkeypatch.setattr(dynamics, "integrate_forward", recording)
    euclidean_objective_gradient(state0.p, state0.pf, problem)
    assert [len(t.stages) for t in shots] == [cfg.n_steps]
    # with no iteration, match returns its opening shot
    match_cfg = MatchConfig(
        gamma_V=1.0,
        gamma_f=2.0,
        gamma_W=3.0,
        deformation_kernel=KERNEL,
        fidelity_kernels=FID_KERNELS,
        metric=LUMPED,
        n_steps=3,
        scale_schedule=(ScaleStage(1.0, 1.0, 0),),
    )
    assert len(match(src, tgt, match_cfg).trajectory.stages) == cfg.n_steps


def _gradient_fd_worst(problem, p0, pf, directions=10, eps=1e-5, seed=0):
    gp, gpf = euclidean_objective_gradient(p0, pf, problem)
    rng = np.random.default_rng(seed)

    def J(a, b):
        return objective(a, b, problem)[0]

    worst = 0.0
    for _ in range(directions):
        dp = rng.standard_normal(p0.shape)
        dpf = rng.standard_normal(pf.shape)
        norm = np.sqrt((dp**2).sum() + (dpf**2).sum())
        dp /= norm
        dpf /= norm
        fd = (J(p0 + eps * dp, pf + eps * dpf) - J(p0 - eps * dp, pf - eps * dpf)) / (
            2 * eps
        )
        an = float((gp * dp).sum() + (gpf * dpf).sum())
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    return worst


@pytest.mark.parametrize(
    "metric, n_steps, amp, tol",
    [
        pytest.param(LUMPED, 10, 0.15, 1e-4, id="metric0"),
        pytest.param(H1, 10, 0.15, 1e-4, id="metric1"),
        # strong momenta over few steps: the stage points of each RK4 step
        # lie far from the stored samples, so only the transpose of the
        # forward's own stages gives the discrete objective's gradient
        pytest.param(H1, 4, 1.0, 1e-6, id="h1-strong"),
        pytest.param(LUMPED, 2, 1.0, 1e-6, id="lumped-strong"),
    ],
)
def test_objective_gradient_matches_fd(metric, n_steps, amp, tol):
    src = triangle_strip(8, seed=25)
    tgt = triangle_strip(8, seed=26)
    cfg = DynamicsConfig(1.0, 2.0, KERNEL, metric, n_steps=n_steps)
    problem = MatchProblem(src, to_varifold(tgt), FID_KERNELS, 3.0, cfg)
    rng = np.random.default_rng(27)
    p0 = amp * rng.standard_normal(src.vertices.shape)
    pf = amp * rng.standard_normal(src.n_vertices)
    assert _gradient_fd_worst(problem, p0, pf) < tol


def test_trajectory_records_rk4_stages():
    # the adjoint linearizes at these points: recombined with the RK4
    # weights, the flow field there must give the next sample exactly
    fs = triangle_strip(6, seed=34)
    s0 = _random_state(fs, 35, amp=0.5)
    cfg = _config(metric=H1, n_steps=3)
    traj = integrate_forward(s0, fs, cfg, keep_stages=True)
    assert len(traj.stages) == cfg.n_steps
    dt = 1.0 / cfg.n_steps
    for k, s in enumerate(traj.states[:-1]):
        points = [(s.x, s.p)] + list(traj.stages[k])
        (ax1, _, ap1, h1), (ax2, _, ap2, h2), (ax3, _, ap3, h3), (ax4, _, ap4, h4) = (
            _rhs_blocks(fs, cfg, x, p, s.pf) for x, p in points
        )
        for h, recorded in zip((h1, h2, h3, h4), traj.solves[k]):
            assert np.array_equal(h, recorded)
        x = s.x + (dt / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        p = s.p + (dt / 6.0) * (ap1 + 2.0 * ap2 + 2.0 * ap3 + ap4)
        assert np.array_equal(x, traj.states[k + 1].x)
        assert np.array_equal(p, traj.states[k + 1].p)


def test_gradient_at_two_steps_matches_fd():
    # n_steps 2, the fewest steps allowed: the gradient of a real H1 match's
    # momenta must still pass the CLI's gradcheck tolerance (averaging the
    # two samples in place of the RK4 stage points missed it on this problem)
    src = icosphere(1)
    tgt = icosphere(2)
    x = tgt.vertices
    phase = 0.1 * (np.random.default_rng(1).random(3) - 0.5)
    tgt = tgt.with_(
        signals=np.sin(3 * x[:, 0] + phase[0]) * np.sin(3 * x[:, 1] + phase[1])
        + 0.3 * np.cos(4 * x[:, 2] + phase[2])
    )
    cfg = MatchConfig(
        gamma_V=50.0,
        gamma_f=0.42,
        gamma_W=20.0,
        deformation_kernel=gaussian(0.4),
        fidelity_kernels=VarifoldKernels(
            kp=gaussian(0.3), kf=gaussian(0.7), kt=GrassmannKernelSpec("unoriented_squared")
        ),
        metric=H1,
        n_steps=2,
        scale_schedule=(ScaleStage(1.0, 1.0, 4),),
        grad_tol=1e-10,
    )
    result = match(src, tgt, cfg)
    problem = MatchProblem(
        src, to_varifold(tgt), cfg.fidelity_kernels, cfg.gamma_W, cfg.dynamics()
    )
    worst = _gradient_fd_worst(problem, result.p0, result.pf, directions=3, seed=1)
    assert worst < GRADCHECK_TOL


@pytest.mark.parametrize("metric", [LUMPED, H1])
def test_gradient_reuses_given_trajectory(metric):
    src = triangle_strip(6, seed=31)
    tgt = triangle_strip(6, seed=32)
    cfg = _config(metric=metric, n_steps=4)
    problem = MatchProblem(src, to_varifold(tgt), FID_KERNELS, 3.0, cfg)
    state0 = _random_state(src, 33, amp=0.15)
    traj = integrate_forward(state0, src, cfg, keep_stages=True)
    given = euclidean_objective_gradient(state0.p, state0.pf, problem, trajectory=traj)
    shot = euclidean_objective_gradient(state0.p, state0.pf, problem)
    for a, b in zip(given, shot):
        assert np.array_equal(a, b)


def test_objective_gradient_zero_at_global_minimum():
    src = triangle_strip(6, seed=28)
    cfg = _config()
    problem = MatchProblem(src, to_varifold(src), FID_KERNELS, 3.0, cfg)
    gp, gpf = euclidean_objective_gradient(
        np.zeros_like(src.vertices), np.zeros(src.n_vertices), problem
    )
    assert np.abs(gp).max() < 1e-10
    assert np.abs(gpf).max() < 1e-10


def test_objective_gradient_energy_only_when_fidelity_off():
    # gamma_W = 0 leaves the plain energy gradients
    src = triangle_strip(6, seed=29)
    cfg = _config(gamma_f=2.0)
    problem = MatchProblem(src, to_varifold(src), FID_KERNELS, 0.0, cfg)
    rng = np.random.default_rng(30)
    p0 = 0.2 * rng.standard_normal(src.vertices.shape)
    pf = 0.2 * rng.standard_normal(src.n_vertices)
    gp, gpf = euclidean_objective_gradient(p0, pf, problem)
    expected_gp = kernel_conv(KERNEL, src.vertices, src.vertices, p0) / cfg.gamma_V
    np.testing.assert_allclose(gp, expected_gp, atol=1e-9)
    from metamorph.fem import assemble_metric
    from metamorph.fem import solve_spd

    h0 = solve_spd(assemble_metric(src, cfg.metric), pf)
    expected_gpf = h0 / cfg.gamma_f
    np.testing.assert_allclose(gpf, expected_gpf, atol=1e-9)
