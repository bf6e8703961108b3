"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

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
    SphereState,
    VarifoldKernels,
    fidelity,
    integrate_forward,
    integrate_sphere,
    match,
    objective,
    to_varifold,
)
from metamorph.dynamics import euclidean_objective_gradient, reduced_hamiltonian
from metamorph.fem import assemble_metric, lumped_vertex_weights
from metamorph.fshape import AdjointState
from metamorph.matching import ScaleStage
from metamorph.meshes import bump_signal, grid_square, icosphere
from metamorph.sphere import mean_radius, sphere_vertex_momenta
from metamorph.varifold import grad_fidelity

from conftest import jittered_grid, quadratic_form, stiffness_matrix, triangle_strip


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {number:2d}] {status}: {name} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


GAUSS = lambda s: RadialKernelSpec("gaussian", ((1.0, s),))
UNORIENTED = GrassmannKernelSpec("unoriented_squared")


def test_criterion_1_gradient_exactness():
    started = time.perf_counter()
    src = triangle_strip(8, seed=1)  # 10 vertices, 8 triangles
    tgt = triangle_strip(8, seed=2)
    assert src.n_vertices == 10 and src.n_cells == 8
    kernels = VarifoldKernels(kp=GAUSS(0.5), kf=GAUSS(1.0), kt=UNORIENTED)
    cfg = DynamicsConfig(
        gamma_V=1.0,
        gamma_f=2.0,
        kernel=GAUSS(0.6),
        metric=FunctionalMetric(0, "lumped"),
        n_steps=20,
    )
    problem = MatchProblem(src, to_varifold(tgt), kernels, 3.0, cfg)
    rng = np.random.default_rng(3)
    p0 = 0.15 * rng.standard_normal(src.vertices.shape)
    pf = 0.15 * rng.standard_normal(src.n_vertices)
    gp, gpf = euclidean_objective_gradient(p0, pf, problem)

    def J(a, b):
        return objective(a, b, problem)[0]

    # The reference is the fourth-order (Richardson) difference of J. Its
    # O(eps^4) truncation allows eps = 1e-3, where the rounding of J (about
    # 1e-15) enters as 1e-15 / eps; at eps = 1e-5 that rounding alone is 4e-8
    # relative in the worst direction, whose derivative is -0.0042.
    eps = 1e-3
    worst = 0.0
    for _ in range(20):
        dp = rng.standard_normal(p0.shape)
        dpf = rng.standard_normal(pf.shape)
        norm = np.sqrt((dp**2).sum() + (dpf**2).sum())
        dp /= norm
        dpf /= norm

        def diff(h):
            return J(p0 + h * dp, pf + h * dpf) - J(p0 - h * dp, pf - h * dpf)

        fd = (8.0 * diff(eps) - diff(2 * eps)) / (12 * eps)
        analytic = float((gp * dp).sum() + (gpf * dpf).sum())
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "adjoint gradient matches FD",
        worst < 1e-4 and elapsed < 30.0,
        f"(max rel err {worst:.2e} over 20 directions, {elapsed:.1f}s)",
    )


def test_criterion_2_hamiltonian_conservation():
    started = time.perf_counter()
    worst_drift = 0.0
    ratios = []
    for seed in (0, 1, 2):
        fs = jittered_grid(seed)  # 50 vertices
        assert fs.n_vertices == 50
        areas = lumped_vertex_weights(fs)
        rng = np.random.default_rng(100 + seed)
        p0 = rng.standard_normal(fs.vertices.shape) * areas[:, None]
        pf = rng.standard_normal(fs.n_vertices) * areas
        drift = {}
        for n in (20, 40):
            cfg = DynamicsConfig(
                1.0, 1.0, GAUSS(0.4), FunctionalMetric(0, "lumped"), n_steps=n
            )
            traj = integrate_forward(
                ShootingState(fs.vertices, fs.signals, p0, pf), fs, cfg
            )
            H = [reduced_hamiltonian(s, fs, cfg) for s in traj.states]
            drift[n] = max(abs(h - H[0]) for h in H) / abs(H[0])
        worst_drift = max(worst_drift, drift[20])
        if drift[40] > 1e-13:
            ratios.append(drift[20] / drift[40])
    elapsed = time.perf_counter() - started
    ok = worst_drift < 1e-6 and ratios and min(ratios) >= 8.0 and elapsed < 10.0
    _report(
        2,
        "Hamiltonian conservation + RK4 order",
        ok,
        f"(max drift {worst_drift:.2e}, refinement ratios {[f'{r:.1f}' for r in ratios]}, {elapsed:.1f}s)",
    )


def test_criterion_3_functional_momentum_bitwise_constant():
    fs = triangle_strip(6, seed=4)
    rng = np.random.default_rng(5)
    state0 = ShootingState(
        fs.vertices,
        fs.signals,
        0.2 * rng.standard_normal(fs.vertices.shape),
        0.2 * rng.standard_normal(fs.n_vertices),
    )
    cfg = DynamicsConfig(1.0, 1.0, GAUSS(0.5), FunctionalMetric(0, "lumped"), n_steps=15)
    traj = integrate_forward(state0, fs, cfg)
    shared = all(s.pf is traj.states[0].pf for s in traj.states)
    equal = all(np.array_equal(s.pf, state0.pf) for s in traj.states)
    _report(3, "pf bitwise constant along trajectory", shared and equal)


def test_criterion_4_sphere_oracle_cross_validation():
    started = time.perf_counter()
    r0, rho0, pf_s = 0.6, -0.25, -0.6
    gamma_V, gamma_f, sigma = 1.0, 5.0, 0.3
    oracle = integrate_sphere(
        SphereState(r0, 0.0, rho0, pf_s), gamma_V, gamma_f, sigma, 20
    )
    results = {}
    for level in (3, 4):
        mesh = icosphere(level, radius=r0)
        p0, pf = sphere_vertex_momenta(mesh, rho0, pf_s)
        cfg = DynamicsConfig(
            gamma_V, gamma_f, GAUSS(sigma), FunctionalMetric(0, "lumped"), n_steps=20
        )
        traj = integrate_forward(
            ShootingState(mesh.vertices, mesh.signals, p0, pf), mesh, cfg
        )
        radii = np.array([mean_radius(s.x) for s in traj.states])
        rel_r = abs(radii[-1] - oracle[-1].radius) / abs(oracle[-1].radius)
        rel_f = abs(float(traj.final.f.mean()) - oracle[-1].signal) / abs(
            oracle[-1].signal
        )
        dr = np.diff(radii)
        sign_changes = int((np.sign(dr[1:]) != np.sign(dr[:-1])).sum())
        results[level] = (rel_r, rel_f, sign_changes)
    elapsed = time.perf_counter() - started
    (r3, f3, sc3), (r4, f4, _) = results[3], results[4]
    ok = (
        r3 < 0.02
        and f3 < 0.02
        and r4 < r3
        and f4 < f3
        and sc3 == 1
        and elapsed < 300.0
    )
    _report(
        4,
        "sphere oracle cross-validation",
        ok,
        f"(642 verts: r {r3:.2e} / f {f3:.2e}; 2562 verts: r {r4:.2e} / f {f4:.2e}; "
        f"dr sign changes {sc3}; {elapsed:.0f}s)",
    )


def test_criterion_5_pure_lddmm_reduction():
    # independent landmark geodesic integrator, explicit loops
    def landmark_rk4(x0, p0, sigma, gamma_V, n_steps):
        def kv(u):
            return np.exp(-u / (2 * sigma**2))

        def kvp(u):
            return -np.exp(-u / (2 * sigma**2)) / (2 * sigma**2)

        def rhs(x, p):
            dx = np.zeros_like(x)
            dp = np.zeros_like(p)
            for i in range(x.shape[0]):
                for j in range(x.shape[0]):
                    u = float(((x[i] - x[j]) ** 2).sum())
                    dx[i] += kv(u) * p[j] / gamma_V
                    dp[i] += (
                        -2.0 / gamma_V * kvp(u) * float(p[i] @ p[j]) * (x[i] - x[j])
                    )
            return dx, dp

        dt = 1.0 / n_steps
        path = [(x0.copy(), p0.copy())]
        x, p = x0.copy(), p0.copy()
        for _ in range(n_steps):
            k1 = rhs(x, p)
            k2 = rhs(x + 0.5 * dt * k1[0], p + 0.5 * dt * k1[1])
            k3 = rhs(x + 0.5 * dt * k2[0], p + 0.5 * dt * k2[1])
            k4 = rhs(x + dt * k3[0], p + dt * k3[1])
            x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            p = p + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            path.append((x.copy(), p.copy()))
        return path

    pts = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0], [0.5, 0.5, 0.8]]
    )
    mesh = DiscreteFshape(pts, np.full(5, 1.5), [[0, 1, 4], [1, 2, 4], [2, 3, 4]])
    rng = np.random.default_rng(6)
    p0 = 0.3 * rng.standard_normal((5, 3))
    sigma, gamma_V = 0.8, 1.3
    cfg = DynamicsConfig(
        gamma_V, 1.0, GAUSS(sigma), FunctionalMetric(0, "lumped"), n_steps=20
    )
    traj = integrate_forward(
        ShootingState(pts, mesh.signals, p0, np.zeros(5)), mesh, cfg
    )
    oracle = landmark_rk4(pts, p0, sigma, gamma_V, 20)
    worst = max(
        max(np.abs(s.x - xo).max(), np.abs(s.p - po).max())
        for s, (xo, po) in zip(traj.states, oracle)
    )
    _report(
        5,
        "pure-LDDMM reduction vs landmark oracle",
        worst < 1e-10,
        f"(max deviation {worst:.2e} across all samples)",
    )


def test_criterion_6_time_reversal():
    fs = jittered_grid(17)
    areas = lumped_vertex_weights(fs)
    rng = np.random.default_rng(18)
    p0 = rng.standard_normal(fs.vertices.shape) * areas[:, None]
    pf = rng.standard_normal(fs.n_vertices) * areas
    cfg = DynamicsConfig(1.0, 1.0, GAUSS(0.4), FunctionalMetric(0, "lumped"), n_steps=40)
    fwd = integrate_forward(ShootingState(fs.vertices, fs.signals, p0, pf), fs, cfg)
    e = fwd.final
    back = integrate_forward(ShootingState(e.x, e.f, -e.p, -e.pf), fs, cfg).final
    rel_x = np.abs(back.x - fs.vertices).max() / np.abs(fs.vertices).max()
    rel_f = np.abs(back.f - fs.signals).max() / np.abs(fs.signals).max()
    _report(
        6,
        "time-reversal symmetry",
        rel_x < 1e-6 and rel_f < 1e-6,
        f"(return error x {rel_x:.2e}, f {rel_f:.2e})",
    )


def test_criterion_7_fem_exactness():
    L = 2.0
    seg = DiscreteFshape([[0.0, 0, 0], [L, 0, 0]], [0.0, 1.0], [[0, 1]])
    seg_val = quadratic_form(assemble_metric(seg, FunctionalMetric(0, "p1")), seg.signals)
    tri = DiscreteFshape(
        [[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]], [1.0, 0.0, 0.0], [[0, 1, 2]]
    )
    tri_val = quadratic_form(assemble_metric(tri, FunctionalMetric(0, "p1")), tri.signals)
    ok = abs(seg_val - L / 3.0) < 1e-14 and abs(tri_val - 0.5 / 6.0) < 1e-14
    # constants give c^2 * volume for every scheme
    fs = triangle_strip(6, seed=7)
    from metamorph.fshape import cell_geometry

    vol = float(cell_geometry(fs).volumes.sum())
    c = 1.3
    const = np.full(fs.n_vertices, c)
    for metric in (
        FunctionalMetric(0, "lumped"),
        FunctionalMetric(0, "p1"),
        FunctionalMetric(1, "p1"),
    ):
        value = quadratic_form(assemble_metric(fs, metric), const)
        ok = ok and abs(value - c**2 * vol) < 1e-12 * max(1.0, vol)
    # H1 dominates the P1 mass form
    rng = np.random.default_rng(8)
    D1 = assemble_metric(fs, FunctionalMetric(1, "p1"))
    D0 = assemble_metric(fs, FunctionalMetric(0, "p1"))
    for _ in range(20):
        f = rng.standard_normal(fs.n_vertices)
        ok = ok and quadratic_form(D1, f) >= quadratic_form(D0, f) - 1e-12
    _report(
        7,
        "FEM metric exactness",
        ok,
        f"(segment {seg_val:.16g} vs {L / 3:.16g}; triangle {tri_val:.16g} vs {0.5 / 6:.16g})",
    )


def test_criterion_8_varifold_metric_properties():
    K = VarifoldKernels(kp=GAUSS(0.4), kf=GAUSS(0.8), kt=UNORIENTED)
    fs = triangle_strip(5, seed=9)
    tv_self = to_varifold(fs)
    self_fid = fidelity(fs, tv_self, K)
    norm = float(tv_self.weights @ tv_self.weights)
    ok = self_fid <= 1e-12 * norm
    # symmetry of the underlying inner product
    from metamorph.varifold import varifold_inner

    other = to_varifold(triangle_strip(5, seed=10))
    ok = ok and abs(
        varifold_inner(tv_self, other, K) - varifold_inner(other, tv_self, K)
    ) < 1e-12 * abs(varifold_inner(tv_self, other, K))
    # cell permutation and orientation flip
    tgt = to_varifold(triangle_strip(5, seed=11))
    base = fidelity(fs, tgt, K)
    perm = DiscreteFshape(fs.vertices, fs.signals, fs.cells[np.array([4, 2, 0, 3, 1])])
    flip_cells = fs.cells.copy()
    flip_cells[1] = flip_cells[1][::-1]
    flip = DiscreteFshape(fs.vertices, fs.signals, flip_cells)
    ok = ok and abs(fidelity(perm, tgt, K) - base) < 1e-12 * base
    ok = ok and abs(fidelity(flip, tgt, K) - base) < 1e-12 * base
    # rigid motion invariance
    angle = 0.8
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[1.0, 0, 0], [0, np.cos(0.3), -np.sin(0.3)], [0, np.sin(0.3), np.cos(0.3)]]
    )
    t = np.array([1.0, -0.5, 2.0])
    src_m = fs.with_(vertices=fs.vertices @ Q.T + t)
    tgt_mesh = triangle_strip(5, seed=11)
    tgt_m = to_varifold(tgt_mesh.with_(vertices=tgt_mesh.vertices @ Q.T + t))
    rigid_err = abs(fidelity(src_m, tgt_m, K) - base) / base
    ok = ok and rigid_err < 1e-10
    # gradient FD check on a 4-triangle mesh
    src4 = triangle_strip(4, seed=12)
    tgt4 = to_varifold(triangle_strip(4, seed=13))
    gx, gf = grad_fidelity(src4, tgt4, K)
    eps = 1e-6
    worst = 0.0
    fd_x = np.zeros_like(gx)
    for i in range(src4.n_vertices):
        for j in range(3):
            vp = src4.vertices.copy()
            vm = src4.vertices.copy()
            vp[i, j] += eps
            vm[i, j] -= eps
            fd_x[i, j] = (
                fidelity(src4.with_(vertices=vp), tgt4, K)
                - fidelity(src4.with_(vertices=vm), tgt4, K)
            ) / (2 * eps)
    worst = np.abs(gx - fd_x).max() / np.abs(fd_x).max()
    fd_f = np.zeros_like(gf)
    for i in range(src4.n_vertices):
        sp = src4.signals.copy()
        sm = src4.signals.copy()
        sp[i] += eps
        sm[i] -= eps
        fd_f[i] = (
            fidelity(src4.with_(signals=sp), tgt4, K)
            - fidelity(src4.with_(signals=sm), tgt4, K)
        ) / (2 * eps)
    worst = max(worst, np.abs(gf - fd_f).max() / np.abs(fd_f).max())
    ok = ok and worst < 1e-5
    _report(
        8,
        "varifold metric properties",
        ok,
        f"(self fidelity {self_fid:.2e}, rigid-motion err {rigid_err:.2e}, grad FD {worst:.2e})",
    )


def test_criterion_9_digits_weight_sweep():
    started = time.perf_counter()
    src = grid_square(20)
    tgt = grid_square(20)
    src = src.with_(signals=bump_signal(src, (-0.3, -0.3, 0.0), 0.35))
    tgt = tgt.with_(signals=bump_signal(tgt, (0.3, 0.3, 0.0), 0.35))
    D0 = assemble_metric(src, FunctionalMetric(0, "lumped"))
    signal_changes = []
    reductions = []
    for gamma_V in (1.0, 20.0, 100.0):
        cfg = MatchConfig(
            gamma_V=gamma_V,
            gamma_f=1.0,
            gamma_W=20.0,
            deformation_kernel=RadialKernelSpec("gaussian", ((1.0, 0.4), (1.0, 0.2))),
            fidelity_kernels=VarifoldKernels(kp=GAUSS(0.2), kf=GAUSS(0.7), kt=UNORIENTED),
            metric=FunctionalMetric(0, "lumped"),
            n_steps=8,
            scale_schedule=(ScaleStage(2.0, 1.0, 12), ScaleStage(1.0, 1.0, 12)),
            step_init=1.0,
            grad_tol=1e-8,
        )
        result = match(src, tgt, cfg)
        fid0 = result.objective_history[0][3]
        fid1 = result.objective_history[-1][3]
        reductions.append(fid1 / fid0)
        end = result.trajectory.final
        signal_changes.append(
            float(np.sqrt(quadratic_form(D0, end.f - src.signals)))
        )
    elapsed = time.perf_counter() - started
    monotone = signal_changes[0] < signal_changes[1] < signal_changes[2]
    matched = all(r < 0.25 for r in reductions)
    _report(
        9,
        "digits weight-sweep trend",
        monotone and matched and elapsed < 600.0,
        f"(signal change {['%.4f' % v for v in signal_changes]}, "
        f"fidelity reductions {['%.1f%%' % (100 * r) for r in reductions]}, {elapsed:.0f}s)",
    )


def test_criterion_10_l2_vs_h1_smoothness():
    started = time.perf_counter()
    src = icosphere(2, radius=1.0)
    tgt = icosphere(3, radius=1.0)
    x = tgt.vertices
    texture = np.sin(3 * x[:, 0]) * np.sin(3 * x[:, 1]) + 0.3 * np.cos(4 * x[:, 2])
    tgt = tgt.with_(signals=texture)

    def run(metric, gamma_f):
        cfg = MatchConfig(
            gamma_V=50.0,
            gamma_f=gamma_f,
            gamma_W=20.0,
            deformation_kernel=GAUSS(0.4),
            fidelity_kernels=VarifoldKernels(kp=GAUSS(0.3), kf=GAUSS(0.7), kt=UNORIENTED),
            metric=metric,
            n_steps=6,
            scale_schedule=(ScaleStage(1.0, 1.0, 40),),
            step_init=1.0,
            grad_tol=1e-10,
        )
        result = match(src, tgt, cfg)
        end = result.trajectory.final
        fs_end = src.with_(vertices=end.x, signals=end.f)
        stiffness = quadratic_form(stiffness_matrix(fs_end), end.f)
        _, J, _, fid = result.objective_history[-1]
        return fid, stiffness, J

    def at_parity(fid_h1):
        return abs(fid_h1 - fid_l2) <= 0.10 * max(fid_l2, fid_h1)

    fid_l2, stiff_l2, J_l2 = run(FunctionalMetric(0, "lumped"), 5.0)
    # Equal fidelity is established here, not assumed from a fixed weight
    # pair. A larger gamma_f makes signal change dearer, so the H1 end
    # fidelity grows with gamma_f: bracket the L2 fidelity geometrically
    # from 0.3, then bisect in log gamma_f, stopping at the first run at
    # parity.
    trials = []
    low = high = None
    gamma_f = 0.3
    for _ in range(5):
        fid, stiff, J = run(FunctionalMetric(1, "p1"), gamma_f)
        trials.append((gamma_f, fid, stiff, J))
        if at_parity(fid):
            break
        if fid < fid_l2:
            low = gamma_f
        else:
            high = gamma_f
        if high is None:
            gamma_f = 2.0 * low
        elif low is None:
            gamma_f = 0.5 * high
        else:
            gamma_f = float(np.sqrt(low * high))
    _, fid_h1, stiff_h1, _ = trials[-1]
    elapsed = time.perf_counter() - started
    parity = at_parity(fid_h1)
    smoother = stiff_h1 < stiff_l2
    tried = "; ".join(
        f"gamma_f {g:.4g}: fidelity {f:.4f}, stiffness {s:.3f}, J {j:.4f}"
        for g, f, s, j in trials
    )
    _report(
        10,
        "H1 solution smoother than L2 at equal fidelity",
        parity and smoother,
        f"(fidelity L2 {fid_l2:.4f} vs H1 {fid_h1:.4f}; stiffness L2 {stiff_l2:.3f} vs H1 {stiff_h1:.3f}; "
        f"L2 J {J_l2:.4f}; H1 trials [{tried}]; {elapsed:.0f}s)",
    )


def test_criterion_11_reproducibility(tmp_path):
    import json

    from metamorph.cli import main
    from metamorph.fileio import write_fshape

    src = triangle_strip(8, seed=1)
    tgt = triangle_strip(8, seed=2)
    src_path = tmp_path / "src.fsh"
    tgt_path = tmp_path / "tgt.fsh"
    write_fshape(src_path, src)
    write_fshape(tgt_path, tgt)
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "gamma_W": 20.0,
                "deformation_kernel": {
                    "family": "gaussian",
                    "terms": [{"weight": 1.0, "sigma": 0.5}],
                },
                "fidelity": {"sigma_p": 0.3, "sigma_f": 0.7, "kt_mode": "unoriented_squared"},
                "metric": {"s": 0, "scheme": "lumped"},
                "n_steps": 6,
                "schedule": [{"scale_p": 1.0, "scale_f": 1.0, "iters": 20}],
            }
        )
    )
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["match", str(src_path), str(tgt_path), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        payloads.append(
            (out / "p0.txt").read_bytes() + (out / "pf.txt").read_bytes()
        )
    _report(11, "bit-identical momenta across reruns", payloads[0] == payloads[1])
