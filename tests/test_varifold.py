import math

import numpy as np
import pytest

from metamorph import (
    DiscreteFshape,
    GrassmannKernelSpec,
    RadialKernelSpec,
    VarifoldKernels,
    fidelity,
    to_varifold,
)
from metamorph import fshape, kernels
from metamorph import varifold as varifold_module
from metamorph.fshape import cell_geometry
from metamorph.meshes import polyline
from metamorph.varifold import DiscreteVarifold, grad_fidelity, varifold_inner

from conftest import radial_profile, triangle_strip

K = VarifoldKernels(
    kp=RadialKernelSpec("gaussian", ((1.0, 0.4),)),
    kf=RadialKernelSpec("gaussian", ((1.0, 0.8),)),
    kt=GrassmannKernelSpec("unoriented_squared"),
)
K_ORIENTED = VarifoldKernels(K.kp, K.kf, GrassmannKernelSpec("oriented_linear"))
K_CONST_F = VarifoldKernels(K.kp, K.kf, GrassmannKernelSpec("constant"))


def _dirac(center, frame, weight, signal):
    frame = np.asarray(frame, dtype=float)
    frame = frame / np.linalg.norm(frame)
    return DiscreteVarifold(
        centers=np.array([center], dtype=float),
        frames=frame[None, :],
        weights=np.array([weight]),
        cell_signals=np.array([signal]),
    )


def test_to_varifold_single_triangle(unit_triangle):
    var = to_varifold(unit_triangle)
    geom = cell_geometry(unit_triangle)
    np.testing.assert_allclose(var.weights, geom.volumes)
    np.testing.assert_allclose(var.centers, geom.centers)
    np.testing.assert_allclose(var.frames, geom.frames)
    np.testing.assert_allclose(var.cell_signals, geom.cell_signals)


def test_to_varifold_scaling():
    fs = triangle_strip(4, seed=0)
    lam = 1.9
    v0 = to_varifold(fs)
    v1 = to_varifold(fs.with_(vertices=lam * fs.vertices))
    np.testing.assert_allclose(v1.weights, lam**2 * v0.weights, rtol=1e-12)


def test_varifold_rejects_non_unit_frame():
    a = _dirac([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.5, 0.0)
    frames = a.frames.copy()
    frames[0, 2] += 1e-6
    with pytest.raises(ValueError, match="unit vectors"):
        DiscreteVarifold(a.centers, frames, a.weights, a.cell_signals)


def test_inner_single_dirac_coincidence():
    a = _dirac([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.37, 1.2)
    assert varifold_inner(a, a, K) == pytest.approx(0.37**2, rel=1e-14)


def test_inner_symmetry():
    a = to_varifold(triangle_strip(3, seed=1))
    b = to_varifold(triangle_strip(4, seed=2))
    assert varifold_inner(a, b, K) == pytest.approx(varifold_inner(b, a, K), rel=1e-14)


def test_inner_two_dirac_hand_sum():
    delta = 0.3
    w = 0.5
    a = _dirac([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], w, 0.7)
    b = _dirac([delta, 0.0, 0.0], [0.0, 0.0, 1.0], w, 0.7)
    both = DiscreteVarifold(
        centers=np.vstack([a.centers, b.centers]),
        frames=np.vstack([a.frames, b.frames]),
        weights=np.concatenate([a.weights, b.weights]),
        cell_signals=np.concatenate([a.cell_signals, b.cell_signals]),
    )
    # brute-force 2x2 sum
    expected = 0.0
    for i in range(2):
        for j in range(2):
            u2 = float(((both.centers[i] - both.centers[j]) ** 2).sum())
            expected += (
                radial_profile(K.kp, u2)
                * radial_profile(K.kf, (both.cell_signals[i] - both.cell_signals[j]) ** 2)
                * float(both.frames[i] @ both.frames[j]) ** 2  # unoriented_squared
                * both.weights[i]
                * both.weights[j]
            )
    assert varifold_inner(both, both, K) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2 * w**2 * (1.0 + radial_profile(K.kp, delta**2)))


def test_inner_brute_force_general():
    a = to_varifold(triangle_strip(3, seed=3))
    b = to_varifold(triangle_strip(5, seed=4))
    expected = 0.0
    for i in range(a.weights.size):
        for j in range(b.weights.size):
            u2 = float(((a.centers[i] - b.centers[j]) ** 2).sum())
            expected += (
                radial_profile(K.kp, u2)
                * radial_profile(K.kf, (a.cell_signals[i] - b.cell_signals[j]) ** 2)
                * float(a.frames[i] @ b.frames[j]) ** 2  # unoriented_squared
                * a.weights[i]
                * b.weights[j]
            )
    assert varifold_inner(a, b, K) == pytest.approx(expected, rel=1e-13)


def test_fidelity_self_zero():
    fs = triangle_strip(5, seed=5)
    target = to_varifold(fs)
    norm = varifold_inner(target, target, K)
    assert fidelity(fs, target, K) <= 1e-12 * norm


def test_fidelity_far_apart_supports():
    a = triangle_strip(3, seed=6)
    b = triangle_strip(3, seed=7)
    far = b.with_(vertices=b.vertices + np.array([50.0, 0.0, 0.0]))
    mu = to_varifold(a)
    nu = to_varifold(far)
    total = fidelity(a, nu, K)
    separate = varifold_inner(mu, mu, K) + varifold_inner(nu, nu, K)
    assert abs(total - separate) < 1e-10 * total


def test_fidelity_evaluates_target_self_term_once_per_kernels(monkeypatch):
    fs = triangle_strip(4, seed=8)
    target = to_varifold(triangle_strip(5, seed=9))
    inner = varifold_module.varifold_inner
    self_pairs = []

    def counting(a, b, kernels):
        if a is target and b is target:
            self_pairs.append(kernels)
        return inner(a, b, kernels)

    monkeypatch.setattr(varifold_module, "varifold_inner", counting)
    first = fidelity(fs, target, K)
    assert fidelity(fs, target, K) == first
    assert self_pairs == [K]
    coarse = K.rescaled(2.0, 2.0)
    fidelity(fs, target, coarse)
    fidelity(fs, target, coarse)
    assert self_pairs == [K, coarse]
    # the kept value is the one a fresh evaluation gives, to the bit
    assert target.self_inner(K) == inner(target, target, K)
    assert target.self_inner(coarse) == inner(target, target, coarse)


def test_fidelity_refinement_stability():
    # 4-fold subdivision of a well-resolved source changes fidelity by < 1%
    from metamorph.meshes import bump_signal, grid_square

    src = grid_square(8)
    src = src.with_(signals=bump_signal(src, (0.0, 0.0, 0.0), 0.5))
    tgt = grid_square(9)
    tgt = tgt.with_(
        vertices=tgt.vertices + np.array([0.15, 0.1, 0.0]),
        signals=bump_signal(tgt, (0.2, 0.1, 0.0), 0.5),
    )
    Ksmooth = VarifoldKernels(
        kp=RadialKernelSpec("gaussian", ((1.0, 0.3),)),
        kf=RadialKernelSpec("gaussian", ((1.0, 0.7),)),
        kt=GrassmannKernelSpec("unoriented_squared"),
    )
    verts = list(map(np.array, src.vertices))
    sigs = list(src.signals)
    cells = []
    cache = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            verts.append(0.5 * (verts[i] + verts[j]))
            sigs.append(0.5 * (sigs[i] + sigs[j]))
            cache[key] = len(verts) - 1
        return cache[key]

    for a, b, c in src.cells:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        cells += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    fine = DiscreteFshape(np.array(verts), np.array(sigs), np.array(cells))
    tv = to_varifold(tgt)
    coarse_fid = fidelity(src, tv, Ksmooth)
    fine_fid = fidelity(fine, tv, Ksmooth)
    assert abs(fine_fid - coarse_fid) < 0.01 * coarse_fid


def test_fidelity_cell_permutation_invariance():
    fs = triangle_strip(5, seed=10)
    perm = np.array([3, 0, 4, 1, 2])
    shuffled = DiscreteFshape(fs.vertices, fs.signals, fs.cells[perm])
    tgt = to_varifold(triangle_strip(5, seed=11))
    assert fidelity(shuffled, tgt, K) == pytest.approx(fidelity(fs, tgt, K), rel=1e-12)


def test_fidelity_orientation_flip_invariance_unoriented():
    fs = triangle_strip(5, seed=12)
    flipped_cells = fs.cells.copy()
    flipped_cells[2] = flipped_cells[2][::-1]
    flipped = DiscreteFshape(fs.vertices, fs.signals, flipped_cells)
    tgt = to_varifold(triangle_strip(5, seed=13))
    assert fidelity(flipped, tgt, K) == pytest.approx(fidelity(fs, tgt, K), rel=1e-12)
    # the oriented kernel must notice the flip
    assert fidelity(flipped, tgt, K_ORIENTED) != pytest.approx(
        fidelity(fs, tgt, K_ORIENTED), rel=1e-6
    )


def test_fidelity_rigid_motion_invariance():
    src = triangle_strip(4, seed=14)
    tgt = triangle_strip(4, seed=15)
    angle = 0.9
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    Rx = np.array(
        [[1.0, 0.0, 0.0], [0.0, np.cos(0.4), -np.sin(0.4)], [0.0, np.sin(0.4), np.cos(0.4)]]
    )
    Q = R @ Rx
    t = np.array([0.5, -2.0, 1.0])
    src_m = src.with_(vertices=src.vertices @ Q.T + t)
    tgt_m = tgt.with_(vertices=tgt.vertices @ Q.T + t)
    before = fidelity(src, to_varifold(tgt), K)
    after = fidelity(src_m, to_varifold(tgt_m), K)
    assert after == pytest.approx(before, rel=1e-10)


def test_fidelity_signal_shift_invariance():
    src = triangle_strip(4, seed=16)
    tgt = triangle_strip(4, seed=17)
    shift = 3.7
    src_s = src.with_(signals=src.signals + shift)
    tgt_s = tgt.with_(signals=tgt.signals + shift)
    assert fidelity(src_s, to_varifold(tgt_s), K) == pytest.approx(
        fidelity(src, to_varifold(tgt), K), rel=1e-12
    )
    gx0, gf0 = grad_fidelity(src, to_varifold(tgt), K)
    gx1, gf1 = grad_fidelity(src_s, to_varifold(tgt_s), K)
    np.testing.assert_allclose(gf1, gf0, atol=1e-12)


@pytest.mark.parametrize("kernels", [K, K_ORIENTED, K_CONST_F])
def test_grad_fidelity_matches_fd(kernels):
    src = triangle_strip(4, seed=18)
    tgt = to_varifold(triangle_strip(4, seed=19))
    gx, gf = grad_fidelity(src, tgt, kernels)
    eps = 1e-6
    fd_x = np.zeros_like(gx)
    for i in range(src.n_vertices):
        for j in range(3):
            vp = src.vertices.copy()
            vm = src.vertices.copy()
            vp[i, j] += eps
            vm[i, j] -= eps
            fd_x[i, j] = (
                fidelity(src.with_(vertices=vp), tgt, kernels)
                - fidelity(src.with_(vertices=vm), tgt, kernels)
            ) / (2 * eps)
    assert np.abs(gx - fd_x).max() / np.abs(fd_x).max() < 1e-5
    fd_f = np.zeros_like(gf)
    for i in range(src.n_vertices):
        sp = src.signals.copy()
        sm = src.signals.copy()
        sp[i] += eps
        sm[i] -= eps
        fd_f[i] = (
            fidelity(src.with_(signals=sp), tgt, kernels)
            - fidelity(src.with_(signals=sm), tgt, kernels)
        ) / (2 * eps)
    denom = max(np.abs(fd_f).max(), 1e-12)
    assert np.abs(gf - fd_f).max() / denom < 1e-5


def test_grad_fidelity_measures_cells_once(monkeypatch):
    # centers, weights, frames and their chain rule read one geometry record
    measured = []
    compute = fshape._compute_geometry
    monkeypatch.setattr(
        fshape, "_compute_geometry", lambda fs: measured.append(fs) or compute(fs)
    )
    src = triangle_strip(4, seed=23)
    tgt = to_varifold(triangle_strip(5, seed=24))
    measured.clear()
    fidelity(src, tgt, K)
    grad_fidelity(src, tgt, K)
    assert len(measured) == 1 and measured[0] is src


def test_grad_fidelity_d1_matches_fd():
    rng = np.random.default_rng(20)
    def curve(seed):
        r = np.random.default_rng(seed)
        pts = np.column_stack([np.linspace(0.0, 1.0, 5), 0.2 * r.standard_normal(5)])
        cells = np.column_stack([np.arange(4), np.arange(1, 5)])
        return DiscreteFshape(pts, r.standard_normal(5), cells)

    src = curve(21)
    tgt = to_varifold(curve(22))
    gx, gf = grad_fidelity(src, tgt, K)
    eps = 1e-6
    fd_x = np.zeros_like(gx)
    for i in range(src.n_vertices):
        for j in range(2):
            vp = src.vertices.copy()
            vm = src.vertices.copy()
            vp[i, j] += eps
            vm[i, j] -= eps
            fd_x[i, j] = (
                fidelity(src.with_(vertices=vp), tgt, K)
                - fidelity(src.with_(vertices=vm), tgt, K)
            ) / (2 * eps)
    assert np.abs(gx - fd_x).max() / np.abs(fd_x).max() < 1e-5


def test_grad_fidelity_zero_at_minimum():
    fs = triangle_strip(5, seed=23)
    gx, gf = grad_fidelity(fs, to_varifold(fs), K)
    assert np.abs(gx).max() < 1e-10
    assert np.abs(gf).max() < 1e-10


def test_ambient_dimension_mismatch_has_one_message():
    curve2 = polyline(np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]]), np.array([0.0, 1.0, 0.5]))
    curve3 = polyline(np.array([[0.0, 0.0, 0.0], [0.5, 0.2, 0.1], [1.0, 0.0, 0.3]]))
    target = to_varifold(curve3)
    for call in (
        lambda: fidelity(curve2, target, K),
        lambda: grad_fidelity(curve2, target, K),
        lambda: varifold_inner(to_varifold(curve2), target, K),
    ):
        with pytest.raises(ValueError, match="varifolds live in different ambient dimensions"):
            call()


# Brute-force double loops of the sweeps, with their closed-form profiles.
TWO_GAUSS = RadialKernelSpec("gaussian", ((1.0, 0.4), (0.6, 0.15)))
CAUCHY = RadialKernelSpec("cauchy", ((1.0, 0.35),))
TILE_ROWS = 4


def _radial(spec, u):
    """(k(u), k'(u)) of one squared distance."""
    k = dk = 0.0
    for w, s in spec.terms:
        a = u / (s * s)
        if spec.family == "gaussian":
            k += w * math.exp(-0.5 * a)
            dk += -0.5 * w / (s * s) * math.exp(-0.5 * a)
        else:
            k += w / (1.0 + a)
            dk += -w / (s * s) / (1.0 + a) ** 2
    return k, dk


def _frame(mode, u, v):
    """(k_t, d k_t / du) of one pair of unit frames."""
    dot = float(u @ v)
    if mode == "unoriented_squared":
        return dot**2, 2.0 * dot * v
    if mode == "oriented_linear":
        return dot, v
    return 1.0, 0.0 * v


def _loop_sums(a, cols, colw, kernels):
    """sum_ij w_i c_j k(a_i, col_j) and its partials w.r.t. a's cell data."""
    value = 0.0
    dc, ds, du = np.zeros_like(a.centers), np.zeros(a.weights.size), np.zeros_like(a.frames)
    dw = np.zeros(a.weights.size)
    for i in range(a.weights.size):
        for j in range(colw.size):
            dx = a.centers[i] - cols.centers[j]
            dsig = a.cell_signals[i] - cols.cell_signals[j]
            kp, dkp = _radial(kernels.kp, float(dx @ dx))
            kf, dkf = _radial(kernels.kf, dsig**2)
            kt, dkt = _frame(kernels.kt.mode, a.frames[i], cols.frames[j])
            wij = a.weights[i] * colw[j]
            value += wij * kp * kf * kt
            dc[i] += wij * 2.0 * dkp * kf * kt * dx
            ds[i] += wij * kp * 2.0 * dkf * kt * dsig
            du[i] += wij * kp * kf * dkt
            dw[i] += colw[j] * kp * kf * kt
    du -= np.sum(du * a.frames, axis=1)[:, None] * a.frames
    return value, dc, ds, du, dw


def _stack(a, b):
    return DiscreteVarifold(
        np.vstack([a.centers, b.centers]),
        np.vstack([a.frames, b.frames]),
        np.concatenate([a.weights, b.weights]),
        np.concatenate([a.cell_signals, b.cell_signals]),
    )


def _walk(T, n, seed):
    """Polyline of T segments wandering in R^n, with random signals."""
    rng = np.random.default_rng(seed)
    steps = 0.15 * rng.standard_normal((T, n)) + 0.1
    pts = np.vstack([np.zeros(n), np.cumsum(steps, axis=0)])
    return polyline(pts, rng.standard_normal(T + 1))


def _rows_per_tile(monkeypatch, n_cols, n_buffers):
    # the sweep's tiles then hold TILE_ROWS rows
    monkeypatch.setattr(kernels, "TILE_FLOATS", TILE_ROWS * n_cols * n_buffers // 2)
    assert kernels._tile_rows(10**6, n_cols, n_buffers) == TILE_ROWS


SWEEP_KERNELS = [
    VarifoldKernels(TWO_GAUSS, CAUCHY, GrassmannKernelSpec("unoriented_squared")),
    VarifoldKernels(CAUCHY, TWO_GAUSS, GrassmannKernelSpec("oriented_linear")),
    VarifoldKernels(TWO_GAUSS, TWO_GAUSS, GrassmannKernelSpec("constant")),
]


@pytest.mark.parametrize("kernels_", SWEEP_KERNELS, ids=["unoriented", "oriented", "constant"])
@pytest.mark.parametrize("shape", ["surface", "curve"])
@pytest.mark.parametrize("T", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 2])
def test_tiled_sweeps_match_double_loop(kernels_, shape, T, monkeypatch):
    if shape == "surface":
        mu, nu = to_varifold(triangle_strip(T, seed=30 + T)), to_varifold(triangle_strip(6, seed=31))
    else:
        mu, nu = to_varifold(_walk(T, 2, 32 + T)), to_varifold(_walk(6, 2, 33))
    both = _stack(mu, nu)
    m = both.weights.size

    # <mu, mu> - 2 <mu, nu>: one symmetric sweep over [mu; nu]
    _rows_per_tile(monkeypatch, m, varifold_module._VALUE_BUFFERS)
    parts = ((mu, 1.0), (nu, -2.0))
    value = varifold_module._sweep_value(mu, parts, kernels_, sym=True)
    colw = np.concatenate([mu.weights, -2.0 * nu.weights])
    expected = _loop_sums(mu, both, colw, kernels_)[0]
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)
    assert value == varifold_module._sweep_value(mu, parts, kernels_, sym=True)

    # the symmetric self-term equals the full double sum
    _rows_per_tile(monkeypatch, T, varifold_module._VALUE_BUFFERS)
    self_term = varifold_inner(mu, mu, kernels_)
    assert self_term == pytest.approx(_loop_sums(mu, mu, mu.weights, kernels_)[0], rel=1e-13)
    assert self_term == varifold_inner(mu, mu, kernels_)

    # the four per-cell partials, from one sweep over [mu; nu]
    _rows_per_tile(monkeypatch, m, varifold_module._PARTIAL_BUFFERS)
    parts = ((mu, 2.0), (nu, -2.0))
    partials = varifold_module._sweep_partials(mu, parts, kernels_)
    colw = np.concatenate([2.0 * mu.weights, -2.0 * nu.weights])
    for got, want in zip(partials, _loop_sums(mu, both, colw, kernels_)[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * max(np.abs(want).max(), 1.0))
    again = varifold_module._sweep_partials(mu, parts, kernels_)
    assert all(np.array_equal(x, y) for x, y in zip(partials, again))
