import numpy as np
import pytest
from scipy import sparse

from metamorph import (
    DiscreteFshape,
    FunctionalMetric,
    assemble_metric,
    cell_geometry,
    lumped_vertex_weights,
    metric_form_grad_x,
)
from metamorph.fem import (
    assemble_h1,
    assemble_mass_lumped,
    assemble_mass_p1,
    assemble_stiffness,
    quadratic_form,
    solve_spd,
)

from conftest import jittered_grid, triangle_strip

ALL_METRICS = [
    FunctionalMetric(0, "lumped"),
    FunctionalMetric(0, "p1"),
    FunctionalMetric(1, "p1"),
]


def test_metric_validation():
    with pytest.raises(ValueError):
        FunctionalMetric(1, "lumped")
    with pytest.raises(ValueError):
        FunctionalMetric(2, "p1")


def test_lumped_unit_triangle(unit_triangle):
    D = assemble_mass_lumped(unit_triangle)
    np.testing.assert_allclose(D.diagonal(), np.full(3, 1.0 / 6.0), rtol=1e-15)


def test_lumped_segment(segment):
    D = assemble_mass_lumped(segment)
    np.testing.assert_allclose(D.diagonal(), np.full(2, 1.0), rtol=1e-15)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_constant_signal_gives_volume(metric):
    fs = triangle_strip(6, seed=0)
    total = float(cell_geometry(fs).volumes.sum())
    c = 1.7
    D = assemble_metric(fs, metric)
    f = np.full(fs.n_vertices, c)
    expected = c**2 * total
    if metric.order == 1:
        # gradient of a constant vanishes, so H1 reduces to L2
        expected = c**2 * total
    assert quadratic_form(D, f) == pytest.approx(expected, rel=1e-13)


def test_p1_segment_linear_interpolant():
    # f going 0 -> 1 over length L: integral of (t/L)^2 dt = L/3
    L = 2.0
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [L, 0, 0]], signals=[0.0, 1.0], cells=[[0, 1]]
    )
    D = assemble_mass_p1(fs)
    assert quadratic_form(D, fs.signals) == pytest.approx(L / 3.0, abs=1e-14)


def test_p1_triangle_single_vertex():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]],
        signals=[1.0, 0.0, 0.0],
        cells=[[0, 1, 2]],
    )
    r = 0.5
    # quadrature oracle: integrate the linear interpolant squared on the
    # reference triangle with a dense barycentric grid
    n = 400
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(n - i):
            l1 = (i + 0.5) / n
            l2 = (j + 0.5) / n
            if l1 + l2 >= 1.0:
                continue
            f = 1.0 - l1 - l2  # interpolant with f=(1,0,0) at vertices order 0,1,2
            total += f * f
            count += 1
    quad_oracle = total / count * r
    D = assemble_mass_p1(fs)
    value = quadratic_form(D, fs.signals)
    assert value == pytest.approx(r / 6.0, abs=1e-14)
    assert value == pytest.approx(quad_oracle, rel=5e-3)


def test_h1_segment():
    L = 2.0
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [L, 0, 0]], signals=[0.0, 1.0], cells=[[0, 1]]
    )
    assert quadratic_form(assemble_h1(fs), fs.signals) == pytest.approx(
        L / 3.0 + 1.0 / L, abs=1e-14
    )


def test_stiffness_unit_right_triangle():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]],
        signals=[0.0, 1.0, 0.0],
        cells=[[0, 1, 2]],
    )
    # interpolant f(u, v) = u has |grad| = 1 on a cell of area 1/2
    assert quadratic_form(assemble_stiffness(fs), fs.signals) == pytest.approx(0.5)


def test_h1_constant_equals_l2():
    fs = triangle_strip(5, seed=1)
    f = np.full(fs.n_vertices, -0.8)
    assert quadratic_form(assemble_h1(fs), f) == pytest.approx(
        quadratic_form(assemble_mass_p1(fs), f), rel=1e-13
    )


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_spd_rayleigh(metric):
    fs = jittered_grid(2)
    D = assemble_metric(fs, metric)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(fs.n_vertices)
        assert quadratic_form(D, f) > 0.0


def test_h1_dominates_mass():
    fs = jittered_grid(4)
    D1 = assemble_h1(fs)
    D0 = assemble_mass_p1(fs)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.standard_normal(fs.n_vertices)
        assert quadratic_form(D1, f) >= quadratic_form(D0, f) - 1e-13


def test_refinement_consistency():
    # subdividing 4-fold and interpolating linearly preserves both norms of a
    # piecewise-linear signal
    fs = triangle_strip(3, seed=7)
    verts = list(map(np.array, fs.vertices))
    sigs = list(fs.signals)
    cells = []
    cache = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            verts.append(0.5 * (verts[i] + verts[j]))
            sigs.append(0.5 * (sigs[i] + sigs[j]))
            cache[key] = len(verts) - 1
        return cache[key]

    for a, b, c in fs.cells:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        cells += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    fine = DiscreteFshape(np.array(verts), np.array(sigs), np.array(cells))
    for metric in ALL_METRICS:
        coarse_val = quadratic_form(assemble_metric(fs, metric), fs.signals)
        fine_val = quadratic_form(assemble_metric(fine, metric), fine.signals)
        if metric.scheme == "lumped":
            continue  # lumping is not exact on P1 interpolants
        assert fine_val == pytest.approx(coarse_val, rel=1e-10)


def test_solve_diagonal_is_division():
    fs = triangle_strip(4, seed=8)
    D = assemble_mass_lumped(fs)
    rhs = np.arange(1.0, fs.n_vertices + 1.0)
    h = solve_spd(D, rhs)
    np.testing.assert_allclose(h, rhs / D.diagonal(), rtol=1e-12)


def test_solve_round_trip():
    fs = jittered_grid(9)
    D = assemble_h1(fs)
    rng = np.random.default_rng(10)
    h0 = rng.standard_normal(fs.n_vertices)
    h = solve_spd(D, D @ h0)
    assert np.linalg.norm(h - h0) / np.linalg.norm(h0) < 1e-8


def test_solve_zero_rhs():
    fs = triangle_strip(4, seed=11)
    D = assemble_h1(fs)
    np.testing.assert_array_equal(solve_spd(D, np.zeros(fs.n_vertices)), 0.0)


def test_solve_residual_contract():
    fs = jittered_grid(12)
    D = assemble_h1(fs)
    rng = np.random.default_rng(13)
    rhs = rng.standard_normal(fs.n_vertices)
    h = solve_spd(D, rhs)
    assert np.linalg.norm(D @ h - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_iteration_cap_error():
    # an indefinite matrix makes CG stall; the failure must report the residual
    A = sparse.diags([1.0, -1.0, 2.0, -2.0]).tocsr()
    with pytest.raises(RuntimeError, match="residual"):
        solve_spd(A, np.array([1.0, 1.0, 1.0, 1.0]), max_iters=2)


def test_lumped_weights_match_matrix():
    fs = jittered_grid(14)
    np.testing.assert_allclose(
        lumped_vertex_weights(fs), assemble_mass_lumped(fs).diagonal(), rtol=1e-15
    )


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_form_grad_zero_h(metric):
    fs = triangle_strip(4, seed=15)
    np.testing.assert_array_equal(
        metric_form_grad_x(fs, metric, np.zeros(fs.n_vertices)), 0.0
    )


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_form_grad_matches_fd(metric):
    fs = jittered_grid(16, m1=3, m2=4)
    rng = np.random.default_rng(17)
    h = rng.standard_normal(fs.n_vertices)
    grad = metric_form_grad_x(fs, metric, h)
    eps = 1e-6
    fd = np.zeros_like(grad)
    for i in range(fs.n_vertices):
        for j in range(3):
            vp = fs.vertices.copy()
            vm = fs.vertices.copy()
            vp[i, j] += eps
            vm[i, j] -= eps
            fd[i, j] = (
                quadratic_form(assemble_metric(fs.with_(vertices=vp), metric), h)
                - quadratic_form(assemble_metric(fs.with_(vertices=vm), metric), h)
            ) / (2 * eps)
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-6


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_form_grad_translation_invariant(metric):
    fs = triangle_strip(5, seed=18)
    rng = np.random.default_rng(19)
    h = rng.standard_normal(fs.n_vertices)
    grad = metric_form_grad_x(fs, metric, h)
    # directional derivative along a rigid translation vanishes
    for axis in range(3):
        assert abs(grad[:, axis].sum()) < 1e-10 * max(1.0, np.abs(grad).max())


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_form_grad_d1(metric):
    rng = np.random.default_rng(20)
    pts = np.cumsum(0.3 + rng.random((6, 3)), axis=0)
    fs = DiscreteFshape(
        vertices=pts,
        signals=rng.standard_normal(6),
        cells=np.column_stack([np.arange(5), np.arange(1, 6)]),
    )
    h = rng.standard_normal(6)
    grad = metric_form_grad_x(fs, metric, h)
    eps = 1e-6
    fd = np.zeros_like(grad)
    for i in range(6):
        for j in range(3):
            vp = fs.vertices.copy()
            vm = fs.vertices.copy()
            vp[i, j] += eps
            vm[i, j] -= eps
            fd[i, j] = (
                quadratic_form(assemble_metric(fs.with_(vertices=vp), metric), h)
                - quadratic_form(assemble_metric(fs.with_(vertices=vm), metric), h)
            ) / (2 * eps)
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-6
