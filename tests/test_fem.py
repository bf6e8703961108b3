import numpy as np
import pytest
from scipy import sparse

from metamorph import (
    DiscreteFshape,
    DynamicsConfig,
    FunctionalMetric,
    ShootingState,
    integrate_forward,
)
from metamorph.dynamics import integrate_adjoint_backward
from metamorph.fem import (
    CellMatrix,
    _stiffness_local,
    assemble_metric,
    lumped_vertex_weights,
    metric_form_grad_x,
    solve_spd,
)
from metamorph.fshape import AdjointState, CellPattern, ShootingDiverged, cell_geometry
from metamorph.kernels import gaussian
from metamorph.meshes import icosphere

from conftest import jittered_grid, quadratic_form, stiffness_matrix, triangle_strip

L2_LUMPED = FunctionalMetric(0, "lumped")
L2_P1 = FunctionalMetric(0, "p1")
H1 = FunctionalMetric(1, "p1")
ALL_METRICS = [L2_LUMPED, L2_P1, H1]


def test_metric_validation():
    with pytest.raises(ValueError):
        FunctionalMetric(1, "lumped")
    with pytest.raises(ValueError):
        FunctionalMetric(2, "p1")


def test_lumped_unit_triangle(unit_triangle):
    D = assemble_metric(unit_triangle, L2_LUMPED)
    np.testing.assert_allclose(D.diagonal(), np.full(3, 1.0 / 6.0), rtol=1e-15)


def test_lumped_segment(segment):
    D = assemble_metric(segment, L2_LUMPED)
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
    D = assemble_metric(fs, L2_P1)
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
    D = assemble_metric(fs, L2_P1)
    value = quadratic_form(D, fs.signals)
    assert value == pytest.approx(r / 6.0, abs=1e-14)
    assert value == pytest.approx(quad_oracle, rel=5e-3)


def test_h1_segment():
    L = 2.0
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [L, 0, 0]], signals=[0.0, 1.0], cells=[[0, 1]]
    )
    assert quadratic_form(assemble_metric(fs, H1), fs.signals) == pytest.approx(
        L / 3.0 + 1.0 / L, abs=1e-14
    )


def test_stiffness_unit_right_triangle():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]],
        signals=[0.0, 1.0, 0.0],
        cells=[[0, 1, 2]],
    )
    # interpolant f(u, v) = u has |grad| = 1 on a cell of area 1/2
    assert quadratic_form(stiffness_matrix(fs), fs.signals) == pytest.approx(0.5)


def test_h1_constant_equals_l2():
    fs = triangle_strip(5, seed=1)
    f = np.full(fs.n_vertices, -0.8)
    assert quadratic_form(assemble_metric(fs, H1), f) == pytest.approx(
        quadratic_form(assemble_metric(fs, L2_P1), f), rel=1e-13
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
    D1 = assemble_metric(fs, H1)
    D0 = assemble_metric(fs, L2_P1)
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
    D = assemble_metric(fs, L2_LUMPED)
    rhs = np.arange(1.0, fs.n_vertices + 1.0)
    h = solve_spd(D, rhs)
    np.testing.assert_allclose(h, rhs / D.diagonal(), rtol=1e-12)


def test_lumped_solve_divides_by_the_weights():
    # a lumped metric is a diagonal: solve_spd divides, bit for bit, by the
    # cell volumes / (d+1) summed per vertex in cell order
    fs = jittered_grid(16)
    D = assemble_metric(fs, L2_LUMPED)
    assert D.is_diagonal
    weights = np.bincount(fs.cells.ravel(), np.repeat(cell_geometry(fs).volumes / 3, 3))
    assert lumped_vertex_weights(fs).tobytes() == weights.tobytes()
    rhs = np.random.default_rng(17).standard_normal(fs.n_vertices)
    assert solve_spd(D, rhs).tobytes() == (rhs / weights).tobytes()


def test_solve_round_trip():
    fs = jittered_grid(9)
    D = assemble_metric(fs, H1)
    rng = np.random.default_rng(10)
    h0 = rng.standard_normal(fs.n_vertices)
    h = solve_spd(D, D @ h0)
    assert np.linalg.norm(h - h0) / np.linalg.norm(h0) < 1e-8


def test_solve_zero_rhs():
    fs = triangle_strip(4, seed=11)
    D = assemble_metric(fs, H1)
    np.testing.assert_array_equal(solve_spd(D, np.zeros(fs.n_vertices)), 0.0)


def test_solve_residual_contract():
    fs = jittered_grid(12)
    D = assemble_metric(fs, H1)
    rng = np.random.default_rng(13)
    rhs = rng.standard_normal(fs.n_vertices)
    h = solve_spd(D, rhs)
    assert np.linalg.norm(D @ h - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_iteration_cap_error():
    # two CG iterations cannot solve this system; the failure must report the residual
    fs = jittered_grid(15)
    rhs = np.random.default_rng(15).standard_normal(fs.n_vertices)
    with pytest.raises(RuntimeError, match="in 2 iterations.*residual"):
        solve_spd(assemble_metric(fs, H1), rhs, max_iters=2)


def test_solve_breakdown_error():
    # [[1, 2], [2, 1]] is indefinite with a positive diagonal: CG meets p^T A p < 0
    pattern = CellPattern.from_cells(np.array([[0, 1]]), 2)
    A = CellMatrix.from_blocks(pattern, np.array([[[1.0, 2.0], [2.0, 1.0]]]))
    with pytest.raises(ShootingDiverged, match="broke down.*residual"):
        solve_spd(A, np.array([1.0, -1.0]))


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_vertex_in_no_cell_is_a_typed_failure(metric):
    # vertex 3 belongs to no cell: its row of D(x) is zero
    fs = DiscreteFshape(
        vertices=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
        signals=np.zeros(4),
        cells=[[0, 1, 2]],
    )
    with pytest.raises(ShootingDiverged, match="vertex 3 has metric diagonal 0"):
        solve_spd(assemble_metric(fs, metric), np.ones(4))


def _dense_metric(fs, metric):
    """D(x) as a dense array, its cell blocks summed by np.add.at."""
    geom = cell_geometry(fs)
    m = fs.dim_d + 1
    if metric.scheme == "lumped":
        blocks = geom.volumes[:, None, None] * np.eye(m) / m
    else:
        blocks = geom.volumes[:, None, None] * (1.0 + np.eye(m)) / (m * (m + 1))
        if metric.order == 1:
            blocks = blocks + _stiffness_local(geom)
    dense = np.zeros((fs.n_vertices,) * 2)
    np.add.at(dense, (fs.cells[:, :, None], fs.cells[:, None, :]), blocks)
    return dense


DENSE_MESHES = {
    "segment": lambda: DiscreteFshape([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [1.0, 3.0], [[0, 1]]),
    "triangle_strip": lambda: triangle_strip(6, seed=33),
    "jittered_grid": lambda: jittered_grid(34),
    "icosphere": lambda: icosphere(2),
}


@pytest.mark.parametrize("metric", ALL_METRICS)
@pytest.mark.parametrize("mesh", sorted(DENSE_MESHES))
def test_sparse_product_matches_dense_assembly(mesh, metric):
    fs = DENSE_MESHES[mesh]()
    D = assemble_metric(fs, metric)
    dense = _dense_metric(fs, metric)
    assert np.abs(D.diagonal() - np.diag(dense)).max() <= 1e-15 * np.abs(dense).max()
    rng = np.random.default_rng(35)
    for v in (*np.eye(fs.n_vertices)[:3], *rng.standard_normal((3, fs.n_vertices))):
        scale = (np.abs(dense) @ np.abs(v)).max()
        assert np.abs(D @ v - dense @ v).max() <= 1e-15 * scale


def test_pattern_is_built_once_per_connectivity(monkeypatch):
    # every state of a shot and of its adjoint shares the template's cells,
    # so the forward and the backward pass build one pattern between them
    builds = []
    build = CellPattern.from_cells
    monkeypatch.setattr(
        CellPattern, "from_cells", classmethod(lambda cls, *a: builds.append(1) or build(*a))
    )
    fs = icosphere(1)
    rng = np.random.default_rng(36)
    p0 = 0.1 * rng.standard_normal(fs.vertices.shape)
    state0 = ShootingState(fs.vertices, fs.signals, p0, rng.standard_normal(fs.n_vertices))
    cfg = DynamicsConfig(1.0, 1.0, gaussian(0.5), H1, n_steps=3)
    traj = integrate_forward(state0, fs, cfg, keep_stages=True)
    end = AdjointState(*(rng.standard_normal(a.shape) for a in (fs.vertices, fs.signals) * 2))
    integrate_adjoint_backward(traj, end, fs, cfg)
    assert len(builds) == 1


def test_lumped_metric_builds_no_pattern(monkeypatch):
    # the lumped metric is a diagonal: a shot and its adjoint under it build
    # no compressed-sparse-row pattern
    builds = []
    build = CellPattern.from_cells
    monkeypatch.setattr(
        CellPattern, "from_cells", classmethod(lambda cls, *a: builds.append(1) or build(*a))
    )
    fs = icosphere(1)
    rng = np.random.default_rng(37)
    p0 = 0.1 * rng.standard_normal(fs.vertices.shape)
    state0 = ShootingState(fs.vertices, fs.signals, p0, rng.standard_normal(fs.n_vertices))
    cfg = DynamicsConfig(1.0, 1.0, gaussian(0.5), L2_LUMPED, n_steps=3)
    traj = integrate_forward(state0, fs, cfg, keep_stages=True)
    end = AdjointState(*(rng.standard_normal(a.shape) for a in (fs.vertices, fs.signals) * 2))
    integrate_adjoint_backward(traj, end, fs, cfg)
    assert builds == []


def test_lumped_weights_match_matrix():
    fs = jittered_grid(14)
    np.testing.assert_allclose(
        lumped_vertex_weights(fs), assemble_metric(fs, L2_LUMPED).diagonal(), rtol=1e-15
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


def _polyline(dim_n, seed, n_vertices=6):
    """Open polyline in R^dim_n with random steps and signals, and a random h."""
    rng = np.random.default_rng(seed)
    pts = np.cumsum(0.3 + rng.random((n_vertices, dim_n)), axis=0)
    fs = DiscreteFshape(
        vertices=pts,
        signals=rng.standard_normal(n_vertices),
        cells=np.column_stack([np.arange(n_vertices - 1), np.arange(1, n_vertices)]),
    )
    return fs, rng.standard_normal(n_vertices)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_form_grad_d1(metric):
    for dim_n in (3, 2):
        fs, h = _polyline(dim_n, seed=20)
        grad = metric_form_grad_x(fs, metric, h)
        eps = 1e-6
        fd = np.zeros_like(grad)
        for i in range(fs.n_vertices):
            for j in range(dim_n):
                vp = fs.vertices.copy()
                vm = fs.vertices.copy()
                vp[i, j] += eps
                vm[i, j] -= eps
                fd[i, j] = (
                    quadratic_form(assemble_metric(fs.with_(vertices=vp), metric), h)
                    - quadratic_form(assemble_metric(fs.with_(vertices=vm), metric), h)
                ) / (2 * eps)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-6


# Reference formulas written per dimension: the Gram-inverse stiffness for
# triangles, 1/L for segments, and the edge-midpoint quadrature of the P1
# mass. fem writes all of these as one formula of the volume gradients.

_EDGE_DIFF = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def _edge_gram(fs):
    edges = cell_geometry(fs).edges
    e1, e2 = edges[:, 0], edges[:, 1]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    return e1, e2, g11, g12, g22, g11 * g22 - g12 * g12


def _reference_stiffness(fs):
    vol = cell_geometry(fs).volumes
    if fs.dim_d == 1:
        local = np.array([[1.0, -1.0], [-1.0, 1.0]])[None] / vol[:, None, None]
    else:
        _, _, g11, g12, g22, det = _edge_gram(fs)
        ginv = np.stack([np.stack([g22, -g12], -1), np.stack([-g12, g11], -1)], -2)
        ginv /= det[:, None, None]
        local = vol[:, None, None] * np.einsum("ia,tij,jb->tab", _EDGE_DIFF, ginv, _EDGE_DIFF)
    m = fs.dim_d + 1
    rows = np.repeat(fs.cells, m, axis=1).ravel()
    cols = np.tile(fs.cells, (1, m)).ravel()
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(fs.n_vertices,) * 2).tocsr()


def _reference_mass_cell_form(fs, hc):
    """Per-cell edge-midpoint quadrature of the squared P1 interpolant / volume."""
    if fs.dim_d == 1:
        mid = 0.5 * (hc[:, 0] + hc[:, 1])
        return (hc[:, 0] ** 2 + 4.0 * mid**2 + hc[:, 1] ** 2) / 6.0
    m01 = 0.5 * (hc[:, 0] + hc[:, 1])
    m12 = 0.5 * (hc[:, 1] + hc[:, 2])
    m20 = 0.5 * (hc[:, 2] + hc[:, 0])
    return (m01**2 + m12**2 + m20**2) / 3.0


def _reference_form(fs, metric, h):
    hc = h[fs.cells]
    if metric.scheme == "lumped":
        cell_form = (hc**2).sum(axis=1) / (fs.dim_d + 1)
    else:
        cell_form = _reference_mass_cell_form(fs, hc)
    value = float(cell_geometry(fs).volumes @ cell_form)
    if metric.order == 1:
        value += quadratic_form(_reference_stiffness(fs), h)
    return value


def _reference_form_grad(fs, metric, h):
    """x-gradient of the reference form: mass through the volume gradients,
    stiffness through the derivative of the Gram inverse (triangles) or of
    delta^2 / L (segments)."""
    geom = cell_geometry(fs)
    vol_grads = geom.volume_grads
    hc = h[fs.cells]
    if metric.scheme == "lumped":
        cell_form = (hc**2).sum(axis=1) / (fs.dim_d + 1)
    else:
        cell_form = _reference_mass_cell_form(fs, hc)
    contrib = cell_form[:, None, None] * vol_grads
    if metric.order == 1 and fs.dim_d == 1:
        delta = hc[:, 1] - hc[:, 0]
        contrib -= ((delta / geom.volumes) ** 2)[:, None, None] * vol_grads
    elif metric.order == 1:
        e1, e2, g11, g12, g22, det = _edge_gram(fs)
        d1 = hc[:, 1] - hc[:, 0]
        d2 = hc[:, 2] - hc[:, 0]
        b1 = (g22 * d1 - g12 * d2) / det
        b2 = (-g12 * d1 + g11 * d2) / det
        gvec = b1[:, None] * e1 + b2[:, None] * e2
        contrib += (d1 * b1 + d2 * b2)[:, None, None] * vol_grads
        r2 = 2.0 * geom.volumes
        contrib[:, 1] -= (r2 * b1)[:, None] * gvec
        contrib[:, 2] -= (r2 * b2)[:, None] * gvec
        contrib[:, 0] += (r2 * (b1 + b2))[:, None] * gvec
    grad = np.zeros_like(fs.vertices)
    np.add.at(grad, fs.cells, contrib)
    return grad


REFERENCE_MESHES = {
    "polyline_R2": lambda: _polyline(2, seed=30, n_vertices=12)[0],
    "polyline_R3": lambda: _polyline(3, seed=31, n_vertices=12)[0],
    "triangles": lambda: jittered_grid(2),
}


@pytest.mark.parametrize("mesh", sorted(REFERENCE_MESHES))
def test_stiffness_matches_reference(mesh):
    fs = REFERENCE_MESHES[mesh]()
    A = stiffness_matrix(fs)
    K = np.column_stack([A @ e for e in np.eye(fs.n_vertices)])
    ref = _reference_stiffness(fs).toarray()
    assert np.abs(K - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("metric", ALL_METRICS)
@pytest.mark.parametrize("mesh", sorted(REFERENCE_MESHES))
def test_metric_and_form_grad_match_reference(mesh, metric):
    fs = REFERENCE_MESHES[mesh]()
    D = assemble_metric(fs, metric)
    rng = np.random.default_rng(32)
    for _ in range(5):
        h = rng.standard_normal(fs.n_vertices)
        assert quadratic_form(D, h) == pytest.approx(_reference_form(fs, metric, h), rel=1e-13)
        grad = metric_form_grad_x(fs, metric, h)
        ref = _reference_form_grad(fs, metric, h)
        assert np.abs(grad - ref).max() <= 1e-13 * np.abs(ref).max()
