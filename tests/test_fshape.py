import sys
import threading

import numpy as np
import pytest

from metamorph import DiscreteFshape, validate_fshape
from metamorph.fshape import cell_geometry, cross

from conftest import triangle_strip


def test_validate_well_formed(unit_triangle):
    assert validate_fshape(unit_triangle) == []


def test_validate_out_of_range_index():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]],
        signals=[0.0, 0, 0],
        cells=[[0, 1, 3]],
    )
    violations = validate_fshape(fs)
    assert len(violations) == 1
    assert "out of range" in violations[0]
    assert "cell 0" in violations[0]


def test_validate_collinear_triangle():
    # area from the cross product of (1,0,0) and (2,0,0) is exactly zero
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]],
        signals=[0.0, 0, 0],
        cells=[[0, 1, 2]],
    )
    violations = validate_fshape(fs)
    assert len(violations) == 1
    assert "degenerate" in violations[0]


def test_validate_repeated_index():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]],
        signals=[0.0, 0, 0],
        cells=[[0, 1, 1]],
    )
    violations = validate_fshape(fs)
    assert any("repeated" in v for v in violations)


def test_validate_non_finite_vertices():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [np.nan, 0, 0], [0, 1.0, 0]],
        signals=[0.0, 0, np.inf],
        cells=[[0, 1, 2]],
    )
    violations = validate_fshape(fs)
    assert len(violations) == 2
    assert violations[0].startswith("vertex 1: non-finite coordinates")
    assert violations[1].startswith("vertex 2: non-finite signal")


def test_validate_idempotent(unit_triangle):
    first = validate_fshape(unit_triangle)
    second = validate_fshape(unit_triangle)
    assert first == second == []


def test_constructor_rejects_signal_mismatch():
    with pytest.raises(ValueError):
        DiscreteFshape(
            vertices=[[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]],
            signals=[0.0, 0.0],
            cells=[[0, 1, 2]],
        )


def test_cell_geometry_triangle(unit_triangle):
    geom = cell_geometry(unit_triangle)
    assert geom.volumes[0] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(geom.frames[0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(geom.centers[0], [1 / 3, 1 / 3, 0.0], atol=1e-15)
    np.testing.assert_array_equal(geom.edges[0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_cell_geometry_is_memoised():
    fs = triangle_strip(4, seed=4)
    geom = cell_geometry(fs)
    assert cell_geometry(fs) is geom
    # a new fshape with the same vertices measures its own cells
    assert cell_geometry(fs.with_(vertices=fs.vertices)) is not geom


def test_cell_geometry_memo_under_threads():
    # racing threads may each measure the cells, but all see the same values
    fs = triangle_strip(200, seed=7)
    expected = cell_geometry(fs.with_(vertices=fs.vertices))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(cell_geometry(fs)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for geom in results:
        for name in ("centers", "volumes", "frames", "edges", "volume_grads"):
            assert np.array_equal(getattr(geom, name), getattr(expected, name))
    assert any(cell_geometry(fs) is geom for geom in results)


def test_cell_geometry_segment(segment):
    geom = cell_geometry(segment)
    assert geom.volumes[0] == pytest.approx(2.0)
    np.testing.assert_allclose(geom.frames[0], [1.0, 0.0, 0.0])
    assert geom.cell_signals[0] == pytest.approx(2.0)
    np.testing.assert_allclose(geom.centers[0], [1.0, 0.0, 0.0])


def test_cell_geometry_scaling():
    fs = triangle_strip(4, seed=0)
    lam = 2.7
    scaled = fs.with_(vertices=lam * fs.vertices)
    g0 = cell_geometry(fs)
    g1 = cell_geometry(scaled)
    np.testing.assert_allclose(g1.volumes, lam**2 * g0.volumes, rtol=1e-12)
    np.testing.assert_allclose(g1.frames, g0.frames, atol=1e-12)


def test_cell_geometry_rigid_invariance():
    fs = triangle_strip(4, seed=1)
    # rotation about z by 0.7 plus a translation
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = fs.with_(vertices=fs.vertices @ R.T + np.array([0.3, -1.0, 2.0]))
    np.testing.assert_allclose(
        cell_geometry(moved).volumes, cell_geometry(fs).volumes, rtol=1e-12
    )


def test_cell_geometry_raises_on_degenerate():
    fs = DiscreteFshape(
        vertices=[[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]],
        signals=[0.0, 0, 0],
        cells=[[0, 1, 2]],
    )
    with pytest.raises(ValueError, match="cell 0"):
        cell_geometry(fs)


def test_lumped_signal_volume_consistency():
    # sum of cell_signals weighted by volumes equals the P0 integral of f
    fs = triangle_strip(6, seed=3)
    geom = cell_geometry(fs)
    direct = float((geom.cell_signals * geom.volumes).sum())
    by_hand = sum(
        geom.volumes[t] * fs.signals[fs.cells[t]].mean() for t in range(fs.n_cells)
    )
    assert direct == pytest.approx(by_hand, rel=1e-14)


def _polyline(seed):
    """Jittered open curve of 5 segments in R^3."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2.0, 6)
    pts = np.column_stack([t, 0.3 * np.sin(3 * t), 0.2 * t**2])
    return DiscreteFshape(
        vertices=pts + 0.05 * rng.standard_normal(pts.shape),
        signals=rng.standard_normal(6),
        cells=[[i, i + 1] for i in range(5)],
    )


def test_volume_gradients_match_fd():
    eps = 1e-6
    for fs in (triangle_strip(4, seed=5), _polyline(seed=5)):
        grads = cell_geometry(fs).volume_grads
        assert grads.shape == (fs.n_cells, fs.dim_d + 1, fs.dim_n)
        for t in range(fs.n_cells):
            for j in range(fs.dim_d + 1):
                for axis in range(fs.dim_n):
                    vp = fs.vertices.copy()
                    vm = fs.vertices.copy()
                    vp[fs.cells[t, j], axis] += eps
                    vm[fs.cells[t, j], axis] -= eps
                    fd = (
                        cell_geometry(fs.with_(vertices=vp)).volumes[t]
                        - cell_geometry(fs.with_(vertices=vm)).volumes[t]
                    ) / (2 * eps)
                    assert grads[t, j, axis] == pytest.approx(fd, abs=2e-9)


def test_immutable_arrays(unit_triangle):
    with pytest.raises(ValueError):
        unit_triangle.vertices[0, 0] = 5.0


@pytest.mark.parametrize("T", [1, 320, 5120])
def test_cross_is_numpys_cross(T):
    a, b = np.random.default_rng(T).standard_normal((2, T, 3))
    assert np.array_equal(cross(a, b), np.cross(a, b))
