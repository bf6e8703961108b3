import numpy as np
import pytest

from metamorph import DiscreteFshape, cell_geometry, validate_fshape
from metamorph.fshape import apply_end_transform, cell_volume_gradients

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


def test_volume_gradients_match_fd():
    fs = triangle_strip(4, seed=5)
    grads = cell_volume_gradients(fs)
    eps = 1e-6
    for t in range(fs.n_cells):
        for j in range(3):
            for axis in range(3):
                vp = fs.vertices.copy()
                vm = fs.vertices.copy()
                vp[fs.cells[t, j], axis] += eps
                vm[fs.cells[t, j], axis] -= eps
                fd = (
                    cell_geometry(fs.with_(vertices=vp)).volumes[t]
                    - cell_geometry(fs.with_(vertices=vm)).volumes[t]
                ) / (2 * eps)
                assert grads[t, j, axis] == pytest.approx(fd, abs=2e-9)


def test_apply_end_transform_identity(unit_triangle):
    out = apply_end_transform(
        unit_triangle, unit_triangle.vertices, np.zeros(3)
    )
    np.testing.assert_array_equal(out.vertices, unit_triangle.vertices)
    np.testing.assert_array_equal(out.signals, unit_triangle.signals)
    np.testing.assert_array_equal(out.cells, unit_triangle.cells)


def test_apply_end_transform_constant_shift(unit_triangle):
    out = apply_end_transform(unit_triangle, unit_triangle.vertices, np.full(3, 2.5))
    np.testing.assert_allclose(out.signals, unit_triangle.signals + 2.5)


def test_apply_end_transform_translation_preserves_volumes():
    fs = triangle_strip(4, seed=2)
    out = apply_end_transform(fs, fs.vertices + np.array([1.0, -2.0, 0.5]), np.zeros(6))
    np.testing.assert_allclose(
        cell_geometry(out).volumes, cell_geometry(fs).volumes, rtol=1e-13
    )


def test_apply_end_transform_shape_mismatch(unit_triangle):
    with pytest.raises(ValueError):
        apply_end_transform(unit_triangle, unit_triangle.vertices[:2], np.zeros(3))


def test_immutable_arrays(unit_triangle):
    with pytest.raises(ValueError):
        unit_triangle.vertices[0, 0] = 5.0
