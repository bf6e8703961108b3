import numpy as np
import pytest

from metamorph import validate_fshape
from metamorph.fshape import cell_geometry
from metamorph.meshes import bump_signal, grid_square, icosphere, polyline


@pytest.mark.parametrize(
    "level,expected_vertices,expected_faces",
    [(0, 12, 20), (1, 42, 80), (2, 162, 320), (3, 642, 1280)],
)
def test_icosphere_counts(level, expected_vertices, expected_faces):
    mesh = icosphere(level)
    assert mesh.n_vertices == expected_vertices
    assert mesh.n_cells == expected_faces
    assert validate_fshape(mesh) == []


def test_icosphere_radius_and_orientation():
    mesh = icosphere(2, radius=0.6)
    norms = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(norms, 0.6, rtol=1e-12)
    geom = cell_geometry(mesh)
    outward = geom.centers / np.linalg.norm(geom.centers, axis=1)[:, None]
    # faces consistently oriented outward
    assert np.all(np.sum(geom.frames * outward, axis=1) > 0.9)


def test_icosphere_area_converges():
    exact = 4.0 * np.pi
    areas = [float(cell_geometry(icosphere(k)).volumes.sum()) for k in (1, 2, 3)]
    errors = [abs(a - exact) for a in areas]
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert errors[2] / exact < 5e-3


def test_grid_square():
    mesh = grid_square(5, half_width=2.0)
    assert mesh.n_vertices == 25
    assert mesh.n_cells == 2 * 16
    assert validate_fshape(mesh) == []
    assert float(cell_geometry(mesh).volumes.sum()) == pytest.approx(16.0, rel=1e-12)


def test_polyline():
    mesh = polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert mesh.dim_d == 1
    assert mesh.n_cells == 2
    assert float(cell_geometry(mesh).volumes.sum()) == pytest.approx(2.0)


def test_bump_signal_peak():
    mesh = grid_square(21)
    f = bump_signal(mesh, (0.0, 0.0, 0.0), 0.3, amplitude=2.0)
    center_idx = int(np.argmin((mesh.vertices**2).sum(axis=1)))
    assert f[center_idx] == pytest.approx(2.0)
    assert f.max() == pytest.approx(2.0)
    assert f.min() >= 0.0
