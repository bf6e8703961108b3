import math

import numpy as np
import pytest

from metamorph import DiscreteFshape
from metamorph.fem import CellMatrix, _stiffness_local
from metamorph.fshape import cell_geometry


def radial_profile(spec, u, deriv=False):
    """k(u), or k'(u) with `deriv`, of a radial kernel spec in closed form,
    term by term, for one squared distance u."""
    total = 0.0
    for w, s in spec.terms:
        a = u / (s * s)
        if spec.family == "gaussian":
            total += -0.5 * w / (s * s) * math.exp(-0.5 * a) if deriv else w * math.exp(-0.5 * a)
        else:
            total += -w / (s * s) / (1.0 + a) ** 2 if deriv else w / (1.0 + a)
    return total


def quadratic_form(A, f):
    """f^T A f for a matrix held as cell blocks."""
    f = np.asarray(f, dtype=float)
    return float(f @ (A @ f))


def stiffness_matrix(fs):
    """The H1 metric's stiffness part alone: G G^T / vol per cell."""
    return CellMatrix(fs.cells, _stiffness_local(cell_geometry(fs)), fs.n_vertices)


def triangle_strip(n_tri, seed=None, jitter=0.08):
    """Strip of n_tri triangles (n_tri + 2 vertices), optionally jittered."""
    P = n_tri + 2
    pts = np.zeros((P, 3))
    for i in range(P):
        pts[i] = [i * 0.5, (i % 2) * 0.6, 0.0]
    signals = np.zeros(P)
    if seed is not None:
        rng = np.random.default_rng(seed)
        pts = pts + jitter * rng.standard_normal(pts.shape)
        signals = rng.standard_normal(P)
    cells = np.array([[i, i + 1, i + 2] for i in range(n_tri)])
    return DiscreteFshape(vertices=pts, signals=signals, cells=cells)


def jittered_grid(seed, m1=5, m2=10, jitter=0.03):
    """Perturbed m1 x m2 planar grid with random signals (m1*m2 vertices)."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.linspace(0, 1, m1), np.linspace(0, 1, m2), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(m1 * m2)])
    pts = pts + jitter * rng.standard_normal(pts.shape)
    cells = []
    for i in range(m1 - 1):
        for j in range(m2 - 1):
            v00 = i * m2 + j
            v10 = (i + 1) * m2 + j
            v01 = i * m2 + j + 1
            v11 = (i + 1) * m2 + j + 1
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return DiscreteFshape(
        vertices=pts, signals=rng.standard_normal(m1 * m2), cells=np.array(cells)
    )


@pytest.fixture
def unit_triangle():
    return DiscreteFshape(
        vertices=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        signals=[0.0, 0.0, 0.0],
        cells=[[0, 1, 2]],
    )


@pytest.fixture
def segment():
    return DiscreteFshape(
        vertices=[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        signals=[1.0, 3.0],
        cells=[[0, 1]],
    )
