"""The benchmark's own computations, made apart from the program: a
brute-force varifold distance between triangle meshes and a reader for the
legacy VTK files the CLI exports.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _cells(vertices, signals, triangles):
    """Barycenters, areas, unit normals and mean signals of each triangle."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    cross = np.cross(b - a, c - a)
    norm = np.sqrt((cross**2).sum(axis=1))
    return (
        (a + b + c) / 3.0,
        0.5 * norm,
        cross / norm[:, None],
        signals[triangles].sum(axis=1) / 3.0,
    )


def _inner(A, B, sigma_p, sigma_f):
    """sum_ij w_i w_j exp(-|c_i-c_j|^2/2sp^2) exp(-(s_i-s_j)^2/2sf^2) (n_i.n_j)^2,
    one row of A at a time."""
    ca, wa, na, sa = A
    cb, wb, nb, sb = B
    total = 0.0
    for i in range(len(wa)):
        d2 = ((cb - ca[i]) ** 2).sum(axis=1)
        kp = np.exp(-d2 / (2.0 * sigma_p**2))
        kf = np.exp(-((sb - sa[i]) ** 2) / (2.0 * sigma_f**2))
        kt = (nb @ na[i]) ** 2
        total += wa[i] * float((wb * kp * kf * kt).sum())
    return total


def varifold_distance(mesh_a, mesh_b, sigma_p: float, sigma_f: float) -> float:
    """Squared distance between two textured triangle meshes, each given as
    (vertices, signals, triangles), under Gaussian position and signal
    kernels and the unoriented squared frame kernel."""
    A = _cells(*mesh_a)
    B = _cells(*mesh_b)
    return (
        _inner(A, A, sigma_p, sigma_f)
        - 2.0 * _inner(A, B, sigma_p, sigma_f)
        + _inner(B, B, sigma_p, sigma_f)
    )


def read_vtk(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertices, signals, triangles) of an ASCII POLYDATA file of triangles."""
    lines = Path(path).read_text().split("\n")
    at = {line.split()[0]: i for i, line in enumerate(lines) if line[:1].isalpha()}
    P = int(lines[at["POINTS"]].split()[1])
    T = int(lines[at["POLYGONS"]].split()[1])
    start = at["POINTS"] + 1
    vertices = np.array([[float(v) for v in lines[start + k].split()] for k in range(P)])
    start = at["POLYGONS"] + 1
    triangles = np.array([[int(v) for v in lines[start + k].split()[1:]] for k in range(T)])
    start = at["LOOKUP_TABLE"] + 1
    signals = np.array([float(lines[start + k]) for k in range(P)])
    return vertices, signals, triangles
