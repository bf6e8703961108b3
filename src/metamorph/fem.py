"""Finite-element signal metrics on polyhedral meshes.

Assembles the sparse symmetric positive definite matrices behind the L2 and
H1 signal norms (mass lumping, P1-exact mass, P1 stiffness), solves the
associated linear systems with Jacobi-preconditioned conjugate gradients, and
differentiates the quadratic form w.r.t. vertex positions. Every cell
quantity (volumes, edges, volume gradients) is read from the fshape's one
memoised ``cell_geometry`` record, so assembling D(x) and differentiating
its form on the same fshape measure the cells once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fshape import CellGeometry, DiscreteFshape, cell_geometry

SOLVER_RTOL = 1e-10

# Local matrices of the edge-midpoint (P1-exact) mass quadrature.
_MASS_LOCAL = {
    1: np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0,
    2: np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0,
}
# Maps vertex values to edge differences (f2-f1, f3-f1) on a triangle.
_EDGE_DIFF = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


@dataclass(frozen=True)
class FunctionalMetric:
    """Signal-metric choice: Sobolev order (0 or 1) and quadrature scheme.

    scheme "lumped" (diagonal mass) is only valid for order 0; order 1 always
    uses the P1-exact mass plus the piecewise-constant-gradient stiffness.
    """

    order: int
    scheme: str = "p1"

    def __post_init__(self):
        if self.order not in (0, 1):
            raise ValueError(f"unsupported Sobolev order {self.order}")
        if self.scheme not in ("lumped", "p1"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.order == 1 and self.scheme != "p1":
            raise ValueError("order-1 metric requires the p1 scheme")


def lumped_vertex_weights(fs: DiscreteFshape) -> np.ndarray:
    """Per-vertex share of adjacent cell volumes: 1/(d+1) of each cell."""
    geom = cell_geometry(fs)
    weights = np.zeros(fs.n_vertices)
    np.add.at(weights, fs.cells, (geom.volumes / (fs.dim_d + 1))[:, None])
    return weights


def assemble_mass_lumped(fs: DiscreteFshape) -> sparse.csr_matrix:
    """Diagonal (lumped) L2 mass matrix."""
    return sparse.diags(lumped_vertex_weights(fs)).tocsr()


def _scatter_local(fs: DiscreteFshape, local: np.ndarray) -> sparse.csr_matrix:
    """Assemble per-cell (T, m, m) local matrices into a global sparse matrix."""
    m = fs.dim_d + 1
    T = fs.n_cells
    rows = np.broadcast_to(fs.cells[:, :, None], (T, m, m))
    cols = np.broadcast_to(fs.cells[:, None, :], (T, m, m))
    A = sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())),
        shape=(fs.n_vertices, fs.n_vertices),
    )
    return A.tocsr()


def assemble_mass_p1(fs: DiscreteFshape) -> sparse.csr_matrix:
    """Consistent L2 mass matrix, exact on piecewise-linear interpolants."""
    geom = cell_geometry(fs)
    local = geom.volumes[:, None, None] * _MASS_LOCAL[fs.dim_d][None]
    return _scatter_local(fs, local)


def _edge_gram(geom: CellGeometry):
    """Edge vectors and in-plane Gram data for triangle cells."""
    e1 = geom.edges[:, 0]
    e2 = geom.edges[:, 1]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    det = g11 * g22 - g12 * g12
    return e1, e2, g11, g12, g22, det


def assemble_stiffness(fs: DiscreteFshape) -> sparse.csr_matrix:
    """Stiffness matrix of the cell-constant interpolant gradient.

    Quadratic form value: sum over cells of volume * |grad f_tilde|^2, with
    the gradient taken in the plane of each cell.
    """
    geom = cell_geometry(fs)
    if fs.dim_d == 1:
        inv = 1.0 / geom.volumes
        local = inv[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])[None]
        return _scatter_local(fs, local)
    _, _, g11, g12, g22, det = _edge_gram(geom)
    ginv = np.empty((fs.n_cells, 2, 2))
    ginv[:, 0, 0] = g22
    ginv[:, 1, 1] = g11
    ginv[:, 0, 1] = -g12
    ginv[:, 1, 0] = -g12
    ginv /= det[:, None, None]
    local = geom.volumes[:, None, None] * np.einsum(
        "ia,tij,jb->tab", _EDGE_DIFF, ginv, _EDGE_DIFF
    )
    return _scatter_local(fs, local)


def assemble_h1(fs: DiscreteFshape) -> sparse.csr_matrix:
    """H1 metric matrix: P1-exact mass plus gradient stiffness."""
    return (assemble_mass_p1(fs) + assemble_stiffness(fs)).tocsr()


def assemble_metric(fs: DiscreteFshape, metric: FunctionalMetric) -> sparse.csr_matrix:
    if metric.order == 1:
        return assemble_h1(fs)
    if metric.scheme == "lumped":
        return assemble_mass_lumped(fs)
    return assemble_mass_p1(fs)


def quadratic_form(A: sparse.spmatrix, f: np.ndarray) -> float:
    f = np.asarray(f, dtype=float)
    return float(f @ (A @ f))


def solve_spd(
    A: sparse.spmatrix,
    rhs: np.ndarray,
    rtol: float = SOLVER_RTOL,
    max_iters: int | None = None,
) -> np.ndarray:
    """Solve A h = rhs for SPD A by Jacobi-preconditioned conjugate gradients.

    Converges when ||A h - rhs|| <= rtol * ||rhs||; raises RuntimeError with
    the achieved residual if the iteration cap (default 10 * P) is exhausted.
    """
    rhs = np.asarray(rhs, dtype=float)
    P = A.shape[0]
    if rhs.shape != (P,):
        raise ValueError(f"rhs shape {rhs.shape} != ({P},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros(P)
    if max_iters is None:
        max_iters = 10 * P
    inv_diag = 1.0 / A.diagonal()
    x = np.zeros(P)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    target = rtol * b_norm
    for _ in range(max_iters):
        if np.linalg.norm(r) <= target:
            return x
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0 or not np.isfinite(pAp):
            achieved = np.linalg.norm(r) / b_norm
            raise RuntimeError(
                f"conjugate gradients broke down (matrix not SPD?); "
                f"relative residual {achieved:.3e}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    achieved = np.linalg.norm(r) / b_norm
    if achieved <= rtol:
        return x
    raise RuntimeError(
        f"conjugate gradients did not converge in {max_iters} iterations "
        f"(relative residual {achieved:.3e}, target {rtol:.1e})"
    )


def _p1_mass_cell_form(fs: DiscreteFshape, hc: np.ndarray) -> np.ndarray:
    """Per-cell value of the edge-midpoint mass form at the given values."""
    if fs.dim_d == 1:
        mid = 0.5 * (hc[:, 0] + hc[:, 1])
        return (hc[:, 0] ** 2 + 4.0 * mid**2 + hc[:, 1] ** 2) / 6.0
    m01 = 0.5 * (hc[:, 0] + hc[:, 1])
    m12 = 0.5 * (hc[:, 1] + hc[:, 2])
    m20 = 0.5 * (hc[:, 2] + hc[:, 0])
    return (m01**2 + m12**2 + m20**2) / 3.0


def metric_form_grad_x(
    fs: DiscreteFshape, metric: FunctionalMetric, h: np.ndarray
) -> np.ndarray:
    """Gradient of h^T D(x) h w.r.t. all vertex positions, for fixed h.

    Assembled cell by cell from the volume gradients and, for order 1, the
    derivative of the in-plane interpolant gradient.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (fs.n_vertices,):
        raise ValueError(f"h shape {h.shape} != ({fs.n_vertices},)")
    geom = cell_geometry(fs)
    vol_grads = geom.volume_grads
    hc = h[fs.cells]
    if metric.scheme == "lumped" and metric.order == 0:
        cell_form = (hc**2).sum(axis=1) / (fs.dim_d + 1)
    else:
        cell_form = _p1_mass_cell_form(fs, hc)
    grad = np.zeros_like(fs.vertices)
    np.add.at(grad, fs.cells, cell_form[:, None, None] * vol_grads)
    if metric.order == 0:
        return grad
    # Stiffness part: d( volume * |grad h_tilde|^2 ).
    if fs.dim_d == 1:
        delta = hc[:, 1] - hc[:, 0]
        sq = (delta / geom.volumes) ** 2
        # d(delta^2 / L) = -(delta/L)^2 dL
        contrib = -sq[:, None, None] * vol_grads
        np.add.at(grad, fs.cells, contrib)
        return grad
    e1, e2, g11, g12, g22, det = _edge_gram(geom)
    d1 = hc[:, 1] - hc[:, 0]
    d2 = hc[:, 2] - hc[:, 0]
    b1 = (g22 * d1 - g12 * d2) / det
    b2 = (-g12 * d1 + g11 * d2) / det
    gvec = b1[:, None] * e1 + b2[:, None] * e2  # the interpolant gradient
    grad_sq = d1 * b1 + d2 * b2  # |grad h_tilde|^2
    contrib = np.zeros_like(vol_grads)
    contrib += grad_sq[:, None, None] * vol_grads
    # volume * d(|grad|^2) = -2 volume * (de1 . b1 g + de2 . b2 g)
    r2 = 2.0 * geom.volumes
    contrib[:, 1] -= (r2 * b1)[:, None] * gvec
    contrib[:, 2] -= (r2 * b2)[:, None] * gvec
    contrib[:, 0] += (r2 * (b1 + b2))[:, None] * gvec
    np.add.at(grad, fs.cells, contrib)
    return grad
