"""Finite-element signal metrics on polyhedral meshes.

Holds the SPD matrices behind the L2 and H1 signal norms as their per-cell
blocks, never assembled, and multiplies element by element (Hughes, Levit &
Winget, 1983). Solves the associated linear systems with Jacobi-preconditioned
conjugate gradients (the lumped metric, a diagonal, by one division), and
differentiates the quadratic form w.r.t. vertex positions. Curves and surfaces
share one formula, read from the volume gradients of the fshape's memoised
``cell_geometry`` record: G_i = d(vol)/d(x_i) = vol * grad(lambda_i), with
lambda_i the barycentric coordinate of cell vertex i. On a cell with vertex
values h_t,

* the mass form is vol * h_t^T M h_t, with M the one reference matrix of
  the scheme: (1 + delta_ij) / ((d+1)(d+2)) for P1, I / (d+1) for lumped
  (held as the blocks' diagonals, whose scatter is
  ``lumped_vertex_weights``). Its x-gradient at vertex i is
  (h_t^T M h_t) G_i;
* the stiffness form is vol * |g|^2, with g = sum_i h_i G_i / vol the
  gradient of the P1 interpolant, so its local matrix is G G^T / vol (the
  cotangent Laplacian for triangles; Pinkall & Polthier, 1993). Its
  x-gradient at vertex i is |g|^2 G_i - 2 (G_i . g) g.

The H1 metric holds the summed mass and stiffness locals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fshape import CellGeometry, DiscreteFshape, ShootingDiverged, cell_geometry

SOLVER_RTOL = 1e-10

# Reference local matrices of the P1-exact mass: (1 + delta_ij) / ((d+1)(d+2)).
_MASS_LOCAL = {d: (1.0 + np.eye(d + 1)) / ((d + 1) * (d + 2)) for d in (1, 2)}


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


@dataclass(frozen=True)
class CellMatrix:
    """A P x P matrix held as the sum of its per-cell blocks: ``blocks[t]``
    couples the vertices ``cells[t]``, as (T, m, m) local matrices or (T, m)
    diagonals (the lumped metric). ``A @ v`` gathers ``v[cells]``, applies
    the blocks and scatters the sums back with ``np.bincount``.
    """

    cells: np.ndarray
    blocks: np.ndarray
    n_vertices: int

    @property
    def is_diagonal(self) -> bool:
        return self.blocks.ndim == 2

    def _scatter(self, local: np.ndarray) -> np.ndarray:
        return np.bincount(self.cells.ravel(), weights=local.ravel(), minlength=self.n_vertices)

    def diagonal(self) -> np.ndarray:
        return self._scatter(
            self.blocks if self.is_diagonal else np.diagonal(self.blocks, axis1=1, axis2=2)
        )

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        vc = v[self.cells]
        if self.is_diagonal:
            return self._scatter(self.blocks * vc)
        return self._scatter(np.einsum("tij,tj->ti", self.blocks, vc))


def lumped_vertex_weights(fs: DiscreteFshape) -> np.ndarray:
    """Per-vertex share of adjacent cell volumes: 1/(d+1) of each cell."""
    return assemble_metric(fs, FunctionalMetric(0, "lumped")).diagonal()


def _stiffness_local(geom: CellGeometry) -> np.ndarray:
    """Per-cell P1 stiffness G G^T / vol, shape (T, d+1, d+1)."""
    G = geom.volume_grads
    return (G @ G.transpose(0, 2, 1)) / geom.volumes[:, None, None]


def assemble_stiffness(fs: DiscreteFshape) -> CellMatrix:
    """Stiffness matrix of the cell-constant interpolant gradient.

    Quadratic form value: sum over cells of volume * |grad f_tilde|^2, with
    the gradient taken in the tangent space of each cell.
    """
    return CellMatrix(fs.cells, _stiffness_local(cell_geometry(fs)), fs.n_vertices)


def assemble_metric(fs: DiscreteFshape, metric: FunctionalMetric) -> CellMatrix:
    """The signal-metric matrix D(x): lumped or P1 mass, plus stiffness for H1."""
    geom = cell_geometry(fs)
    m = fs.dim_d + 1
    if metric.scheme == "lumped":
        return CellMatrix(fs.cells, np.repeat(geom.volumes[:, None] / m, m, axis=1), fs.n_vertices)
    local = geom.volumes[:, None, None] * _MASS_LOCAL[fs.dim_d]
    if metric.order == 1:
        local = local + _stiffness_local(geom)
    return CellMatrix(fs.cells, local, fs.n_vertices)


def quadratic_form(A: CellMatrix, f: np.ndarray) -> float:
    f = np.asarray(f, dtype=float)
    return float(f @ (A @ f))


def solve_spd(
    A: CellMatrix,
    rhs: np.ndarray,
    rtol: float = SOLVER_RTOL,
    max_iters: int | None = None,
) -> np.ndarray:
    """Solve A h = rhs for SPD A by Jacobi-preconditioned conjugate gradients,
    or by one division when A's blocks are diagonal with positive sums (the
    lumped metric).

    Converges when ||A h - rhs|| <= rtol * ||rhs||. Raises ShootingDiverged
    for a non-finite right-hand side, on breakdown, and with the achieved
    residual if the iteration cap (default 10 * P) is exhausted.
    """
    rhs = np.asarray(rhs, dtype=float)
    P = A.n_vertices
    if rhs.shape != (P,):
        raise ValueError(f"rhs shape {rhs.shape} != ({P},)")
    if not np.all(np.isfinite(rhs)):
        raise ShootingDiverged("rhs contains non-finite entries")
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros(P)
    diag = A.diagonal()
    if A.is_diagonal and np.all(diag > 0):
        return rhs / diag
    if max_iters is None:
        max_iters = 10 * P
    inv_diag = 1.0 / diag
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
            raise ShootingDiverged(
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
    raise ShootingDiverged(
        f"conjugate gradients did not converge in {max_iters} iterations "
        f"(relative residual {achieved:.3e}, target {rtol:.1e})"
    )


def metric_form_grad_x(
    fs: DiscreteFshape, metric: FunctionalMetric, h: np.ndarray
) -> np.ndarray:
    """Gradient of h^T D(x) h w.r.t. all vertex positions, for fixed h.

    Per cell: (h_t^T M h_t) G_i for the mass, plus |g|^2 G_i - 2 (G_i . g) g
    for the H1 stiffness; see the module docstring.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (fs.n_vertices,):
        raise ValueError(f"h shape {h.shape} != ({fs.n_vertices},)")
    geom = cell_geometry(fs)
    G = geom.volume_grads
    hc = h[fs.cells]
    d = fs.dim_d
    M = np.eye(d + 1) / (d + 1) if metric.scheme == "lumped" else _MASS_LOCAL[d]
    contrib = np.einsum("ti,ij,tj->t", hc, M, hc)[:, None, None] * G
    if metric.order == 1:
        g = np.einsum("ti,tin->tn", hc, G) / geom.volumes[:, None]
        Gg = np.einsum("tin,tn->ti", G, g)
        contrib += np.einsum("tn,tn->t", g, g)[:, None, None] * G
        contrib -= 2.0 * Gg[:, :, None] * g[:, None, :]
    grad = np.zeros_like(fs.vertices)
    np.add.at(grad, fs.cells, contrib)
    return grad
