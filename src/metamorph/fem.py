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

The H1 metric holds the summed mass and stiffness locals. Their x-gradients
are one per-cell routine, symmetric under (a, ga) <-> (b, gb):

    F(G; a, b; ga, gb) = (a^T M b) G + (ga . gb) G - [(G ga) gb^T + (G gb) ga^T]

with the gradient terms for H1 only: the form gradient is F(G; h, h; g, g).
The adjoint's closed-form products differentiate it once more along vertex
velocities w: ``metric_tangent`` forms dvol = sum_i G_i . w_i and dG, the
derivative of the volume gradients, once per cell, and from them dD[w] h and,
by the product rule, the form gradient's derivative
F(dG; h, h; g, g) + 2 F(G; dh, h; dg, g).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fshape import CellGeometry, DiscreteFshape, ShootingDiverged, cell_geometry, scatter_cells

SOLVER_RTOL = 1e-10

# Reference local mass matrices M per (scheme, d): (1 + delta_ij) / ((d+1)(d+2))
# for P1, I / (d+1) for lumped.
_MASS_LOCAL = {
    **{("p1", d): (1.0 + np.eye(d + 1)) / ((d + 1) * (d + 2)) for d in (1, 2)},
    **{("lumped", d): np.eye(d + 1) / (d + 1) for d in (1, 2)},
}


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

    def diagonal(self) -> np.ndarray:
        diag = self.blocks if self.is_diagonal else np.diagonal(self.blocks, axis1=1, axis2=2)
        return scatter_cells(self.cells, diag, self.n_vertices)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        vc = v[self.cells]
        local = self.blocks * vc if self.is_diagonal else np.einsum("tij,tj->ti", self.blocks, vc)
        return scatter_cells(self.cells, local, self.n_vertices)


def lumped_vertex_weights(fs: DiscreteFshape) -> np.ndarray:
    """Per-vertex share of adjacent cell volumes: 1/(d+1) of each cell."""
    return assemble_metric(fs, FunctionalMetric(0, "lumped")).diagonal()


def _stiffness_local(geom: CellGeometry) -> np.ndarray:
    """Per-cell P1 stiffness G G^T / vol, shape (T, d+1, d+1)."""
    G = geom.volume_grads
    return (G @ G.transpose(0, 2, 1)) / geom.volumes[:, None, None]


def assemble_metric(fs: DiscreteFshape, metric: FunctionalMetric) -> CellMatrix:
    """The signal-metric matrix D(x): lumped or P1 mass, plus stiffness for H1."""
    geom = cell_geometry(fs)
    m = fs.dim_d + 1
    if metric.scheme == "lumped":
        return CellMatrix(fs.cells, np.repeat(geom.volumes[:, None] / m, m, axis=1), fs.n_vertices)
    local = geom.volumes[:, None, None] * _MASS_LOCAL["p1", fs.dim_d]
    if metric.order == 1:
        local = local + _stiffness_local(geom)
    return CellMatrix(fs.cells, local, fs.n_vertices)


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


def _cell_terms(fs: DiscreteFshape, metric: FunctionalMetric, h: np.ndarray):
    """The cell geometry, h per cell, the reference mass M and, for H1, the
    interpolant gradient g = G^T h / vol (else None)."""
    geom = cell_geometry(fs)
    hc = np.asarray(h, dtype=float)[fs.cells]
    g = None
    if metric.order == 1:
        g = np.einsum("ti,tin->tn", hc, geom.volume_grads) / geom.volumes[:, None]
    return geom, hc, _MASS_LOCAL[metric.scheme, fs.dim_d], g


def _form_grad_cells(G, M, a, b, ga, gb) -> np.ndarray:
    """Per-cell F(G; a, b; ga, gb) of the module docstring, shape (T, m, n);
    the gradient terms only when ga and gb are given."""
    out = np.einsum("ti,ij,tj->t", a, M, b)[:, None, None] * G
    if ga is not None:
        out += np.einsum("tn,tn->t", ga, gb)[:, None, None] * G
        cross = np.einsum("tin,tn->ti", G, ga)[:, :, None] * gb[:, None, :]
        # (G gb) ga^T is the same term when gb is ga, as in F(G; h, h; g, g)
        other = cross if gb is ga else np.einsum("tin,tn->ti", G, gb)[:, :, None] * ga[:, None, :]
        out -= cross + other
    return out


def metric_form_grad_x(
    fs: DiscreteFshape, metric: FunctionalMetric, h: np.ndarray
) -> np.ndarray:
    """Gradient of h^T D(x) h w.r.t. all vertex positions, for fixed h: the
    scatter of F(G; h, h; g, g), that is (h_t^T M h_t) G_i for the mass plus
    |g|^2 G_i - 2 (G_i . g) g for the H1 stiffness.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (fs.n_vertices,):
        raise ValueError(f"h shape {h.shape} != ({fs.n_vertices},)")
    geom, hc, M, g = _cell_terms(fs, metric, h)
    contrib = _form_grad_cells(geom.volume_grads, M, hc, hc, g, g)
    return scatter_cells(fs.cells, contrib, fs.n_vertices)


def _volume_grads_tangent(fs: DiscreteFshape, geom: CellGeometry, wc: np.ndarray):
    """Derivatives (dvol, dG) of the cell volumes and volume gradients along
    the per-cell vertex velocities wc, shape (T, d+1, n).

    Curves: G_1 = -G_0 is the unit tangent t, so dG_1 = (I - t t^T) de / vol.
    Triangles: G_1 = e2 x n / 2 and G_2 = n x e1 / 2 with n the unit normal,
    whose derivative is (I - n n^T) d(e1 x e2) / (2 vol).
    """
    G = geom.volume_grads
    dvol = np.einsum("tin,tin->t", G, wc)
    de = wc[:, 1:] - wc[:, :1]
    frames = geom.frames
    if fs.dim_d == 1:
        dt = de[:, 0] - frames * np.einsum("tn,tn->t", frames, de[:, 0])[:, None]
        dt /= geom.volumes[:, None]
        return dvol, np.stack((-dt, dt), axis=1)
    e1, e2 = geom.edges[:, 0], geom.edges[:, 1]
    draw = np.cross(de[:, 0], e2) + np.cross(e1, de[:, 1])
    dn = draw - frames * np.einsum("tn,tn->t", frames, draw)[:, None]
    dn /= 2.0 * geom.volumes[:, None]
    g1 = 0.5 * (np.cross(de[:, 1], frames) + np.cross(e2, dn))
    g2 = 0.5 * (np.cross(dn, e1) + np.cross(frames, de[:, 0]))
    return dvol, np.stack((-(g1 + g2), g1, g2), axis=1)


def metric_tangent(
    fs: DiscreteFshape, metric: FunctionalMetric, h: np.ndarray, wx: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The metric's derivatives along vertex velocities wx at h: dD[wx] h,
    and the map dh -> derivative of ``metric_form_grad_x(fs, metric, h)`` as
    the vertices move along wx and h along dh.

    Per cell, dD[wx] h is dvol M h for the mass, and, since the H1 stiffness
    block is G G^T / vol, dG g + G q for it, with q = (dG^T h - g dvol) / vol
    the part of dg that does not depend on dh. The form gradient's derivative
    is F(dG; h, h; g, g) + 2 F(G; dh, h; dg, g), with dg = q + G^T dh / vol.
    """
    geom, hc, M, g = _cell_terms(fs, metric, h)
    G = geom.volume_grads
    dvol, dG = _volume_grads_tangent(fs, geom, np.asarray(wx, dtype=float)[fs.cells])
    local = dvol[:, None] * (hc @ M)
    if g is not None:
        q = (np.einsum("ti,tin->tn", hc, dG) - g * dvol[:, None]) / geom.volumes[:, None]
        local += np.einsum("tin,tn->ti", dG, g) + np.einsum("tin,tn->ti", G, q)
    along_wx = _form_grad_cells(dG, M, hc, hc, g, g)

    def form_grad_dx(dh: np.ndarray) -> np.ndarray:
        dhc = np.asarray(dh, dtype=float)[fs.cells]
        dg = None if g is None else q + np.einsum("ti,tin->tn", dhc, G) / geom.volumes[:, None]
        contrib = along_wx + 2.0 * _form_grad_cells(G, M, dhc, hc, dg, g)
        return scatter_cells(fs.cells, contrib, fs.n_vertices)

    return scatter_cells(fs.cells, local, fs.n_vertices), form_grad_dx
