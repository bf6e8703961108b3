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

The H1 metric holds the summed mass and stiffness locals. The adjoint's
closed-form products differentiate both once more along vertex velocities w:
``metric_tangent`` forms dvol = sum_i G_i . w_i and dG, the derivative of the
volume gradients, once per cell, and from them both dD[w] h and the derivative
of the form gradient.
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


def _scatter_cells(cells: np.ndarray, local: np.ndarray, n_vertices: int) -> np.ndarray:
    """Sum per-cell vertex values onto the vertices: ``local[t, i]`` (a scalar
    or an n-vector) is added to vertex ``cells[t, i]``, in cell order, by one
    ``np.bincount`` per component."""
    idx = cells.ravel()
    if local.ndim == 2:
        return np.bincount(idx, weights=local.ravel(), minlength=n_vertices)
    flat = local.reshape(idx.size, -1)
    return np.stack(
        [np.bincount(idx, weights=flat[:, k], minlength=n_vertices) for k in range(flat.shape[1])],
        axis=1,
    )


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
        return _scatter_cells(self.cells, local, self.n_vertices)

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
    return _scatter_cells(fs.cells, contrib, fs.n_vertices)


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


@dataclass(frozen=True)
class MetricTangent:
    """The signal metric differentiated along vertex velocities wx at a fixed
    h, from one set of per-cell terms: ``dD_h`` is dD[wx] h, and
    ``form_grad_x(dh)`` the derivative of ``metric_form_grad_x(fs, metric, h)``
    as the vertices move along wx and h along dh. Built by ``metric_tangent``.
    """

    cells: np.ndarray
    n_vertices: int
    G: np.ndarray  # (T, m, n) volume gradients and their derivative dG
    dG: np.ndarray
    hc: np.ndarray  # (T, m) h per cell, and M h with M the local mass
    Mh: np.ndarray
    stiffness: tuple | None  # H1: (vol, g, q, dG g), else None
    dD_h: np.ndarray

    def form_grad_x(self, dh: np.ndarray) -> np.ndarray:
        """Per cell: (h^T M h) dG_i + 2 (dh^T M h) G_i for the mass; for the
        H1 stiffness, the derivative of |g|^2 G_i - 2 (G_i . g) g with
        dg = q + G^T dh / vol.
        """
        G, dG = self.G, self.dG
        dhc = np.asarray(dh, dtype=float)[self.cells]
        contrib = np.einsum("ti,ti->t", self.hc, self.Mh)[:, None, None] * dG
        contrib += 2.0 * np.einsum("ti,ti->t", dhc, self.Mh)[:, None, None] * G
        if self.stiffness is not None:
            vol, g, q, dG_g = self.stiffness
            dg = q + np.einsum("ti,tin->tn", dhc, G) / vol
            Gg = np.einsum("tin,tn->ti", G, g)
            dGg = dG_g + np.einsum("tin,tn->ti", G, dg)
            contrib += 2.0 * np.einsum("tn,tn->t", g, dg)[:, None, None] * G
            contrib += np.einsum("tn,tn->t", g, g)[:, None, None] * dG
            contrib -= 2.0 * (dGg[:, :, None] * g[:, None, :] + Gg[:, :, None] * dg[:, None, :])
        return _scatter_cells(self.cells, contrib, self.n_vertices)


def metric_tangent(
    fs: DiscreteFshape, metric: FunctionalMetric, h: np.ndarray, wx: np.ndarray
) -> MetricTangent:
    """The metric's derivatives along vertex velocities wx at h.

    Per cell, dD[wx] h is dvol M h for the mass, and, since the H1 stiffness
    block is G G^T / vol, dG g + G q for it, with g = G^T h / vol and
    q = (dG^T h - g dvol) / vol the part of dg that does not depend on dh.
    """
    geom = cell_geometry(fs)
    G = geom.volume_grads
    dvol, dG = _volume_grads_tangent(fs, geom, np.asarray(wx, dtype=float)[fs.cells])
    hc = np.asarray(h, dtype=float)[fs.cells]
    d = fs.dim_d
    M = np.eye(d + 1) / (d + 1) if metric.scheme == "lumped" else _MASS_LOCAL[d]
    Mh = hc @ M
    local = dvol[:, None] * Mh
    stiffness = None
    if metric.order == 1:
        vol = geom.volumes[:, None]
        g = np.einsum("ti,tin->tn", hc, G) / vol
        q = (np.einsum("ti,tin->tn", hc, dG) - g * dvol[:, None]) / vol
        dGg = np.einsum("tin,tn->ti", dG, g)
        local += dGg + np.einsum("tin,tn->ti", G, q)
        stiffness = (vol, g, q, dGg)
    dD_h = _scatter_cells(fs.cells, local, fs.n_vertices)
    return MetricTangent(fs.cells, fs.n_vertices, G, dG, hc, Mh, stiffness, dD_h)
