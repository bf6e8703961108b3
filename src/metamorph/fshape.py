"""Discrete functional shapes: simplicial meshes carrying a per-vertex scalar signal.

A functional shape (fshape) is a polyhedral mesh of dimension d (1 = polyline,
2 = triangle surface) embedded in R^n (n = 2 or 3), with one scalar signal
value attached to each vertex. All types here are immutable value objects and
safe to share across threads.

``cell_geometry`` is the one place where per-cell geometry (edges, volumes,
frames, volume gradients) is computed. Since an fshape never changes, its
record is memoised on the instance: every later call on the same fshape
returns the same object. Two threads that race on a fresh fshape at worst
both compute the same record, and one of the two is kept.
``cell_pattern`` is the sparsity pattern of a matrix summed from per-cell
blocks. It depends on the cells alone, so it is memoised once per
connectivity: ``with_`` copies share one memo with their original, and a
pattern built on any of them serves all (a race at worst builds it twice,
like the geometry record). ``scatter_cells`` is the one sum of
per-cell vertex values onto the vertices, for the metrics, their gradients
and the fidelity's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A cell counts as degenerate when its d-volume is at or below this fraction
# of (bounding-box diagonal)^d.
DEGENERATE_VOLUME_RTOL = 1e-12

# Supported (simplex dimension, ambient dimension) pairs. Surfaces need an
# ambient normal, hence d=2 requires n=3.
_VALID_DIMS = {(1, 2), (1, 3), (2, 3)}


class ShootingDiverged(ValueError, RuntimeError):
    """A shot left the domain where the flow is defined: a degenerate cell,
    a non-finite state or adjoint, or a signal-metric solve that failed.

    Subclasses both ValueError and RuntimeError, so a caller that catches
    either still catches it; the line search of ``match`` catches only this.
    """


def _frozen(a, dtype=np.float64) -> np.ndarray:
    """Return a read-only C-contiguous array; shares already-frozen inputs."""
    arr = np.asarray(a, dtype=dtype)
    if arr is a and not arr.flags.writeable and arr.flags.c_contiguous:
        return arr
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DiscreteFshape:
    """Textured simplicial mesh.

    Parameters
    ----------
    vertices : (P, n) float array
        Vertex coordinates.
    signals : (P,) float array
        Scalar signal value per vertex.
    cells : (T, d+1) int array
        0-based vertex indices of each d-simplex.
    """

    vertices: np.ndarray
    signals: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        v = _frozen(self.vertices)
        f = _frozen(self.signals)
        c = _frozen(self.cells, dtype=np.int64)
        if v.ndim != 2:
            raise ValueError("vertices must be a P x n matrix")
        if c.ndim != 2:
            raise ValueError("cells must be a T x (d+1) matrix")
        if f.ndim != 1 or f.shape[0] != v.shape[0]:
            raise ValueError(
                f"signals length {f.shape} does not match vertex count {v.shape[0]}"
            )
        d = c.shape[1] - 1
        n = v.shape[1]
        if (d, n) not in _VALID_DIMS:
            raise ValueError(f"unsupported simplex/ambient dimensions (d={d}, n={n})")
        if c.shape[0] < 1:
            raise ValueError("mesh must contain at least one cell")
        if v.shape[0] < d + 1:
            raise ValueError("mesh must contain at least d+1 vertices")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "signals", f)
        object.__setattr__(self, "cells", c)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def dim_d(self) -> int:
        return self.cells.shape[1] - 1

    @property
    def dim_n(self) -> int:
        return self.vertices.shape[1]

    def with_(self, vertices=None, signals=None) -> "DiscreteFshape":
        """Copy with replaced vertices and/or signals, same connectivity; the
        copy shares this fshape's connectivity memo (``cell_pattern``)."""
        out = DiscreteFshape(
            vertices=self.vertices if vertices is None else vertices,
            signals=self.signals if signals is None else signals,
            cells=self.cells,
        )
        out.__dict__["_connectivity"] = self.__dict__.setdefault("_connectivity", {})
        return out


@dataclass(frozen=True)
class ShootingState:
    """State + co-state carried by the Hamiltonian flow.

    x, p are (P, n); f, pf are (P,). pf is constant in time along geodesics.
    """

    x: np.ndarray
    f: np.ndarray
    p: np.ndarray
    pf: np.ndarray

    def __post_init__(self):
        x = _frozen(self.x)
        f = _frozen(self.f)
        p = _frozen(self.p)
        pf = _frozen(self.pf)
        if x.shape != p.shape or x.ndim != 2:
            raise ValueError("x and p must both be P x n matrices")
        if f.shape != pf.shape or f.shape != (x.shape[0],):
            raise ValueError("f and pf must be length-P vectors")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pf", pf)


@dataclass(frozen=True)
class AdjointState:
    """Adjoint (co-state sensitivity) variables paired with a ShootingState."""

    X: np.ndarray
    F: np.ndarray
    Pvar: np.ndarray
    Pf: np.ndarray

    def __post_init__(self):
        X = _frozen(self.X)
        F = _frozen(self.F)
        Pvar = _frozen(self.Pvar)
        Pf = _frozen(self.Pf)
        if X.shape != Pvar.shape or X.ndim != 2:
            raise ValueError("X and Pvar must both be P x n matrices")
        if F.shape != Pf.shape or F.shape != (X.shape[0],):
            raise ValueError("F and Pf must be length-P vectors")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Pvar", Pvar)
        object.__setattr__(self, "Pf", Pf)


@dataclass(frozen=True)
class CellGeometry:
    """Per-cell geometry of one mesh state.

    centers (T, n)
        Barycenters.
    volumes (T,)
        d-volumes (lengths for d=1, areas for d=2).
    frames (T, n)
        Unit frames: for d=2 the oriented unit normal from the stored vertex
        order; for d=1 the unit tangent along the segment. The raw frame
        they normalize (the edge, or the edge cross product) has norm
        d * volume.
    cell_signals (T,)
        Mean vertex signal of each cell.
    edges (T, d, n)
        Edge vectors from each cell's first vertex to its other vertices.
    volume_grads (T, d+1, n)
        Entry [t, j] is d(volume_t)/d(vertex j of t).
    """

    centers: np.ndarray
    volumes: np.ndarray
    frames: np.ndarray
    cell_signals: np.ndarray
    edges: np.ndarray
    volume_grads: np.ndarray


@dataclass(frozen=True)
class CellPattern:
    """Compressed-sparse-row pattern of a P x P matrix summed from per-cell
    (d+1) x (d+1) blocks: one slot per vertex pair that shares a cell, and one
    per diagonal entry, so no row is empty.

    cols (nnz,)
        Column of each slot; slots are sorted by row, then column.
    row_starts (P,)
        First slot of each row.
    diagonal (P,)
        Slot of each diagonal entry (i, i).
    slots (T, d+1, d+1)
        Entry [t, i, j] is the slot of (cells[t, i], cells[t, j]).
    """

    cols: np.ndarray
    row_starts: np.ndarray
    diagonal: np.ndarray
    slots: np.ndarray

    @classmethod
    def from_cells(cls, cells: np.ndarray, n_vertices: int) -> "CellPattern":
        # entry (i, j) is the key i * P + j; the P diagonal keys come last
        block_keys = cells[:, :, None] * n_vertices + cells[:, None, :]
        vertices = np.arange(n_vertices)
        keys = np.concatenate((block_keys.ravel(), vertices * (n_vertices + 1)))
        unique, slot = np.unique(keys, return_inverse=True)
        fields = (
            unique % n_vertices,
            np.searchsorted(unique, vertices * n_vertices),
            slot[block_keys.size :],
            slot[: block_keys.size].reshape(block_keys.shape),
        )
        for a in fields:  # fresh arrays of this call: frozen in place, not copied
            a.setflags(write=False)
        return cls(*fields)


def cell_pattern(fs: DiscreteFshape) -> CellPattern:
    """The sparsity pattern of fs's cells, built on first use and memoised on
    fs's connectivity memo, which its ``with_`` copies share."""
    memo = fs.__dict__.setdefault("_connectivity", {})
    pattern = memo.get("pattern")
    if pattern is None:
        pattern = memo["pattern"] = CellPattern.from_cells(fs.cells, fs.n_vertices)
    return pattern


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of 3-vectors along the last axis: ``np.cross``'s
    products and differences, term for term, without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def scatter_cells(cells: np.ndarray, local: np.ndarray, n_vertices: int) -> np.ndarray:
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


def bounding_box_diagonal(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))


def _measure(fs: DiscreteFshape):
    """Cell points, edges, raw frames (norm d * volume), d-volumes and the
    indices of degenerate cells (d-volume at or below the cutoff)."""
    pts = fs.vertices[fs.cells]
    edges = pts[:, 1:] - pts[:, :1]
    raw = edges[:, 0] if fs.dim_d == 1 else cross(edges[:, 0], edges[:, 1])
    volumes = np.linalg.norm(raw, axis=1) / fs.dim_d
    diag = bounding_box_diagonal(fs.vertices)
    bad = np.flatnonzero(volumes <= DEGENERATE_VOLUME_RTOL * diag**fs.dim_d)
    return pts, edges, raw, volumes, bad


def degenerate_cells(fs: DiscreteFshape) -> np.ndarray:
    """Indices of cells whose d-volume falls below the degeneracy cutoff."""
    return _measure(fs)[-1]


def validate_fshape(fs: DiscreteFshape) -> list[str]:
    """Check all fshape invariants; returns a list of violation messages.

    Reports, never raises: an empty list means the fshape is well formed.
    Each message names the offending cell or vertex.
    """
    violations: list[str] = []
    P = fs.n_vertices
    finite = np.isfinite(fs.vertices).all(axis=1)
    for i in np.flatnonzero(~finite):
        violations.append(f"vertex {i}: non-finite coordinates {fs.vertices[i].tolist()}")
    for i in np.flatnonzero(~np.isfinite(fs.signals)):
        violations.append(f"vertex {i}: non-finite signal {fs.signals[i]}")
    cells = fs.cells
    out_of_range = (cells < 0) | (cells >= P)
    for t in np.flatnonzero(out_of_range.any(axis=1)):
        bad = cells[t][out_of_range[t]]
        violations.append(
            f"cell {t}: vertex index {bad[0]} out of range [0, {P})"
        )
    sorted_cells = np.sort(cells, axis=1)
    repeated = (np.diff(sorted_cells, axis=1) == 0).any(axis=1)
    for t in np.flatnonzero(repeated):
        violations.append(f"cell {t}: repeated vertex indices {cells[t].tolist()}")
    # Volume check only where indices are usable and every vertex is finite.
    usable = ~(out_of_range.any(axis=1) | repeated)
    if usable.any() and finite.all():
        sub = DiscreteFshape(fs.vertices, fs.signals, cells[usable])
        bad_local = degenerate_cells(sub)
        original = np.flatnonzero(usable)[bad_local]
        for t in original:
            violations.append(f"cell {t}: degenerate (zero d-volume)")
    return violations


def cell_geometry(fs: DiscreteFshape) -> CellGeometry:
    """The cell geometry of fs, computed on first use and memoised on fs.

    Raises
    ------
    ShootingDiverged
        If any cell is degenerate (names the first offending cell).
    """
    geom = fs.__dict__.get("_geometry")
    if geom is None:
        geom = _compute_geometry(fs)
        fs.__dict__["_geometry"] = geom
    return geom


def _compute_geometry(fs: DiscreteFshape) -> CellGeometry:
    pts, edges, raw, volumes, bad = _measure(fs)
    if bad.size:
        raise ShootingDiverged(f"cell {bad[0]} is degenerate (d-volume {volumes[bad[0]]:g})")
    frames = raw / (fs.dim_d * volumes)[:, None]
    volume_grads = np.zeros((fs.n_cells, fs.dim_d + 1, fs.dim_n))
    if fs.dim_d == 1:
        volume_grads[:, 1] = frames
        volume_grads[:, 0] = -frames
    else:
        # d(area) = 0.5 * n_hat . (de1 x e2 + e1 x de2)
        g1 = 0.5 * cross(edges[:, 1], frames)
        g2 = 0.5 * cross(frames, edges[:, 0])
        volume_grads[:, 1] = g1
        volume_grads[:, 2] = g2
        volume_grads[:, 0] = -(g1 + g2)
    centers, cell_signals = pts.mean(axis=1), fs.signals[fs.cells].mean(axis=1)
    fields = (centers, volumes, frames, cell_signals, edges, volume_grads)
    for a in fields:  # fresh arrays of this call: frozen in place, not copied
        a.setflags(write=False)
    return CellGeometry(*fields)
