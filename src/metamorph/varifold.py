"""Kernel varifold fidelity between textured meshes.

A mesh is summarized by one weighted Dirac per cell carrying (barycenter,
unit frame, d-volume, mean signal). The fidelity is the squared kernel-metric
distance between the two Dirac sums, with positive kernels on positions,
signal values and frames; gradients are chained back to vertex positions and
vertex signals through the per-cell edges, frames and volume gradients of the
mesh's memoised ``cell_geometry`` record.

Every sum over cell pairs is one row-tiled sweep over the rows of mu and a
stack of weighted columns, on the ``kernels`` tiles: each tile's centre and
signal distances (``kernels._sq_dists_into``), radial profiles and frame
kernel go into per-call buffers and are reduced at once into the outputs, in
O(T * T') time and O(tile * (T + T')) working memory with no T x T' matrix.
<mu, mu> - 2 <mu, nu> is one sweep over the columns [mu; nu] that runs the
mu-mu blocks from the diagonal rightward and counts those right of it twice;
the gradient is one sweep over the same columns that gives all four per-cell
partials, with k and k' from one exp per profile term. Frames are checked to
be unit vectors once, when a ``DiscreteVarifold`` is built. The target's
self-term <nu, nu> does not depend on the moving mesh, so each target
varifold computes it once per kernel triple and ``fidelity`` reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fshape import DiscreteFshape, cell_geometry, _frozen
from .kernels import (
    GrassmannKernelSpec,
    RadialKernelSpec,
    _profile,
    _profile_pair,
    _sq_dists_into,
    _tiles,
)

UNIT_FRAME_TOL = 1e-8


@dataclass(frozen=True)
class VarifoldKernels:
    """Kernel triple (position, signal, frame) defining the fidelity."""

    kp: RadialKernelSpec
    kf: RadialKernelSpec
    kt: GrassmannKernelSpec

    def rescaled(self, scale_p: float, scale_f: float) -> "VarifoldKernels":
        """Coarse-to-fine helper: scale position/signal kernel widths."""
        return VarifoldKernels(
            self.kp.rescaled(scale_p), self.kf.rescaled(scale_f), self.kt
        )


@dataclass(frozen=True)
class DiscreteVarifold:
    """Weighted Dirac sum over position x signal x frame space.

    ``self_inner(K)`` is memoised per kernel triple on the instance; a race
    between threads only computes the same value twice.
    """

    centers: np.ndarray
    frames: np.ndarray
    weights: np.ndarray
    cell_signals: np.ndarray

    def __post_init__(self):
        c = _frozen(self.centers)
        u = _frozen(self.frames)
        w = _frozen(self.weights)
        s = _frozen(self.cell_signals)
        if c.ndim != 2 or u.shape != c.shape:
            raise ValueError("centers and frames must be T x n matrices")
        if w.shape != (c.shape[0],) or s.shape != (c.shape[0],):
            raise ValueError("weights and cell_signals must be length-T vectors")
        if np.any(w <= 0):
            raise ValueError("varifold weights must be strictly positive")
        off_unit = np.abs(np.linalg.norm(u, axis=1) - 1.0)
        if np.any(off_unit > UNIT_FRAME_TOL):
            raise ValueError(
                f"frames must be unit vectors (max |norm-1| = {float(off_unit.max()):g})"
            )
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "frames", u)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cell_signals", s)

    def self_inner(self, K: VarifoldKernels) -> float:
        """varifold_inner(self, self, K), computed once per kernel triple."""
        cache = self.__dict__.setdefault("_self_inner", {})
        if K not in cache:
            cache[K] = varifold_inner(self, self, K)
        return cache[K]


def to_varifold(fs: DiscreteFshape) -> DiscreteVarifold:
    """One Dirac per cell: barycenter, unit frame, d-volume weight, mean signal."""
    geom = cell_geometry(fs)
    return DiscreteVarifold(
        centers=geom.centers,
        frames=geom.frames,
        weights=geom.volumes,
        cell_signals=geom.cell_signals,
    )


# Tile buffers per sweep: the value needs k_p (with the distance scratch in
# k_f's buffer), k_f and the frame kernel; the partials need k_p, k_p', k_f,
# k_f' and the frame dots.
_VALUE_BUFFERS = 3
_PARTIAL_BUFFERS = 5


def _columns(a: DiscreteVarifold, parts):
    """Columns of a sweep over the rows of a: the cells of each (varifold,
    scale) part stacked in order, as (centres, signals, frames, weights) with
    each part's weights multiplied by its scale."""
    if any(b.centers.shape[1] != a.centers.shape[1] for b, _ in parts):
        raise ValueError("varifolds live in different ambient dimensions")
    return (
        np.concatenate([b.centers for b, _ in parts]),
        np.concatenate([b.cell_signals for b, _ in parts])[:, None],
        np.concatenate([b.frames for b, _ in parts]),
        np.concatenate([scale * b.weights for b, scale in parts]),
    )


def _sweep_value(a: DiscreteVarifold, parts, K: VarifoldKernels, sym: bool) -> float:
    """sum_ij w_i W_j k(a_i, col_j) over the rows of a and the columns of parts,
    with W the columns' scaled weights.

    With ``sym`` the columns open with a itself (scale 1): each row tile
    starts at its diagonal block and counts the a-columns right of that block
    twice, in place of the blocks below the diagonal.
    """
    c, s, u, colw = _columns(a, parts)
    T, m = a.weights.size, colw.size
    doubled = colw.copy()
    if sym:
        doubled[:T] *= 2.0
    total = 0.0
    for rows, first, (kp, kf, kt) in _tiles(T, m, _VALUE_BUFFERS, sym):
        _profile(K.kp, _sq_dists_into(a.centers[rows], c[first:], kp, kf))
        _profile(K.kf, _sq_dists_into(a.cell_signals[rows, None], s[first:], kf, kt))
        kp *= kf
        if K.kt.mode != "constant":
            np.matmul(a.frames[rows], u[first:].T, out=kt)
            if K.kt.mode == "unoriented_squared":
                kt *= kt
            kp *= kt
        cw = doubled[first:]
        if sym:  # the diagonal block counts once
            cw = np.concatenate([colw[rows], cw[rows.stop - rows.start :]])
        total += float(a.weights[rows] @ (kp @ cw))
    return total


def _sweep_partials(a: DiscreteVarifold, parts, K: VarifoldKernels):
    """Partials of sum_ij w_i W_j k(a_i, col_j) w.r.t. a's centres, signals,
    frames and weights, the columns held fixed.

    The frame partial is projected onto the tangent space of each unit frame.
    """
    c, s, u, colw = _columns(a, parts)
    T, m = a.weights.size, colw.size
    # Weighted column data: each reduction is one product with the tile.
    wc = np.column_stack([colw, colw[:, None] * c])
    ws = np.column_stack([colw, colw * s[:, 0]])
    wu = colw[:, None] * u
    dc = np.empty_like(a.centers)
    ds = np.empty(T)
    du = np.zeros_like(a.frames)
    dw = np.empty(T)
    mode = K.kt.mode
    for rows, _, (kp, dkp, kf, dkf, dot) in _tiles(T, m, _PARTIAL_BUFFERS, sym=False):
        _profile_pair(K.kp, _sq_dists_into(a.centers[rows], c, kp, dkp), dkp)
        _profile_pair(K.kf, _sq_dists_into(a.cell_signals[rows, None], s, kf, dkf), dkf)
        dkf *= kp  # k_p k_f'
        kp *= kf  # k_p k_f
        dkp *= kf  # k_p' k_f
        if mode == "constant":
            kf = kp
        else:
            U = a.frames[rows]
            np.matmul(U, u.T, out=dot)
            np.multiply(kp, dot, out=kf)  # k_p k_f (u.v)
            if mode == "unoriented_squared":
                raw = 2.0 * (kf @ wu)  # d/du (u.v)^2 = 2 (u.v) v
                kf *= dot
                dot *= dot
            else:
                raw = kp @ wu  # d/du (u.v) = v
            du[rows] = raw - np.sum(raw * U, axis=1)[:, None] * U
            dkp *= dot
            dkf *= dot
        # kf now holds the whole kernel k_p k_f k_t.
        dw[rows] = kf @ colw
        r = dkp @ wc
        dc[rows] = 2.0 * (r[:, :1] * a.centers[rows] - r[:, 1:])
        r = dkf @ ws
        ds[rows] = 2.0 * (r[:, 0] * a.cell_signals[rows] - r[:, 1])
    w = a.weights
    return w[:, None] * dc, w * ds, w[:, None] * du, dw


def varifold_inner(
    a: DiscreteVarifold, b: DiscreteVarifold, K: VarifoldKernels
) -> float:
    """Kernel inner product of two discrete varifolds; the symmetric sweep
    when a is b."""
    return _sweep_value(a, ((b, 1.0),), K, sym=a is b)


def fidelity(
    fs1: DiscreteFshape, target: DiscreteVarifold, K: VarifoldKernels
) -> float:
    """Squared varifold distance between fs1 and the target; clamped at 0.

    <mu, mu> - 2 <mu, nu> is one symmetric sweep over the columns [mu; nu];
    <nu, nu> is the target's kept self-term.
    """
    mu = to_varifold(fs1)
    value = _sweep_value(mu, ((mu, 1.0), (target, -2.0)), K, sym=True)
    return max(value + target.self_inner(K), 0.0)


def grad_fidelity(
    fs1: DiscreteFshape, target: DiscreteVarifold, K: VarifoldKernels
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the fidelity w.r.t. vertex positions and vertex signals.

    Chains the per-cell partials (center, frame, weight, mean signal) back to
    the vertices of each cell.
    """
    mu = to_varifold(fs1)
    # d fidelity / d(cell data): the mu-mu term doubles by symmetry.
    dc, ds, du, dw = _sweep_partials(mu, ((mu, 2.0), (target, -2.0)), K)

    cells = fs1.cells
    d = fs1.dim_d
    grad_x = np.zeros_like(fs1.vertices)
    grad_f = np.zeros_like(fs1.signals)

    # Barycenters and mean signals spread uniformly over cell vertices.
    np.add.at(grad_x, cells, np.repeat(dc[:, None, :] / (d + 1), d + 1, axis=1))
    np.add.at(grad_f, cells, np.repeat(ds[:, None] / (d + 1), d + 1, axis=1))

    # Weights follow the cell-volume gradients.
    geom = cell_geometry(fs1)
    np.add.at(grad_x, cells, dw[:, None, None] * geom.volume_grads)

    # Frames: chain through the normalization of the raw frame vector (the
    # edge for d=1, the edge cross product for d=2), whose norm is d * volume.
    unit = geom.frames
    norm = d * geom.volumes
    a = (du - np.sum(du * unit, axis=1)[:, None] * unit) / norm[:, None]
    if d == 1:
        frame_contrib = np.stack([-a, a], axis=1)
    else:
        c1 = np.cross(geom.edges[:, 1], a)
        c2 = np.cross(a, geom.edges[:, 0])
        frame_contrib = np.stack([-(c1 + c2), c1, c2], axis=1)
    np.add.at(grad_x, cells, frame_contrib)
    return grad_x, grad_f
