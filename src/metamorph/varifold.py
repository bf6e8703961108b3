"""Kernel varifold fidelity between textured meshes.

A mesh is summarized by one weighted Dirac per cell carrying (barycenter,
unit frame, d-volume, mean signal). The fidelity is the squared kernel-metric
distance between the two Dirac sums, with positive kernels on positions,
signal values and frames; gradients are chained back to vertex positions and
vertex signals through the per-cell edges, frames and volume gradients of the
mesh's memoised ``cell_geometry`` record. Centre and signal distances and
their partials come from ``kernels.pairwise_sq_dists`` and
``kernels.offset_sum``, so every pairwise array is T x T' with no T x T' x n
tensor. Frames are checked to be unit vectors once, when a
``DiscreteVarifold`` is built. The target's self-term <nu, nu> does not
depend on the moving mesh, so each target varifold computes it once per
kernel triple and ``fidelity`` reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fshape import DiscreteFshape, cell_geometry, _frozen
from .kernels import (
    GrassmannKernelSpec,
    RadialKernelSpec,
    grassmann_grad_sum,
    grassmann_matrix,
    offset_sum,
    pairwise_sq_dists,
    radial_deriv,
    radial_eval,
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


def _kernel_matrices(a: DiscreteVarifold, b: DiscreteVarifold, K: VarifoldKernels):
    u2 = pairwise_sq_dists(a.centers, b.centers)
    s2 = pairwise_sq_dists(a.cell_signals[:, None], b.cell_signals[:, None])
    kt = grassmann_matrix(K.kt, a.frames, b.frames)
    return u2, radial_eval(K.kp, u2), s2, radial_eval(K.kf, s2), kt


def varifold_inner(
    a: DiscreteVarifold, b: DiscreteVarifold, K: VarifoldKernels
) -> float:
    """Kernel inner product of two discrete varifolds."""
    if a.centers.shape[1] != b.centers.shape[1]:
        raise ValueError("varifolds live in different ambient dimensions")
    _, kp, _, kf, kt = _kernel_matrices(a, b, K)
    return float(a.weights @ (kp * kf * kt) @ b.weights)


def _inner_first_partials(
    a: DiscreteVarifold, b: DiscreteVarifold, K: VarifoldKernels
):
    """Partials of varifold_inner(a, b) w.r.t. a's centers/signals/frames/weights."""
    u2, kp, s2, kf, kt = _kernel_matrices(a, b, K)
    ww = a.weights[:, None] * b.weights[None, :]
    d_centers = 2.0 * offset_sum(radial_deriv(K.kp, u2) * kf * kt * ww, a.centers, b.centers)
    d_signals = 2.0 * offset_sum(
        kp * radial_deriv(K.kf, s2) * kt * ww, a.cell_signals[:, None], b.cell_signals[:, None]
    )[:, 0]
    d_frames = grassmann_grad_sum(K.kt, a.frames, b.frames, kp * kf * ww)
    d_weights = (kp * kf * kt) @ b.weights
    return d_centers, d_signals, d_frames, d_weights


def fidelity(
    fs1: DiscreteFshape, target: DiscreteVarifold, K: VarifoldKernels
) -> float:
    """Squared varifold distance between fs1 and the target; clamped at 0."""
    mu = to_varifold(fs1)
    value = (
        varifold_inner(mu, mu, K)
        - 2.0 * varifold_inner(mu, target, K)
        + target.self_inner(K)
    )
    return max(value, 0.0)


def grad_fidelity(
    fs1: DiscreteFshape, target: DiscreteVarifold, K: VarifoldKernels
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the fidelity w.r.t. vertex positions and vertex signals.

    Chains the per-cell partials (center, frame, weight, mean signal) back to
    the vertices of each cell.
    """
    mu = to_varifold(fs1)
    dc_aa, ds_aa, du_aa, dw_aa = _inner_first_partials(mu, mu, K)
    dc_ab, ds_ab, du_ab, dw_ab = _inner_first_partials(mu, target, K)
    # d fidelity / d(cell data); the mu-mu term doubles by symmetry.
    dc = 2.0 * (dc_aa - dc_ab)
    ds = 2.0 * (ds_aa - ds_ab)
    du = 2.0 * (du_aa - du_ab)
    dw = 2.0 * (dw_aa - dw_ab)

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
