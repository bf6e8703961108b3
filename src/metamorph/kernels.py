"""Radial deformation kernels and Grassmann frame kernel specs.

All radial profiles are functions of the *squared* distance u = |x - y|^2.
This module holds the pairwise routines that every pairwise sum uses:
``_sq_dists_into`` is the one distance routine, for positions and signals
alike, ``_profile`` the one formula for k(u), which also gives k'(u) and
k''(u) when asked, from the same exp (Gaussian) or quotient (Cauchy),
``offset_sum`` the one reduction of weighted pair offsets and ``_tiles`` the
one routine that sets tile shapes. The deformation sums run over row tiles
whose buffers together hold about 2 * TILE_FLOATS floats (or one row, if
longer): each tile's distances are turned into kernel values in place and
reduced straight into its outputs, so a P x Q sum takes O(PQ) time and
O(TILE_FLOATS + Q) working memory, with no P x Q matrix and no P x Q x n
difference tensor. A flow-field evaluation makes one such pass over the
self pairs, ``quad_form_grad_x``, which gives K(x) p and the x-gradient of
p^T K(x) p together; the adjoint's tangent is one more, ``kernel_tangent``.
``kernel_conv`` is the sum against any point set y, and ``quad_form``
(p^T K(x) p, for the Hamiltonian at a single state) reads it.
Tiles of 2^15 pairs per buffer keep a call's buffers near 0.5 MB, well
inside a 4 MB L2 cache next to the inputs and outputs; 2 MB buffers measured
up to twice as slow. Self sums (y is x) are symmetric: the tile of rows
[s, e) starts at its diagonal block, covering the columns [s, P), and the
part right of that block is reduced a second time, transposed, into the rows
[e, P), so each pair is evaluated once. As the columns shrink the tiles grow
taller, so every tile holds about the same number of pairs. The tiling
depends only on the input shapes and the tiles run in a fixed order, so
results are deterministic. Buffers and outputs are allocated per call, so
the functions are safe to call concurrently on shared inputs. Frame kernels
take unit frames as given; ``DiscreteVarifold`` validates them at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RADIAL_FAMILIES = ("gaussian", "cauchy")
_GRASSMANN_MODES = ("unoriented_squared", "oriented_linear", "constant")


@dataclass(frozen=True)
class RadialKernelSpec:
    """Weighted sum of radial profiles: sum_i w_i * k((u / sigma_i^2)).

    family "gaussian": k = sum_i w_i exp(-u / (2 sigma_i^2))
    family "cauchy":   k = sum_i w_i / (1 + u / sigma_i^2)
    """

    family: str
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.family not in _RADIAL_FAMILIES:
            raise ValueError(f"unknown radial family {self.family!r}")
        terms = tuple((float(w), float(s)) for w, s in self.terms)
        if not terms:
            raise ValueError("kernel needs at least one (weight, width) term")
        if any(w <= 0 or s <= 0 for w, s in terms):
            raise ValueError("kernel weights and widths must be positive")
        object.__setattr__(self, "terms", terms)

    def rescaled(self, scale: float) -> "RadialKernelSpec":
        """Same profile with every width multiplied by `scale`."""
        return RadialKernelSpec(
            self.family, tuple((w, s * scale) for w, s in self.terms)
        )


def gaussian(sigma: float, weight: float = 1.0) -> RadialKernelSpec:
    return RadialKernelSpec("gaussian", ((weight, sigma),))


def cauchy(sigma: float, weight: float = 1.0) -> RadialKernelSpec:
    return RadialKernelSpec("cauchy", ((weight, sigma),))


def _profile_term(family: str, w: float, s: float, u: np.ndarray, du=None, ddu=None):
    """Overwrite u with one term w * k(u / s^2) of the profile and, when
    given, write its u-derivative into du and its second into ddu, from the
    one exp (Gaussian) or quotient (Cauchy) of the value."""
    inv = 1.0 / (s * s)
    if family == "gaussian":
        u *= -0.5 * inv
        np.exp(u, out=u)
        if du is not None:
            np.multiply(u, -0.5 * w * inv, out=du)
        if ddu is not None:
            np.multiply(u, 0.25 * w * inv * inv, out=ddu)
        u *= w
    else:
        u *= inv
        u += 1.0
        np.divide(w, u, out=u)
        if du is not None:
            np.multiply(u, u, out=du)
            du *= -inv / w
        if ddu is not None:
            np.multiply(du, u, out=ddu)
            ddu *= -2.0 * inv / w
    return u, du, ddu


def _profile(spec: RadialKernelSpec, u: np.ndarray, du=None, ddu=None) -> np.ndarray:
    """Overwrite squared distances u with k(u) and, when given, write k'(u)
    into du and k''(u) into ddu; returns u."""
    new = lambda out: None if out is None else np.empty_like(out)
    rest = [
        _profile_term(spec.family, w, s, u.copy(), new(du), new(ddu))
        for w, s in spec.terms[1:]
    ]
    _profile_term(spec.family, *spec.terms[0], u, du, ddu)
    for terms in rest:
        for out, t in zip((u, du, ddu), terms):
            if out is not None:
                out += t
    return u


def _sq_dists_into(x: np.ndarray, y: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Write |x_i - y_j|^2 into out, one coordinate at a time, with t as scratch."""
    np.subtract.outer(x[:, 0], y[:, 0], out=out)
    out *= out
    for k in range(1, x.shape[1]):
        np.subtract.outer(x[:, k], y[:, k], out=t)
        t *= t
        out += t
    return out


def offset_sum(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row sums sum_j w[i, j] (x_i - y_j), without forming the differences."""
    return w.sum(axis=1)[:, None] * x - w @ y


TILE_FLOATS = 1 << 15  # pairs per tile buffer: two 256 kB buffers per call


def _tile_rows(P: int, Q: int, n_buffers: int) -> int:
    """Rows per tile of a P x Q sweep whose n_buffers tile buffers together
    hold about 2 * TILE_FLOATS floats (TILE_FLOATS // Q rows for two)."""
    return max(1, min(P, 2 * TILE_FLOATS // (n_buffers * max(Q, 1))))


def _tiles(P: int, m: int, n_buffers: int = 2, sym: bool = False):
    """Yield (rows, first, buffers) over row tiles of a P-row, m-column sweep.

    ``first`` is the tile's first column: its diagonal block when ``sym``
    (the columns open with the rows' own points), else 0. The n_buffers
    buffers have shape (len(rows), m - first); they are views of per-call
    arrays, reused from tile to tile. Each tile's height is ``_tile_rows``
    of its own width, so symmetric tiles grow taller as their columns shrink
    and every tile holds about the same number of pairs.
    """
    # A tile holds at most 2 * TILE_FLOATS // n_buffers pairs, or one row.
    flat = np.empty((n_buffers, min(P * m, max(2 * TILE_FLOATS // n_buffers, m))))
    start = 0
    while start < P:
        first = start if sym else 0
        stop = start + _tile_rows(P - start, m - first, n_buffers)
        shape = (stop - start, m - first)
        n = shape[0] * shape[1]
        yield slice(start, stop), first, [buf[:n].reshape(shape) for buf in flat]
        start = stop


def _check_points(x, y=None):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("point sets must be P x n matrices")
    if y is None:
        return x
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != x.shape[1]:
        raise ValueError(f"ambient dimensions differ: {x.shape} vs {y.shape}")
    return x, y


def _check_momenta(x, p):
    x = _check_points(x)
    p = np.asarray(p, dtype=float)
    if p.shape != x.shape:
        raise ValueError(f"momenta shape {p.shape} != points shape {x.shape}")
    return x, p


def kernel_conv(
    spec: RadialKernelSpec, x: np.ndarray, y: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    """Kernel matrix-vector product: out[i] = sum_j k(|x_i - y_j|^2) alpha[j].

    When y is x, each pair is evaluated once: the tile of rows [s, e) covers
    the columns [s, P), and the part right of its diagonal block also adds,
    transposed, into the rows [e, P).
    """
    sym = y is x
    x, y = _check_points(x, y)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != y.shape[0]:
        raise ValueError(f"alpha rows {alpha.shape[0]} != source points {y.shape[0]}")
    P = x.shape[0]
    out = (np.zeros if sym else np.empty)((P,) + alpha.shape[1:])
    for rows, first, (k, t) in _tiles(P, y.shape[0], sym=sym):
        _profile(spec, _sq_dists_into(x[rows], y[first:], k, t))
        if not sym:
            np.matmul(k, alpha, out=out[rows])
            continue
        out[rows] += k @ alpha[first:]
        if rows.stop < P:
            out[rows.stop :] += k[:, rows.stop - first :].T @ alpha[rows]
    return out


def quad_form(spec: RadialKernelSpec, x: np.ndarray, p: np.ndarray) -> float:
    """Double sum p_k . k(|x_k - x_l|^2) p_l; PSD in p."""
    x, p = _check_momenta(x, p)
    return float(np.sum(p * kernel_conv(spec, x, x, p)))


def quad_form_grad_x(
    spec: RadialKernelSpec, x: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """K(x) p and the exact gradient of quad_form w.r.t. the point positions
    x, 4 sum_l k'(|x_k - x_l|^2) (p_k . p_l) (x_k - x_l), from one pass.

    Each pair is evaluated once, on the symmetric tiles of ``kernel_conv``:
    a tile's distances give k and k' from one exp or quotient per profile
    term, k is reduced into K(x) p and then reused for p_k . p_l.
    """
    x, p = _check_momenta(x, p)
    P = x.shape[0]
    conv = np.zeros_like(p)
    grad = np.zeros_like(x)
    for rows, first, (k, dk) in _tiles(P, P, sym=True):
        cols, below = slice(first, P), slice(rows.stop, P)
        off = rows.stop - first
        _profile(spec, _sq_dists_into(x[rows], x[cols], k, dk), dk)
        conv[rows] += k @ p[cols]
        conv[below] += k[:, off:].T @ p[rows]
        dk *= np.matmul(p[rows], p[cols].T, out=k)
        grad[rows] += offset_sum(dk, x[rows], x[cols])
        if rows.stop < P:
            grad[below] += offset_sum(dk[:, off:].T, x[below], x[rows])
    grad *= 4.0
    return conv, grad


def _sq_dists_dots_into(x, y, wx, wy, u, a, t, s):
    """Write |x_i - y_j|^2 into u and (x_i - y_j) . (wx_i - wy_j) into a,
    one coordinate at a time, with t and s as scratch."""
    for k in range(x.shape[1]):
        np.subtract.outer(x[:, k], y[:, k], out=t)
        np.subtract.outer(wx[:, k], wy[:, k], out=s)
        if k == 0:
            np.multiply(t, s, out=a)
            np.multiply(t, t, out=u)
            continue
        s *= t
        a += s
        t *= t
        u += t
    return u, a


def kernel_tangent(
    spec: RadialKernelSpec, x: np.ndarray, p: np.ndarray, wx: np.ndarray, wp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Directional derivatives of both outputs of ``quad_form_grad_x(x, p)``,
    K(x) p and the x-gradient, along (wx, wp):

        d(Kp)_i  = sum_j k_ij wp_j + 2 k'_ij a_ij p_j
        d(grad)_i = 4 sum_j (2 k''_ij a_ij pi_ij + k'_ij om_ij) (x_i - x_j)
                              + k'_ij pi_ij (wx_i - wx_j)

    with a_ij = (x_i - x_j) . (wx_i - wx_j), pi_ij = p_i . p_j and
    om_ij = wp_i . p_j + p_i . wp_j, and k, k', k'' from one exp (Gaussian)
    or quotient (Cauchy) per profile term. Every pair weight is symmetric, so
    each pair is evaluated once, on the symmetric tiles of ``kernel_conv``;
    four tile buffers, reused as the weights are formed, stay inside the
    same 2 * TILE_FLOATS budget.
    """
    x, p = _check_momenta(x, p)
    _, wx = _check_momenta(x, wx)
    _, wp = _check_momenta(x, wp)
    P = x.shape[0]
    conv = np.zeros_like(x)
    grad = np.zeros_like(x)
    wx2 = 2.0 * wx  # so the dots come out as 2 a
    left, right = np.hstack((wp, p)), np.hstack((p, wp))
    for rows, first, (k, a, dk, ddk) in _tiles(P, P, n_buffers=4, sym=True):
        cols, below = slice(first, P), slice(rows.stop, P)
        off = rows.stop - first
        _sq_dists_dots_into(x[rows], x[cols], wx2[rows], wx2[cols], k, a, dk, ddk)
        _profile(spec, k, dk, ddk)
        conv[rows] += k @ wp[cols]
        conv[below] += k[:, off:].T @ wp[rows]
        np.multiply(dk, a, out=k)  # 2 k' a
        conv[rows] += k @ p[cols]
        conv[below] += k[:, off:].T @ p[rows]
        ddk *= a
        np.matmul(p[rows], p[cols].T, out=a)  # pi
        ddk *= a
        np.matmul(left[rows], right[cols].T, out=k)  # om
        k *= dk
        ddk += k  # 2 k'' a pi + k' om
        a *= dk  # k' pi
        grad[rows] += offset_sum(ddk, x[rows], x[cols]) + offset_sum(a, wx[rows], wx[cols])
        if rows.stop < P:
            grad[below] += offset_sum(ddk[:, off:].T, x[below], x[rows])
            grad[below] += offset_sum(a[:, off:].T, wx[below], wx[rows])
    grad *= 4.0
    return conv, grad


@dataclass(frozen=True)
class GrassmannKernelSpec:
    """Kernel on unit frames (tangent lines for d=1, normals for d=2).

    "unoriented_squared" -> (u.v)^2, "oriented_linear" -> u.v, "constant" -> 1.
    """

    mode: str

    def __post_init__(self):
        if self.mode not in _GRASSMANN_MODES:
            raise ValueError(f"unknown Grassmann kernel mode {self.mode!r}")
