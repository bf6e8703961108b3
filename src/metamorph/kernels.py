"""Radial deformation kernels and Grassmann frame kernels.

All radial profiles are functions of the *squared* distance u = |x - y|^2.
This module is the only place that forms pairwise data: ``pairwise_sq_dists``
is the one distance routine, for positions and signals alike, and
``offset_sum`` the one reduction of weighted pair offsets. Sums are evaluated
directly in O(PQ) time and memory, with no P x Q x n difference tensor; rows
of every output are independent so the functions are safe to call
concurrently on shared inputs. Frame kernels take unit frames as given;
``DiscreteVarifold`` validates them at construction.
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


def radial_eval(spec: RadialKernelSpec, u):
    """Kernel value at squared distance(s) u."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for w, s in spec.terms:
        if spec.family == "gaussian":
            out += w * np.exp(-u / (2.0 * s * s))
        else:
            out += w / (1.0 + u / (s * s))
    return out if out.ndim else float(out)


def radial_deriv(spec: RadialKernelSpec, u):
    """Derivative of the kernel w.r.t. its squared-distance argument."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for w, s in spec.terms:
        inv = 1.0 / (s * s)
        if spec.family == "gaussian":
            out += -0.5 * w * inv * np.exp(-0.5 * u * inv)
        else:
            out += -w * inv / (1.0 + u * inv) ** 2
    return out if out.ndim else float(out)


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 matrix, exact for coincident points.

    Accumulates one coordinate at a time into the P x Q output, with one
    P x Q scratch buffer for the squared coordinate differences.
    """
    out = np.subtract.outer(x[:, 0], y[:, 0])
    out *= out
    t = np.empty_like(out)
    for k in range(1, x.shape[1]):
        np.subtract.outer(x[:, k], y[:, k], out=t)
        t *= t
        out += t
    return out


def offset_sum(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row sums sum_j w[i, j] (x_i - y_j), without forming the differences."""
    return w.sum(axis=1)[:, None] * x - w @ y


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


def kernel_conv(
    spec: RadialKernelSpec, x: np.ndarray, y: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    """Kernel matrix-vector product: out[i] = sum_j k(|x_i - y_j|^2) alpha[j]."""
    x, y = _check_points(x, y)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != y.shape[0]:
        raise ValueError(f"alpha rows {alpha.shape[0]} != source points {y.shape[0]}")
    K = radial_eval(spec, pairwise_sq_dists(x, y))
    return K @ alpha


def quad_form(spec: RadialKernelSpec, x: np.ndarray, p: np.ndarray) -> float:
    """Double sum p_k . k(|x_k - x_l|^2) p_l; PSD in p."""
    x = _check_points(x)
    p = np.asarray(p, dtype=float)
    if p.shape != x.shape:
        raise ValueError(f"momenta shape {p.shape} != points shape {x.shape}")
    K = radial_eval(spec, pairwise_sq_dists(x, x))
    return float(np.sum(p * (K @ p)))


def quad_form_grad_x(spec: RadialKernelSpec, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact gradient of quad_form w.r.t. the point positions x."""
    x = _check_points(x)
    p = np.asarray(p, dtype=float)
    if p.shape != x.shape:
        raise ValueError(f"momenta shape {p.shape} != points shape {x.shape}")
    u = pairwise_sq_dists(x, x)
    w = radial_deriv(spec, u) * (p @ p.T)
    return 4.0 * offset_sum(w, x, x)


@dataclass(frozen=True)
class GrassmannKernelSpec:
    """Kernel on unit frames (tangent lines for d=1, normals for d=2).

    "unoriented_squared" -> (u.v)^2, "oriented_linear" -> u.v, "constant" -> 1.
    """

    mode: str

    def __post_init__(self):
        if self.mode not in _GRASSMANN_MODES:
            raise ValueError(f"unknown Grassmann kernel mode {self.mode!r}")


def grassmann_matrix(
    spec: GrassmannKernelSpec, U: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """All-pairs frame kernel values for rows of U (T x n) and V (T' x n)."""
    dot = U @ V.T
    if spec.mode == "unoriented_squared":
        return dot**2
    if spec.mode == "oriented_linear":
        return dot
    return np.ones_like(dot)


def grassmann_grad_sum(
    spec: GrassmannKernelSpec, U: np.ndarray, V: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Row-wise weighted sums of frame-kernel gradients.

    Returns G with G[i] = sum_j coeffs[i, j] * d/du k_t(U[i], V[j]), projected
    onto the tangent space at U[i].
    """
    if spec.mode == "constant":
        return np.zeros_like(U)
    dot = U @ V.T
    if spec.mode == "unoriented_squared":
        raw = (2.0 * coeffs * dot) @ V
    else:
        raw = coeffs @ V
    return raw - np.sum(raw * U, axis=1)[:, None] * U
