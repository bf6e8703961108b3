import numpy as np
import pytest

from metamorph import (
    GrassmannKernelSpec,
    RadialKernelSpec,
    kernel_conv,
    quad_form,
    quad_form_grad_x,
    radial_eval,
)
from metamorph.kernels import (
    grassmann_eval,
    grassmann_grad,
    grassmann_grad_sum,
    grassmann_matrix,
    radial_deriv,
    scalar_kernel_eval,
    scalar_kernel_grad,
)

GAUSS = RadialKernelSpec("gaussian", ((1.0, 0.3),))
CAUCHY = RadialKernelSpec("cauchy", ((1.0, 0.3),))
TWO_TERM = RadialKernelSpec("gaussian", ((1.0, 0.2), (1.0, 0.1)))


def test_radial_eval_at_zero():
    assert radial_eval(GAUSS, 0.0) == pytest.approx(1.0)
    assert radial_eval(CAUCHY, 0.0) == pytest.approx(1.0)
    assert radial_eval(TWO_TERM, 0.0) == pytest.approx(2.0)


def test_radial_eval_reference_value():
    # exp(-0.09 / (2 * 0.09)) = exp(-1/2)
    assert radial_eval(GAUSS, 0.09) == pytest.approx(0.6065306597126334, rel=1e-12)


def test_radial_eval_cauchy_value():
    assert radial_eval(CAUCHY, 0.09) == pytest.approx(0.5)


def test_radial_spec_validation():
    with pytest.raises(ValueError):
        RadialKernelSpec("gaussian", ())
    with pytest.raises(ValueError):
        RadialKernelSpec("gaussian", ((1.0, -0.1),))
    with pytest.raises(ValueError):
        RadialKernelSpec("sinc", ((1.0, 1.0),))


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_radial_deriv_matches_fd(spec):
    for u in (0.0, 0.01, 0.3, 2.0):
        eps = 1e-6
        fd = (radial_eval(spec, u + eps) - radial_eval(spec, max(u - eps, 0.0))) / (
            eps if u == 0.0 else 2 * eps
        )
        if u == 0.0:
            continue  # one-sided FD too crude at the boundary
        assert radial_deriv(spec, u) == pytest.approx(fd, rel=1e-7)


def test_kernel_conv_identity_point():
    x = np.zeros((1, 3))
    alpha = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(kernel_conv(GAUSS, x, x, alpha), alpha)


def test_kernel_conv_linearity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((6, 3))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 3))
    lhs = kernel_conv(GAUSS, x, y, 2.0 * a - 3.0 * b)
    rhs = 2.0 * kernel_conv(GAUSS, x, y, a) - 3.0 * kernel_conv(GAUSS, x, y, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    np.testing.assert_allclose(kernel_conv(GAUSS, x, y, np.zeros((6, 3))), 0.0)


def test_kernel_conv_two_point_sum():
    delta = 0.4
    x = np.array([[0.0, 0.0], [delta, 0.0]])
    alpha = np.array([[1.0, 2.0], [1.0, 2.0]])
    out = kernel_conv(GAUSS, x, x, alpha)
    expected = (1.0 + radial_eval(GAUSS, delta**2)) * alpha[0]
    np.testing.assert_allclose(out[0], expected, rtol=1e-14)


def test_quad_form_single_point():
    v = np.array([[1.0, -2.0, 0.5]])
    assert quad_form(GAUSS, np.zeros((1, 3)), v) == pytest.approx(float((v**2).sum()))


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_quad_form_nonnegative(spec):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal((6, 3))
        p = rng.standard_normal((6, 3))
        assert quad_form(spec, x, p) >= 0.0


def test_quad_form_consistent_with_conv():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    p = rng.standard_normal((5, 3))
    # independent path: elementwise sum over the kernel matrix
    direct = float(np.sum(p * kernel_conv(GAUSS, x, x, p)))
    assert quad_form(GAUSS, x, p) == pytest.approx(direct, rel=1e-14)


def test_quad_form_translation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    p = rng.standard_normal((5, 3))
    shifted = x + np.array([10.0, -3.0, 0.25])
    assert quad_form(GAUSS, shifted, p) == pytest.approx(
        quad_form(GAUSS, x, p), rel=1e-12
    )


def test_quad_form_grad_single_point_zero():
    np.testing.assert_array_equal(
        quad_form_grad_x(GAUSS, np.zeros((1, 3)), np.ones((1, 3))), np.zeros((1, 3))
    )


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_quad_form_grad_matches_fd(spec):
    rng = np.random.default_rng(4)
    x = 0.5 * rng.standard_normal((5, 3))
    p = rng.standard_normal((5, 3))
    grad = quad_form_grad_x(spec, x, p)
    eps = 1e-5 * 0.5
    fd = np.zeros_like(grad)
    for i in range(5):
        for j in range(3):
            xp = x.copy()
            xm = x.copy()
            xp[i, j] += eps
            xm[i, j] -= eps
            fd[i, j] = (quad_form(spec, xp, p) - quad_form(spec, xm, p)) / (2 * eps)
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-6


def test_quad_form_grad_antisymmetric_pair():
    p = np.array([[0.7, -0.1, 0.4], [0.7, -0.1, 0.4]])
    x = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, -0.2]])
    grad = quad_form_grad_x(GAUSS, x, p)
    np.testing.assert_allclose(grad[0], -grad[1], rtol=1e-12)


def test_scalar_kernel_eval_and_symmetry():
    assert scalar_kernel_eval(GAUSS, 1.3, 1.3) == pytest.approx(1.0)
    assert scalar_kernel_eval(GAUSS, 0.2, 0.9) == pytest.approx(
        scalar_kernel_eval(GAUSS, 0.9, 0.2)
    )


def test_scalar_kernel_grad_matches_fd():
    eps = 1e-7
    for a, b in [(0.0, 0.5), (1.2, -0.3), (2.0, 2.0)]:
        fd = (
            scalar_kernel_eval(GAUSS, a + eps, b) - scalar_kernel_eval(GAUSS, a - eps, b)
        ) / (2 * eps)
        assert scalar_kernel_grad(GAUSS, a, b) == pytest.approx(fd, abs=1e-8)


UNORIENTED = GrassmannKernelSpec("unoriented_squared")
ORIENTED = GrassmannKernelSpec("oriented_linear")
CONSTANT = GrassmannKernelSpec("constant")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_grassmann_eval_identical():
    u = _unit([1.0, 2.0, -0.5])
    assert grassmann_eval(UNORIENTED, u, u) == pytest.approx(1.0)
    assert grassmann_eval(ORIENTED, u, u) == pytest.approx(1.0)
    assert grassmann_eval(CONSTANT, u, u) == pytest.approx(1.0)


def test_grassmann_unoriented_flip_invariant():
    u = _unit([1.0, 0.3, 0.0])
    v = _unit([-0.2, 1.0, 0.7])
    assert grassmann_eval(UNORIENTED, u, -v) == pytest.approx(
        grassmann_eval(UNORIENTED, u, v)
    )


def test_grassmann_rejects_non_unit():
    with pytest.raises(ValueError):
        grassmann_eval(UNORIENTED, np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("spec", [UNORIENTED, ORIENTED, CONSTANT])
def test_grassmann_grad_tangent(spec):
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = _unit(rng.standard_normal(3))
        v = _unit(rng.standard_normal(3))
        g = grassmann_grad(spec, u, v)
        assert abs(float(g @ u)) < 1e-12


def test_grassmann_grad_matches_projected_fd():
    # FD of the kernel along tangent directions at u
    rng = np.random.default_rng(6)
    u = _unit(rng.standard_normal(3))
    v = _unit(rng.standard_normal(3))
    for spec in (UNORIENTED, ORIENTED):
        g = grassmann_grad(spec, u, v)
        eps = 1e-7
        for _ in range(4):
            t = rng.standard_normal(3)
            t -= (t @ u) * u  # tangent direction
            up = _unit(u + eps * t)
            um = _unit(u - eps * t)
            fd = (grassmann_eval(spec, up, v) - grassmann_eval(spec, um, v)) / (2 * eps)
            assert float(g @ t) == pytest.approx(fd, abs=1e-6)


def test_grassmann_matrix_and_grad_sum_agree_with_pairwise():
    rng = np.random.default_rng(7)
    U = np.array([_unit(rng.standard_normal(3)) for _ in range(4)])
    V = np.array([_unit(rng.standard_normal(3)) for _ in range(5)])
    W = rng.standard_normal((4, 5))
    for spec in (UNORIENTED, ORIENTED, CONSTANT):
        M = grassmann_matrix(spec, U, V)
        for i in range(4):
            for j in range(5):
                assert M[i, j] == pytest.approx(
                    float(grassmann_eval(spec, U[i], V[j])), abs=1e-14
                )
        G = grassmann_grad_sum(spec, U, V, W)
        for i in range(4):
            expected = sum(W[i, j] * grassmann_grad(spec, U[i], V[j]) for j in range(5))
            np.testing.assert_allclose(G[i], expected, atol=1e-13)
