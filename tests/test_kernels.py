import math
import tracemalloc

import numpy as np
import pytest

from metamorph import GrassmannKernelSpec, RadialKernelSpec, VarifoldKernels, fidelity, to_varifold
from metamorph import kernels, varifold
from metamorph.kernels import kernel_conv, kernel_tangent, offset_sum, quad_form, quad_form_grad_x
from metamorph.varifold import DiscreteVarifold, grad_fidelity, varifold_inner

from conftest import radial_profile, triangle_strip

GAUSS = RadialKernelSpec("gaussian", ((1.0, 0.3),))
CAUCHY = RadialKernelSpec("cauchy", ((1.0, 0.3),))
TWO_TERM = RadialKernelSpec("gaussian", ((1.0, 0.2), (1.0, 0.1)))


def _k(spec, u):
    """k(u) from the kernels' one in-place profile routine."""
    return kernels._profile(spec, np.array(u, dtype=float))


def _sq_dists(x, y):
    """|x_i - y_j|^2 from the kernels' one distance routine, on fresh buffers."""
    shape = (x.shape[0], y.shape[0])
    return kernels._sq_dists_into(x, y, np.empty(shape), np.empty(shape))


def test_radial_eval_at_zero():
    assert _k(GAUSS, 0.0) == pytest.approx(1.0)
    assert _k(CAUCHY, 0.0) == pytest.approx(1.0)
    assert _k(TWO_TERM, 0.0) == pytest.approx(2.0)


def test_radial_eval_reference_value():
    # exp(-0.09 / (2 * 0.09)) = exp(-1/2)
    assert _k(GAUSS, 0.09) == pytest.approx(0.6065306597126334, rel=1e-12)


def test_radial_eval_cauchy_value():
    assert _k(CAUCHY, 0.09) == pytest.approx(0.5)


def test_radial_spec_validation():
    with pytest.raises(ValueError):
        RadialKernelSpec("gaussian", ())
    with pytest.raises(ValueError):
        RadialKernelSpec("gaussian", ((1.0, -0.1),))
    with pytest.raises(ValueError):
        RadialKernelSpec("sinc", ((1.0, 1.0),))


def _pair(spec, u):
    """(k(u), k'(u)) from the one pass that gives both."""
    k = np.array(u, dtype=float)
    dk = np.empty_like(k)
    kernels._profile(spec, k, dk)
    return k, dk


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_radial_deriv_matches_fd(spec):
    # k' of the k/k' pair against central differences of k
    u = np.array([0.01, 0.3, 2.0])
    eps = 1e-6
    _, dk = _pair(spec, u)
    fd = (_k(spec, u + eps) - _k(spec, u - eps)) / (2 * eps)
    np.testing.assert_allclose(dk, fd, rtol=1e-7)


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_profile_pair_matches_closed_forms(spec):
    u = np.array([0.0, 0.01, 0.3, 2.0])
    k, dk = _pair(spec, u)
    # asking for k' leaves k unchanged to the bit, so a sweep's value and
    # partials agree
    np.testing.assert_array_equal(k, _k(spec, u))
    expected = [radial_profile(spec, v, deriv=True) for v in u]
    np.testing.assert_allclose(dk, expected, rtol=1e-14)


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_profile_pair_second_derivative(spec):
    # k'' from the same exp or quotient, against closed forms and central
    # differences of k'; k and k' are unchanged by asking for k''
    u = np.array([0.0, 0.01, 0.3, 2.0])
    k, dk = _pair(spec, u)
    k2, dk2, ddk = u.copy(), np.empty_like(u), np.empty_like(u)
    kernels._profile(spec, k2, dk2, ddk)
    assert np.array_equal(k2, k) and np.array_equal(dk2, dk)
    np.testing.assert_allclose(ddk, [_profile_dd(spec, v) for v in u], rtol=1e-14)
    eps = 1e-6
    v = u[1:]
    fd = (_pair(spec, v + eps)[1] - _pair(spec, v - eps)[1]) / (2 * eps)
    np.testing.assert_allclose(ddk[1:], fd, rtol=1e-7)


def test_pairwise_sq_dists_matches_double_loop():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        x = rng.standard_normal((7, n))
        y = 3.0 * rng.standard_normal((5, n))
        expected = np.array(
            [[sum((x[i, k] - y[j, k]) ** 2 for k in range(n)) for j in range(5)] for i in range(7)]
        )
        np.testing.assert_allclose(_sq_dists(x, y), expected, rtol=1e-15, atol=0.0)


def test_pairwise_sq_dists_exact_zero_for_coincident_points():
    rng = np.random.default_rng(11)
    x = 100.0 + rng.standard_normal((6, 3))
    assert np.all(np.diag(_sq_dists(x, x)) == 0.0)
    y = rng.standard_normal((4, 3))
    xd = np.vstack([y[2], x[:2], y[0]])
    u = _sq_dists(xd, y)
    assert u[0, 2] == 0.0 and u[3, 0] == 0.0
    assert np.all(u[1:3] > 0.0)


def test_pairwise_sq_dists_builds_no_difference_tensor():
    # One P x Q output plus one P x Q scratch; a P x Q x n tensor would be 3P^2.
    P = 500
    x = np.random.default_rng(12).standard_normal((P, 3))
    tracemalloc.start()
    try:
        _sq_dists(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * P * P * 8


def test_tiled_sums_hold_no_pair_matrix():
    # Row tiles of about TILE_FLOATS pairs; one dense P x P matrix is P^2 floats.
    P = 2000
    rng = np.random.default_rng(14)
    x = rng.standard_normal((P, 3))
    p = rng.standard_normal((P, 3))
    for call in (
        lambda: kernel_conv(GAUSS, x, x, p),
        lambda: quad_form_grad_x(GAUSS, x, p),
        lambda: kernel_tangent(GAUSS, x, p, p, x),
    ):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * P * P * 8


def test_varifold_sweeps_hold_no_cell_pair_matrix():
    # T cells against T: one dense T x T matrix is T^2 floats
    T = 2000
    fs = triangle_strip(T, seed=20)
    nu = to_varifold(triangle_strip(T, seed=21))
    K = VarifoldKernels(GAUSS, GAUSS, GrassmannKernelSpec("unoriented_squared"))
    to_varifold(fs)  # measure the cells before tracing
    for call in (
        lambda: varifold_inner(nu, nu, K),
        lambda: fidelity(fs, nu, K),
        lambda: grad_fidelity(fs, nu, K),
    ):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * T * T * 8


def _profile_dd(spec, u):
    """k''(u), term by term."""
    total = 0.0
    for w, s in spec.terms:
        inv = 1.0 / (s * s)
        if spec.family == "gaussian":
            total += 0.25 * w * inv * inv * math.exp(-0.5 * u * inv)
        else:
            total += 2.0 * w * inv * inv / (1.0 + u * inv) ** 3
    return total


def _sq(a, b):
    return float(sum((a - b) ** 2))


TILE_ROWS = 4


@pytest.mark.parametrize("spec", [GAUSS, TWO_TERM, CAUCHY])
@pytest.mark.parametrize("P", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 2])
def test_tiled_kernel_conv_matches_double_loop(spec, P, monkeypatch):
    rng = np.random.default_rng(15 + P)
    Q = P + 2
    x = 0.2 * rng.standard_normal((P, 3))
    y = 0.2 * rng.standard_normal((Q, 3))
    alpha = rng.standard_normal((Q, 3))
    monkeypatch.setattr(kernels, "TILE_FLOATS", TILE_ROWS * Q)
    expected = np.array(
        [sum(radial_profile(spec, _sq(x[i], y[j])) * alpha[j] for j in range(Q)) for i in range(P)]
    )
    out = kernel_conv(spec, x, y, alpha)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-13)
    assert np.array_equal(out, kernel_conv(spec, x, y, alpha))


@pytest.mark.parametrize("spec", [GAUSS, TWO_TERM, CAUCHY])
@pytest.mark.parametrize("P", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 2])
def test_tiled_quad_form_grad_matches_double_loop(spec, P, monkeypatch):
    rng = np.random.default_rng(16 + P)
    x = 0.2 * rng.standard_normal((P, 3))
    p = rng.standard_normal((P, 3))
    monkeypatch.setattr(kernels, "TILE_FLOATS", TILE_ROWS * P)
    def force(i, j):
        return radial_profile(spec, _sq(x[i], x[j]), deriv=True) * (p[i] @ p[j]) * (x[i] - x[j])

    expected = np.array([4.0 * sum(force(i, j) for j in range(P)) for i in range(P)])
    conv, out = quad_form_grad_x(spec, x, p)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-13)
    again = quad_form_grad_x(spec, x, p)
    assert np.array_equal(conv, again[0]) and np.array_equal(out, again[1])


@pytest.mark.parametrize("spec", [GAUSS, TWO_TERM, CAUCHY])
@pytest.mark.parametrize("P", [4, 5, 14, 200])
def test_fused_pass_matches_kernel_conv_and_double_loop(spec, P):
    # one pass gives K(x) p equal to kernel_conv's to the byte (same tiles,
    # same k) and the quad form's x-gradient; P = 200 spans two tiles
    rng = np.random.default_rng(30 + P)
    x = 0.2 * rng.standard_normal((P, 3))
    p = rng.standard_normal((P, 3))
    assert (len(list(kernels._tiles(P, P, sym=True))) > 1) == (P == 200)
    conv, grad = quad_form_grad_x(spec, x, p)
    assert conv.tobytes() == kernel_conv(spec, x, x, p).tobytes()

    def force(i, j):
        return radial_profile(spec, _sq(x[i], x[j]), deriv=True) * (p[i] @ p[j]) * (x[i] - x[j])

    expected = np.array([4.0 * sum(force(i, j) for j in range(P)) for i in range(P)])
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("spec", [GAUSS, TWO_TERM, CAUCHY])
@pytest.mark.parametrize("P", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 2])
def test_symmetric_tiles_match_double_loop(spec, P, monkeypatch):
    # The self sums evaluate each pair once: the first tile holds TILE_ROWS
    # rows, and past it the part right of each diagonal block is also added,
    # transposed, into the rows below that block.
    rng = np.random.default_rng(17 + P)
    x = 0.2 * rng.standard_normal((P, 3))
    alpha = rng.standard_normal((P, 3))
    monkeypatch.setattr(kernels, "TILE_FLOATS", TILE_ROWS * P)
    tiles = [rows for rows, _, _ in kernels._tiles(P, P, sym=True)]
    assert tiles[0] == slice(0, min(P, TILE_ROWS))
    assert (len(tiles) > 1) == (P > TILE_ROWS)

    k = [[radial_profile(spec, _sq(x[i], x[j])) for j in range(P)] for i in range(P)]
    dk = [[radial_profile(spec, _sq(x[i], x[j]), deriv=True) for j in range(P)] for i in range(P)]
    conv = np.array([sum(k[i][j] * alpha[j] for j in range(P)) for i in range(P)])
    force = 4.0 * np.array(
        [sum(dk[i][j] * (alpha[i] @ alpha[j]) * (x[i] - x[j]) for j in range(P)) for i in range(P)]
    )
    out = kernel_conv(spec, x, x, alpha)
    np.testing.assert_allclose(out, conv, rtol=1e-12, atol=1e-13)
    general = kernel_conv(spec, x, x.copy(), alpha)
    np.testing.assert_allclose(out, general, rtol=1e-13, atol=1e-13 * np.abs(general).max())
    assert np.array_equal(out, kernel_conv(spec, x, x, alpha))
    fused, grad = quad_form_grad_x(spec, x, alpha)
    np.testing.assert_allclose(fused, conv, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(grad, force, rtol=1e-12, atol=1e-13)
    assert np.array_equal(grad, quad_form_grad_x(spec, x, alpha)[1])
    # a vector of weights takes the same symmetric path
    np.testing.assert_allclose(
        kernel_conv(spec, x, x, alpha[:, 0]), conv[:, 0], rtol=1e-12, atol=1e-13
    )


@pytest.mark.parametrize("spec", [GAUSS, TWO_TERM, CAUCHY])
@pytest.mark.parametrize("P", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 2])
def test_tiled_kernel_tangent_matches_double_loop(spec, P, monkeypatch):
    # the tangent pass runs on the symmetric tiles with four buffers; past the
    # first tile of TILE_ROWS rows each pair also reaches the rows below it
    rng = np.random.default_rng(18 + P)
    x, wx = 0.2 * rng.standard_normal((2, P, 3))
    p, wp = rng.standard_normal((2, P, 3))
    monkeypatch.setattr(kernels, "TILE_FLOATS", 2 * TILE_ROWS * P)
    tiles = [rows for rows, _, _ in kernels._tiles(P, P, n_buffers=4, sym=True)]
    assert tiles[0] == slice(0, min(P, TILE_ROWS))
    assert (len(tiles) > 1) == (P > TILE_ROWS)

    conv = np.zeros((P, 3))
    grad = np.zeros((P, 3))
    for i in range(P):
        for j in range(P):
            u = _sq(x[i], x[j])
            k, dk = radial_profile(spec, u), radial_profile(spec, u, deriv=True)
            ddk = _profile_dd(spec, u)
            a = (x[i] - x[j]) @ (wx[i] - wx[j])
            pi, om = p[i] @ p[j], wp[i] @ p[j] + p[i] @ wp[j]
            conv[i] += k * wp[j] + 2.0 * dk * a * p[j]
            grad[i] += 4.0 * (2.0 * ddk * a * pi + dk * om) * (x[i] - x[j])
            grad[i] += 4.0 * dk * pi * (wx[i] - wx[j])
    out = kernel_tangent(spec, x, p, wx, wp)
    np.testing.assert_allclose(out[0], conv, rtol=1e-12, atol=1e-13 * np.abs(conv).max())
    np.testing.assert_allclose(out[1], grad, rtol=1e-12, atol=1e-13 * np.abs(grad).max())
    again = kernel_tangent(spec, x, p, wx, wp)
    assert np.array_equal(out[0], again[0]) and np.array_equal(out[1], again[1])


def test_kernel_tangent_is_the_derivative_of_the_self_sums():
    # against central differences of both outputs of quad_form_grad_x
    rng = np.random.default_rng(19)
    x, wx = 0.3 * rng.standard_normal((2, 40, 3))
    p, wp = rng.standard_normal((2, 40, 3))
    conv, grad = kernel_tangent(TWO_TERM, x, p, wx, wp)
    eps = 1e-6
    xp, xm, pp, pm = x + eps * wx, x - eps * wx, p + eps * wp, p - eps * wp
    plus, minus = quad_form_grad_x(TWO_TERM, xp, pp), quad_form_grad_x(TWO_TERM, xm, pm)
    fd_conv, fd_grad = ((a - b) / (2 * eps) for a, b in zip(plus, minus))
    np.testing.assert_allclose(conv, fd_conv, rtol=0, atol=1e-7 * np.abs(conv).max())
    np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-7 * np.abs(grad).max())


def test_offset_sum_matches_double_loop():
    rng = np.random.default_rng(13)
    for n in (1, 3):
        x = rng.standard_normal((6, n))
        y = rng.standard_normal((4, n))
        w = rng.standard_normal((6, 4))
        expected = np.array([sum(w[i, j] * (x[i] - y[j]) for j in range(4)) for i in range(6)])
        np.testing.assert_allclose(offset_sum(w, x, y), expected, rtol=1e-13, atol=1e-14)


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
    expected = (1.0 + radial_profile(GAUSS, delta**2)) * alpha[0]
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
    conv, grad = quad_form_grad_x(GAUSS, np.zeros((1, 3)), np.ones((1, 3)))
    np.testing.assert_array_equal(conv, np.ones((1, 3)))
    np.testing.assert_array_equal(grad, np.zeros((1, 3)))


@pytest.mark.parametrize("spec", [GAUSS, CAUCHY, TWO_TERM])
def test_quad_form_grad_matches_fd(spec):
    rng = np.random.default_rng(4)
    x = 0.5 * rng.standard_normal((5, 3))
    p = rng.standard_normal((5, 3))
    grad = quad_form_grad_x(spec, x, p)[1]
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
    grad = quad_form_grad_x(GAUSS, x, p)[1]
    np.testing.assert_allclose(grad[0], -grad[1], rtol=1e-12)


def test_scalar_kernel_eval_and_symmetry():
    # signals as an n = 1 point set, the way the varifold evaluates k_f
    a = np.array([[1.3], [0.2], [0.9]])
    K = _k(GAUSS, _sq_dists(a, a))
    np.testing.assert_array_equal(np.diag(K), 1.0)
    np.testing.assert_array_equal(K, K.T)
    for i in range(3):
        for j in range(3):
            assert K[i, j] == _k(GAUSS, (a[i, 0] - a[j, 0]) ** 2)


def test_scalar_kernel_grad_matches_fd():
    # sum_j c_ij d/da_i k_f((a_i - b_j)^2) = offset_sum(2 k_f' c, a, b)
    rng = np.random.default_rng(14)
    a = np.array([[0.0], [1.2], [2.0]])
    b = np.array([[0.5], [-0.3], [2.0], [0.1]])
    c = rng.standard_normal((3, 4))
    _, dk = _pair(GAUSS, _sq_dists(a, b))
    grad = offset_sum(2.0 * dk * c, a, b)[:, 0]
    eps = 1e-7
    for i in range(3):
        fd = sum(
            c[i, j]
            * (
                radial_profile(GAUSS, (a[i, 0] + eps - b[j, 0]) ** 2)
                - radial_profile(GAUSS, (a[i, 0] - eps - b[j, 0]) ** 2)
            )
            / (2 * eps)
            for j in range(4)
        )
        assert grad[i] == pytest.approx(fd, abs=1e-8)


UNORIENTED = GrassmannKernelSpec("unoriented_squared")
ORIENTED = GrassmannKernelSpec("oriented_linear")
CONSTANT = GrassmannKernelSpec("constant")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _unit_rows(rng, count):
    return np.array([_unit(rng.standard_normal(3)) for _ in range(count)])


def _pair_kernel(spec, u, v):
    """Reference frame kernel of one pair, from the mode's formula."""
    dot = float(u @ v)
    return {"unoriented_squared": dot**2, "oriented_linear": dot, "constant": 1.0}[spec.mode]


def _pair_grad(spec, u, v):
    """Reference d/du of the frame kernel, projected onto the tangent space at u."""
    dot = float(u @ v)
    raw = {"unoriented_squared": 2.0 * dot * v, "oriented_linear": v, "constant": 0.0 * v}
    raw = raw[spec.mode]
    return raw - float(raw @ u) * u


def _frame_sweep(spec, U, V, wu, wv):
    """The varifold sweep's value sum_ij wu_i wv_j k_t(U_i, V_j) and its
    frame partials, with every cell at the origin and signal 0 so that
    k_p = k_f = 1 and only the frame kernel varies."""
    def at_origin(frames, weights):
        return DiscreteVarifold(np.zeros_like(frames), frames, weights, np.zeros(len(weights)))

    a, b = at_origin(U, wu), at_origin(V, wv)
    K = VarifoldKernels(GAUSS, GAUSS, spec)
    value = varifold._sweep_value(a, ((b, 1.0),), K, sym=False)
    return value, varifold._sweep_partials(a, ((b, 1.0),), K)[2]


def test_grassmann_eval_identical():
    U = _unit_rows(np.random.default_rng(15), 4)
    for spec in (UNORIENTED, ORIENTED, CONSTANT):
        for u in U:
            value, _ = _frame_sweep(spec, u[None], u[None], [1.0], [1.0])
            assert value == pytest.approx(1.0, rel=1e-15)


def test_grassmann_unoriented_flip_invariant():
    rng = np.random.default_rng(16)
    U = _unit_rows(rng, 3)
    V = _unit_rows(rng, 4)
    wu, wv = rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 4)
    flipped, d_flipped = _frame_sweep(UNORIENTED, U, -V, wu, wv)
    value, d_value = _frame_sweep(UNORIENTED, U, V, wu, wv)
    assert flipped == pytest.approx(value, rel=1e-15)
    np.testing.assert_allclose(d_flipped, d_value, rtol=1e-14)


@pytest.mark.parametrize("spec", [UNORIENTED, ORIENTED, CONSTANT])
def test_grassmann_grad_tangent(spec):
    rng = np.random.default_rng(5)
    U = _unit_rows(rng, 10)
    V = _unit_rows(rng, 6)
    _, G = _frame_sweep(spec, U, V, rng.uniform(0.5, 1.5, 10), rng.uniform(0.5, 1.5, 6))
    assert np.abs(np.sum(G * U, axis=1)).max() < 1e-12


def test_grassmann_grad_matches_projected_fd():
    # FD of the weighted kernel sum along tangent directions at U[i]
    rng = np.random.default_rng(6)
    U = _unit_rows(rng, 3)
    V = _unit_rows(rng, 4)
    wu, wv = rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 4)
    eps = 1e-7
    for spec in (UNORIENTED, ORIENTED):
        _, G = _frame_sweep(spec, U, V, wu, wv)
        for i in range(3):
            for _ in range(4):
                t = rng.standard_normal(3)
                t -= (t @ U[i]) * U[i]  # tangent direction
                up, um = U.copy(), U.copy()
                up[i] = _unit(U[i] + eps * t)
                um[i] = _unit(U[i] - eps * t)
                fd = (_frame_sweep(spec, up, V, wu, wv)[0] - _frame_sweep(spec, um, V, wu, wv)[0]) / (
                    2 * eps
                )
                assert float(G[i] @ t) == pytest.approx(fd, abs=1e-6)


def test_grassmann_matrix_and_grad_sum_agree_with_pairwise():
    rng = np.random.default_rng(7)
    U = _unit_rows(rng, 4)
    V = _unit_rows(rng, 5)
    wu, wv = rng.uniform(0.5, 1.5, 4), rng.uniform(0.5, 1.5, 5)
    for spec in (UNORIENTED, ORIENTED, CONSTANT):
        value, G = _frame_sweep(spec, U, V, wu, wv)
        expected = sum(wu[i] * wv[j] * _pair_kernel(spec, U[i], V[j]) for i in range(4) for j in range(5))
        assert value == pytest.approx(expected, rel=1e-14)
        for i in range(4):
            grad = wu[i] * sum(wv[j] * _pair_grad(spec, U[i], V[j]) for j in range(5))
            np.testing.assert_allclose(G[i], grad, atol=1e-13)
