import numpy as np
import pytest
from scipy.integrate import quad

from metamorph import SphereState, integrate_sphere
from metamorph.sphere import chi, chi_prime
from metamorph.meshes import icosphere
from metamorph.sphere import mean_radius, sphere_vertex_momenta

SIGMA = 0.3


def chi_funk_hecke(r, sigma):
    """Independent quadrature oracle: 2 pi * int_-1^1 u k(2 r^2 (1-u)) du."""
    integrand = lambda u: u * np.exp(-2.0 * r * r * (1.0 - u) / (2.0 * sigma * sigma))
    value, _ = quad(integrand, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * np.pi * value


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 5.0])
def test_chi_positive(r):
    assert chi(r, SIGMA) > 0.0


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 1.0, 2.0])
def test_chi_matches_quadrature(r):
    assert chi(r, SIGMA) == pytest.approx(chi_funk_hecke(r, SIGMA), rel=1e-8)


def test_chi_large_radius_decay():
    assert chi(5.0, SIGMA) / chi(1.0, SIGMA) < 0.05


def test_chi_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        chi(0.0, SIGMA)
    with pytest.raises(ValueError):
        chi(-1.0, SIGMA)


@pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
def test_chi_prime_matches_fd(r):
    eps = 1e-6 * r
    fd = (chi(r + eps, SIGMA) - chi(r - eps, SIGMA)) / (2 * eps)
    assert chi_prime(r, SIGMA) == pytest.approx(fd, rel=1e-8)


def test_chi_prime_sign_change():
    # chi has an interior maximum: increasing at small r, decaying at large r
    rs = np.linspace(0.05, 2.0, 200)
    derivs = np.array([chi_prime(r, SIGMA) for r in rs])
    assert derivs[0] > 0.0
    assert derivs[-1] < 0.0
    assert int((np.sign(derivs[1:]) != np.sign(derivs[:-1])).sum()) == 1


def test_chi_scale_invariance():
    lam = 2.3
    for r in (0.3, 1.0):
        assert chi(lam * r, lam * SIGMA) == pytest.approx(chi(r, SIGMA), rel=1e-13)
        assert chi_prime(lam * r, lam * SIGMA) == pytest.approx(
            chi_prime(r, SIGMA) / lam, rel=1e-13
        )


def test_integrate_sphere_fixed_point():
    s0 = SphereState(radius=0.8, signal=0.4, momentum=0.0, signal_momentum=0.0)
    path = integrate_sphere(s0, 1.0, 1.0, SIGMA, 20)
    for s in path:
        assert s.radius == pytest.approx(0.8)
        assert s.signal == pytest.approx(0.4)
        assert s.momentum == 0.0


def test_integrate_sphere_recall_term_expands():
    # zero radial momentum, nonzero signal momentum: the coupling pumps the
    # momentum up and the radius strictly increases from the start
    s0 = SphereState(radius=0.8, signal=0.0, momentum=0.0, signal_momentum=0.5)
    path = integrate_sphere(s0, 1.0, 1.0, SIGMA, 50)
    radii = [s.radius for s in path]
    assert all(b > a for a, b in zip(radii[:10], radii[1:11]))
    assert path[1].momentum > 0.0


def test_integrate_sphere_contract_then_expand():
    # reference momenta: radius dips once, then grows
    s0 = SphereState(radius=0.6, signal=0.0, momentum=-0.25, signal_momentum=-0.6)
    path = integrate_sphere(s0, 1.0, 5.0, SIGMA, 200)
    radii = np.array([s.radius for s in path])
    dr = np.diff(radii)
    sign_changes = int((np.sign(dr[1:]) != np.sign(dr[:-1])).sum())
    assert sign_changes == 1
    assert dr[0] < 0.0 and dr[-1] > 0.0


def test_integrate_sphere_signal_quadrature_identity():
    # f1 - f0 = (pf / gamma_f) * int_0^1 r^-2 dt along the computed path
    gamma_f = 5.0
    pf = -0.6
    s0 = SphereState(radius=0.6, signal=0.2, momentum=-0.25, signal_momentum=pf)
    n = 2000
    path = integrate_sphere(s0, 1.0, gamma_f, SIGMA, n)
    t = np.linspace(0.0, 1.0, n + 1)
    radii = np.array([s.radius for s in path])
    integral = np.trapezoid(radii**-2.0, t)
    assert path[-1].signal - path[0].signal == pytest.approx(
        pf / gamma_f * integral, abs=1e-6
    )


def test_integrate_sphere_rk4_self_convergence():
    s0 = SphereState(radius=0.6, signal=0.0, momentum=-0.25, signal_momentum=-0.6)
    ends = {}
    for n in (25, 50, 100):
        ends[n] = integrate_sphere(s0, 1.0, 5.0, SIGMA, n)[-1].radius
    change_coarse = abs(ends[50] - ends[25])
    change_fine = abs(ends[100] - ends[50])
    assert change_fine < change_coarse / 12.0  # order-4 signature (16x nominal)


def test_integrate_sphere_pf_constant():
    s0 = SphereState(radius=1.0, signal=0.0, momentum=0.1, signal_momentum=-0.3)
    path = integrate_sphere(s0, 1.0, 1.0, SIGMA, 10)
    assert all(s.signal_momentum == -0.3 for s in path)


def test_integrate_sphere_radius_crossing_zero():
    # huge inward momentum collapses the sphere within the unit interval
    s0 = SphereState(radius=0.2, signal=0.0, momentum=-50.0, signal_momentum=0.0)
    with pytest.raises(RuntimeError, match="radius"):
        integrate_sphere(s0, 1.0, 1.0, SIGMA, 100)


def test_sphere_vertex_momenta_scaling():
    mesh = icosphere(2, radius=1.0)
    p0, pf = sphere_vertex_momenta(mesh, -0.25, -0.6)
    from metamorph.fem import lumped_vertex_weights

    areas = lumped_vertex_weights(mesh)
    # unit radius: momenta are the plain lumped-area scaling
    np.testing.assert_allclose(pf, -0.6 * areas, rtol=1e-6)
    norms = np.linalg.norm(p0, axis=1)
    np.testing.assert_allclose(norms, 0.25 * areas, rtol=1e-6)
    # outward direction
    outward = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    cos = np.sum(p0 * outward, axis=1) / norms
    np.testing.assert_allclose(cos, -1.0, atol=1e-12)


def test_mean_radius():
    mesh = icosphere(1, radius=0.7)
    assert mean_radius(mesh.vertices) == pytest.approx(0.7, rel=1e-12)
