import numpy as np
import pytest

from plurikernel import (
    DomainSpec,
    ValidationError,
    geodesic_through,
    kernel_value,
    kobayashi,
    poisson_disc,
    restriction_identity_check,
)
from plurikernel.extrapolate import refine_until
from plurikernel.geodesics import default_disc_grid
from plurikernel.utils import herm, norm, sample_ball, sample_sphere

import oracle

E1 = np.array([1.0, 0.0], dtype=complex)


def test_radial_geodesic_through_origin():
    g = geodesic_through([0, 0], E1)
    assert g.chl_flag
    for zeta in (0.3, -0.5 + 0.2j, 0.9j):
        assert np.allclose(g.phi(zeta), [zeta, 0.0], atol=1e-14)
    assert np.allclose(g.chl_direction, E1)
    assert np.allclose(g.phi1_prime, E1)


def test_geodesic_through_half_point_same_image():
    # through 0.5 e1 and e1: same image disc; normalization recovers zeta -> zeta e1
    g = geodesic_through(0.5 * E1, E1)
    for zeta in (0.2, -0.7, 0.4 + 0.4j):
        w = g.phi(zeta)
        assert abs(w[1]) < 1e-13          # image inside the radial disc
        assert np.allclose(w, [zeta, 0.0], atol=1e-12)


def test_chl_conditions_random(rng):
    for n in (2, 3):
        for _ in range(20):
            z = sample_ball(rng, n, 0.8)
            p = sample_sphere(rng, n)
            g = geodesic_through(z, p)
            nu = p
            d1 = herm(g.phi1_prime, nu)
            # phi'(1) = <v, nu> v with unit v: <phi'(1), nu> = |phi'(1)|^2 > 0
            assert abs(d1.imag) < 1e-8
            assert d1.real > 0
            assert abs(d1 - herm(g.phi1_prime, g.phi1_prime)) < 1e-8
            assert abs(np.imag(herm(g.phi1_second, nu))) < 1e-8
            assert norm(g.chl_direction) == pytest.approx(1.0, abs=1e-12)
            # anchored at p
            assert np.allclose(g.phi(1.0), p, atol=1e-9)


def test_left_inverse_radial():
    g = geodesic_through([0, 0], E1)
    for w in [np.array([0.3, 0.5j]), np.array([-0.2 + 0.1j, 0.6])]:
        assert g.rho_tilde(w) == pytest.approx(w[0], abs=1e-13)


def test_left_inverse_and_projection_identities(rng):
    z = sample_ball(rng, 2, 0.7)
    p = sample_sphere(rng, 2)
    g = geodesic_through(z, p)
    for _ in range(100):
        zeta = sample_ball(rng, 1, 0.97)[0]
        assert g.rho_tilde(g.phi(zeta)) == pytest.approx(zeta, abs=1e-10)
    for _ in range(100):
        w = sample_ball(rng, 2, 0.95)
        r1 = g.rho(w)
        assert np.allclose(g.rho(r1), r1, atol=1e-10)   # rho o rho = rho


def test_geodesics_are_kobayashi_isometries(rng):
    ball = DomainSpec.unit_ball(2)
    disc = DomainSpec.disc()
    z = sample_ball(rng, 2, 0.6)
    p = sample_sphere(rng, 2)
    g = geodesic_through(z, p)
    for _ in range(10):
        z1 = sample_ball(rng, 1, 0.9)[0]
        z2 = sample_ball(rng, 1, 0.9)[0]
        lhs = kobayashi(ball, g.phi(z1), g.phi(z2))
        rhs = kobayashi(disc, [z1], [z2])
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_restriction_identity_radial():
    g = geodesic_through([0, 0], E1)
    dev = restriction_identity_check(E1, g, default_disc_grid(200))
    assert dev < 1e-10


def test_restriction_identity_random_chl(rng):
    for _ in range(5):
        z = sample_ball(rng, 2, 0.75)
        p = sample_sphere(rng, 2)
        g = geodesic_through(z, p)
        dev = restriction_identity_check(p, g, default_disc_grid(200))
        assert dev < 1e-8


def test_restriction_identity_general_ball(rng):
    center = np.array([0.2, -0.1j])
    radius = 0.6
    p = center + radius * sample_sphere(rng, 2)
    z = center + sample_ball(rng, 2, 0.5 * radius)
    g = geodesic_through(z, p, center=center, radius=radius)
    dev = restriction_identity_check(p, g, default_disc_grid(100))
    assert dev < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("radius", [1.0, 0.6])
def test_restriction_check_is_the_per_point_maximum(n, radius):
    # the array check is the maximum of per-point kernel_value and poisson_disc
    # deviations at the same phi rows, within the kernels' row bound
    # (3 eps / (1 - |w|^2) relative on each side), and within 8 of those units
    # of the mpmath deviation, on the default grid and on seeded grids
    rng = np.random.default_rng(1000 * n + int(10 * radius))
    for trial in range(4):
        center = np.zeros(n, dtype=complex) if radius == 1.0 else 0.3 * sample_ball(rng, n, 1.0)
        dom = DomainSpec.ball(center, radius)
        z = center + sample_ball(rng, n, 0.8 * radius)
        g = geodesic_through(z, center + radius * sample_sphere(rng, n),
                             normalize_chl=trial % 2 == 0, center=center, radius=radius)
        p = g.boundary_point
        factor = (1.0 / herm(g.phi1_prime, g.nu)).real
        seeded = np.array([sample_ball(rng, 1, 0.95)[0] for _ in range(40)])
        for grid in (default_disc_grid(50), seeded):
            rows = g.phi(grid)
            lhs = np.array([kernel_value(dom, p, w).value for w in rows])
            rhs = np.array([factor * poisson_disc(1.0, zeta) for zeta in grid])
            unit = oracle.EPS * np.max(np.abs(lhs) * oracle.ball_conditions(center, radius, rows)
                                       + np.abs(rhs) / (1.0 - np.abs(grid) ** 2))
            check = restriction_identity_check(p, g, grid)
            assert abs(check - np.max(np.abs(lhs - rhs))) <= 3 * unit
            true = max(abs(a - b) for a, b in oracle.restriction_sides(g, grid))
            assert abs(check - true) <= 8 * unit


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("radius", [1.0, 0.6])
def test_phi_rows_are_per_point_phi(n, radius):
    # phi on a 1-D array gives an (M, n) array whose rows lie within
    # 18 eps (|c| + r) of the per-point calls on the array's elements, CHL and
    # raw, on complex and real grids and on one element; a scalar keeps the
    # one-point form.  At every row the restriction identity holds in mpmath
    # within 100 eps |rhs| / (1 - |w|^2): phi's rounding, through the kernel
    rng = np.random.default_rng(2000 * n + int(10 * radius))
    for trial in range(6):
        center = np.zeros(n, dtype=complex) if radius == 1.0 else 0.3 * sample_ball(rng, n, 1.0)
        z = center + sample_ball(rng, n, 0.8 * radius)
        g = geodesic_through(z, center + radius * sample_sphere(rng, n),
                             normalize_chl=trial % 2 == 0, center=center, radius=radius)
        seeded = np.array([sample_ball(rng, 1, 0.99)[0] for _ in range(60)])
        for grid in (default_disc_grid(), seeded, np.linspace(-0.95, 0.95, 97), seeded[:1]):
            rows = g.phi(grid)
            assert rows.shape == (len(grid), n)
            assert rows.tobytes() == g.phi(grid.copy()).tobytes()
            points = np.array([g.phi(zeta) for zeta in grid])
            assert np.max(np.linalg.norm(rows - points, axis=1)) <= 18 * oracle.EPS * (norm(center) + radius)
            sides = oracle.restriction_sides(g, grid[::3])
            for (lhs, rhs), k in zip(sides, oracle.ball_conditions(center, radius, rows[::3])):
                assert abs(lhs - rhs) <= 100 * oracle.EPS * abs(rhs) * k
        assert g.phi(complex(seeded[0])).shape == (n,)


def test_restriction_check_refuses_an_empty_grid():
    g = geodesic_through([0, 0], E1)
    with pytest.raises(ValidationError):
        restriction_identity_check(E1, g, [])
    with pytest.raises(ValidationError):
        default_disc_grid(0)


def test_chl_factor_is_inverse_square_of_normal_component(rng):
    # theta kills tangential parts: theta(phi'(1)) = <v, nu>^2
    z = sample_ball(rng, 2, 0.7)
    p = sample_sphere(rng, 2)
    g = geodesic_through(z, p)
    v_dot_nu = herm(g.chl_direction, p)
    theta = herm(g.phi1_prime, p)
    assert theta == pytest.approx(v_dot_nu ** 2, abs=1e-10)
    factor = (1.0 / theta).real
    assert factor == pytest.approx(1.0 / (v_dot_nu.real ** 2), rel=1e-9)


def test_restriction_identity_requires_matching_pole():
    g = geodesic_through([0, 0], E1)
    with pytest.raises(ValidationError):
        restriction_identity_check([0.0, 1.0], g)


def test_geodesic_validation():
    with pytest.raises(ValidationError):
        geodesic_through(E1, E1)            # z on the boundary
    with pytest.raises(ValidationError):
        geodesic_through([0.5, 0.0], [0.5, 0.0])


def test_geodesic_anchor_is_refused_as_a_kernel_pole():
    # the anchor takes the kernel's pole test: the disc's modulus, and the sphere's norm in C^2
    disc, ball = DomainSpec.disc(), DomainSpec.unit_ball(2)
    for p in (0.5, 1.0 + 2e-9, 1j * (1.0 - 2e-9)):
        for call in (lambda: geodesic_through([0.0], [p]), lambda: poisson_disc(p, 0.0),
                     lambda: kernel_value(disc, [p], [0.0])):
            with pytest.raises(ValidationError, match="pole must be unimodular"):
                call()
    for p in ([0.5, 0.0], [0.6, 0.8j * (1.0 + 2e-9)]):
        for call in (lambda: geodesic_through([0.0, 0.0], p),
                     lambda: kernel_value(ball, p, [0.0, 0.0])):
            with pytest.raises(ValidationError, match="pole must lie on the unit sphere"):
                call()


def _geodesic_with_normal_component(eps, tau, p):
    # anchor direction v = eps*nu + sqrt(1-eps^2)*tau, second point p - eps*v
    v = eps * p + np.sqrt(1 - eps ** 2) * tau
    z = p - eps * v
    return geodesic_through(z, p), v


def test_tangential_collapse_monotone(rng):
    # as the direction turns complex-tangential, the normal component of the
    # geodesic's displacement from p collapses, monotonically along eps
    p = sample_sphere(rng, 2)
    # tangent unit vector
    t0 = sample_sphere(rng, 2)
    tau = t0 - herm(t0, p) * p
    tau = tau / norm(tau)
    zetas = default_disc_grid(60, rmax=0.9)
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        g, v = _geodesic_with_normal_component(eps, tau, p)
        worst = max(abs(herm(g.phi(z) - p, p)) / norm(g.phi(z) - p) for z in zetas)
        ratios.append(worst)
    assert ratios[0] > ratios[1] > ratios[2]


def test_normal_rate_along_chl_geodesic(rng):
    # along z_k = phi(r_k), r_k -> 1: Omega(z_k) |<p - z_k, nu>| -> -2 for CHL
    # parametrizations (theta(nu) = 1 and <v, nu> > 0)
    z = sample_ball(rng, 2, 0.6)
    p = sample_sphere(rng, 2)
    g = geodesic_through(z, p)
    vals = []
    for k in range(3, 22):
        r = 1.0 - 2.0 ** (-k)
        zk = g.phi(r)
        vals.append(kernel_value(DomainSpec.unit_ball(2), p, zk).value * abs(herm(p - zk, p)))
    est = refine_until(lambda _: vals, start_level=3, max_level=21)
    assert est.real == pytest.approx(-2.0, abs=1e-4)
