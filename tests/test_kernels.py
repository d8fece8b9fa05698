import numpy as np
import pytest

from plurikernel import (
    BoundaryCurve,
    DomainSpec,
    KernelValue,
    Provenance,
    ValidationError,
    boundary_limit,
    green_function,
    kernel_value,
    kobayashi,
    mobius_ball,
    poisson_disc,
    pullback_kernel,
    rescale_couple,
)
from plurikernel.julia import ball_auto_map, blaschke_map, identity_map, unitary_map
from plurikernel.kernels import mobius_ball_jacobian
from plurikernel.utils import herm, sample_ball, sample_ball_rows, sample_sphere

import oracle

E1 = np.array([1.0, 0.0], dtype=complex)
BALL2 = DomainSpec.unit_ball(2)


# -- disc Poisson kernel ------------------------------------------------------

def test_poisson_disc_examples():
    assert poisson_disc(1.0, 0.0) == pytest.approx(-1.0)
    for r in (0.1, 0.5, 0.9):
        assert poisson_disc(1.0, r) == pytest.approx(-(1 + r) / (1 - r), rel=1e-14)


def test_poisson_disc_radial_rate():
    curve = BoundaryCurve(gamma=lambda t: np.array([t + 0j]),
                          gamma_prime_at_1=np.array([1.0 + 0j]))
    res = boundary_limit(lambda z: poisson_disc(1.0, z[0]), curve, [1.0 + 0j])
    assert res.estimate == pytest.approx(-2.0, abs=1e-10)
    assert res.predicted == pytest.approx(-2.0)


def test_poisson_disc_validation():
    with pytest.raises(ValidationError):
        poisson_disc(0.5, 0.0)
    with pytest.raises(ValidationError):
        poisson_disc(1.0, 1.2)


def test_disc_kernel_at_pole_inside_circle():
    # a pole within the boundary tolerance inside the circle is a point of the
    # open disc too; the kernel there is the typed pole error, not a division by 0
    p = 1 - 5e-10
    with pytest.raises(ValidationError, match="kernel evaluated at its pole"):
        poisson_disc(p, p)
    for dom in (DomainSpec.disc(), DomainSpec.unit_ball(1), DomainSpec.ball([0], 1)):
        with pytest.raises(ValidationError, match="kernel evaluated at its pole"):
            kernel_value(dom, [p], [p])


# -- Mobius automorphisms ------------------------------------------------------

def test_mobius_examples(rng):
    z0 = np.array([0.3, 0.2 - 0.1j])
    assert np.allclose(mobius_ball(z0, z0), 0)
    for _ in range(100):
        w = sample_ball(rng, 2, 0.999)
        assert np.allclose(mobius_ball(z0, mobius_ball(z0, w)), w, atol=1e-12)
    w = sample_ball(rng, 3)
    assert np.allclose(mobius_ball(np.zeros(3), w), -w)


def test_mobius_anchor_validation():
    with pytest.raises(ValidationError):
        mobius_ball(E1, [0.0, 0.0])
    with pytest.raises(ValidationError):
        mobius_ball([0.5, 0.0], [2.0, 0.0])


def test_kobayashi_rejects_exterior_points():
    with pytest.raises(ValidationError):
        kobayashi(DomainSpec.unit_ball(2), [0, 0], [1.5, 0.0])


def test_mobius_jacobian_matches_finite_differences(rng):
    z0 = sample_ball(rng, 2, 0.6)
    w = sample_ball(rng, 2, 0.7)
    J = mobius_ball_jacobian(z0, w)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2, complex)
        e[j] = 1.0
        col = (mobius_ball(z0, w + h * e) - mobius_ball(z0, w - h * e)) / (2 * h)
        assert np.allclose(J[:, j], col, atol=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_mobius_jacobian_rows_within_the_stated_bound(n):
    # 300 seeded (z0, W) with 1-4 rows: each row's matrix is within 3 eps kappa of
    # the point call's, relative to its largest entry, kappa = 1/(1 - |z0|^2) +
    # 1/|1 - <w, z0>|; in C, where numpy's 1 x 1 products round unlike a point's,
    # both are within 4 eps kappa of phi'(w) = -(1 - |a|^2)/(1 - w conj(a))^2
    rng = np.random.default_rng(20240825)
    for _ in range(300):
        z0 = sample_ball(rng, n, 0.999)
        for count in range(1, 5):
            W = sample_ball_rows(rng, count, n, 0.999)
            J = mobius_ball_jacobian(z0, W)
            points = np.array([mobius_ball_jacobian(z0, w) for w in W])
            kappa = 1.0 / (1.0 - np.vdot(z0, z0).real) + 1.0 / np.abs(1.0 - W @ z0.conj())
            scale = oracle.EPS * kappa * np.abs(points).max(axis=(1, 2))
            assert np.all(np.abs(J - points).max(axis=(1, 2)) <= 3 * scale)
            assert J.tobytes() == mobius_ball_jacobian(z0, W.copy()).tobytes()
            if n == 1:
                exact = [oracle.disc_mobius_derivative(z0[0], w) for w in W[:, 0]]
                for rows in (J[:, 0, 0], points[:, 0, 0]):
                    errors = np.array([oracle.rel_error(x, y) for x, y in zip(rows, exact)])
                    assert np.all(errors <= 4 * oracle.EPS * kappa)


# -- ball kernel ----------------------------------------------------------------

def test_omega_ball_examples():
    kv = kernel_value(DomainSpec.unit_ball(2), E1, [0, 0])
    assert kv.value == pytest.approx(-1.0)
    assert kv.provenance is Provenance.CLOSED_FORM
    for t in (0.2, 0.7, 0.95):
        v = kernel_value(BALL2, E1, [t, 0.0]).value
        assert v * (1 - t) == pytest.approx(-(1 + t), rel=1e-13)


def test_omega_general_ball_scaling():
    # (1/r) * Omega((z-c)/r) at the translated pole
    ball = DomainSpec.ball(0.5 * E1, 0.5)
    kv = kernel_value(ball, E1, 0.5 * E1)
    assert kv.value == pytest.approx(-2.0, rel=1e-14)
    # normal-rate cross-check for the scaled ball
    curve = BoundaryCurve(gamma=lambda t: np.array([t, 0.0], dtype=complex),
                          gamma_prime_at_1=E1)
    res = boundary_limit(
        lambda z: kernel_value(ball, E1, z).value, curve, E1)
    assert res.estimate == pytest.approx(-2.0, abs=1e-8)


def test_omega_ball_zero_at_boundary_away_from_pole(rng):
    for _ in range(20):
        q = sample_sphere(rng, 2)
        if abs(herm(q, E1) - 1) < 1e-3:
            continue
        assert kernel_value(BALL2, E1, q).value == pytest.approx(0.0, abs=1e-12)
        # along random interior sequences converging to q the kernel tends to 0
        vals = [kernel_value(BALL2, E1, (1 - 2.0 ** -k) * q).value for k in range(3, 24)]
        assert abs(vals[-1]) < 1e-5
        assert all(abs(a) >= abs(b) for a, b in zip(vals, vals[1:]))
    for _ in range(20):
        z = sample_ball(rng, 2, 0.95)
        assert kernel_value(BALL2, E1, z).value < 0


def test_omega_ball_radial_restriction_is_poisson():
    for zeta in [0.3, -0.5, 0.2 + 0.6j, 0.9j, -0.87 + 0.1j]:
        lhs = kernel_value(BALL2, E1, [zeta, 0.0]).value
        rhs = poisson_disc(1.0, zeta)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_omega_ball_pole_and_outside_errors():
    with pytest.raises(ValidationError):
        kernel_value(BALL2, E1, E1)
    with pytest.raises(ValidationError):
        kernel_value(BALL2, E1, [1.5, 0.0])


def test_couple_rescaling_exact():
    kv = kernel_value(DomainSpec.unit_ball(2), E1, [0.3, 0.1j])
    for rho in (0.5, 2.0, 7.0):
        scaled = rescale_couple(kv, rho)
        assert scaled.value == pytest.approx(kv.value / rho, rel=1e-15)
        assert rescale_couple(kv.value, rho) == kv.value / rho


# -- Kobayashi distance ----------------------------------------------------------

def test_kobayashi_examples(rng):
    ball = DomainSpec.unit_ball(2)
    z = sample_ball(rng, 2, 0.8)
    assert kobayashi(ball, z, z) == pytest.approx(0.0, abs=1e-12)
    disc = DomainSpec.disc()
    for r in (0.1, 0.5, 0.9):
        assert kobayashi(disc, [0.0], [r]) == pytest.approx(np.arctanh(r), rel=1e-12)
    # invariance under automorphisms
    for _ in range(10):
        u = sample_ball(rng, 2, 0.7)
        w = sample_ball(rng, 2, 0.9)
        z2 = sample_ball(rng, 2, 0.9)
        d1 = kobayashi(ball, z2, w)
        d2 = kobayashi(ball, mobius_ball(u, z2), mobius_ball(u, w))
        assert d1 == pytest.approx(d2, abs=1e-11)


def test_kobayashi_domain_validation():
    with pytest.raises(ValidationError):
        kobayashi(DomainSpec.ellipsoid([1.0, 2.0]), [0, 0], [0.1, 0])


# -- Green function -----------------------------------------------------------------

def test_green_ball_pole_at_origin(rng):
    # envelope properties of the candidate log||w||: negative inside, zero on
    # the boundary, log pole at 0, automorphism invariant
    for _ in range(20):
        w = sample_ball(rng, 2, 0.95)
        g = green_function(BALL2, np.zeros(2), w)
        assert g == pytest.approx(np.log(np.linalg.norm(w)), abs=1e-12)
        assert g < 0
    q = sample_sphere(rng, 2)
    assert green_function(BALL2, np.zeros(2), q) == pytest.approx(0.0, abs=1e-12)
    # log pole: G - log||w|| bounded as w -> 0
    for s in (1e-2, 1e-4, 1e-6):
        w = s * q
        assert abs(green_function(BALL2, np.zeros(2), w) - np.log(s)) < 1e-12


def test_green_ball_boundary_normalization(rng):
    z = sample_ball(rng, 2, 0.5)
    q = sample_sphere(rng, 2)
    vals = [green_function(BALL2, z, (1 - 2.0 ** -k) * q) for k in range(3, 20)]
    assert abs(vals[-1]) < 1e-4
    assert all(abs(a) > abs(b) for a, b in zip(vals, vals[1:]))


def test_green_ball_symmetry(rng):
    for _ in range(100):
        z = sample_ball(rng, 2, 0.9)
        w = sample_ball(rng, 2, 0.9)
        if np.linalg.norm(z - w) < 1e-6:
            continue
        assert green_function(BALL2, z, w) == pytest.approx(green_function(BALL2, w, z), abs=1e-10)


def test_green_ball_pole_sentinel():
    # the Green function raises at its interior pole, as a kernel does at its boundary pole
    z = np.array([0.2, 0.1j])
    with pytest.raises(ValidationError, match="green_function evaluated at its pole"):
        green_function(BALL2, z, z)


def test_green_ball_submean_on_complex_lines(rng):
    # plurisubharmonicity proxy: value at the center of a small circle in any
    # complex line is at most the circle average
    z = np.array([0.3, -0.2j])
    for _ in range(10):
        w0 = sample_ball(rng, 2, 0.6)
        if np.linalg.norm(w0 - z) < 0.05:
            continue
        v = sample_sphere(rng, 2)
        r = 0.05
        thetas = 2 * np.pi * np.arange(64) / 64
        avg = np.mean([green_function(BALL2, z, w0 + r * np.exp(1j * t) * v) for t in thetas])
        assert green_function(BALL2, z, w0) <= avg + 1e-9


# -- boundary limits -----------------------------------------------------------------

def test_boundary_limit_ball_examples():
    curve = BoundaryCurve(gamma=lambda t: np.array([t, 0.0], dtype=complex),
                          gamma_prime_at_1=E1)
    res = boundary_limit(lambda z: kernel_value(BALL2, E1, z).value, curve, E1)
    assert res.estimate == pytest.approx(-2.0, abs=1e-9)
    assert res.predicted == pytest.approx(-2.0)
    # doubled derivative halves the limit
    curve2 = BoundaryCurve(gamma=lambda t: np.array([1 - 2 * (1 - t), 0.0], dtype=complex),
                           gamma_prime_at_1=2 * E1)
    res2 = boundary_limit(lambda z: kernel_value(BALL2, E1, z).value, curve2, E1)
    assert res2.predicted == pytest.approx(-1.0)
    assert res2.estimate == pytest.approx(-1.0, abs=1e-9)


def test_boundary_limit_rejects_tangential_curves():
    curve = BoundaryCurve(gamma=lambda t: np.array([1.0, 0.0], dtype=complex),
                          gamma_prime_at_1=np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ValidationError):
        boundary_limit(lambda z: 0.0, curve, E1)


def _random_transversal_curve(rng, n, p):
    # gamma(t) = p - (1-t) d - (1-t)^2 e with Re<d, nu> > 0, interior for t<1
    nu = p
    d = nu + 0.3 * (sample_ball(rng, n, 1.0))
    if np.real(herm(d, nu)) < 0.2:
        d = d + nu
    e = 0.2 * sample_ball(rng, n, 1.0)

    def gamma(t):
        s = 1.0 - t
        z = p - s * d - s * s * e
        return z * min(1.0, (1 - 1e-14) / np.linalg.norm(z)) if np.linalg.norm(z) >= 1 else z

    return BoundaryCurve(gamma=gamma, gamma_prime_at_1=d)


def test_boundary_limit_random_curves_match_prediction(rng):
    for n in (1, 2):
        p = sample_sphere(rng, n)
        for _ in range(20):
            curve = _random_transversal_curve(rng, n, p)
            res = boundary_limit(lambda z: kernel_value(DomainSpec.unit_ball(n), p, z).value, curve, p)
            assert res.deviation < 1e-6


# -- kernel pullback -----------------------------------------------------------------

def test_pullback_identity():
    F = identity_map(2)
    pulled = pullback_kernel(F, E1)
    for z in [np.array([0.2, 0.3j]), np.array([-0.4, 0.1])]:
        assert pulled.evaluator(z) == pytest.approx(kernel_value(BALL2, E1, z).value, rel=1e-14)
    assert pulled.scale_to_standard == pytest.approx(1.0)


def test_pullback_unitary(rng):
    # unitary invariance: pullback at pole U* q equals direct evaluation at q
    th = 0.7
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    F = unitary_map(U)
    q = sample_sphere(rng, 2)
    pulled = pullback_kernel(F, q)
    assert pulled.scale_to_standard == pytest.approx(1.0, abs=1e-12)
    for _ in range(20):
        z = sample_ball(rng, 2, 0.9)
        direct = kernel_value(BALL2, U.conj().T @ q, z).value
        assert pulled.evaluator(z) == pytest.approx(direct, rel=1e-11)


def test_pullback_ball_automorphism_standardized(rng):
    # renormalizing the pulled-back couple recovers the kernel at the preimage pole
    z0 = np.array([0.3, -0.2 + 0.1j])
    F = ball_auto_map(z0)
    q = sample_sphere(rng, 2)
    pulled = pullback_kernel(F, q)
    p = pulled.pole
    assert np.linalg.norm(p - mobius_ball(z0, q)) < 1e-12
    std = pulled.standard_evaluator()
    for _ in range(100):
        z = sample_ball(rng, 2, 0.95)
        assert std(z) == pytest.approx(kernel_value(BALL2, p, z).value, abs=1e-9, rel=1e-9)


def test_pullback_disc_target_uses_the_disc_kernel():
    # the evaluator is the target's kernel_value, also on the disc: 1,000 seeded
    # points near the circle agree bit for bit (the ball formula with n = 1
    # differed in the last digits on most of them)
    rng = np.random.default_rng(3)
    q = np.array([np.exp(0.3j)])
    disc = DomainSpec.disc()
    pulled = pullback_kernel(identity_map(1), q)
    for _ in range(1000):
        z = np.array([(1.0 - 10.0 ** -rng.uniform(1.0, 6.0)) * np.exp(2j * np.pi * rng.random())])
        assert pulled.evaluator(z) == kernel_value(disc, q, z).value


def test_pullback_rejects_unregistered_maps():
    with pytest.raises(ValidationError):
        pullback_kernel(lambda z: z, E1)
    with pytest.raises(ValidationError, match="registered inverse"):
        pullback_kernel(blaschke_map(0.5), np.array([1.0], dtype=complex))


# -- KernelValue ----------------------------------------------------------------------

def test_kernel_value_validation():
    with pytest.raises(ValidationError):
        KernelValue.interval(-1.0, -2.0)
    with pytest.raises(ValidationError):
        KernelValue.closed_form(0.5)
    kv = KernelValue.interval(-3.0, -2.0)
    assert kv.width == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        _ = kv.value
