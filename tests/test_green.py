import math

import numpy as np
import pytest

from plurikernel import (
    DomainSpec,
    ValidationError,
    demailly_density,
    green_function,
    green_omega_identity_check,
    is_neg_infinity,
    kernel_value,
    normal_derivative_green,
    poisson_disc,
    sphere_quadrature,
)
from plurikernel.utils import sample_ball, sample_sphere

E1 = np.array([1.0, 0.0], dtype=complex)
BALL2 = DomainSpec.unit_ball(2)
DISC = DomainSpec.disc()


def test_normal_derivative_at_ball_center():
    # G(0, p - h nu) = log(1 - h); the quotient log(1-h)/h tends to -1
    nd = normal_derivative_green(BALL2, [0, 0], E1)
    assert nd.value == pytest.approx(-1.0, abs=1e-9)
    h0, q0 = nd.step_sequence[0]
    assert q0 == pytest.approx(math.log(1 - h0) / h0, rel=1e-13)
    assert nd.value == pytest.approx(kernel_value(BALL2, E1, [0, 0]).value, abs=1e-9)


def test_normal_derivative_disc_center():
    nd = normal_derivative_green(DISC, [0.0], [1.0])
    assert nd.value == pytest.approx(poisson_disc(1.0, 0.0), abs=1e-7)


def test_first_order_convergence_pattern(rng):
    z = sample_ball(rng, 2, 0.6)
    p = sample_sphere(rng, 2)
    nd = normal_derivative_green(BALL2, z, p)
    qs = [q for _, q in nd.step_sequence]
    hs = [h for h, _ in nd.step_sequence]
    diffs = np.abs(np.diff(qs))
    # |q(h) - q(h/2)| <= C h with a stable constant
    consts = diffs / np.array(hs[:-1])
    assert np.isfinite(nd.lipschitz_estimate)
    assert nd.lipschitz_estimate == pytest.approx(np.max(consts))
    assert np.max(consts) < 10 * np.median(consts)
    # and the limit is approached at first order in h
    errs = np.abs(np.array(qs) - nd.value)
    assert errs[-1] <= nd.lipschitz_estimate * hs[-1] * 2


def test_green_omega_identity_ball(rng):
    pairs = [(sample_ball(rng, 2, 0.75), sample_sphere(rng, 2)) for _ in range(50)]
    dev = green_omega_identity_check(BALL2, pairs)
    assert dev < 1e-5


def test_green_omega_identity_disc(rng):
    pairs = [(sample_ball(rng, 1, 0.75), sample_sphere(rng, 1)) for _ in range(20)]
    dev = green_omega_identity_check(DISC, pairs)
    assert dev < 1e-7


def test_identity_ratio_near_pole():
    # both sides diverge along the normal ray; their ratio settles to 1
    for k in (4, 6, 8):
        z = np.array([1 - 2.0 ** (-k), 0.0], dtype=complex)
        nd = normal_derivative_green(BALL2, z, E1, h0=1e-4 * 2.0 ** (-k))
        om = kernel_value(BALL2, E1, z).value
        assert nd.value / om == pytest.approx(1.0, abs=1e-3)


def test_demailly_density_ball_center(rng):
    # (dG/dnu)^2 * levi density = 1 * 2 at the center, everywhere on the sphere
    for _ in range(10):
        p = sample_sphere(rng, 2)
        assert demailly_density(BALL2, [0, 0], p) == pytest.approx(2.0, rel=1e-12)


def test_demailly_total_mass(rng):
    # sum over a boundary rule of |Omega|^n w_i: equals (2 pi)^n at the center
    rule = sphere_quadrature(2, 32)
    dens = [abs(kernel_value(BALL2, xi, [0, 0]).value) ** 2 for xi in rule.nodes]
    total = float(np.dot(dens, rule.weights))
    assert total == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    # off-center: reproducing property of the constant function keeps mass
    z = sample_ball(rng, 2, 0.5)
    dens = np.array([abs(kernel_value(BALL2, xi, z).value) ** 2 for xi in rule.nodes])
    assert float(np.dot(dens, rule.weights)) == pytest.approx(
        (2 * math.pi) ** 2, rel=1e-10)


def test_demailly_density_unitary_invariance(rng):
    th = 0.9
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    z = sample_ball(rng, 2, 0.7)
    p = sample_sphere(rng, 2)
    assert demailly_density(BALL2, U @ z, U @ p) == pytest.approx(
        demailly_density(BALL2, z, p), rel=1e-10)


def test_demailly_density_positive_and_matches_disc(rng):
    for _ in range(20):
        z = sample_ball(rng, 1, 0.9)
        p = sample_sphere(rng, 1)
        d = demailly_density(DISC, z, p)
        assert d > 0
        assert d == pytest.approx(abs(poisson_disc(p[0], z[0])), abs=1e-8)


def test_green_function_general_ball():
    dom = DomainSpec.ball(0.5 * E1, 0.5)
    g = green_function(dom, 0.5 * E1, [0.75, 0.0])
    assert g == pytest.approx(math.log(0.5), abs=1e-12)
    assert is_neg_infinity(green_function(dom, 0.5 * E1, 0.5 * E1))


def test_green_requires_symmetric_domain():
    with pytest.raises(ValidationError):
        normal_derivative_green(DomainSpec.ellipsoid([1.0, 2.0]), [0, 0], E1)


def test_normal_derivative_validation():
    with pytest.raises(ValidationError):
        normal_derivative_green(BALL2, E1, E1)
    with pytest.raises(ValidationError):
        normal_derivative_green(BALL2, [0, 0], [0.5, 0.0])
