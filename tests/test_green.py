import math

import numpy as np
import pytest

from plurikernel import (
    DomainSpec,
    ValidationError,
    demailly_density,
    green_function,
    green_omega_identity_check,
    kernel_value,
    normal_derivative_green,
    poisson_disc,
    sphere_quadrature,
)
from plurikernel import green
from plurikernel.domains import outward_normal
from plurikernel.utils import sample_ball, sample_ball_rows, sample_sphere

E1 = np.array([1.0, 0.0], dtype=complex)
BALL2 = DomainSpec.unit_ball(2)
DISC = DomainSpec.disc()
BALL3 = DomainSpec.ball([0.3, -0.2j, 0.1 + 0.1j], 1.7)     # translated and scaled


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
    with pytest.raises(ValidationError, match="pole"):
        green_function(dom, 0.5 * E1, 0.5 * E1)


@pytest.mark.parametrize("dom", [DISC, BALL2, BALL3], ids=["disc", "unit_ball:2", "ball in C^3"])
def test_green_function_on_rows_equals_one_call_per_row(rng, dom):
    c, r = dom.center, dom.radius
    u = sample_ball(rng, dom.n, 0.8)
    z = c + r * u
    W = c + r * np.vstack([sample_ball_rows(rng, 40, dom.n, 0.999), sample_sphere(rng, dom.n),
                           u + 1e-9 * sample_sphere(rng, dom.n)])
    one_by_one = np.array([green_function(dom, z, w) for w in W])
    assert green_function(dom, z, W).tobytes() == one_by_one.tobytes()
    assert type(green_function(dom, z, W[0])) is float
    # a row at the pole, or outside the ball, raises what one call at it raises
    pole = c + 0.5 * r * np.eye(dom.n)[0]
    outside = c + 1.01 * r * sample_sphere(rng, dom.n)
    for bad, message in ((pole, "evaluated at its pole"), (outside, "requires z interior")):
        for w in (bad, np.vstack([W[:3], bad, W[3:]])):
            with pytest.raises(ValidationError, match=message):
                green_function(dom, pole, w)


def test_normal_derivative_ladder_is_one_green_call(rng, monkeypatch):
    one_call = green.green_function
    calls = []

    def counted(*args):
        calls.append(args)
        return one_call(*args)

    monkeypatch.setattr(green, "green_function", counted)
    for dom in (DISC, BALL2, BALL3):
        z = dom.center + dom.radius * sample_ball(rng, dom.n, 0.8)
        p = dom.center + dom.radius * sample_sphere(rng, dom.n)
        calls.clear()
        nd = normal_derivative_green(dom, z, p, h0=3e-3)
        assert len(calls) == 1
        # the quotients of the old per-step loop, bit for bit
        nu = outward_normal(dom, p)
        hs = [3e-3 * 2.0 ** -k for k in range(9)]
        steps = [(h, one_call(dom, z, p - h * nu) / h) for h in hs]
        assert repr(nd.step_sequence) == repr(steps)
        assert all(type(h) is float and type(q) is float for h, q in nd.step_sequence)


def test_normal_derivative_stencil_on_z_reports_the_green_pole():
    with pytest.raises(ValidationError, match="green_function evaluated at its pole"):
        normal_derivative_green(BALL2, E1 - 1e-3 * E1, E1, h0=1e-3)
    # z = p - h0 nu at seeded poles, where phi_z(z) need not round to 0 (42 of these 200 did not)
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = sample_sphere(rng, 2)
        with pytest.raises(ValidationError, match="green_function evaluated at its pole"):
            normal_derivative_green(BALL2, p - 1e-3 * outward_normal(BALL2, p), p, h0=1e-3)


@pytest.mark.parametrize("dom", [DISC, BALL2, BALL3], ids=["disc", "unit_ball:2", "ball in C^3"])
def test_green_pole_raises_at_every_seeded_point(dom):
    # phi_z(z) can round to a nonzero vector (on unit_ball:2, 238 of these
    # 1,000 points did), so the pole is also found by comparing w with z
    rng = np.random.default_rng(20240817)
    Z = [dom.center + dom.radius * sample_ball(rng, dom.n, 0.9) for _ in range(1000)]
    for z in Z:
        with pytest.raises(ValidationError, match="evaluated at its pole"):
            green_function(dom, z, z)
    with pytest.raises(ValidationError, match="evaluated at its pole"):
        green_function(dom, Z[7], np.array(Z[:8]))


def test_green_requires_symmetric_domain():
    with pytest.raises(ValidationError):
        normal_derivative_green(DomainSpec.ellipsoid([1.0, 2.0]), [0, 0], E1)


def test_normal_derivative_validation():
    with pytest.raises(ValidationError):
        normal_derivative_green(BALL2, E1, E1)
    with pytest.raises(ValidationError):
        normal_derivative_green(BALL2, [0, 0], [0.5, 0.0])
