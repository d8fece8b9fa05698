"""Acceptance criteria, one test per criterion, each with its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the achieved accuracy and timing.
"""

import math
import time

import numpy as np

from plurikernel import (
    BoundaryCurve,
    DomainSpec,
    SamplingPlan,
    boundary_limit,
    condition_equivalence_check,
    geodesic_through,
    green_omega_identity_check,
    horoball_inclusion_check,
    jwc_derivative_probes,
    kernel_value,
    lambda_estimate,
    poisson_disc,
    reproduce,
    restriction_identity_check,
    riesz_correction_1d,
    sandwich_bounds,
    sphere_quadrature,
)
from plurikernel.extrapolate import richardson
from plurikernel.geodesics import default_disc_grid
from plurikernel.julia import ball_auto_map, blaschke_map, constant_map, diag_map, identity_map, power_map
from plurikernel.utils import sample_ball, sample_sphere

E1 = np.array([1.0, 0.0], dtype=complex)
TWO_PI = 2.0 * math.pi


def _report(num, label, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d} [{label}]: PASS  {detail}  ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_ball_kernel_normal_limit():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        p = np.zeros(n, dtype=complex)
        p[0] = 1.0
        if n == 1:
            evaluator = lambda z: poisson_disc(1.0, z[0])
        else:
            evaluator = lambda z, n=n, p=p: kernel_value(DomainSpec.unit_ball(n), p, z).value
        curve = BoundaryCurve(gamma=lambda t, p=p: t * p, gamma_prime_at_1=p)
        res = boundary_limit(evaluator, curve, p)
        worst = max(worst, abs(res.estimate - (-2.0)))
    assert worst < 1e-6
    _report(1, "normal limit -2", f"max deviation {worst:.2e}", t0, 1.0)


def test_criterion_02_restriction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = default_disc_grid(200)
    worst = 0.0
    for _ in range(10):
        z = sample_ball(rng, 2, 0.8)
        p = sample_sphere(rng, 2)
        g = geodesic_through(z, p)
        assert g.chl_flag
        worst = max(worst, restriction_identity_check(p, g, grid))
    assert worst < 1e-8
    _report(2, "restriction identity", f"max deviation {worst:.2e}", t0, 5.0)


def test_criterion_03_green_kernel_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ball = DomainSpec.unit_ball(2)
    pairs = [(sample_ball(rng, 2, 0.8), sample_sphere(rng, 2)) for _ in range(50)]
    dev = green_omega_identity_check(ball, pairs, h0=1e-3)
    assert dev < 1e-5
    _report(3, "Green normal derivative", f"max deviation {dev:.2e}", t0, 10.0)


def test_criterion_04_mass_identity():
    t0 = time.perf_counter()
    err2 = abs(sphere_quadrature(2, 64).total_mass - TWO_PI ** 2)
    err1 = abs(sphere_quadrature(1, 64).total_mass - TWO_PI)
    assert err2 < 1e-8
    assert err1 < 1e-12
    _report(4, "mass identity", f"errors n=2: {err2:.2e}, n=1: {err1:.2e}", t0, 1.0)


def test_criterion_05_reproducing_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    rule = sphere_quadrature(2, 64)
    basis = [
        (lambda N: np.ones(len(N)), lambda z: 1.0),
        (lambda N: np.real(N[:, 0]), lambda z: float(np.real(z[0]))),
        (lambda N: np.real(N[:, 0] * N[:, 1]), lambda z: float(np.real(z[0] * z[1]))),
        (lambda N: np.real(N[:, 0] ** 2), lambda z: float(np.real(z[0] ** 2))),
    ]
    worst = 0.0
    for _ in range(10):
        z = sample_ball(rng, 2, 0.8)
        for f, exact in basis:
            worst = max(worst, abs(reproduce(f, z, rule) - exact(z)))
    assert worst < 1e-5
    _report(5, "reproducing formula", f"max error {worst:.2e}", t0, 30.0)


def test_criterion_06_riesz_formula():
    t0 = time.perf_counter()
    rule = sphere_quadrature(1, 64)
    dec2 = riesz_correction_1d(lambda w: np.abs(w) ** 2,
                               lambda w: 4.0 * np.ones_like(np.real(w)),
                               [0.0], rule, radial=200, angular=200)
    dec4 = riesz_correction_1d(lambda w: np.abs(w) ** 4,
                               lambda w: 16.0 * np.abs(w) ** 2,
                               [0.0], rule, radial=200, angular=200)
    err = max(abs(dec2.value), abs(dec4.value))
    assert err < 1e-4
    _report(6, "disc Riesz formula", f"max |value| {err:.2e}", t0, 10.0)


def test_criterion_07_julia_lemma():
    t0 = time.perf_counter()
    p1 = np.array([1.0 + 0j])
    f = blaschke_map(0.5)
    rep = lambda_estimate(f, p1, p1, SamplingPlan(seed=7, grid_count=300))
    lam_err = abs(rep.normal_ray_limit - 1.0 / 3.0)
    assert lam_err < 1e-6
    inc = horoball_inclusion_check(f, p1, p1, 1.0 / 3.0,
                                   radii=(0.1, 1.0, 10.0),
                                   samples_per_radius=500, seed=7)
    assert inc.ok
    assert inc.checked == 1500
    neg = horoball_inclusion_check(f, p1, p1, 0.5 / 3.0,
                                   radii=(0.1, 1.0, 10.0),
                                   samples_per_radius=500, seed=7)
    assert len(neg.violations) > 0
    _report(7, "Julia horoballs",
            f"lambda error {lam_err:.2e}, violations 0/{inc.checked}, "
            f"negative test {len(neg.violations)} violations", t0, 10.0)


def test_criterion_08_jwc_probes():
    t0 = time.perf_counter()
    p1 = np.array([1.0 + 0j])
    cases = [
        (identity_map(2), E1, E1, 1.0),
        (blaschke_map(0.5), p1, p1, 1.0 / 3.0),
        (diag_map([1.0, 0.5]), E1, E1, 1.0),
    ]
    worst1 = 0.0
    worst23 = 0.0
    for mapspec, p, q, oracle in cases:
        rep = jwc_derivative_probes(mapspec, p, q)
        worst1 = max(worst1, abs(rep.probe1_limit - oracle))
        worst23 = max(worst23, rep.probe2_tail, rep.probe3_tail)
    assert worst1 < 1e-5
    assert worst23 < 1e-4
    _report(8, "derivative probes",
            f"probe1 error {worst1:.2e}, probes 2-3 tail {worst23:.2e}", t0, 10.0)


def test_criterion_09_sandwich_bounds():
    t0 = time.perf_counter()
    ell = DomainSpec.ellipsoid([1.0, 2.0])
    kv = sandwich_bounds(ell, E1, 0.5 * E1)
    assert abs(kv.lo - (-3.0)) < 1e-12
    assert abs(kv.hi - (-2.0)) < 1e-12
    vals = [sandwich_bounds(ell, E1, [1 - 2.0 ** (-k), 0.0]) for k in range(3, 22)]
    ratio = richardson([kv.hi / kv.lo for kv in vals])
    assert abs(ratio.real - 1.0) < 1e-3
    _report(9, "sandwich bounds",
            f"interval [{kv.lo:g}, {kv.hi:g}], ratio limit error "
            f"{abs(ratio.real - 1.0):.2e}", t0, 5.0)


def test_criterion_10_condition_equivalence():
    t0 = time.perf_counter()
    p1 = np.array([1.0 + 0j])
    e2 = np.array([0.0, 1.0], dtype=complex)
    finite_cases = [
        (identity_map(1), p1),
        (blaschke_map(0.5), p1),
        (power_map(2), p1),
        (diag_map([1.0, 0.5]), E1),
        (ball_auto_map([0.3, 0.0]), E1),
    ]
    infinite_cases = [
        (constant_map([0.3], 1), p1),
        (diag_map([1.0, 0.5]), e2),
    ]
    for mapspec, p in finite_cases:
        rep = condition_equivalence_check(mapspec, p)
        assert rep.all_finite, mapspec.describe
    for mapspec, p in infinite_cases:
        rep = condition_equivalence_check(mapspec, p)
        assert rep.all_infinite, mapspec.describe
    _report(10, "condition equivalence",
            f"{len(finite_cases)} finite + {len(infinite_cases)} infinite consistent",
            t0, 10.0)
