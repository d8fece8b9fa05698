import math

import numpy as np
import pytest

from plurikernel import (
    DomainSpec,
    Horoball,
    SamplingPlan,
    ValidationError,
    condition_equivalence_check,
    horoball_inclusion_check,
    jwc_derivative_probes,
    lambda_estimate,
    map_from_json,
)
from plurikernel.julia import (
    ball_auto_map,
    blaschke_map,
    compose_maps,
    constant_map,
    diag_map,
    domain_kernel,
    identity_map,
    power_map,
    product_map,
    unitary_map,
)
from plurikernel.utils import sample_ball

E1 = np.array([1.0, 0.0], dtype=complex)
P1 = np.array([1.0 + 0j])
PLAN = SamplingPlan(seed=7, grid_count=200)


# -- dilation estimates ---------------------------------------------------------

def test_lambda_identity_ball():
    rep = lambda_estimate(identity_map(2), E1, E1, PLAN)
    assert rep.lambda_estimate == pytest.approx(1.0, abs=1e-9)
    assert rep.normal_ray_limit == pytest.approx(1.0, abs=1e-9)


def test_lambda_blaschke_half():
    # angular derivative oracle: f'(1) = (1 - a^2)/(1 + a)^2 = 1/3 for a = 1/2
    rep = lambda_estimate(blaschke_map(0.5), P1, P1, PLAN)
    assert rep.normal_ray_limit == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rep.lambda_estimate == pytest.approx(1.0 / 3.0, abs=1e-6)
    # ray limit <= grid sup <= analytic dilation
    assert rep.normal_ray_limit <= rep.lambda_estimate + 1e-9
    assert rep.lambda_estimate <= 1.0 / 3.0 + 1e-6


def test_lambda_projection_map():
    # f(z) = (z1, 0): the ratio (1 - ||z||^2)/(1 - |z1|^2) has supremum 1
    rep = lambda_estimate(diag_map([1.0, 0.0]), E1, E1, PLAN)
    assert rep.lambda_estimate <= 1.0 + 1e-9
    assert rep.normal_ray_limit == pytest.approx(1.0, abs=1e-8)


def test_lambda_ray_below_grid_sup_invariant():
    for m, p, q in [(identity_map(2), E1, E1), (blaschke_map(0.5), P1, P1),
                    (diag_map([1.0, 0.0]), E1, E1)]:
        rep = lambda_estimate(m, p, q, PLAN)
        assert rep.normal_ray_limit <= rep.lambda_estimate + 1e-9


def test_lambda_wrong_target_diverges():
    rep = lambda_estimate(blaschke_map(0.5), P1, np.array([-1.0 + 0j]), PLAN)
    assert rep.diverged
    assert rep.lambda_estimate == float("inf")


def test_lambda_composition_multiplicative():
    f = blaschke_map(0.5)        # lambda = 1/3
    g = blaschke_map(1.0 / 3.0)  # automorphism fixing 1, lambda = (1-1/3)/(1+1/3) = 1/2
    rep_f = lambda_estimate(f, P1, P1, PLAN)
    rep_fg = lambda_estimate(compose_maps(f, g), P1, P1, PLAN)
    assert rep_fg.normal_ray_limit == pytest.approx(
        rep_f.normal_ray_limit * 0.5, abs=1e-6)


def test_e_p_sequence_transport():
    f = blaschke_map(0.5)
    kern_q = domain_kernel(DomainSpec.disc(), P1)
    vals = []
    for k in range(3, 30):
        z = P1 * (1 - 2.0 ** (-k))
        vals.append(kern_q(f(z)).value)
    assert all(a > b for a, b in zip(vals, vals[1:]))   # monotone to -infinity
    assert vals[-1] < -1e6


# -- horoballs -------------------------------------------------------------------

def test_horoball_membership_disc():
    kern = domain_kernel(DomainSpec.disc(), P1)
    ball = Horoball(pole=P1, radius=1.0, kernel=kern)
    # P(z) < -1 iff |1-z|^2 < 1 - |z|^2: the horocycle through 0 has boundary at 0
    assert ball.contains([0.5]) == 1
    assert ball.contains([-0.5]) == -1


def test_horoball_membership_interval_cases():
    ell = DomainSpec.ellipsoid([1.0, 2.0])
    kern = domain_kernel(ell, E1)
    z = 0.5 * E1              # enclosure [-3, -2]
    assert Horoball(pole=E1, radius=1.0, kernel=kern).contains(z) == 1     # hi < -1
    assert Horoball(pole=E1, radius=0.25, kernel=kern).contains(z) == -1   # lo >= -4
    assert Horoball(pole=E1, radius=0.4, kernel=kern).contains(z) == 0     # straddles


def test_horoball_inclusion_identity():
    rep = horoball_inclusion_check(identity_map(2), E1, E1, 1.0,
                                   radii=(0.5, 2.0), samples_per_radius=100, seed=3)
    assert rep.ok
    assert rep.checked == 200
    assert rep.undetermined == 0


def test_horoball_inclusion_blaschke():
    rep = horoball_inclusion_check(blaschke_map(0.5), P1, P1, 1.0 / 3.0,
                                   radii=(0.1, 1.0, 10.0),
                                   samples_per_radius=200, seed=5)
    assert rep.ok
    # tightness: the image of the horocycle boundary meets the target boundary
    assert rep.ray_tightness.real == pytest.approx(1.0, abs=1e-6)


def test_horoball_inclusion_negative_test():
    rep = horoball_inclusion_check(blaschke_map(0.5), P1, P1, 0.5 / 3.0,
                                   radii=(0.1, 1.0, 10.0),
                                   samples_per_radius=200, seed=5)
    assert not rep.ok
    assert all(v.margin >= 0 for v in rep.violations)


def test_horoball_inclusion_requires_finite_lambda():
    with pytest.raises(ValidationError):
        horoball_inclusion_check(identity_map(2), E1, E1, float("inf"))


# -- derivative probes --------------------------------------------------------------

def test_probes_identity_ball():
    rep = jwc_derivative_probes(identity_map(2), E1, E1)
    assert rep.probe1_limit.real == pytest.approx(1.0, abs=1e-10)
    assert abs(rep.probe1_limit.imag) < 1e-10
    assert rep.probe2_tail < 1e-12
    assert rep.probe3_tail < 1e-12
    assert rep.probe_max[4] <= 1.0 + 1e-9


def test_probes_blaschke_disc():
    rep = jwc_derivative_probes(blaschke_map(0.5), P1, P1)
    assert rep.probe1_limit.real == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert rep.probe2_tail < 1e-10
    assert rep.probe3_tail == 0.0     # no complex tangent directions in the disc


def test_probes_diag_map():
    rep = jwc_derivative_probes(diag_map([1.0, 0.5]), E1, E1)
    assert rep.probe1_limit.real == pytest.approx(1.0, abs=1e-8)
    assert rep.probe3_tail < 1e-12
    assert rep.probe_max[4] <= 0.5 + 1e-9


@pytest.mark.parametrize("anchor", [[0.3, 0.0], [0.2, 0.1], [0.0, 0.4], [0.25, -0.3]])
def test_probes_ball_automorphism(anchor):
    # dilation oracle for the involutive automorphism with the given anchor:
    # lambda = (1 - ||a||^2)/|1 - <p, a>|^2
    a = np.asarray(anchor, dtype=complex)
    f = ball_auto_map(a)
    q = f(E1)
    q = q / np.linalg.norm(q)
    oracle = (1 - np.linalg.norm(a) ** 2) / abs(1 - np.vdot(a, E1)) ** 2
    rep = jwc_derivative_probes(f, E1, q)
    assert rep.probe1_limit.real == pytest.approx(oracle, abs=1e-8)
    assert abs(rep.probe1_limit.imag) < 1e-8
    assert rep.probe2_limit < 1e-4
    assert rep.probe3_limit < 1e-4
    assert np.isfinite(rep.probe_max[4])
    est = lambda_estimate(f, E1, q, PLAN)
    assert est.normal_ray_limit == pytest.approx(oracle, abs=1e-7)


def test_probes_refused_for_infinite_dilation():
    with pytest.raises(ValidationError):
        jwc_derivative_probes(constant_map([0.3], 1), P1, P1)


# -- condition equivalence ------------------------------------------------------------

def test_equivalence_identity():
    rep = condition_equivalence_check(identity_map(2), E1)
    assert rep.all_finite
    assert rep.lambda_value == pytest.approx(1.0, abs=1e-7)
    assert rep.kobayashi_liminf == pytest.approx(0.0, abs=1e-7)
    assert rep.distance_ratio_liminf == pytest.approx(1.0, abs=1e-7)


def test_equivalence_square_map():
    # f(z) = z^2 at p = 1: f'(1) = 2; conditions (1), (2), (3) = (2, log(2)/2, 2)
    rep = condition_equivalence_check(power_map(2), P1)
    assert rep.all_finite
    assert rep.lambda_value == pytest.approx(2.0, abs=1e-6)
    assert rep.kobayashi_liminf == pytest.approx(0.5 * math.log(2.0), abs=1e-6)
    assert rep.distance_ratio_liminf == pytest.approx(2.0, abs=1e-6)


def test_equivalence_constant_map():
    rep = condition_equivalence_check(constant_map([0.3], 1), P1)
    assert rep.all_infinite
    assert rep.consistent


def test_equivalence_collapsing_direction():
    # diag(1, 1/2) at p = e2: the image recedes from the target boundary
    rep = condition_equivalence_check(diag_map([1.0, 0.5]),
                                      np.array([0.0, 1.0], dtype=complex))
    assert rep.all_infinite
    assert rep.consistent


@pytest.mark.parametrize("mapspec,p", [
    (identity_map(1), P1),
    (blaschke_map(0.5), P1),
    (power_map(2), P1),
    (diag_map([1.0, 0.5]), E1),
    (ball_auto_map([0.3, 0.0]), E1),
])
def test_equivalence_finite_family(mapspec, p):
    rep = condition_equivalence_check(mapspec, p)
    assert rep.all_finite
    assert rep.consistent


# -- map registry ----------------------------------------------------------------------

def test_map_from_json_forms(rng):
    f = map_from_json('{"blaschke": {"a": 0.5}}')
    assert f([0.0])[0] == pytest.approx(0.5)
    g = map_from_json('{"power": 2}')
    assert g([0.5j])[0] == pytest.approx(-0.25)
    d = map_from_json('{"diag": [1.0, 0.5]}')
    assert np.allclose(d([0.2, 0.4]), [0.2, 0.2])
    a = map_from_json('{"ball_auto": {"anchor": [[0.3, 0.0], [0.0, 0.0]]}}')
    assert np.allclose(a([0.3, 0.0]), 0.0, atol=1e-14)
    c = map_from_json('{"compose": [{"power": 2}, {"blaschke": {"a": 0.5}}]}')
    assert c([0.0])[0] == pytest.approx(0.25)   # (f o g)(0) = f(0.5)
    i = map_from_json('{"identity": 2}')
    z = sample_ball(rng, 2)
    assert np.allclose(i(z), z)
    pr = map_from_json('{"product": 2}')
    assert pr([0.5, 0.5])[0] == pytest.approx(0.25)


def test_map_jacobians_match_finite_differences(rng):
    maps = [blaschke_map(0.3 + 0.2j), power_map(3), diag_map([0.8, 0.5]),
            ball_auto_map([0.2, 0.1j]), product_map(2)]
    for m in maps:
        z = sample_ball(rng, m.source.n, 0.5)
        J = m.derivative(z)
        h = 1e-6
        for j in range(m.source.n):
            e = np.zeros(m.source.n, complex)
            e[j] = 1.0
            col = (m(z + h * e) - m(z - h * e)) / (2 * h)
            assert np.allclose(J[:, j], col, atol=1e-7), m.describe


def test_map_from_json_rejects_unknown():
    with pytest.raises(ValidationError):
        map_from_json('{"frobnicate": 1}')
    with pytest.raises(ValidationError):
        map_from_json('{"blaschke": {"a": 0.5}, "power": 2}')
    # bad JSON, missing keys and wrong types
    for spec in ('{"blaschke": {}}', '{"power": "x"}', "not_json", '{"blaschke": {"a": []}}',
                 '{"ball_auto": {"anchor": [[0.3]]}}', '{"compose": 5}',
                 '{"compose": [{"power": "x"}]}'):
        with pytest.raises(ValidationError):
            map_from_json(spec)


def test_map_range_validation():
    with pytest.raises(ValidationError):
        constant_map([1.5], 1)
    with pytest.raises(ValidationError):
        blaschke_map(1.0)
    with pytest.raises(ValidationError):
        diag_map([2.0])
    # U^H U = [[1, 1], [1, 1]] equals eye(1) by broadcasting, so shape is checked first
    with pytest.raises(ValidationError, match="square"):
        unitary_map([[1, 1]])


def test_unitary_map_preserves_kernel(rng):
    th = 0.4
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    f = unitary_map(U)
    rep = lambda_estimate(f, E1, U @ E1, PLAN)
    assert rep.lambda_estimate == pytest.approx(1.0, abs=1e-9)
