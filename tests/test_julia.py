import math
from functools import partial

import numpy as np
import pytest

from plurikernel import (
    DomainSpec,
    Horoball,
    MapSpec,
    SamplingPlan,
    ValidationError,
    condition_equivalence_check,
    horoball_inclusion_check,
    jwc_derivative_probes,
    kernel_value,
    lambda_estimate,
    map_from_json,
)
from plurikernel import julia
from plurikernel.julia import (
    _kernel_ratio_ray,
    ball_auto_map,
    blaschke_map,
    compose_maps,
    constant_map,
    diag_map,
    identity_map,
    power_map,
    product_map,
    unitary_map,
)
from plurikernel.kernels import mobius_ball
from plurikernel.utils import sample_ball, sample_ball_rows

import oracle

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
    kern_q = partial(kernel_value, DomainSpec.disc(), P1)
    vals = []
    for k in range(3, 30):
        z = P1 * (1 - 2.0 ** (-k))
        vals.append(kern_q(f(z)).value)
    assert all(a > b for a, b in zip(vals, vals[1:]))   # monotone to -infinity
    assert vals[-1] < -1e6


# -- horoballs -------------------------------------------------------------------

def test_horoball_membership_disc():
    kern = partial(kernel_value, DomainSpec.disc(), P1)
    ball = Horoball(pole=P1, radius=1.0, kernel=kern)
    # P(z) < -1 iff |1-z|^2 < 1 - |z|^2: the horocycle through 0 has boundary at 0
    assert ball.contains([0.5]) == 1
    assert ball.contains([-0.5]) == -1


def test_horoball_membership_interval_cases():
    ell = DomainSpec.ellipsoid([1.0, 2.0])
    kern = partial(kernel_value, ell, E1)
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


def test_horoball_draw_outside_is_counted_not_redrawn(monkeypatch):
    # each radius draws its samples once: a draw the source kernel certifies
    # outside H(p, R) (here -0.99, at every radius) counts as undetermined
    draws = julia._horoball_draws

    def one_outside(rng, n, R, count, Q):
        W = draws(rng, n, R, count, Q)
        W[0] = -0.99 * P1
        return W

    monkeypatch.setattr(julia, "_horoball_draws", one_outside)
    rep = horoball_inclusion_check(blaschke_map(0.5), P1, P1, 1.0 / 3.0,
                                   radii=(0.1, 1.0, 10.0), samples_per_radius=100, seed=5)
    assert rep.ok
    assert (rep.checked, rep.undetermined) == (300, 3)


def test_horoball_inclusion_requires_finite_lambda():
    with pytest.raises(ValidationError):
        horoball_inclusion_check(identity_map(2), E1, E1, float("inf"))


def test_negative_seed_is_refused():
    # numpy's default_rng raises a bare ValueError for a negative seed
    with pytest.raises(ValidationError, match="seed"):
        lambda_estimate(blaschke_map(0.5), P1, P1, SamplingPlan(seed=-1))
    with pytest.raises(ValidationError, match="seed"):
        horoball_inclusion_check(blaschke_map(0.5), P1, P1, 1.0 / 3.0, seed=-1)


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


def test_probes_on_a_translated_scaled_ball():
    # z -> c + 1.5 z from the unit ball onto B(c, 1.5) and its inverse: the
    # projections are read in unit-ball coordinates, so the dilations 1.5 and
    # 1/1.5 come out with vanishing mixed components
    c, r = np.array([0.2 + 0.1j, -0.3]), 1.5
    ball, big = DomainSpec.unit_ball(2), DomainSpec.ball(c, r)
    p = np.array([0.6, 0.8j])
    out = MapSpec(fn=lambda z: c + r * z, jacobian=lambda z: r * np.eye(2), source=ball, target=big)
    back = MapSpec(fn=lambda w: (w - c) / r, jacobian=lambda w: np.eye(2) / r,
                   source=big, target=ball)
    for m, a, b, lam in ((out, p, c + r * p, r), (back, c + r * p, p, 1 / r)):
        assert lambda_estimate(m, a, b, PLAN).normal_ray_limit == pytest.approx(lam, abs=1e-12)
        assert condition_equivalence_check(m, a).lambda_value == pytest.approx(lam, abs=1e-12)
        rep = jwc_derivative_probes(m, a, b)
        assert rep.probe1_limit == pytest.approx(lam, abs=1e-12)
        assert max(rep.probe2_limit, rep.probe3_limit, rep.probe2_tail, rep.probe3_tail) < 1e-10
        assert rep.probe_max[4] == pytest.approx(lam, abs=1e-12)


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
    h = 1e-6
    for m in _nine_maps() + [diag_map([0.8, 0.5]), product_map(2)]:
        Z = sample_ball_rows(rng, 20, m.source.n, 0.5)
        J = m.derivative(Z)
        for j, e in enumerate(np.eye(m.source.n)):
            cols = (m(Z + h * e) - m(Z - h * e)) / (2 * h)
            assert np.allclose(J[:, :, j], cols, atol=1e-7), m.describe


def test_map_from_json_rejects_unknown():
    with pytest.raises(ValidationError):
        map_from_json('{"frobnicate": 1}')
    with pytest.raises(ValidationError):
        map_from_json('{"blaschke": {"a": 0.5}, "power": 2}')
    # bad JSON, missing keys and wrong types
    for spec in ('{"blaschke": {}}', '{"power": "x"}', "not_json", '{"blaschke": {"a": []}}',
                 '{"ball_auto": {"anchor": [[0.3]]}}', '{"compose": 5}',
                 '{"compose": [{"power": "x"}]}',
                 # a count that is not an integer is refused, not truncated
                 '{"power": 2.5}', '{"power": true}', '{"identity": 2.9}', '{"product": 1.5}',
                 '{"constant": {"c": [[0.1, 0]], "n_source": 1.5}}'):
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


def test_ball_auto_anchor_checked_when_built():
    # outside the ball the Jacobian died in math.sqrt; on the sphere it gave a matrix
    for anchor in ([1.2, 0.0], [0.6, 0.8j], [1.0, 0.0]):
        with pytest.raises(ValidationError, match="anchor must be inside"):
            ball_auto_map(anchor)
        spec = {"ball_auto": {"anchor": [[z.real, z.imag] for z in np.asarray(anchor, complex)]}}
        with pytest.raises(ValidationError, match="anchor must be inside"):
            map_from_json(spec)
    assert ball_auto_map([0.6, 0.79j]).derivative([0.1, 0.0]).shape == (2, 2)


def test_unitary_map_preserves_kernel(rng):
    th = 0.4
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    f = unitary_map(U)
    rep = lambda_estimate(f, E1, U @ E1, PLAN)
    assert rep.lambda_estimate == pytest.approx(1.0, abs=1e-9)


# -- maps act on the last axis ---------------------------------------------------------

def _nine_maps():
    th = 0.4
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    return [identity_map(2), blaschke_map(0.3 + 0.2j), power_map(3), diag_map([0.8, 0.5j]),
            ball_auto_map([0.2, 0.1j]), unitary_map(U), constant_map([0.1, 0.2j], 3),
            product_map(3), compose_maps(power_map(2), blaschke_map(0.4))]


def test_maps_act_row_by_row(rng):
    for m in _nine_maps():
        Z = np.array([sample_ball(rng, m.source.n, 0.95) for _ in range(50)])
        W = m(Z)
        assert W.shape == (50, m.target.n), m.describe
        assert np.array_equal(W, np.array([m(z) for z in Z])), m.describe
        if m.inverse is not None:
            assert np.array_equal(m.inverse(W), np.array([m.inverse(w) for w in W])), m.describe
        J = m.derivative(Z)
        assert J.shape == (50, m.target.n, m.source.n), m.describe
        assert np.array_equal(J, np.array([m.derivative(z) for z in Z])), m.describe
    a = np.array([0.3, -0.2 + 0.1j])
    Z = np.array([sample_ball(rng, 2, 1.0) for _ in range(50)])
    assert np.array_equal(mobius_ball(a, Z), np.array([mobius_ball(a, z) for z in Z]))
    # a constant Jacobian broadcasts over the rows; any other shape is refused
    dom, target = DomainSpec.unit_ball(3), DomainSpec.unit_ball(2)
    A = np.arange(6.0).reshape(2, 3)
    m = MapSpec(fn=lambda z: z @ A.T, jacobian=lambda z: A, source=dom, target=target)
    Z = sample_ball_rows(rng, 50, 3, 0.9)
    assert np.array_equal(m.derivative(Z), np.broadcast_to(A, (50, 2, 3)))
    assert np.array_equal(m.derivative(Z[0]), A)
    for jac in (lambda z: A.T,                        # (n, m)
                lambda z: A[0],                       # a row, which would broadcast
                lambda z: A[:1],                      # (1, n), which would broadcast
                lambda z: np.broadcast_to(A, (7, 2, 3)),   # rows that are not the points'
                lambda z: A[..., None]):
        m = MapSpec(fn=lambda z: z @ A.T, jacobian=jac, source=dom, target=target)
        for z in (Z[0], Z):
            with pytest.raises(ValidationError, match="jacobian shape"):
                m.derivative(z)


def test_map_with_wrong_output_shape_is_refused():
    dom = DomainSpec.unit_ball(2)
    eye = np.eye(2, dtype=complex)
    for fn in (lambda z: np.array([z[0], z[1]]),   # indexes points, not coordinates
               lambda z: z[..., :1],                # drops a coordinate
               lambda z: np.zeros(2, complex)):     # ignores the rows
        m = MapSpec(fn=fn, jacobian=lambda z: eye, source=dom, target=dom)
        with pytest.raises(ValidationError):
            m(np.zeros((5, 2)))


# -- seeded estimator outputs -------------------------------------------------------------

def _bench_maps():
    """The benchmark's five maps as (label, map, p, q, dilation)."""
    one = np.array([1.0 + 0j])
    a = np.array([0.3 + 0.1j, -0.2 + 0.15j])
    p = np.array([0.6, 0.8j])
    a2 = float(np.vdot(a, a).real)
    proj = (np.vdot(a, p) / a2) * a     # q = phi_a(p), written out as the benchmark does
    q = (a - proj - math.sqrt(1.0 - a2) * (p - proj)) / (1.0 - np.vdot(a, p))
    lam_auto = (1 - a2) / abs(1 - np.vdot(a, p)) ** 2
    return [("blaschke", blaschke_map(0.4), one, one, 0.6 / 1.4),
            ("power", power_map(3), one, one, 3.0),
            ("ball_auto", ball_auto_map(a), p, q, lam_auto),
            ("diag", diag_map([1.0, 0.5 + 0.3j]), E1, E1, 1.0),
            ("compose", compose_maps(blaschke_map(0.3), power_map(2)), one, one, 2 * 0.7 / 1.3)]


# lambda_estimate's (estimate, ray limit, diverged) and horoball_inclusion_check's
# (checked, violations, undetermined, ray tightness), seeds 11 and 2024, on the one
# ladder with its round-off floor.  Relative errors against the closed forms
# (``_exact_dilations``, and 1 for the tightness), as test_estimator_outputs_pinned
# checks them: blaschke 5.6e-14 (13.25 digits) in all three; power and diag 0;
# ball_auto 3.9e-15 (seed 11) and 3.8e-15 (seed 2024) for the grid sup,
# 6.6e-16 for the ray limit, 1.2e-14 for the tightness; compose 5.4e-15, and
# 4.6e-15 for the tightness.  The ladder that stopped only on an error of 0
# read blaschke, ball_auto and compose past their floor, to 8.6, 8.3 and 8.2 digits.
ESTIMATOR_PINS = {
    ("blaschke", 11): ((0.42857142857145264, 0.42857142857145264, False), (300, 0, 0, 1.0000000000000562)),
    ("power", 11): ((3.0, 3.0, False), (300, 0, 0, 1.0)),
    ("ball_auto", 11): ((1.5555349182763805, 1.5555349182763734, False), (300, 0, 0, 0.9999999999999883)),
    ("diag", 11): ((1.0, 1.0, False), (300, 0, 0, 1.0)),
    ("compose", 11): ((1.076923076923071, 1.076923076923071, False), (300, 0, 0, 0.9999999999999954)),
    ("blaschke", 2024): ((0.42857142857145264, 0.42857142857145264, False), (300, 0, 0, 1.0000000000000562)),
    ("power", 2024): ((3.0, 3.0, False), (300, 0, 0, 1.0)),
    ("ball_auto", 2024): ((1.5555349182763802, 1.5555349182763734, False), (300, 0, 0, 0.9999999999999883)),
    ("diag", 2024): ((1.0, 1.0, False), (300, 0, 0, 1.0)),
    ("compose", 2024): ((1.076923076923071, 1.076923076923071, False), (300, 0, 0, 0.9999999999999954)),
}

#: Relative distance of every normal-ray limit of the five maps (and of the pinned
#: estimates above) from its closed form; the largest is blaschke's 5.6e-14.
RAY_BOUND = 1e-12


def _exact_dilations():
    """The five maps' dilations from the oracle, at 40 digits."""
    a, p = np.array([0.3 + 0.1j, -0.2 + 0.15j]), np.array([0.6, 0.8j])
    return {"blaschke": oracle.dilation_blaschke(0.4), "power": oracle.mp.mpf(3),
            "ball_auto": oracle.dilation_ball_auto(a, p), "diag": oracle.mp.mpf(1),
            "compose": 2 * oracle.dilation_blaschke(0.3)}


def _within_2_ulp(got, want):
    return abs(got - want) <= 2 * np.spacing(max(abs(got), abs(want)))


def _counted(m, calls):
    """m with every call's argument shape appended to calls."""
    def fn(z):
        calls.append(z.shape)
        return m.fn(z)
    return MapSpec(fn=fn, jacobian=m.jacobian, source=m.source, target=m.target)


def test_lambda_estimate_reads_its_sup_from_the_ray():
    # the grid and the ray are one map call each
    for label, m, p, q, _ in _bench_maps():
        want = lambda_estimate(m, p, q, SamplingPlan(seed=11))
        calls = []
        rep = lambda_estimate(_counted(m, calls), p, q, SamplingPlan(seed=11))
        assert len(calls) == 2 and calls[1] == (24, m.source.n), label
        assert rep.lambda_estimate == want.lambda_estimate, label
        assert rep.normal_ray_limit == want.normal_ray_limit, label
        assert rep.ray_error == want.ray_error, label


@pytest.mark.parametrize("seed", [11, 2024])
def test_estimator_outputs_pinned(seed):
    exact = _exact_dilations()
    for label, m, p, q, lam in _bench_maps():
        (est, ray, diverged), (checked, violations, undetermined, tight) = ESTIMATOR_PINS[label, seed]
        # each pin lies within RAY_BOUND of its closed form
        assert max(oracle.rel_error(est, exact[label]), oracle.rel_error(ray, exact[label]),
                   oracle.rel_error(tight, oracle.mp.mpf(1))) <= RAY_BOUND, label
        rep = lambda_estimate(m, p, q, SamplingPlan(seed=seed))
        assert rep.diverged is diverged, label
        assert _within_2_ulp(rep.lambda_estimate, est), label
        assert _within_2_ulp(rep.normal_ray_limit, ray), label
        inc = horoball_inclusion_check(m, p, q, lam, samples_per_radius=100, seed=seed)
        assert (inc.checked, len(inc.violations), inc.undetermined) == (checked, violations, undetermined)
        assert _within_2_ulp(inc.ray_tightness.real, tight), label


def test_normal_ray_limits_near_closed_form_dilation():
    # lambda_estimate's ray, the equivalence check's kernel-ratio ray and the
    # horoball tightness ray of the five benchmark maps
    exact = _exact_dilations()
    for label, m, p, q, lam in _bench_maps():
        ray = lambda_estimate(m, p, q, SamplingPlan(seed=11)).normal_ray_limit
        eq = condition_equivalence_check(m, p).lambda_value
        tight = horoball_inclusion_check(m, p, q, lam, samples_per_radius=10).ray_tightness
        assert oracle.rel_error(ray, exact[label]) <= RAY_BOUND, label
        assert oracle.rel_error(eq, exact[label]) <= RAY_BOUND, label
        assert oracle.rel_error(tight.limit, oracle.mp.mpf(1)) <= RAY_BOUND, label


def test_power_ray_takes_its_consistent_match_past_the_floor():
    # power's ratios pass their round-off floor with the best estimate 3 + 1.2e-14;
    # at the 21st level (h = 2^-23) a column's last two entries agree on a limit
    # that lies within 16 x the best error of it, and the ladder takes that match
    label, m, p, q, _ = _bench_maps()[1]
    nu = np.array([1.0 + 0j])
    ratios = partial(_kernel_ratio_ray, m, p, q, nu, 3)
    before = ratios(22)
    assert before.limit != 3.0 and before.error > 0.0 and before.levels == 20
    ext = ratios(26)
    assert (ext.limit, ext.error, ext.levels) == (3.0, 0.0, 21)
    assert abs(ext.limit - before.limit) <= 16.0 * before.error


def test_equivalence_target_to_round_off():
    # q from one Richardson step on the ray images' nearest boundary points at 2h, h
    for label, m, p, q, _ in _bench_maps():
        target = condition_equivalence_check(m, p).target
        if label == "ball_auto":
            exact = oracle.ball_mobius([0.3 + 0.1j, -0.2 + 0.15j], p)
            assert max(abs(oracle.mp.mpc(complex(t)) - e) for t, e in zip(target, exact)) <= 1e-13
        else:
            assert np.array_equal(target, q), label


# probe 1's limit, probe_max, levels, and the probe-2 and probe-3 limits and tails,
# with each limit read on the one ladder: probe 1 on every level, probes 2 and 3 on
# every other level.  Against the closed forms (``_exact_dilations`` for probe 1, 0
# for probes 2 and 3) the limits meet PROBE_BOUNDS: probe 1 is 2.6e-16 (blaschke),
# 3.7e-16 (ball_auto) and 1.3e-16 (compose) relative off, power and diag exact;
# ball_auto's probes 2 and 3 are 2.9e-16 and 2.5e-13, the others' exactly 0.
PROBE_PINS = {
    "blaschke": (0.42857142857142866 + 0j, (0.4609053497942386, 0.0, 0.0, 0.0), 18,
                 (0.0, 0.0, 0.0, 0.0)),
    "power": (3 + 0j, (2.99999427795683, 0.0, 0.0, 0.0), 18, (0.0, 0.0, 0.0, 0.0)),
    "ball_auto": (1.5555349182763738 - 7.46757153468111e-17j,
                  (1.5555341303890533, 0.09052264432001422, 0.10783201419171617, 1.2472105795308006),
                  18, (2.9153957514055453e-16, 2.489741368425647e-13,
                       0.00025768887687360953, 0.0003213923645277808)),
    "diag": (1 + 0j, (1.0, 0.0, 0.0, 0.58309518948453), 18, (0.0, 0.0, 0.0, 0.0)),
    "compose": (1.076923076923077 + 0j, (1.0769229979197408, 0.0, 0.0, 0.0), 18,
                (0.0, 0.0, 0.0, 0.0)),
}

#: The bounds the pinned limits meet: probe 1 relative to the dilation, probes 2 and 3
#: absolute (their limit is 0).
PROBE_BOUNDS = (4e-16, 3e-16, 2.5e-13)

#: (map, probe) whose reported error lies below the limit's true error.
PROBE_ERRORS_BELOW_TRUTH = {("blaschke", 1), ("ball_auto", 1), ("ball_auto", 3), ("compose", 1)}


def test_probe_outputs_pinned():
    """Every pinned limit lies within PROBE_BOUNDS of its closed form, and the
    reported error bounds the true one but in PROBE_ERRORS_BELOW_TRUTH: probe 1
    of blaschke and compose reports 0 at 1.1e-16 and 1.4e-16 off, probe 1 of
    ball_auto 8.3e-17 at 5.8e-16 off, and its probe 3 1.7e-13 at 2.5e-13 off.
    The ladder's error has no round-off term yet; these are where that shows."""
    exact = _exact_dilations()
    for label, m, p, q, _ in _bench_maps():
        limit1, maxima, levels, rest = PROBE_PINS[label]
        assert oracle.rel_error(limit1, exact[label]) <= PROBE_BOUNDS[0], label
        assert rest[0] <= PROBE_BOUNDS[1] and rest[1] <= PROBE_BOUNDS[2], label
        calls = []

        def jacobian(z, m=m):
            calls.append(z.shape)
            return m.derivative(z)

        counted = MapSpec(fn=m.fn, jacobian=jacobian, source=m.source, target=m.target)
        rep = jwc_derivative_probes(counted, p, q)
        assert len(calls) == 1, label
        assert _within_2_ulp(rep.probe1_limit.real, limit1.real), label
        assert all(_within_2_ulp(rep.probe_max[i], want) for i, want in enumerate(maxima, 1)), label
        assert rep.levels == levels, label
        # round-off parts stay round-off, and within the bounds; the others are kept to 2 ulp
        got = (rep.probe1_limit.imag, rep.probe2_limit, rep.probe3_limit,
               rep.probe2_tail, rep.probe3_tail)
        for x, want in zip(got, (limit1.imag,) + rest):
            assert abs(x) < 1e-10 if abs(want) < 1e-10 else _within_2_ulp(x, want), label
        assert rep.probe2_limit <= PROBE_BOUNDS[1] and rep.probe3_limit <= PROBE_BOUNDS[2], label
        truths = (abs(oracle.mp.mpc(rep.probe1_limit) - exact[label]),
                  rep.probe2_limit, rep.probe3_limit)
        errors = (rep.probe1_error, rep.probe2_error, rep.probe3_error)
        below = {(label, i) for i, (t, e) in enumerate(zip(truths, errors), 1) if t > e}
        assert below == {case for case in PROBE_ERRORS_BELOW_TRUTH if case[0] == label}


# Half the dilation makes about half the horoball samples violations; the
# violating points themselves, recorded from the batch draws, show that every
# seeded draw is the same point.  Each recorded violation was checked against
# the closed-form kernels: the point lies in H(p, R) and its image outside
# H(q, lam R / 2).
VIOLATION_PINS = {
    ("blaschke", 11): (131, 75.65535633652235 - 0.7695327863479691j),
    ("blaschke", 2024): (154, 87.72931975203133 - 1.7684517363270773j),
    ("ball_auto", 11): (187, -2.2955027864165425 + 84.19334285037945j),
    ("ball_auto", 2024): (190, 1.5161900484786164 + 84.55507300762976j),
}


@pytest.mark.parametrize("label,seed", sorted(VIOLATION_PINS))
def test_horoball_draws_pinned(label, seed):
    _, m, p, q, lam = next(case for case in _bench_maps() if case[0] == label)
    count, point_sum = VIOLATION_PINS[label, seed]
    inc = horoball_inclusion_check(m, p, q, 0.5 * lam, samples_per_radius=100, seed=seed)
    assert (inc.checked, len(inc.violations), inc.undetermined) == (300, count, 0)
    assert complex(sum(v.point[-1] for v in inc.violations)) == point_sum


def test_estimators_on_an_ellipsoid_source():
    # the inclusion of ellipsoid:1,2 into the unit ball: the source kernel is
    # an interval, classified as an array like the closed forms
    eye = np.eye(2, dtype=complex)
    inc = MapSpec(fn=lambda z: z, jacobian=lambda z: eye, source=DomainSpec.ellipsoid([1.0, 2.0]),
                  target=DomainSpec.unit_ball(2), describe="inclusion")
    for seed in (11, 2024):
        rep = lambda_estimate(inc, E1, E1, SamplingPlan(seed=seed, grid_count=200))
        assert (rep.lambda_estimate, rep.normal_ray_limit) == (0.9999999999999997, 0.9999999999999997)
        chk = horoball_inclusion_check(inc, E1, E1, 1.0, radii=(0.1, 1.0),
                                       samples_per_radius=100, seed=seed)
        assert (chk.checked, len(chk.violations), chk.undetermined) == (200, 0, 0)
        assert chk.ray_tightness.real == 0.9999999999999997


def test_sample_ball_draws():
    # the seeded draws: two normal(size=n) vectors as x + iy, normalised, and
    # one uniform u scaling the radius by u^(1/2n), bit for bit
    for n in (1, 2, 3):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2000):
            v = ref.normal(size=n) + 1j * ref.normal(size=n)
            want = v / np.linalg.norm(v) * 0.9 * ref.random() ** (1.0 / (2 * n))
            assert np.array_equal(sample_ball(rng, n, 0.9), want)


def test_sample_ball_rows_draw_one_batch():
    # one (count, 2n) block of normals, then count uniforms; each row rounds
    # as sample_ball rounds its draws
    for n in (1, 2, 3):
        for radius in (0.9, 1.0):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            for count in (1, 7, 500):
                G, u = ref.standard_normal((count, 2 * n)), ref.random(count)
                V = G[:, :n] + 1j * G[:, n:]
                want = np.array([v / np.linalg.norm(v) * radius * x ** (1.0 / (2 * n))
                                 for v, x in zip(V, u.tolist())])
                assert sample_ball_rows(rng, count, n, radius).tobytes() == want.tobytes()
            # the generator goes on as after the reference draws
            assert rng.random() == ref.random()
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def test_one_ball_row_is_one_sample_ball_call():
    for n in (1, 2, 3):
        for radius in (0.9, 1.0):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(300):
                assert sample_ball_rows(rng, 1, n, radius)[0].tobytes() == \
                    sample_ball(ref, n, radius).tobytes()
            assert rng.random() == ref.random()
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
