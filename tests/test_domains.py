import math
import warnings

import numpy as np
import pytest

from plurikernel import (
    ConvergenceError,
    DomainSpec,
    NotOnBoundaryError,
    PseudoconvexityError,
    ValidationError,
    boundary_frame,
    domain_from_json,
    levi_density,
    osculating_radii,
    psi_jet,
    signed_boundary_distance,
)
from plurikernel.domains import _FOOTPOINT_MAX_ITER, boundary_samples, nearest_boundary_point
from plurikernel.errors import DomainError
from plurikernel.expressions import ScalarField
from plurikernel.utils import herm, sample_ball, sample_sphere

E1 = np.array([1.0, 0.0], dtype=complex)


def test_psi_jet_unit_ball_center():
    v, g, h = psi_jet(DomainSpec.unit_ball(2), [0, 0])
    assert v == -1.0
    assert np.allclose(g, 0)
    assert np.allclose(h, np.eye(2))


def test_psi_jet_ellipsoid_axis_point():
    # hand differentiation of psi = |z1|^2 + 2|z2|^2 - 1 at e1
    v, g, h = psi_jet(DomainSpec.ellipsoid([1.0, 2.0]), E1)
    assert abs(v) < 1e-15
    assert np.allclose(g, [1.0, 0.0])
    assert np.allclose(h, np.diag([1.0, 2.0]))


def test_psi_jet_disc():
    v, _, _ = psi_jet(DomainSpec.disc(), 0.5)
    assert v == pytest.approx(-0.75, abs=1e-15)


def test_psi_jet_rejects_far_points():
    with pytest.raises(ValidationError):
        psi_jet(DomainSpec.unit_ball(2), [100.0, 0.0])


def test_psi_jet_evaluates_the_expression_jet_once(monkeypatch):
    dom = DomainSpec.custom("z1*conj(z1) + z2*conj(z2) + 0.2*re(z1*z2) - 1", n=2)
    z = np.array([0.3, 0.4j])
    jets, fields = _counted(monkeypatch, "jet"), _counted(monkeypatch, "__call__")
    v, g, h = psi_jet(dom, z)
    # the value, too, comes from the jet
    assert (len(jets), len(fields)) == (1, 0)
    assert v == dom.psi(z)
    assert g.tobytes() == dom.grad_psi(z).tobytes()
    assert h.tobytes() == dom.hess_psi(z).tobytes()


def test_custom_psi_nonfinite_raises():
    # 1/re(z1) is infinite at 0, and 1/0 and log(0) everywhere: each path raises
    # DomainError, and numpy's division warning does not escape
    for source in ("1/re(z1) - 1", "z1*conj(z1) - 1/0", "log(0)"):
        dom = DomainSpec.custom(source, n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: dom.psi([0.0]), lambda: dom.psi_rows([[0.5], [0.0]]),
                         lambda: psi_jet(dom, [0.0])):
                with pytest.raises(DomainError):
                    call()


def test_custom_takes_expressions_only():
    source = "z1*conj(z1) + 2*z2*conj(z2) - 1"
    with pytest.raises(ValidationError):
        DomainSpec.custom(lambda z: float(abs(z[0]) ** 2 + 2 * abs(z[1]) ** 2 - 1), n=2)
    with pytest.raises(ValidationError):
        DomainSpec.custom(ScalarField("z1*conj(z1) - 1", n=1), n=2)
    compiled = DomainSpec.custom(ScalarField(source, n=2), n=2)
    parsed = DomainSpec.custom(source, n=2)
    assert (compiled.kind, compiled.n, compiled.label) == (parsed.kind, parsed.n, parsed.label)
    z = np.array([0.3, 0.4j])
    for a, b in zip(psi_jet(compiled, z), psi_jet(parsed, z)):
        assert np.array_equal(a, b)


# the benchmark's custom domains (bench/workloads.py, CUSTOM_DOMAINS)
BENCH_EXPRESSIONS = ["z1*conj(z1)+z2*conj(z2)-1", "z1*conj(z1)+z2*conj(z2)+0.25*re(z1*z2)-1",
                     "z1*conj(z1)+2*z2*conj(z2)-1"]


@pytest.mark.parametrize("dom", [
    DomainSpec.disc(), DomainSpec.unit_ball(3), DomainSpec.ball([0.2, 0.1j], 0.8),
    DomainSpec.ellipsoid([1.0, 2.0]), DomainSpec.ellipsoid([0.5, 1.0, 3.0]),
    *(DomainSpec.custom(source, n=2) for source in BENCH_EXPRESSIONS),
    DomainSpec.custom("-1", n=2),       # free of z1, z2: still one value per row
], ids=lambda d: d.label)
def test_psi_rows_round_as_psi(dom, rng):
    Z = np.array([sample_ball(rng, dom.n, 1.5) for _ in range(500)])
    assert dom.psi_rows(Z).tobytes() == np.array([dom.psi(z) for z in Z]).tobytes()


def test_boundary_frame_unit_ball():
    fr = boundary_frame(DomainSpec.unit_ball(2), E1)
    assert np.allclose(fr.nu, E1)
    assert fr.levi.shape == (1, 1)
    assert fr.levi[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_boundary_frame_ellipsoid():
    fr = boundary_frame(DomainSpec.ellipsoid([1.0, 2.0]), E1)
    assert np.allclose(fr.nu, E1)
    assert fr.levi[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_boundary_frame_disc_empty_tangent():
    fr = boundary_frame(DomainSpec.disc(), [1.0])
    assert np.allclose(fr.nu, [1.0])
    assert fr.tangent_basis.shape == (0, 1)


def test_boundary_frame_couple_normalization(rng):
    dom = DomainSpec.ellipsoid([1.0, 2.0, 0.5])
    for p in boundary_samples(dom, 10, rng):
        fr = boundary_frame(dom, p)
        assert fr.theta(fr.nu) == pytest.approx(1.0, abs=1e-12)
        for tau in fr.tangent_basis:
            assert abs(fr.theta(tau)) < 1e-10
            assert abs(herm(fr.nu, tau)) < 1e-10


def test_boundary_frame_requires_boundary_point():
    with pytest.raises(NotOnBoundaryError):
        boundary_frame(DomainSpec.unit_ball(2), [0.5, 0.0])


@pytest.mark.parametrize("domain,expected", [
    (DomainSpec.unit_ball(2), 2.0),
    (DomainSpec.unit_ball(3), 8.0),
    (DomainSpec.disc(), 1.0),
])
def test_levi_density_balls(domain, expected, rng):
    # 4^{n-1} (n-1)! det(Levi)/|dpsi|^{n-1} with det = 1, |dpsi| = 2 on the sphere
    for p in boundary_samples(domain, 5, rng):
        assert levi_density(domain, p) == pytest.approx(expected, rel=1e-10)


def test_levi_density_scale_invariance(rng):
    # density is independent of the defining function: psi vs 3*psi
    base = DomainSpec.ellipsoid([1.0, 2.0])
    one = DomainSpec.custom("z1*conj(z1) + 2*z2*conj(z2) - 1", n=2)
    three = DomainSpec.custom("3*(z1*conj(z1) + 2*z2*conj(z2) - 1)", n=2)
    for p in boundary_samples(base, 5, rng):
        d0 = levi_density(base, p)
        assert levi_density(one, p) == pytest.approx(d0, rel=1e-12)
        assert levi_density(three, p) == pytest.approx(d0, rel=1e-12)


def test_osculating_radii_examples():
    assert tuple(osculating_radii(DomainSpec.unit_ball(2), E1)) == pytest.approx((1.0, 1.0))
    assert tuple(osculating_radii(DomainSpec.disc(), [1.0])) == pytest.approx((1.0, 1.0))
    # curvatures of {x1^2+y1^2+2x2^2+2y2^2 = 1} at e1 are {1, 2, 2}
    r = osculating_radii(DomainSpec.ellipsoid([1.0, 2.0]), E1)
    assert (r.r_in, r.r_out) == pytest.approx((0.5, 1.0), rel=1e-10)
    assert r.global_containment


def test_osculating_radii_general_ball(rng):
    dom = DomainSpec.ball([0.3 + 0.1j, -0.2], 0.7)
    for p in boundary_samples(dom, 5, rng):
        r = osculating_radii(dom, p)
        assert (r.r_in, r.r_out) == pytest.approx((0.7, 0.7), rel=1e-9)


def test_osculating_tangent_balls_contain_ellipsoid(rng):
    # global containment of the curvature tangent balls, sampled
    dom = DomainSpec.ellipsoid([1.0, 2.0])
    for p in boundary_samples(dom, 8, rng):
        r = osculating_radii(dom, p)
        fr = boundary_frame(dom, p)
        c_in = p - r.r_in * fr.nu
        c_out = p - r.r_out * fr.nu
        for q in boundary_samples(dom, 60, rng):
            assert np.linalg.norm(q - c_in) >= r.r_in - 1e-9
            assert np.linalg.norm(q - c_out) <= r.r_out + 1e-9


def test_osculating_custom_is_local_only():
    dom = DomainSpec.custom("z1*conj(z1) - 1", n=1)
    r = osculating_radii(dom, [1.0])
    assert not r.global_containment
    assert r.r_in == pytest.approx(1.0, rel=1e-12)


def test_signed_distance_balls():
    assert signed_boundary_distance(DomainSpec.unit_ball(2), 0.5 * E1) == pytest.approx(-0.5)
    dom = DomainSpec.ball(0.5 * E1, 0.5)
    assert signed_boundary_distance(dom, 0.5 * E1) == pytest.approx(-0.5)
    assert signed_boundary_distance(DomainSpec.unit_ball(2), [2.0, 0.0]) == pytest.approx(1.0)


def test_signed_distance_ellipsoid_center():
    # nearest boundary point from the origin is (0, 1/sqrt(2))
    d = signed_boundary_distance(DomainSpec.ellipsoid([1.0, 2.0]), [0.0, 0.0])
    assert d == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)


def test_signed_distance_ellipsoid_vs_sampling_oracle(rng):
    dom = DomainSpec.ellipsoid([1.0, 2.0])
    qs = boundary_samples(dom, 4000, rng)
    for z in [np.array([0.3, 0.2j]), np.array([-0.1 + 0.2j, 0.4]),
              np.array([0.0, 0.5j]), np.array([0.9, 0.0])]:
        d = signed_boundary_distance(dom, z)
        brute = min(np.linalg.norm(q - z) for q in qs)
        assert abs(d) <= brute + 1e-12        # never above any boundary point
        assert abs(abs(d) - brute) < 5e-2     # sampling resolution of S^3
        x = nearest_boundary_point(dom, z)
        assert abs(dom.psi(x)) < 1e-10
        assert np.linalg.norm(x - z) == pytest.approx(abs(d), abs=1e-12)
        # first-order optimality: z - x is parallel to the normal at x
        fr = boundary_frame(dom, x)
        w = z - x
        tangential = w - np.real(herm(w, fr.nu)) * fr.nu
        assert np.linalg.norm(tangential) < 1e-9


def test_signed_distance_custom_footpoint():
    dom = DomainSpec.custom("z1*conj(z1) + 2*z2*conj(z2) - 1", n=2)
    ref = signed_boundary_distance(DomainSpec.ellipsoid([1.0, 2.0]), [0.3, 0.2])
    assert signed_boundary_distance(dom, [0.3, 0.2]) == pytest.approx(ref, abs=1e-12)


def _counted(monkeypatch, method):
    """A list that gets one entry per call of ``ScalarField.<method>``."""
    calls = []
    original = getattr(ScalarField, method)
    monkeypatch.setattr(ScalarField, method,
                        lambda self, z: calls.append(1) or original(self, z))
    return calls


def test_footpoint_on_a_ridge_raises_with_its_trace():
    # the nearest boundary point of (1e-3, 2) lies on the ridge re(z1) = 0 of
    # |re z1| + |z2|^2 = 1, where psi has no gradient: no iterate meets the
    # stop test, and the iteration spends its budget and reports every step
    dom = DomainSpec.custom("abs(re(z1))+z2*conj(z2)-1", n=2)
    with pytest.raises(ConvergenceError) as info:
        signed_boundary_distance(dom, [1e-3, 2.0])
    assert len(info.value.trace) == _FOOTPOINT_MAX_ITER


def _inside_and_outside(rng, axes):
    """40 points inside the ellipsoid with semi-axes ``axes`` and 20 outside, up to 5 times as far out."""
    inside = [sample_ball(rng, 2, 0.95) * axes for _ in range(40)]
    outside = [sample_sphere(rng, 2) * (1.05 + 4 * rng.random()) * axes for _ in range(20)]
    return inside + outside


@pytest.mark.parametrize("a", [1, 4, 25, 100])
def test_footpoint_sweep_on_expression_ellipsoids(a, monkeypatch):
    # |z1|^2 + a |z2|^2 < 1 written as an expression: every distance, inside
    # and outside, is the ellipsoid kind's, at a median of at most 10 jets
    dom = DomainSpec.custom(f"z1*conj(z1)+{a}*z2*conj(z2)-1", n=2)
    ellipsoid = DomainSpec.ellipsoid([1.0, a])
    jets = _counted(monkeypatch, "jet")
    per_call = []
    for z in _inside_and_outside(np.random.default_rng(13), np.array([1.0, a ** -0.5])):
        jets.clear()
        d = signed_boundary_distance(dom, z)
        per_call.append(len(jets))
        assert d == pytest.approx(signed_boundary_distance(ellipsoid, z), abs=1e-14)
    assert np.median(per_call) <= 10


def test_footpoint_sweep_on_a_perturbed_ball(monkeypatch):
    # |z|^2 + 0.1 Re(z1^2 conj(z2)) - 1 has no closed form: each foot point is
    # on the boundary, z - x is normal there, and no boundary sample is nearer
    dom = DomainSpec.custom("z1*conj(z1)+z2*conj(z2)+0.1*re(z1**2*conj(z2))-1", n=2)
    rng = np.random.default_rng(17)
    samples = boundary_samples(dom, 4000, rng)
    jets = _counted(monkeypatch, "jet")
    per_call = []
    for z in _inside_and_outside(rng, np.ones(2)):
        jets.clear()
        x = nearest_boundary_point(dom, z)
        per_call.append(len(jets))
        assert abs(dom.psi(x)) < 1e-14
        nu = boundary_frame(dom, x).nu
        w = z - x
        assert np.linalg.norm(w - np.real(herm(w, nu)) * nu) < 1e-12
        assert np.linalg.norm(w) <= np.min(np.linalg.norm(samples - z, axis=1)) + 1e-12
    assert np.median(per_call) <= 10


def test_footpoint_starts_on_the_boundary(monkeypatch):
    # the points of the benchmark's custom-ball distances: the start, the end
    # of the ray bracket with the smaller |psi|, already meets the stop test;
    # the bracket's first field call also gives psi(z), for the sign, and
    # each doubling of the bracket takes one more
    dom = DomainSpec.custom("z1*conj(z1)+z2*conj(z2)-1", n=2)
    fixed = np.random.default_rng(0)
    points = [sample_ball(fixed, 2, 0.9) for _ in range(100)]
    jets, fields = _counted(monkeypatch, "jet"), _counted(monkeypatch, "__call__")
    doubled = 0
    for z in points:
        v = z / np.linalg.norm(z)
        doublings = next(k for k in range(3) if dom.psi(2.0 ** k * v) >= 0)
        doubled += doublings > 0
        jets.clear()
        fields.clear()
        assert signed_boundary_distance(dom, z) == pytest.approx(np.linalg.norm(z) - 1, abs=1e-15)
        assert len(jets) == 1
        assert len(fields) == 1 + doublings
    assert 0 < doubled < len(points)


def test_footpoint_on_an_unbounded_ray_raises():
    # psi = re(z1) - 1 stays below 0 along the rays from 0 towards -0.5 and 0.5i
    dom = DomainSpec.custom("re(z1) - 1", n=1)
    with pytest.raises(ConvergenceError, match="unbounded along the ray"):
        signed_boundary_distance(dom, [-0.5])
    with pytest.raises(ConvergenceError, match="unbounded along the ray"):
        nearest_boundary_point(dom, [0.5j])


@pytest.mark.parametrize("domain, p", [
    (DomainSpec.disc(), [1.0]),
    (DomainSpec.unit_ball(2), E1),
    (DomainSpec.ellipsoid([1.0, 4.0]), [0.6, 0.4]),
    (DomainSpec.custom("z1*conj(z1)+z2*conj(z2)-1", n=2), E1),
    (DomainSpec.custom("z1*conj(z1)+4*z2*conj(z2)-1", n=2), [0.0, 0.5]),
    (DomainSpec.ellipsoid([1.0, 2.0]), E1),
    (DomainSpec.ellipsoid([1.0, 4.0]), [0.0, 0.5]),
    (DomainSpec.ellipsoid([1.0, 2.0, 3.0]), [1.0, 0.0, 0.0]),
    (DomainSpec.ellipsoid([1.0, 2.0, 3.0]), [0.0, 2 ** -0.5, 0.0]),
    (DomainSpec.ellipsoid([1.0, 2.0, 3.0]), [0.0, 0.0, 3 ** -0.5]),
], ids=["disc", "unit_ball:2", "ellipsoid", "custom ball", "custom ellipsoid",
        "ellipsoid:1,2 e1", "ellipsoid:1,4 axis 2", "ellipsoid:1,2,3 axis 1",
        "ellipsoid:1,2,3 axis 2", "ellipsoid:1,2,3 axis 3"])
def test_distance_on_the_boundary_is_positive_zero(domain, p):
    # at a boundary point that is its own foot point the distance is +0.0 on
    # every kind, as a ball's norm(z - c) - r gives it, and the point is its
    # own nearest boundary point (on the ellipsoids' axes too, where the
    # multiplier iteration lands a few ulps away)
    d = signed_boundary_distance(domain, p)
    assert d == 0.0 and math.copysign(1.0, d) == 1.0
    assert np.array_equal(nearest_boundary_point(domain, p), p)


def test_footpoint_at_the_centre_of_the_ball(monkeypatch):
    # at the centre every boundary point is nearest, and I + lam Hess psi is
    # 0 on the tangent space: the start is accepted, not slid
    dom = DomainSpec.custom("z1*conj(z1)+z2*conj(z2)-1", n=2)
    jets = _counted(monkeypatch, "jet")
    assert signed_boundary_distance(dom, [0, 0]) == -1.0
    assert len(jets) == 1


def test_expression_ball_distance_sweep():
    # the unit ball written as an expression has exact jets, so every point
    # converges to the closed form ||z|| - 1, inside and outside
    dom = DomainSpec.custom("z1*conj(z1)+z2*conj(z2)-1", n=2)
    rng = np.random.default_rng(7)
    inside = [sample_ball(rng, 2, 0.95) for _ in range(200)]
    outside = [sample_sphere(rng, 2) * (1.05 + rng.random()) for _ in range(20)]
    for z in inside + outside:
        assert signed_boundary_distance(dom, z) == pytest.approx(np.linalg.norm(z) - 1, abs=1e-12)


def test_abs_written_ball_matches_unit_ball(rng):
    # abs has no derivative at 0, yet abs(z)**2 is smooth there and its jet is
    # exact: on the axes z1 = 0 and z2 = 0 as off them, the geometry is the
    # unit ball's
    dom = DomainSpec.custom("abs(z1)**2+abs(z2)**2-1", n=2)
    ball = DomainSpec.unit_ball(2)
    frame = boundary_frame(dom, [1, 0])
    assert np.allclose(frame.nu, [1, 0], rtol=0, atol=1e-12)
    assert abs(frame.tangent_basis[0, 0]) < 1e-12
    assert abs(frame.tangent_basis[0, 1]) == pytest.approx(1, abs=1e-12)
    assert frame.levi[0, 0] == pytest.approx(1, abs=1e-12)

    def on_axes(scale):
        phases = np.exp(2j * np.pi * rng.random(4))
        return [scale * np.array([u, 0]) for u in phases] + [scale * np.array([0, u]) for u in phases]

    poles = on_axes(1.0) + list(boundary_samples(ball, 8, rng))
    for p in poles:
        got, want = boundary_frame(dom, p), boundary_frame(ball, p)
        assert np.max(np.abs(got.nu - want.nu)) < 1e-12
        assert np.max(np.abs(got.levi - want.levi)) < 1e-12
        assert levi_density(dom, p) == pytest.approx(levi_density(ball, p), abs=1e-12)
        assert tuple(osculating_radii(dom, p)) == pytest.approx(tuple(osculating_radii(ball, p)), abs=1e-12)
    points = (on_axes(0.6) + on_axes(1.4) + [np.zeros(2)]
              + [sample_ball(rng, 2, 0.95) for _ in range(20)]
              + [sample_sphere(rng, 2) * (1.05 + rng.random()) for _ in range(10)])
    for z in [np.array(z, complex) for z in ([0.5, 0], [0, 0.7j], [1.5, 0], [0.3, 0.2])] + points:
        assert signed_boundary_distance(dom, z) == pytest.approx(
            signed_boundary_distance(ball, z), abs=1e-12)
    assert np.array_equal(dom.hess_psi([0.3, 0.2]), np.eye(2))


# psi = <H z, z> + Re(z^T L z) - 1 with H = A + iB Hermitian and L real
# symmetric: the Wirtinger gradient is conj(H z) + L z, the complex Hessian is
# H^T, and in (Re z, Im z) the real Hessian is [[2(A + L), -2B], [2B, 2(A - L)]]
QUADRATIC_DOMAINS = [
    ("z1*conj(z1)+2*z2*conj(z2)-1", np.diag([1.0, 2.0]), np.zeros((2, 2))),
    ("z1*conj(z1)+z2*conj(z2)+0.25*re(z1*z2)-1", np.eye(2), np.array([[0, 0.125], [0.125, 0]])),
    ("0.5*z1*conj(z1)+z2*conj(z2)+3*z3*conj(z3)-1", np.diag([0.5, 1.0, 3.0]), np.zeros((3, 3))),
    # f is not real here, and psi = Re f adds Re(i z1 conj(z2))
    ("z1*conj(z1)+z2*conj(z2)-1+1j*z1*conj(z2)", np.array([[1, -0.5j], [0.5j, 1]]), np.zeros((2, 2))),
]


@pytest.mark.parametrize("source,H,L", QUADRATIC_DOMAINS)
def test_expression_jets_match_closed_forms(source, H, L, rng):
    n = len(H)
    dom = DomainSpec.custom(source, n=n)
    A, B = H.real, H.imag
    real_hessian = np.block([[2 * (A + L), -2 * B], [2 * B, 2 * (A - L)]])

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    for _ in range(20):
        z = sample_ball(rng, n, 0.9)
        assert close(dom.grad_psi(z), np.conj(H @ z) + L @ z)
        assert close(dom.hess_psi(z), H.T)
        assert close(dom.real_hessian(z), real_hessian)


def _bisection_samples(domain, count, rng):
    """``boundary_samples`` for custom kinds, one point at a time with all 80
    bisection steps run; also the most bracket doublings and the most steps
    that moved a bracket, over the points."""
    pts = np.empty((count, domain.n), dtype=complex)
    doublings = steps = 0
    for i in range(count):
        v = sample_sphere(rng, domain.n)
        t_hi = 1.0
        while domain.psi(domain.interior + t_hi * v) < 0:
            t_hi *= 2.0
        doublings = max(doublings, int(math.log2(t_hi)))
        t_lo = 0.0
        for k in range(80):
            mid = 0.5 * (t_lo + t_hi)
            if mid != t_lo and mid != t_hi:
                steps = max(steps, k + 1)
            if domain.psi(domain.interior + mid * v) < 0:
                t_lo = mid
            else:
                t_hi = mid
        pts[i] = domain.interior + 0.5 * (t_lo + t_hi) * v
    return pts, doublings, steps


def test_boundary_samples_unbounded_ray_raises():
    with pytest.raises(ConvergenceError):
        boundary_samples(DomainSpec.custom("re(z1) - 1", n=1), 4, np.random.default_rng(0))


def test_boundary_samples_bisection_stops_when_bracket_is_fixed(monkeypatch):
    calls = []
    evaluate = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__", lambda self, z: calls.append(1) or evaluate(self, z))
    shifted_ellipsoid = "(z1-0.1)*conj(z1-0.1)+3*(z2+0.2j)*conj(z2+0.2j)-1"
    for dom in (DomainSpec.custom("z1*conj(z1)+z2*conj(z2)+0.25*re(z1*z2)-1", n=2),
                DomainSpec.custom(shifted_ellipsoid, n=2, interior_point=[0.1, -0.2j])):
        calls.clear()
        got = boundary_samples(dom, 100, np.random.default_rng(3))
        used = len(calls)
        want, doublings, steps = _bisection_samples(dom, 100, np.random.default_rng(3))
        assert got.tobytes() == want.tobytes()
        # one field call for all 100 samples per bracket doubling and per
        # bisection step, and none for the steps that could not move a bracket
        assert used <= 1 + doublings + steps < 80


@pytest.mark.parametrize("domain", [
    DomainSpec.disc(),
    DomainSpec.unit_ball(2),
    DomainSpec.unit_ball(3),
    DomainSpec.ball([0.2, 0.1j], 0.8),
    DomainSpec.ellipsoid([1.0, 2.0]),
])
def test_frame_invariants_random_boundary(domain, rng):
    for p in boundary_samples(domain, 100, rng):
        fr = boundary_frame(domain, p)
        for tau in fr.tangent_basis:
            assert abs(herm(fr.nu, tau)) < 1e-10
        if len(fr.tangent_basis):
            assert np.min(np.linalg.eigvalsh(fr.levi)) > 0


def test_expression_hessians_match_analytic():
    analytic = DomainSpec.ellipsoid([1.0, 2.0])
    expression = DomainSpec.custom("z1*conj(z1) + 2*z2*conj(z2) - 1", n=2)
    for z in [np.array([0.3, 0.4j]), np.array([0.5, 0.5]), np.array([1.0, 0.0])]:
        for method in ("hess_psi", "real_hessian"):
            ha = getattr(analytic, method)(z)
            hc = getattr(expression, method)(z)
            assert np.max(np.abs(ha - hc)) / np.max(np.abs(ha)) < 1e-12


def test_custom_perturbed_ball_geometry(rng):
    # psi = ||z||^2 - 1 + 0.1 Re(z1^2): the perturbation is pluriharmonic, so
    # the Levi form stays the identity while normals, curvatures and
    # distances all move; everything below is checked against first
    # principles rather than a closed form
    dom = DomainSpec.custom(
        "z1*conj(z1) + z2*conj(z2) - 1 + 0.05*(z1**2 + conj(z1)**2)", n=2)
    pts = boundary_samples(dom, 20, rng)
    for p in pts:
        fr = boundary_frame(dom, p)
        assert fr.levi[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(herm(fr.nu, fr.tangent_basis[0])) < 1e-12
        # outward: stepping along nu increases psi
        assert dom.psi(p + 1e-6 * fr.nu) > dom.psi(p - 1e-6 * fr.nu)
    r = osculating_radii(dom, pts[0])
    assert not r.global_containment
    assert 0.2 < r.r_in <= r.r_out < 5.0
    # foot-point distance: certified against boundary sampling, optimality at foot
    z = np.array([0.2, -0.1j])
    d = signed_boundary_distance(dom, z)
    assert d < 0
    brute = min(np.linalg.norm(q - z) for q in boundary_samples(dom, 800, rng))
    assert abs(d) <= brute + 1e-12
    x = nearest_boundary_point(dom, z)
    fr = boundary_frame(dom, x)
    w = z - x
    assert np.linalg.norm(w - np.real(herm(w, fr.nu)) * fr.nu) < 1e-12


def test_pseudoconvexity_violation_detected():
    # psi = |z1|^2 - |z2|^2 + |z2|^4 - 0.25 has a negative Levi eigenvalue
    dom = DomainSpec.custom(
        "z1*conj(z1) - z2*conj(z2) + (z2*conj(z2))**2 - 0.25", n=2,
        interior_point=[0.0, 0.0])
    p = np.array([0.5, 0.0], dtype=complex)
    assert abs(dom.psi(p)) < 1e-12
    with pytest.raises(PseudoconvexityError):
        boundary_frame(dom, p)


def test_domain_from_json_forms():
    assert domain_from_json('{"kind": "unit_ball", "n": 2}').n == 2
    assert domain_from_json("unit_ball:3").n == 3
    assert domain_from_json("disc").n == 1
    d = domain_from_json('{"kind": "ball", "center": [[0.5, 0.0], [0.0, 0.0]], "radius": 0.5}')
    assert d.radius == 0.5
    e = domain_from_json("ellipsoid:1,2")
    assert np.allclose(e.coeffs, [1.0, 2.0])
    c = domain_from_json('{"kind": "custom", "psi": "z1*conj(z1)-1", "n": 1}')
    assert abs(c.psi([1.0])) < 1e-15
    # dimension inferred from the highest coordinate when n is omitted
    c2 = domain_from_json('{"kind": "custom", "psi": "z1*conj(z1) + 2*z2*conj(z2) - 1"}')
    assert c2.n == 2


def test_domain_from_json_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        domain_from_json('{"kind": "unit_ball", "n": 2, "frobnicate": true}')
    with pytest.raises(ValidationError):
        domain_from_json('{"kind": "hyperboloid"}')
    # bad JSON, missing keys and wrong types
    for spec in ('{"kind": "unit_ball"}', "{bad", '{"kind": "ball", "center": [[0.5]], "radius": 1}',
                 '{"kind": "ellipsoid", "a": "x"}', "unit_ball:x", ["unit_ball"],
                 # a count that is not an integer is refused, not truncated
                 '{"kind": "unit_ball", "n": 2.7}', '{"kind": "unit_ball", "n": true}',
                 '{"kind": "custom", "psi": "z1*conj(z1)-1", "n": 1.5}', "unit_ball:2.7"):
        with pytest.raises(ValidationError):
            domain_from_json(spec)
