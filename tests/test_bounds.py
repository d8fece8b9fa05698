import math

import numpy as np
import pytest

from plurikernel import (
    ContainmentError,
    DomainSpec,
    NotOnBoundaryError,
    Provenance,
    ValidationError,
    ball_restriction_candidate,
    kernel_value,
    kernel_values,
    lower_envelope,
    peak_candidate,
    sandwich_bounds,
    uniform_bound_check,
)
from plurikernel import bounds
from plurikernel.bounds import candidate_normal_limit
from plurikernel.domains import boundary_samples, outward_normal
from plurikernel.extrapolate import richardson
from plurikernel.utils import herm, norm, sample_ball, sample_sphere

import oracle

E1 = np.array([1.0, 0.0], dtype=complex)
ELL = DomainSpec.ellipsoid([1.0, 2.0])
BALL2 = DomainSpec.unit_ball(2)

# peak value at the center of the unit ball: P(exp(-1)) computed from the
# closed forms -(1 - e^{-2}) / (1 - e^{-1})^2
PEAK_AT_CENTER = -(1 - math.exp(-2)) / (1 - math.exp(-1)) ** 2


def test_peak_candidate_at_ball_center():
    cand = peak_candidate(BALL2, E1)
    u0 = cand.evaluator([0, 0])
    assert u0 == pytest.approx(PEAK_AT_CENTER, rel=1e-14)
    assert u0 == pytest.approx(-2.163953413738653, abs=1e-12)
    # candidate lies below the kernel
    assert u0 <= kernel_value(BALL2, E1, [0, 0]).value


def test_peak_candidate_normal_rate():
    cand = peak_candidate(BALL2, E1)
    res = candidate_normal_limit(BALL2, cand)
    assert res.estimate == pytest.approx(-2.0, abs=1e-8)


def test_candidates_negative_inside_and_admissible(rng):
    # family membership: negative on interior samples, normal rate >= -2
    for cand in (peak_candidate(ELL, E1), ball_restriction_candidate(ELL, E1)):
        for _ in range(30):
            z = sample_ball(rng, 2, 0.9)
            if ELL.psi(z) >= -1e-9:
                continue
            assert cand.evaluator(z) < 0
        res = candidate_normal_limit(ELL, cand)
        assert res.estimate >= -2.0 - 1e-7


def test_peak_candidate_peaks_only_at_pole(rng):
    cand = peak_candidate(ELL, E1)
    nu = cand.metadata["nu"]
    for q in boundary_samples(ELL, 40, rng):
        if np.linalg.norm(q - E1) < 1e-3:
            continue
        # strictly negative away from the pole, and |h| = 1 only at the pole
        assert cand.evaluator(q) < 0
        assert abs(np.exp(herm(q - E1, nu))) < 1.0
        # continuous extension from inside
        assert cand.evaluator(q * (1 - 1e-9)) == pytest.approx(
            cand.evaluator(q), abs=1e-6)


def test_peak_candidate_requires_convex_kind():
    dom = DomainSpec.custom("z1*conj(z1) - 1", n=1)
    with pytest.raises(ValidationError):
        peak_candidate(dom, [1.0])


def test_lower_envelope_examples(rng):
    peak = peak_candidate(BALL2, E1)
    ball_cand = ball_restriction_candidate(BALL2, E1)
    single = lower_envelope(BALL2, E1, [0, 0], [peak])
    assert single == pytest.approx(PEAK_AT_CENTER, rel=1e-12)
    both = lower_envelope(BALL2, E1, [0, 0], [peak, ball_cand])
    assert both >= single  # max is monotone in the candidate set
    # for the ball, the circumscribed ball is the ball itself: envelope exact
    assert both == pytest.approx(kernel_value(BALL2, E1, [0, 0]).value, rel=1e-12)
    for _ in range(20):
        z = sample_ball(rng, 2, 0.8)
        assert lower_envelope(BALL2, E1, z, [peak, ball_cand]) == pytest.approx(
            kernel_value(BALL2, E1, z).value, rel=1e-11)


def test_lower_envelope_empty_candidates():
    with pytest.raises(ValidationError):
        lower_envelope(BALL2, E1, [0, 0], [])


@pytest.mark.parametrize("dom", [BALL2, ELL], ids=["unit_ball:2", "ellipsoid:1,2"])
def test_lower_envelope_pole_match(dom, monkeypatch):
    p, other = boundary_samples(dom, 2, np.random.default_rng(12))
    cands = [peak_candidate(dom, p), ball_restriction_candidate(dom, p)]
    z = 0.5 * p
    norms = []
    monkeypatch.setattr(bounds, "norm", lambda v: norms.append(1) or norm(v))
    # the candidates' pole bytes: accepted without a norm
    value = lower_envelope(dom, p, z, cands)
    assert norms == []
    # another pole still fails the 1e-8 test
    with pytest.raises(ValidationError, match="candidate pole"):
        lower_envelope(dom, other, z, cands)
    # within 1e-8 of the candidates' pole but not bit for bit: the norm test accepts it
    near = p + np.array([1e-12, -1e-12j])
    assert near.tobytes() != p.tobytes()
    assert lower_envelope(dom, near, z, cands) == value


def test_sandwich_ball_degenerate():
    kv = sandwich_bounds(BALL2, E1, [0.3, 0.2j])
    assert kv.lo == kv.hi
    assert kv.lo == pytest.approx(kernel_value(BALL2, E1, [0.3, 0.2j]).value)


def test_sandwich_ellipsoid_worked_interval():
    # circumscribed unit ball gives -(1 - 0.25)/0.25 = -3; inscribed
    # ball(0.5 e1, 0.5) evaluated at its center gives -2
    kv = sandwich_bounds(ELL, E1, 0.5 * E1)
    assert kv.provenance is Provenance.SANDWICH_INTERVAL
    assert kv.lo == pytest.approx(-3.0, abs=1e-12)
    assert kv.hi == pytest.approx(-2.0, abs=1e-12)


def test_ellipsoid_with_a_large_coefficient_keeps_its_pole():
    # ellipsoid:1e8,1 at p = e2: the inscribed tangent ball's centre p - 1e-8 nu
    # carries a rounding that (p - c)/r magnifies past the unit-sphere test, and
    # that ball takes its exact unit pole nu.  The circumscribed ball is the unit
    # ball, and its kernel at 0.5 e2 is the exact value -(1 - 0.25)/0.25 = -3
    dom, p, z = DomainSpec.ellipsoid([1e8, 1.0]), [0.0, 1.0], [0.0, 0.5]
    kv = kernel_value(dom, p, z)
    assert (kv.lo, kv.hi) == (-3.0, 0.0)
    assert [a.tolist() for a in kernel_values(dom, p, [z])] == [[-3.0], [0.0]]
    assert ball_restriction_candidate(dom, p).evaluator(z) == -3.0


def test_sandwich_outside_inscribed_ball():
    # z = 0 is on the boundary of the inscribed ball B(0.5 e1, 0.5): pick a
    # point clearly outside it but inside the ellipsoid
    z = np.array([-0.3, 0.0], dtype=complex)
    kv = sandwich_bounds(ELL, E1, z)
    assert kv.hi == 0.0
    assert np.isfinite(kv.lo) and kv.lo < 0


def test_sandwich_vs_envelope_consistency(rng):
    peak = peak_candidate(ELL, E1)
    ball_cand = ball_restriction_candidate(ELL, E1)
    for _ in range(40):
        z = sample_ball(rng, 2, 0.9)
        if ELL.psi(z) >= -1e-6:
            continue
        kv = sandwich_bounds(ELL, E1, z)
        env = lower_envelope(ELL, E1, z, [peak, ball_cand])
        assert env <= kv.hi + 1e-12
        assert env >= kv.lo - 1e-12  # envelope never below the circumscribed bound
        assert kv.hi <= 0.0


def test_sandwich_ratio_tends_to_one_along_normal():
    vals = []
    for k in range(3, 22):
        t = 1.0 - 2.0 ** (-k)
        kv = sandwich_bounds(ELL, E1, [t, 0.0])
        vals.append(kv.hi / kv.lo)
    est = richardson(vals)
    assert est.real == pytest.approx(1.0, abs=1e-3)


def _ellipsoid_pole_near(q, eps):
    d = q + eps * np.array([0.0, 1.0], dtype=complex)
    return d / math.sqrt(abs(d[0]) ** 2 + 2 * abs(d[1]) ** 2)


def test_pole_upper_bound_semicontinuous_in_pole():
    # the inscribed-ball upper bound g(z, p), the sandwich's hi end, is
    # continuous in both arguments, so lim over poles q_k -> q of g(z, q_k) equals g(z, q)
    z = np.array([0.2, 0.1j])
    g0 = sandwich_bounds(ELL, E1, z).hi
    gaps = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        qk = _ellipsoid_pole_near(E1, eps)
        gaps.append(abs(sandwich_bounds(ELL, qk, z).hi - g0))
    assert gaps[-1] < 1e-6 and gaps[-2] < 1e-6
    assert gaps[0] > gaps[2] > gaps[3]


def test_uniform_bound_check_ball(rng):
    grid = [0.5 * sample_ball(rng, 2, 1.0) for _ in range(25)]
    poles = boundary_samples(BALL2, 20, rng)
    bound = uniform_bound_check(BALL2, grid, poles)
    assert np.isfinite(bound)
    worst_kernel = max(abs(kernel_value(BALL2, p, z).value) for p in poles for z in grid)
    assert bound >= worst_kernel


def test_uniform_bound_shrinks_with_grid(rng):
    poles = boundary_samples(BALL2, 10, rng)
    big = [0.7 * sample_ball(rng, 2, 1.0) for _ in range(30)]
    bound_big = uniform_bound_check(BALL2, big, poles)
    small = [0.1 * z for z in big]
    bound_small = uniform_bound_check(BALL2, small, poles)
    assert bound_small <= bound_big


def test_uniform_bound_ellipsoid_at_origin(rng):
    poles = boundary_samples(ELL, 30, rng)
    bound = uniform_bound_check(ELL, [np.zeros(2)], poles)
    # direct evaluation oracle: max_p |P(exp(<-p, nu_p>))|
    direct = 0.0
    for p in poles:
        cand = peak_candidate(ELL, p)
        direct = max(direct, abs(cand.evaluator(np.zeros(2))))
    assert bound == pytest.approx(direct, rel=1e-12)
    assert np.isfinite(bound)


@pytest.mark.parametrize("dom", [DomainSpec.disc(), BALL2, DomainSpec.ball([0.2 + 0.1j, -0.3], 1.5),
                                 ELL, DomainSpec.ellipsoid([1.0, 2.0, 3.0])])
def test_uniform_bound_equals_candidate_loop(dom):
    # the grid in one array call gives the scalar evaluators' max within the
    # disc kernel's row bound, 3 eps max |u| / (1 - |h|^2) over the candidates'
    # values u at peak values h inside the disc, and the mpmath max within 8
    rng = np.random.default_rng(13)
    poles = boundary_samples(dom, 12, rng)
    b = boundary_samples(dom, 20, rng)
    grid = dom.interior + (0.999 * rng.random(20))[:, None] * (b - dom.interior)
    loop = unit = true = 0.0
    for p in poles:
        cand = peak_candidate(dom, p)
        nu = cand.metadata["nu"]
        for z in grid:
            u = abs(cand.evaluator(z))
            h = abs(np.exp(herm(z - cand.pole, nu)))
            loop = max(loop, u)
            if h < 1.0:
                unit = max(unit, oracle.EPS * u / (1.0 - h * h))
            true = max(true, abs(oracle.R.peak_value(oracle.R.vec(nu), cand.pole, z)))
    check = uniform_bound_check(dom, grid, poles)
    assert abs(check - loop) <= 3 * unit
    assert abs(check - true) <= 8 * unit
    assert check == uniform_bound_check(dom, grid.copy(), poles.copy())
    assert uniform_bound_check(dom, grid, []) == uniform_bound_check(dom, [], poles) == 0.0


def test_uniform_bound_rejects_boundary_grid():
    with pytest.raises(ValidationError):
        uniform_bound_check(BALL2, [E1], [E1])


def test_kernel_value_dispatch():
    assert kernel_value(DomainSpec.disc(), [1.0], [0.0]).value == pytest.approx(-1.0)
    assert kernel_value(BALL2, E1, [0, 0]).value == pytest.approx(-1.0)
    kv = kernel_value(ELL, E1, 0.5 * E1)
    assert (kv.lo, kv.hi) == pytest.approx((-3.0, -2.0))
    dom = DomainSpec.custom("z1*conj(z1) - 1", n=1)
    with pytest.raises(ContainmentError):
        kernel_value(dom, [1.0], [0.0])


def test_sandwich_equals_kernel_value_on_balls():
    # on ball-like domains sandwich_bounds and kernel_value are one closed form:
    # over a seeded sweep, half of it approaching the pole, they agree bit for bit
    rng = np.random.default_rng(7)
    domains = (DomainSpec.disc(), BALL2, DomainSpec.ball([0.2 + 0.1j, -0.3], 1.5))
    for dom in domains:
        c, r = dom.center, dom.radius
        for _ in range(20):
            u = sample_sphere(rng, dom.n)
            p = c + r * u
            for k in range(50):
                w = sample_sphere(rng, dom.n)
                if k % 2:
                    w = u + 0.1 * rng.random() * w
                    w = w / np.linalg.norm(w)
                z = c + r * (1.0 - 10.0 ** -rng.uniform(0.0, 4.0)) * w
                assert sandwich_bounds(dom, p, z) == kernel_value(dom, p, z), (dom.label, p, z)


def test_sandwich_requires_interior_point():
    with pytest.raises(ValidationError):
        sandwich_bounds(ELL, E1, E1)


def test_ball_written_as_ellipsoid_near_pole():
    # ellipsoid:2,2 is the ball of radius r = 1/sqrt(2); its two tangent balls
    # coincide, so both ends of the enclosure are the ball's closed form even
    # where |kernel| is in the thousands and the ends differ by a few ulps
    dom = DomainSpec.ellipsoid([2.0, 2.0])
    r = 1.0 / math.sqrt(2.0)
    rng = np.random.default_rng(1)
    for _ in range(2):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        nu = v / np.linalg.norm(v)
        p = r * nu
        for k in range(2, 14):
            z = p - 2.0 ** (-k) * nu
            exact = -(1 - np.vdot(z, z).real / r ** 2) / abs(1 - np.vdot(p, z) / r ** 2) ** 2 / r
            for kv in (kernel_value(dom, p, z), sandwich_bounds(dom, p, z)):
                assert kv.lo == pytest.approx(exact, rel=1e-10)
                assert kv.hi == pytest.approx(exact, rel=1e-10)


# -- kernel_values: the array entry point ---------------------------------------------

KV_DOMAINS = (DomainSpec.disc(), BALL2, DomainSpec.unit_ball(3),
              DomainSpec.ball([0.2 + 0.1j, -0.3], 1.5), ELL, DomainSpec.ellipsoid([1.0, 2.0, 3.0]))


def _kv_sweep(dom, rng, poles=10, points=80):
    """(pole, (M, n) points): half uniform in the domain, half on chords to the pole."""
    c = dom.interior
    for p in boundary_samples(dom, poles, rng):
        b = boundary_samples(dom, points, rng)
        t = 0.999 * rng.random(points) ** (1.0 / (2 * dom.n))
        Z = c + t[:, None] * (b - c)
        s = 10.0 ** -rng.uniform(0.0, 8.0, points // 2)
        Z[::2] = p + s[:, None] * (Z[::2] - p)
        yield p, Z


def _error_class(call):
    try:
        call()
    except Exception as exc:      # noqa: BLE001 - the class is what is compared
        return type(exc)
    return None


def test_kernel_values_match_kernel_value_row_for_row():
    # 4,800 rows over six domains; within about 2e-8 of the pole, 11 ellipsoid
    # rows have sandwich ends that round out of order, and both paths refuse them.
    # Each accepted end is within 3 eps / (1 - |w|^2) relative of kernel_value's,
    # and every third one within 8 of those units of the mpmath kernel, w the
    # row on the unit ball of the end's ball
    rng = np.random.default_rng(11)
    refused = 0
    for dom in KV_DOMAINS:
        for p, Z in _kv_sweep(dom, rng):
            ok = np.ones(len(Z), dtype=bool)
            for i, z in enumerate(Z):
                error = _error_class(lambda: kernel_value(dom, p, z))
                if error is not None:
                    ok[i] = False
                    refused += 1
                    assert norm(z - p) < 2.1e-8
                    assert _error_class(lambda: kernel_values(dom, p, z[None])) is error
            Z = Z[ok]
            kvs = [kernel_value(dom, p, z) for z in Z]
            lo, hi = kernel_values(dom, p, Z)
            if dom.is_ball_like:
                assert np.array_equal(lo, hi)
            points = [kv.lo for kv in kvs], [kv.hi for kv in kvs]
            between, truth = oracle.kernel_row_errors(dom, p, Z, (lo, hi), points, bounds.tangent_balls)
            assert between <= 3 and truth <= 8, dom.label
            assert all(a.tobytes() == b.tobytes() for a, b in zip((lo, hi), kernel_values(dom, p, Z.copy())))
    assert refused <= 11


@pytest.mark.parametrize("dom", KV_DOMAINS, ids=lambda d: d.label)
def test_kernel_values_raise_as_kernel_value(dom):
    n = dom.n
    p = dom.center + dom.radius * np.eye(n)[0] if dom.is_ball_like else np.eye(n)[0]
    p = p.astype(complex)
    inside = p - 0.5 * outward_normal(dom, p)
    far = dom.interior + 3.0 * (p - dom.interior)
    nan_row = np.full(n, np.nan, dtype=complex)
    cases = [(p, [inside, far]),            # a row outside the domain
             (p, [inside, p]),              # a row at the pole
             (p, [inside, nan_row]),        # a non-finite row
             (0.9 * p, [inside])]           # a pole off the boundary
    for pole, rows in cases:
        scalar = _error_class(lambda: [kernel_value(dom, pole, z) for z in rows])
        assert scalar is not None
        assert _error_class(lambda: kernel_values(dom, pole, np.array(rows))) is scalar
    assert _error_class(lambda: kernel_values(dom, 0.9 * p, np.array([inside]))) is (
        ValidationError if dom.is_ball_like else NotOnBoundaryError)


def test_kernel_values_refuse_custom_domains_and_bad_shapes():
    dom = DomainSpec.custom("z1*conj(z1) - 1", n=1)
    with pytest.raises(ContainmentError):
        kernel_value(dom, [1.0], [0.0])
    with pytest.raises(ContainmentError):
        kernel_values(dom, [1.0], [[0.0]])
    with pytest.raises(ValidationError):
        kernel_values(BALL2, E1, [0.0, 0.0])          # a point, not an array of rows
    with pytest.raises(ValidationError):
        kernel_values(BALL2, E1, np.zeros((3, 3)))    # rows of the wrong length


def test_custom_domains_have_no_kernel_bound_and_say_so():
    # no candidate can be built on a custom domain, so no message points at lower_envelope
    dom = DomainSpec.custom("z1*conj(z1)+z2*conj(z2)-1", n=2)
    z = np.array([0.2, 0.1j])
    for call in (lambda: kernel_value(dom, E1, z), lambda: kernel_values(dom, E1, [z]),
                 lambda: sandwich_bounds(dom, E1, z),
                 lambda: ball_restriction_candidate(dom, E1)):
        with pytest.raises(ContainmentError, match="custom domains have no kernel bound yet") as err:
            call()
        assert "lower_envelope" not in str(err.value)
    with pytest.raises(ValidationError, match="convex built-in"):
        peak_candidate(dom, E1)

