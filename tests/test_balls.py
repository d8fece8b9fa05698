"""One ball kind: the disc and the unit ball are B(0, 1), and every ball goes
through the transport w = (z - c)/r onto it."""

import json

import numpy as np
import pytest

from plurikernel import (
    DomainKind,
    DomainSpec,
    MapSpec,
    boundary_frame,
    domain_from_json,
    green_function,
    kernel_value,
    kernel_values,
    kobayashi,
    mobius_ball,
    pullback_kernel,
    signed_boundary_distance,
)
from plurikernel.cli import main, parse_point
from plurikernel.errors import ValidationError
from plurikernel.utils import herm, sample_ball, sample_ball_rows, sample_sphere

import oracle


def test_one_ball_kind():
    assert [k.name for k in DomainKind] == ["BALL", "ELLIPSOID", "CUSTOM"]
    for dom in (DomainSpec.disc(), DomainSpec.unit_ball(1), DomainSpec.unit_ball(3)):
        assert dom.kind is DomainKind.BALL and dom.is_ball_like
        assert dom.radius == 1.0
        assert not dom.center.any() and len(dom.center) == dom.n
    assert DomainSpec.disc().label == "disc"
    assert DomainSpec.unit_ball(2).label == "unit_ball:2"


def _outcome(call, *args):
    """repr of what call(*args) returns or raises, so that errors compare too."""
    try:
        out = call(*args)
    except Exception as exc:   # the error type and message are part of the output
        return f"raised {type(exc).__name__}: {exc}"
    if isinstance(out, tuple):
        return repr(tuple(np.asarray(a).tobytes() for a in out))
    return repr(out)


def _frame_bytes(dom, p):
    f = boundary_frame(dom, p)
    return tuple(a.tobytes() for a in (f.p, f.nu, f.tangent_basis, f.levi, f.theta_coeffs))


def _sweep(dom, rng, poles=20, points=50):
    """Every output of the swept functions on dom, over a seeded sweep.

    Per pole, half the points lie anywhere in the ball and half approach the
    pole non-tangentially from 1e-1 down to 1e-9.
    """
    n = dom.n
    outs = []
    for _ in range(poles):
        p = sample_sphere(rng, n)
        zs = [sample_ball(rng, n, 0.999) for _ in range(points // 2)]
        for _ in range(points - points // 2):
            d = p * np.exp(1j * (rng.random() - 0.5)) if n == 1 else \
                p + 0.5 * rng.random() * (sample_sphere(rng, n) - p)
            zs.append(p - 10.0 ** rng.uniform(-9, -1) * d / np.linalg.norm(d))
        ws = [sample_ball(rng, n, 0.999) for _ in zs]
        outs.append(_frame_bytes(dom, p))
        outs.append(_outcome(kernel_values, dom, p, np.array(zs)))
        for z, w in zip(zs, ws):
            outs += [_outcome(kernel_value, dom, p, z),
                     _outcome(green_function, dom, z, w),
                     _outcome(kobayashi, dom, z, w),
                     _outcome(signed_boundary_distance, dom, z)]
    return outs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_ball_spellings_agree_bit_for_bit(n):
    spellings = [DomainSpec.unit_ball(n), DomainSpec.ball(np.zeros(n), 1)]
    if n == 1:
        spellings.insert(0, DomainSpec.disc())
    sweeps = [_sweep(dom, np.random.default_rng(2024 + n)) for dom in spellings]
    for label, other in zip([d.label for d in spellings[1:]], sweeps[1:]):
        differ = sum(a != b for a, b in zip(sweeps[0], other))
        assert differ == 0, f"{label}: {differ} of {len(other)} outputs differ"


BALLS = [DomainSpec.ball([0.3 - 0.2j], 0.7),
         DomainSpec.ball([0.2 + 0.1j, -0.3], 1.5),
         DomainSpec.ball([1.0, 0.5j, -2.0], 2.0)]


@pytest.mark.parametrize("domain, pole", [
    ("unit_ball:2", "e1"),
    ('{"kind":"ball","center":[[0.5,0],[0,0]],"radius":2}', "2.5,0"),
])
def test_kernel_on_the_sphere_is_positive_zero(capsys, domain, pole):
    # (0.6, 0.8i) on the unit sphere, exactly carried from B((0.5, 0), 2), and
    # 5e-10 outside it: +0.0 through kernel_value, kernel_values and the CLI
    dom = domain_from_json(domain)
    p = parse_point(pole, 2)
    for scale in (1.0, 1.0 + 5e-10):
        z = dom.center + dom.radius * scale * np.array([0.6, 0.8j])
        kv = kernel_value(dom, p, z)
        values = [kv.lo, kv.hi, *(ends[0] for ends in kernel_values(dom, p, z[None]))]
        assert [(v, np.copysign(1.0, v)) for v in values] == [(0.0, 1.0)] * 4
        point = ",".join(repr(complex(x)).strip("()").replace("j", "i") for x in z)
        assert main(["kernel", "--domain", domain, "--pole", pole, "--point", point]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert (value, np.copysign(1.0, value)) == (0.0, 1.0)


@pytest.mark.parametrize("dom", BALLS, ids=lambda d: f"C^{d.n}")
def test_kobayashi_on_ball_is_unit_ball_distance_of_transport(dom, rng):
    c, r = dom.center, dom.radius
    unit = DomainSpec.unit_ball(dom.n)
    for _ in range(50):
        z = c + r * sample_ball(rng, dom.n, 0.99)
        w = c + r * sample_ball(rng, dom.n, 0.99)
        assert kobayashi(dom, z, w) == kobayashi(unit, (z - c) / r, (w - c) / r)
        assert kobayashi(dom, z, w) == pytest.approx(kobayashi(dom, w, z), rel=1e-12, abs=1e-15)


def _bytes(rows):
    return np.asarray(rows).tobytes()


@pytest.mark.parametrize("dom", [DomainSpec.disc(), BALLS[0], DomainSpec.unit_ball(2)] + BALLS[1:],
                         ids=["disc", "B(c, r) in C", "unit_ball:2", "B(c, r) in C^2", "B(c, r) in C^3"])
def test_one_row_mobius_and_green_are_one_point_calls(dom):
    # one anchor row, one point row or both (in C numpy rounds a 1 x 1 product
    # unlike a point's): mobius_ball is within 6 eps / |1 - <u, a>| of the point
    # call and of the exact map, and green_function and kobayashi within that
    # bound carried through log and arctanh
    rng = np.random.default_rng(20240825)
    c, r, n = dom.center, dom.radius, dom.n
    for _ in range(500):
        a, u = sample_ball(rng, n, 0.999), sample_ball(rng, n, 0.999)
        bound = 6 * oracle.EPS / abs(1.0 - herm(u, a))
        point, exact = mobius_ball(a, u), np.array(oracle.ball_mobius(a, u), dtype=complex)
        for args in ((a, u), (a, u[None]), (a[None], u), (a[None], u[None])):
            image = mobius_ball(*args).reshape(n)
            assert np.max(np.abs(image - point)) <= bound and np.max(np.abs(image - exact)) <= bound
        m = np.linalg.norm(point)
        z, w = c + r * a, c + r * u
        assert abs(green_function(dom, z, w[None])[0] - green_function(dom, z, w)) <= bound / m
        assert abs(kobayashi(dom, z[None], w)[0] - kobayashi(dom, z, w)) <= bound / (1.0 - m * m)


@pytest.mark.parametrize("dom", [DomainSpec.disc(), DomainSpec.unit_ball(2)] + BALLS,
                         ids=lambda d: d.label or f"B(c, r) in C^{d.n}")
def test_kobayashi_and_mobius_on_rows_equal_one_call_per_row(dom, rng):
    c, r, n = dom.center, dom.radius, dom.n
    Z = c + r * sample_ball_rows(rng, 100, n, 0.999)
    W = c + r * sample_ball_rows(rng, 100, n, 0.999)
    z, w = Z[0], W[0]
    assert _bytes(kobayashi(dom, Z, W)) == _bytes([kobayashi(dom, a, b) for a, b in zip(Z, W)])
    assert _bytes(kobayashi(dom, z, W)) == _bytes([kobayashi(dom, z, b) for b in W])
    assert _bytes(kobayashi(dom, Z, w)) == _bytes([kobayashi(dom, a, w) for a in Z])
    assert type(kobayashi(dom, z, w)) is float

    # anchors and points of the unit ball, one anchor row at 0 (phi_0 = -id)
    A = sample_ball_rows(rng, 100, n, 0.999)
    A[7] = 0.0
    U = sample_ball_rows(rng, 100, n, 1.0)
    assert _bytes(mobius_ball(A, U)) == _bytes([mobius_ball(a, u) for a, u in zip(A, U)])
    assert _bytes(mobius_ball(A, U[0])) == _bytes([mobius_ball(a, U[0]) for a in A])
    assert _bytes(mobius_ball(A[1], U)) == _bytes([mobius_ball(A[1], u) for u in U])
    assert _bytes(mobius_ball(A[7], U[0])) == _bytes(-U[0])

    # a row on the sphere (exactly, on B(0, 1)) or outside it is refused, as
    # one call refuses that point
    e1 = np.eye(n)[0]
    for scale in ((1.0, 1.01) if r == 1.0 and not c.any() else (1.01,)):
        bad = c + r * scale * e1
        Zbad = Z.copy()
        Zbad[3] = bad
        for args in ((Zbad, W), (W, Zbad), (z, Zbad), (Zbad, w), (bad, w), (z, bad)):
            with pytest.raises(ValidationError, match="open ball"):
                kobayashi(dom, *args)
        out = A.copy()
        out[3] = scale * e1
        with pytest.raises(ValidationError, match="anchor"):
            mobius_ball(out, U)
    out = U.copy()
    out[3] = 1.01 * e1
    for args in ((A, out), (A[0], out)):
        with pytest.raises(ValidationError, match="closed ball"):
            mobius_ball(*args)


@pytest.mark.parametrize("dom", BALLS, ids=lambda d: f"C^{d.n}")
def test_pullback_onto_ball_is_target_kernel(dom, rng):
    c, r, n = dom.center, dom.radius, dom.n
    unit = DomainSpec.unit_ball(n)
    J = r * np.eye(n, dtype=complex)
    F = MapSpec(fn=lambda z: c + r * z, jacobian=lambda z: J, source=unit, target=dom,
                describe="affine", inverse=lambda w: (w - c) / r)
    for _ in range(5):
        u = sample_sphere(rng, n)
        q = c + r * u
        pulled = pullback_kernel(F, q)
        assert np.allclose(pulled.pole, u, atol=1e-15)
        assert np.allclose(pulled.couple_coeffs, r * u, atol=1e-14)
        assert pulled.scale_to_standard == pytest.approx(r, rel=1e-14)
        standard = pulled.standard_evaluator()
        for _ in range(20):
            z = sample_ball(rng, n, 0.99)
            assert pulled.evaluator(z) == kernel_value(dom, q, F(z)).value
            assert standard(z) == pytest.approx(kernel_value(unit, u, z).value, rel=1e-12)
