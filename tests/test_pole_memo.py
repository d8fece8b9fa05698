"""The per-pole memo on DomainSpec: same numbers as a fresh computation, bounded, safe."""

import numpy as np
import pytest

from plurikernel import (
    DomainKind,
    DomainSpec,
    NotOnBoundaryError,
    ValidationError,
    ball_restriction_candidate,
    kernel_value,
    kernel_values,
    sandwich_bounds,
)
from plurikernel import bounds
from plurikernel.bounds import tangent_balls
from plurikernel.domains import (
    _POLE_MEMO_SIZE,
    boundary_frame,
    boundary_samples,
    levi_density,
    osculating_radii,
)
from plurikernel.expressions import ScalarField
from plurikernel.kernels import _unit_pole as unit_pole

DOMAINS = [
    DomainSpec.ellipsoid([1.0, 2.0]),
    DomainSpec.ellipsoid([1.0, 2.0, 3.0]),
    DomainSpec.custom("z1*conj(z1) + z2*conj(z2) + 0.2*re(z1*z2) - 1", 2),
]
IDS = ["ellipsoid:1,2", "ellipsoid:1,2,3", "custom"]


def _frame_bytes(frame):
    return tuple(a.tobytes() for a in (frame.p, frame.nu, frame.tangent_basis,
                                       frame.levi, frame.theta_coeffs))


def _geometry(dom, p):
    return _frame_bytes(boundary_frame(dom, p)), tuple(osculating_radii(dom, p)), levi_density(dom, p)


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_memo_equals_fresh_computation(dom):
    poles = boundary_samples(dom, 6, np.random.default_rng(3))
    for p in poles:
        _geometry(dom, p)
    memoised = [_geometry(dom, p) for p in poles]
    fresh = []
    for p in poles:
        dom._poles.clear()
        fresh.append(_geometry(dom, p))
    assert memoised == fresh
    assert boundary_frame(dom, list(poles[0])) is boundary_frame(dom, poles[0])


@pytest.mark.parametrize("dom", DOMAINS[:2], ids=IDS[:2])
def test_stored_arrays_reject_writes(dom):
    p = boundary_samples(dom, 1, np.random.default_rng(4))[0]
    frame = boundary_frame(dom, p)
    (c_in, _), (c_out, _) = tangent_balls(dom, p)
    for a in (frame.p, frame.nu, frame.tangent_basis, frame.levi, frame.theta_coeffs, c_in, c_out):
        with pytest.raises(ValueError):
            a[...] = 0
    # the caller's pole array is neither frozen nor aliased
    p[0] = 0.0
    assert frame.p[0] != 0.0


def test_levi_density_is_computed_once_per_pole(monkeypatch):
    dom = DOMAINS[2]
    p = boundary_samples(dom, 1, np.random.default_rng(7))[0]
    first = levi_density(dom, p)
    jets = []
    monkeypatch.setattr(ScalarField, "jet", lambda self, z: jets.append(1))
    assert levi_density(dom, list(p)) == first
    assert jets == []


def test_memo_size_is_bounded():
    dom = DomainSpec.ellipsoid([1.0, 2.0])
    for p in boundary_samples(dom, _POLE_MEMO_SIZE + 10, np.random.default_rng(5)):
        boundary_frame(dom, p)
        assert len(dom._poles) <= _POLE_MEMO_SIZE


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_rejected_pole_is_not_stored(dom):
    p = boundary_samples(dom, 1, np.random.default_rng(6))[0]
    # an interior pole, and one 1e-8 off the boundary, outside its tolerance
    for q in (0.5 * p, (1.0 + 1e-8) * p):
        for _ in range(2):
            with pytest.raises(NotOnBoundaryError):
                boundary_frame(dom, q)
            with pytest.raises(NotOnBoundaryError):
                osculating_radii(dom, q)
            with pytest.raises(NotOnBoundaryError):
                levi_density(dom, q)
        assert all(key[1] != q.tobytes() for key in dom._poles)


# -- the kernel's pole side: carried once per pole and ball -----------------------

KERNEL_DOMAINS = [
    DomainSpec.unit_ball(2),
    DomainSpec.ball([0.2 + 0.1j, -0.3], 1.5),
    DomainSpec.ellipsoid([1.0, 2.0]),
    DomainSpec.disc(),
]
KERNEL_IDS = ["unit_ball:2", "ball(r=1.5)", "ellipsoid:1,2", "disc"]


def _interior_points(dom, rng, count):
    """Points on chords from the domain's centre to its boundary, at most 0.9 of the way."""
    b = boundary_samples(dom, count, rng)
    return dom.interior + 0.9 * rng.random(count)[:, None] * (b - dom.interior)


def _kernel_ends(dom, p, z):
    kv = kernel_value(dom, p, z)
    return kv.lo.hex(), kv.hi.hex()


ENTRIES = {
    "kernel_value": kernel_value,
    "sandwich_bounds": sandwich_bounds,
    "kernel_values": lambda dom, p, z: kernel_values(dom, p, z[None]),
}


@pytest.mark.parametrize("entry", [*ENTRIES, "ball_restriction_candidate"])
@pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=KERNEL_IDS)
def test_pole_side_runs_once_per_pole(dom, entry, monkeypatch):
    rng = np.random.default_rng(8)
    p = boundary_samples(dom, 1, rng)[0]
    Z = _interior_points(dom, rng, 50)
    balls = []

    def counted(c, r, q):
        balls.append((c.tobytes(), r))
        return unit_pole(c, r, q)

    monkeypatch.setattr(bounds, "_unit_pole", counted)
    dom._poles.clear()
    if entry == "ball_restriction_candidate":
        evaluate = ball_restriction_candidate(dom, p).evaluator
        for z in Z:
            evaluate(z)
    else:
        for z in Z:
            ENTRIES[entry](dom, p, z)
    # one carried pole per ball: the domain's own, or an ellipsoid's two tangent balls,
    # or the candidate's circumscribed ball
    expected = 2 if dom.kind is DomainKind.ELLIPSOID and entry in ENTRIES else 1
    assert len(balls) == len(set(balls)) == expected


@pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=KERNEL_IDS)
def test_memoised_kernel_values_equal_fresh(dom):
    rng = np.random.default_rng(9)
    for p in boundary_samples(dom, 4, rng):
        Z = _interior_points(dom, rng, 10)
        memoised = [_kernel_ends(dom, p, z) for z in Z]
        rows = [tuple(map(float.hex, map(float, ends))) for ends in zip(*kernel_values(dom, p, Z))]
        fresh = []
        for z in Z:
            dom._poles.clear()
            fresh.append(_kernel_ends(dom, p, z))
        assert memoised == fresh == rows


@pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=KERNEL_IDS)
def test_rejected_kernel_pole_is_not_stored(dom):
    rng = np.random.default_rng(10)
    p = boundary_samples(dom, 1, rng)[0]
    z = _interior_points(dom, rng, 1)[0]
    q = dom.interior + (1.0 + 1e-8) * (p - dom.interior)    # 1e-8 outside, past the tolerance
    for _ in range(2):
        for call in (*ENTRIES.values(), lambda dom, q, z: ball_restriction_candidate(dom, q)):
            with pytest.raises(ValidationError):
                call(dom, q, z)
    assert all(key[1] != q.tobytes() for key in dom._poles)
