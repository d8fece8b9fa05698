"""The per-pole memo on DomainSpec: same numbers as a fresh computation, bounded, safe."""

import numpy as np
import pytest

from plurikernel import DomainSpec, NotOnBoundaryError
from plurikernel.bounds import tangent_balls
from plurikernel.domains import _POLE_MEMO_SIZE, boundary_frame, boundary_samples, osculating_radii

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
    return _frame_bytes(boundary_frame(dom, p)), tuple(osculating_radii(dom, p))


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


def test_memo_size_is_bounded():
    dom = DomainSpec.ellipsoid([1.0, 2.0])
    for p in boundary_samples(dom, _POLE_MEMO_SIZE + 10, np.random.default_rng(5)):
        boundary_frame(dom, p)
        assert len(dom._poles) <= _POLE_MEMO_SIZE


def test_tolerance_is_part_of_the_key():
    dom = DomainSpec.ellipsoid([1.0, 2.0])
    p = np.array([1.0, 0.0], dtype=complex)
    boundary_frame(dom, p)
    boundary_frame(dom, p, tol=1e-6)
    assert len(dom._poles) == 2
    # a pole near the boundary passes a loose tolerance but not the default
    q = p * (1.0 + 1e-8)
    boundary_frame(dom, q, tol=1e-6)
    with pytest.raises(NotOnBoundaryError):
        boundary_frame(dom, q)


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_rejected_pole_is_not_stored(dom):
    q = 0.5 * boundary_samples(dom, 1, np.random.default_rng(6))[0]
    for _ in range(2):
        with pytest.raises(NotOnBoundaryError):
            boundary_frame(dom, q)
        with pytest.raises(NotOnBoundaryError):
            osculating_radii(dom, q)
    assert all(key[1] != q.tobytes() for key in dom._poles)
