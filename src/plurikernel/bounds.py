"""Certified bounds for the kernel on domains without a closed form.

The kernel of a domain D at a boundary pole p is the upper envelope of the
family of negative plurisubharmonic functions whose transversal boundary
rate at p is at most -2 Re [theta(gamma'(1))]^{-1}.  Two explicit member
constructions give computable two-sided control:

* peak candidates  u(z) = P(exp(<z - p, nu_p>))  (convex kinds, where
  Re <z - p, nu_p> < 0 inside), which attain the exact boundary rate and
  hence certify a lower bound;
* kernels of tangent balls: the circumscribed tangent ball at p bounds from
  below on all of D, the inscribed tangent ball bounds from above where it
  applies (its kernel inside, zero outside).

The resulting enclosure is reported as an interval KernelValue.  Built-in
convex kinds get globally certified tangent balls from the osculating radii;
custom domains have no kernel bound yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .domains import DomainKind, DomainSpec, boundary_frame, osculating_radii
from .errors import ContainmentError, ValidationError
from .kernels import (BoundaryCurve, BoundaryLimitResult, KernelValue, _ball_kernel_at,
                      _ball_kernels, _disc_at, _poisson_discs, _unit_pole, boundary_limit)
from .utils import BOUNDARY_TOL, as_rows, as_vector, norm, read_only, row_norms


#: candidate_normal_limit: last level of the normal-ray ladder, h = 2^-level.
_CANDIDATE_MAX_LEVEL = 24


class CandidateKind(str, Enum):
    PEAK_POISSON = "peak_poisson"
    BALL_RESTRICTION = "ball_restriction"


@dataclass(frozen=True, eq=False)
class CandidateMember:
    """An explicit member of the envelope family at a pole."""

    evaluator: Callable[[np.ndarray], float]
    kind: CandidateKind
    pole: np.ndarray
    metadata: dict = field(default_factory=dict)


def peak_candidate(domain: DomainSpec, p) -> CandidateMember:
    """Peak-function member u(z) = P(exp(<z - p, nu_p>)) for convex kinds.

    The exponential peak function h(z) = exp(<z - p, nu_p>) maps the domain
    into the disc (convexity keeps Re <z - p, nu_p> < 0 inside), peaks at p
    with unit slope along the normal, and composing with the disc kernel
    yields a family member with the exact transversal rate.
    """
    frame = _peak_frame(domain, p)
    nu, nuc, pole = frame.nu, frame.theta_coeffs, frame.p     # theta_coeffs is conj(nu)

    def evaluator(z) -> float:
        z = as_vector(z, domain.n)
        h = np.exp(complex(np.add.reduce((z - pole) * nuc, axis=None)))   # <z - p, nu>
        if abs(h) >= 1.0:
            if abs(h - 1.0) < 1e-12:
                raise ValidationError("peak candidate evaluated at its pole")
            return 0.0
        return _disc_at(1.0, h)

    return CandidateMember(evaluator=evaluator, kind=CandidateKind.PEAK_POISSON,
                           pole=pole, metadata={"nu": nu, "peak_slope": 1.0})


def _peak_frame(domain: DomainSpec, p):
    """The memoised boundary frame at the pole of a peak candidate, on convex kinds only."""
    if not domain.is_convex_kind:
        raise ValidationError("peak candidates require a convex built-in domain kind")
    return boundary_frame(domain, p)


def ball_restriction_candidate(domain: DomainSpec, p) -> CandidateMember:
    """Kernel of the circumscribed tangent ball, restricted to the domain."""
    _, (center, radius) = tangent_balls(domain, p)
    pole = boundary_frame(domain, p).p
    unit_pole = _tangent_pole(domain, center, radius, pole)

    def evaluator(z) -> float:
        return _ball_kernel_at(center, radius, unit_pole, as_vector(z, domain.n))

    return CandidateMember(evaluator=evaluator, kind=CandidateKind.BALL_RESTRICTION,
                           pole=pole, metadata={"center": center, "radius": radius})


def lower_envelope(domain: DomainSpec, p, z, candidates: Sequence[CandidateMember]) -> float:
    """Pointwise max of family members: a certified lower bound for the kernel at z."""
    if not candidates:
        raise ValidationError("empty candidate list")
    z = as_vector(z, domain.n)
    if domain._psi(z) >= 0:
        raise ValidationError("envelope bounds are defined for interior points")
    p = as_vector(p, domain.n)
    key = p.tobytes()
    for cand in candidates:
        # a pole with p's bytes is at distance 0; any other takes the norm test
        if cand.pole.tobytes() != key and norm(cand.pole - p) > 1e-8:
            raise ValidationError("candidate pole does not match the requested pole")
    best = candidates[0].evaluator(z)
    for cand in candidates[1:]:     # max() of a generator took 0.15 us more for two
        best = max(best, cand.evaluator(z))
    return best


def candidate_normal_limit(domain: DomainSpec, member: CandidateMember) -> BoundaryLimitResult:
    """Extrapolated boundary rate of a candidate along the inward normal.

    Family membership requires the limit to be >= -2 (the transversal rate of
    the canonical couple along the normal, theta(nu) = 1).
    """
    frame = boundary_frame(domain, member.pole)
    start = 3
    while domain.psi(frame.p - 2.0 ** (-start) * frame.nu) >= 0 and start < 20:
        start += 1
    curve = BoundaryCurve(gamma=lambda t: frame.p - (1.0 - t) * frame.nu,
                          gamma_prime_at_1=frame.nu)
    return boundary_limit(member.evaluator, curve, frame.nu,
                          start_level=start, max_level=_CANDIDATE_MAX_LEVEL)


def tangent_balls(domain: DomainSpec, p):
    """Inscribed and circumscribed tangent balls at p as ((center, r_in), (center, r_out))."""
    return domain._per_pole("balls", as_vector(p, domain.n), _tangent_balls)


def _tangent_balls(domain: DomainSpec, p: np.ndarray):
    rad = osculating_radii(domain, p)
    if not rad.global_containment:
        raise ContainmentError(
            "tangent-ball containment not certified for this domain: "
            "custom domains have no kernel bound yet")
    frame = boundary_frame(domain, p)
    c_in, c_out = read_only(frame.p - rad.r_in * frame.nu, frame.p - rad.r_out * frame.nu)
    return (c_in, rad.r_in), (c_out, rad.r_out)


def _kernel_pole(domain: DomainSpec, p: np.ndarray):
    """The kernel's pole side at a coerced p, kept in the pole memo as "kernel".

    A ball's ``_unit_pole``, or an ellipsoid's tangent balls as (center, radius, ``_tangent_pole``).
    """
    if domain.kind is DomainKind.BALL:
        return _unit_pole(domain.center, domain.radius, p)
    return tuple((c, r, _tangent_pole(domain, c, r, p)) for c, r in tangent_balls(domain, p))


def _tangent_pole(domain: DomainSpec, c: np.ndarray, r: float, p: np.ndarray) -> tuple:
    """``_unit_pole`` of a ball B(c, r) tangent at p, the float ball's own; where c's rounding
    over r puts it off the sphere (r = 1e-8 on ellipsoid:1e8,1), the exact one, the normal nu."""
    try:
        return _unit_pole(c, r, p)
    except ValidationError:
        frame = boundary_frame(domain, p)
        return frame.nu, frame.theta_coeffs


def sandwich_bounds(domain: DomainSpec, p, z) -> KernelValue:
    """Two-sided enclosure of the kernel from tangent-ball comparisons.

    Lower end: circumscribed tangent ball kernel (valid on all of D).  Upper
    end: inscribed tangent ball kernel where z lies in that ball, else 0.
    """
    z = as_vector(z, domain.n)
    if domain._psi(z) >= 0:
        raise ValidationError("sandwich bounds are defined for interior points")
    record = domain._per_pole("kernel", as_vector(p, domain.n), _kernel_pole)
    if domain.is_ball_like:
        return KernelValue.closed_form(_ball_kernel_at(domain.center, domain.radius, record, z))
    (c_in, r_in, q_in), (c_out, r_out, q_out) = record
    lo = _ball_kernel_at(c_out, r_out, q_out, z)
    hi = _ball_kernel_at(c_in, r_in, q_in, z) if norm(z - c_in) < r_in else 0.0
    return KernelValue.interval(lo, hi)


def uniform_bound_check(domain: DomainSpec, interior_points, boundary_points) -> float:
    """max over K x P of |peak candidate(p)(z)|: a uniform-in-pole bound on |kernel|.

    Since each peak candidate lies below the kernel, which is negative, the
    returned max dominates sup_p |kernel_p(z)| over the compact grid K, whose
    points must lie deeper than the boundary tolerance.  Within 3 eps max |u|/(1 - |h|^2)
    of the evaluators' max, over values u at peak values |h| < 1 (the disc kernel's bound).
    """
    Z = np.array([as_vector(z, domain.n) for z in interior_points]).reshape(-1, domain.n)
    if np.any(domain.psi_rows(Z) >= -BOUNDARY_TOL):
        raise ValidationError("compact grid touches the boundary")
    frames = [_peak_frame(domain, p) for p in boundary_points]
    poles = np.array([f.p for f in frames]).reshape(-1, 1, domain.n)
    nus = np.array([f.nu for f in frames]).reshape(-1, 1, domain.n)
    # every candidate's evaluator at every grid point
    h = np.exp(np.add.reduce((Z - poles) * nus.conj(), axis=2))
    outside = np.abs(h) >= 1.0
    if np.any(np.abs(h[outside] - 1.0) < 1e-12):
        raise ValidationError("peak candidate evaluated at its pole")
    return float(np.max(np.abs(_poisson_discs(1.0, h[~outside])), initial=0.0))


def kernel_value(domain: DomainSpec, p, z) -> KernelValue:
    """Best available kernel evaluation: closed form on balls, enclosure otherwise."""
    if domain.kind is DomainKind.BALL:
        p, z = as_vector(p, domain.n), as_vector(z, domain.n)
        return KernelValue.closed_form(_ball_kernel_at(
            domain.center, domain.radius, domain._per_pole("kernel", p, _kernel_pole), z))
    if domain.kind is DomainKind.ELLIPSOID:
        return sandwich_bounds(domain, p, z)
    raise ContainmentError("custom domains have no kernel bound yet")


def kernel_values(domain: DomainSpec, p, Z):
    """``kernel_value`` at every row of an (M, n) array Z, as float arrays ``(lo, hi)``.

    Closed forms on balls (``lo == hi``), the tangent-ball sandwich on
    ellipsoids.  The pole is checked once; every row gets the
    scalar path's tests, and fails with the same error types.  Each end is within
    3 eps/(1 - ||w||^2) relative of ``kernel_value``'s, w = (z - c)/r for the ball
    B(c, r) whose kernel gives it.  Identical inputs give identical bytes.
    """
    if domain.kind is DomainKind.CUSTOM:
        raise ContainmentError("custom domains have no kernel bound yet")
    Z = as_rows(Z, domain.n)
    if domain.kind is DomainKind.ELLIPSOID and np.any(domain.psi_rows(Z) >= 0):
        raise ValidationError("sandwich bounds are defined for interior points")
    record = domain._per_pole("kernel", as_vector(p, domain.n), _kernel_pole)
    if domain.is_ball_like:
        value = _ball_kernels(domain.center, domain.radius, record, Z)
        return value, value.copy()
    (c_in, r_in, q_in), (c_out, r_out, q_out) = record
    lo = _ball_kernels(c_out, r_out, q_out, Z)
    hi = np.zeros(len(Z))
    inside = row_norms(Z - c_in) < r_in
    if inside.any():
        hi[inside] = _ball_kernels(c_in, r_in, q_in, Z[inside])
    return _enclosures(lo, hi)


def _enclosures(lo: np.ndarray, hi: np.ndarray):
    """KernelValue's tests and clamps, applied to arrays of enclosure ends."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValidationError("kernel enclosure must be finite")
    bad = lo > hi + 1e-12 * np.maximum(1.0, np.abs(hi))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"invalid enclosure [{lo[i]}, {hi[i]}]")
    if np.any(hi > 1e-9):
        raise ValidationError(f"kernel values must be <= 0, got hi = {np.max(hi)}")
    hi = np.minimum(hi, 0.0)
    return np.minimum(lo, hi), hi
