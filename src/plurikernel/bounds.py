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
custom domains are served by the lower envelope only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .domains import (
    DomainKind,
    DomainSpec,
    boundary_frame,
    osculating_radii,
)
from .errors import ContainmentError, ValidationError
from .kernels import (
    BoundaryCurve,
    BoundaryLimitResult,
    KernelValue,
    _ball_kernel,
    _ball_kernels,
    boundary_limit,
    poisson_disc,
)
from .utils import BOUNDARY_TOL, as_rows, as_vector, herm, norm, read_only, row_norms


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
    if not domain.is_convex_kind:
        raise ValidationError("peak candidates require a convex built-in domain kind")
    frame = boundary_frame(domain, p)
    nu = frame.nu
    pole = frame.p

    def evaluator(z) -> float:
        z = as_vector(z, domain.n)
        h = np.exp(herm(z - pole, nu))
        if abs(h) >= 1.0:
            if abs(h - 1.0) < 1e-12:
                raise ValidationError("peak candidate evaluated at its pole")
            return 0.0
        return poisson_disc(1.0, h)

    return CandidateMember(evaluator=evaluator, kind=CandidateKind.PEAK_POISSON,
                           pole=pole, metadata={"nu": nu, "peak_slope": 1.0})


def ball_restriction_candidate(domain: DomainSpec, p) -> CandidateMember:
    """Kernel of the circumscribed tangent ball, restricted to the domain."""
    _, (center, radius) = tangent_balls(domain, p)
    pole = boundary_frame(domain, p).p

    def evaluator(z) -> float:
        return _ball_kernel(center, radius, pole, as_vector(z, domain.n))

    return CandidateMember(evaluator=evaluator, kind=CandidateKind.BALL_RESTRICTION,
                           pole=pole, metadata={"center": center, "radius": radius})


def lower_envelope(domain: DomainSpec, p, z, candidates: Sequence[CandidateMember]) -> float:
    """Pointwise max of family members: a certified lower bound for the kernel at z."""
    if not candidates:
        raise ValidationError("empty candidate list")
    z = as_vector(z, domain.n)
    if domain.psi(z) >= 0:
        raise ValidationError("envelope bounds are defined for interior points")
    p = as_vector(p, domain.n)
    for cand in candidates:
        if norm(cand.pole - p) > 1e-8:
            raise ValidationError("candidate pole does not match the requested pole")
    return max(c.evaluator(z) for c in candidates)


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
            "tangent-ball containment not certified for this domain; "
            "use lower_envelope for one-sided bounds")
    frame = boundary_frame(domain, p)
    c_in, c_out = read_only(frame.p - rad.r_in * frame.nu, frame.p - rad.r_out * frame.nu)
    return (c_in, rad.r_in), (c_out, rad.r_out)


def sandwich_bounds(domain: DomainSpec, p, z) -> KernelValue:
    """Two-sided enclosure of the kernel from tangent-ball comparisons.

    Lower end: circumscribed tangent ball kernel (valid on all of D).  Upper
    end: inscribed tangent ball kernel where z lies in that ball, else 0.
    """
    z = as_vector(z, domain.n)
    if domain.psi(z) >= 0:
        raise ValidationError("sandwich bounds are defined for interior points")
    if domain.is_ball_like:
        return kernel_value(domain, p, z)
    (c_in, r_in), (c_out, r_out) = tangent_balls(domain, p)
    p = boundary_frame(domain, p).p
    lo = _ball_kernel(c_out, r_out, p, z)
    if norm(z - c_in) < r_in:
        hi = _ball_kernel(c_in, r_in, p, z)
    else:
        hi = 0.0
    return KernelValue.interval(lo, hi)


def uniform_bound_check(domain: DomainSpec, interior_points, boundary_points) -> float:
    """max over K x P of |peak candidate(p)(z)|: a uniform-in-pole bound on |kernel|.

    Since each peak candidate lies below the kernel, which is negative, the
    returned max dominates sup_p |kernel_p(z)| over the compact grid K, whose
    points must lie deeper than the boundary tolerance.
    """
    pts = [as_vector(z, domain.n) for z in interior_points]
    for z in pts:
        if domain.psi(z) >= -BOUNDARY_TOL:
            raise ValidationError("compact grid touches the boundary")
    worst = 0.0
    for p in boundary_points:
        cand = peak_candidate(domain, p)
        for z in pts:
            worst = max(worst, abs(cand.evaluator(z)))
    return worst


def kernel_value(domain: DomainSpec, p, z) -> KernelValue:
    """Best available kernel evaluation: closed form on balls, enclosure otherwise."""
    if domain.kind is DomainKind.BALL:
        return KernelValue.closed_form(_ball_kernel(
            domain.center, domain.radius, as_vector(p, domain.n), as_vector(z, domain.n)))
    if domain.kind is DomainKind.ELLIPSOID:
        return sandwich_bounds(domain, p, z)
    raise ContainmentError(
        "no certified two-sided kernel bounds for custom domains; use lower_envelope")


def kernel_values(domain: DomainSpec, p, Z):
    """``kernel_value`` at every row of an (M, n) array Z, as float arrays ``(lo, hi)``.

    Closed forms on balls (``lo == hi``), the tangent-ball sandwich on
    ellipsoids.  The pole is checked once; every row gets the
    scalar path's tests, and fails with the same error types.
    """
    if domain.kind is DomainKind.CUSTOM:
        raise ContainmentError(
            "no certified two-sided kernel bounds for custom domains; use lower_envelope")
    Z = as_rows(Z, domain.n)
    if domain.kind is DomainKind.ELLIPSOID:
        if np.any(domain.psi_rows(Z) >= 0):
            raise ValidationError("sandwich bounds are defined for interior points")
        (c_in, r_in), (c_out, r_out) = tangent_balls(domain, p)
        p = boundary_frame(domain, p).p
        lo = _ball_kernels(c_out, r_out, p, Z)
        hi = np.zeros(len(Z))
        inside = row_norms(Z - c_in) < r_in
        if inside.any():
            hi[inside] = _ball_kernels(c_in, r_in, p, Z[inside])
        return _enclosures(lo, hi)
    value = _ball_kernels(domain.center, domain.radius, as_vector(p, domain.n), Z)
    return value, value.copy()


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
