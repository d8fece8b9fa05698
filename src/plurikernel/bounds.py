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
    _omega_general_ball,
    boundary_limit,
    omega_ball_value,
    omega_general_ball_value,
    poisson_disc,
)
from .utils import BOUNDARY_TOL, as_vector, herm, norm, read_only


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
        return _omega_general_ball(center, radius, pole, as_vector(z, domain.n))

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


def candidate_normal_limit(domain: DomainSpec, member: CandidateMember,
                           max_level: int = 24) -> BoundaryLimitResult:
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
                          start_level=start, max_level=max_level)


def tangent_balls(domain: DomainSpec, p):
    """Inscribed and circumscribed tangent balls at p as ((center, r_in), (center, r_out))."""
    return domain._per_pole("balls", as_vector(p, domain.n), BOUNDARY_TOL, _tangent_balls)


def _tangent_balls(domain: DomainSpec, p: np.ndarray, tol: float):
    rad = osculating_radii(domain, p, tol)
    if not rad.global_containment:
        raise ContainmentError(
            "tangent-ball containment not certified for this domain; "
            "use lower_envelope for one-sided bounds")
    frame = boundary_frame(domain, p, tol)
    c_in, c_out = read_only(frame.p - rad.r_in * frame.nu, frame.p - rad.r_out * frame.nu)
    return (c_in, rad.r_in), (c_out, rad.r_out)


def pole_upper_bound(domain: DomainSpec, p, z) -> float:
    """Upper bound for the kernel: inscribed tangent ball kernel inside it, 0 outside.

    Continuous in both arguments; dominates the kernel pointwise.
    """
    (c_in, r_in), _ = tangent_balls(domain, p)
    z = as_vector(z, domain.n)
    if norm(z - c_in) < r_in:
        return _omega_general_ball(c_in, r_in, boundary_frame(domain, p).p, z)
    return 0.0


def sandwich_bounds(domain: DomainSpec, p, z) -> KernelValue:
    """Two-sided enclosure of the kernel from tangent-ball comparisons.

    Lower end: circumscribed tangent ball kernel (valid on all of D).  Upper
    end: inscribed tangent ball kernel where z lies in that ball, else 0.
    """
    z = as_vector(z, domain.n)
    if domain.psi(z) >= 0:
        raise ValidationError("sandwich bounds are defined for interior points")
    if domain.is_ball_like:
        v = omega_general_ball_value(domain.ball_center, domain.ball_radius, p, z)
        return KernelValue.closed_form(v)
    (c_in, r_in), (c_out, r_out) = tangent_balls(domain, p)
    p = boundary_frame(domain, p).p
    lo = _omega_general_ball(c_out, r_out, p, z)
    if norm(z - c_in) < r_in:
        hi = _omega_general_ball(c_in, r_in, p, z)
    else:
        hi = 0.0
    return KernelValue.interval(lo, hi)


def uniform_bound_check(domain: DomainSpec, interior_points, boundary_points,
                        tol: float = 1e-9) -> float:
    """max over K x P of |peak candidate(p)(z)|: a uniform-in-pole bound on |kernel|.

    Since each peak candidate lies below the kernel, which is negative, the
    returned max dominates sup_p |kernel_p(z)| over the compact grid K.
    """
    pts = [as_vector(z, domain.n) for z in interior_points]
    for z in pts:
        if domain.psi(z) >= -tol:
            raise ValidationError("compact grid touches the boundary")
    worst = 0.0
    for p in boundary_points:
        cand = peak_candidate(domain, p)
        for z in pts:
            worst = max(worst, abs(cand.evaluator(z)))
    return worst


def kernel_value(domain: DomainSpec, p, z) -> KernelValue:
    """Best available kernel evaluation: closed form for disc/balls, enclosure otherwise."""
    if domain.kind is DomainKind.DISC:
        z = as_vector(z, 1)
        p = as_vector(p, 1)
        return KernelValue.closed_form(poisson_disc(p[0], z[0]))
    if domain.kind is DomainKind.UNIT_BALL:
        return KernelValue.closed_form(omega_ball_value(domain.n, p, z))
    if domain.kind is DomainKind.BALL:
        return KernelValue.closed_form(
            omega_general_ball_value(domain.center, domain.radius, p, z))
    if domain.kind is DomainKind.ELLIPSOID:
        return sandwich_bounds(domain, p, z)
    raise ContainmentError(
        "no certified two-sided kernel bounds for custom domains; use lower_envelope")
