"""Normal derivatives of the Green function and the boundary measure density.

For domains with a symmetric Green function (the disc and balls, where
G(z, w) = log ||phi_z(w)||), the boundary normal derivative of G recovers
the pluricomplex Poisson kernel:

    - dG(z, p)/d nu_p = Omega_p(z),

computed here as the limit of one-sided difference quotients
G(z, p - h nu_p)/h on a halving schedule with Aitken acceleration.  The
quotients converge at first order (the Green function is C^{1,1} up to the
boundary but no better in general), so the raw sequence is also checked for
the |q(h) - q(h/2)| <= C h Cauchy pattern and the empirical constant C is
reported.

The induced boundary measure has density  (dG(z,.)/d nu_p)^n  against the
Levi boundary form, i.e.  |Omega_p(z)|^n * levi_density(p)  against surface
volume; at the center of the unit ball its total mass is (2 pi)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .bounds import kernel_value
from .domains import DomainSpec, levi_density, outward_normal, require_on_boundary
from .errors import ConvergenceError, ValidationError, positive
from .extrapolate import aitken
from .kernels import _SPHERE_TOL, _to_unit_ball, mobius_ball
from .utils import as_points, as_vector, norm, point_norms

_HALVINGS = 8       # halvings of the initial step in the difference-quotient ladder


def _require_symmetric_green(domain: DomainSpec) -> None:
    if not domain.is_ball_like:
        raise ValidationError("Green-kernel identities require a domain with symmetric Green "
                              "function (disc, unit ball, general ball)")


def green_function(domain: DomainSpec, z, w):
    """Pluricomplex Green function of a ball with pole z: G(z, w) = log ||phi_z(w)||.

    Points are carried to the unit ball by (z - c)/r.  Symmetric in (z, w),
    negative inside, zero on the boundary, logarithmic pole at w = z, where
    it raises ValidationError, as a kernel does at its boundary pole.  w is
    a point (n,) or an (M, n) array of points; with rows the values come as
    an array, each as one call would give it, and a row that one call would
    refuse makes the whole call raise the same error type.
    """
    _require_symmetric_green(domain)
    c, r = domain.center, domain.radius
    z = _to_unit_ball(c, r, as_vector(z, domain.n))
    w = _to_unit_ball(c, r, as_points(w, domain.n))
    if norm(z) >= 1.0 or (point_norms(w) > 1.0 + _SPHERE_TOL).any():
        raise ValidationError("green_function requires z interior and w in the closed ball")
    m = point_norms(mobius_ball(z, w))     # not always 0 at w = z, so w is compared too
    if ((m == 0.0) | (w == z).all(axis=-1)).any():
        raise ValidationError("green_function evaluated at its pole")
    g = np.log(np.minimum(m, 1.0))
    return g if g.ndim else float(g)


@dataclass(frozen=True)
class NormalDerivativeResult:
    """One-sided normal derivative of the Green function at a boundary point.

    ``value`` is the extrapolated -dG/d nu_p (equal to the kernel, hence <= 0);
    ``step_sequence`` holds the raw (h, quotient) pairs and
    ``lipschitz_estimate`` the empirical constant of the first-order refinement.
    """

    value: float
    step_sequence: List[Tuple[float, float]]
    lipschitz_estimate: float
    error: float


def normal_derivative_green(domain: DomainSpec, z, p, h0: float = 1e-3) -> NormalDerivativeResult:
    """Extrapolated limit of G(z, p - h nu_p)/h for h -> 0+ (equals -dG/d nu_p)."""
    _require_symmetric_green(domain)
    z = as_vector(z, domain.n)
    p = require_on_boundary(domain, p)
    if norm(z - p) < 1e-12:
        raise ValidationError("z must differ from the boundary point")
    if domain.psi(z) >= 0:
        raise ValidationError("z must be interior")
    h0 = positive(h0, "initial step h0")
    nu = outward_normal(domain, p)

    hs = h0 * np.ldexp(1.0, -np.arange(_HALVINGS + 1))
    quotients = green_function(domain, z, p - hs[:, None] * nu) / hs
    steps = list(zip(hs.tolist(), quotients.tolist()))

    diffs = np.abs(np.diff(quotients))
    with np.errstate(divide="ignore"):
        constants = diffs / hs[:-1]
    lipschitz = float(np.max(constants)) if len(constants) else 0.0
    if len(diffs) >= 3 and not (diffs[-1] <= 0.75 * diffs[0] or diffs[-1] < 1e-12):
        raise ConvergenceError(
            "difference quotients are not Cauchy at first order (regularity failure)",
            trace=steps)
    ext = aitken(quotients)
    return NormalDerivativeResult(value=ext.real, step_sequence=steps,
                                  lipschitz_estimate=lipschitz, error=ext.error)


def green_omega_identity_check(domain: DomainSpec, pairs: Sequence, h0: float = 1e-3) -> float:
    """Max over (z, p) pairs of |extrapolated -dG/d nu_p  -  closed-form kernel|."""
    worst = 0.0
    for z, p in pairs:
        nd = normal_derivative_green(domain, z, p, h0=h0)
        worst = max(worst, abs(nd.value - kernel_value(domain, p, z).value))
    return worst


def demailly_density(domain: DomainSpec, z, p) -> float:
    """Density of the boundary reproducing measure against surface volume.

    Equals (dG(z,.)/d nu_p)^n * levi_density(p) = |Omega_p(z)|^n * levi_density(p);
    strictly positive for interior z.
    """
    _require_symmetric_green(domain)
    z = as_vector(z, domain.n)
    if domain.psi(z) >= 0:
        raise ValidationError("z must be interior")
    return abs(kernel_value(domain, p, z).value) ** domain.n * levi_density(domain, p)
