"""Closed-form kernels and distances for the disc and for balls.

The negative Poisson kernel of the unit disc with pole p, |p| = 1, is

    P_p(zeta) = -(1 - |zeta|^2) / |p - zeta|^2,

harmonic, zero on the unit circle away from p, with a simple pole along
non-tangential approach to p.  Its several-variable analogue on the unit
ball of C^n with pole e1 is

    Omega_{e1}(w) = -(1 - ||w||^2) / |1 - w_1|^2,

normalized by the canonical defining couple theta(v) = <v, nu_p>:  along any
interior curve gamma reaching the pole transversally,

    Omega(gamma(t)) * (1 - t)  ->  -2 Re [theta(gamma'(1))]^{-1}.

General poles follow by unitary invariance, translated/scaled balls B(c, r)
by the couple-rescaling rule  Omega_{B(c,r),p}(z) = (1/r) Omega((z-c)/r) at
pole (p-c)/r.  The module also provides the standard involutive ball
automorphisms, the Kobayashi distance (arctanh of the Mobius invariant) and
Richardson-extrapolated boundary limits along curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ValidationError, positive
from .extrapolate import refine_until
from .utils import as_points, as_rows, as_vector, herm, norm, point_norms, read_only, row_norms

#: |  ||p|| - 1 | below this counts as a boundary pole.
_SPHERE_TOL = 1e-9


class Provenance(str, Enum):
    CLOSED_FORM = "closed_form"
    SANDWICH_INTERVAL = "sandwich_interval"


@dataclass(frozen=True, slots=True)
class KernelValue:
    """A kernel evaluation: exact value or certified enclosure, always finite and <= 0."""

    lo: float
    hi: float
    provenance: Provenance

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("kernel enclosure must be finite")
        # relative slack: where |kernel| is large, coinciding tangent balls
        # give ends that differ by a few ulps in either order
        if self.lo > self.hi + 1e-12 * max(1.0, abs(self.hi)):
            raise ValidationError(f"invalid enclosure [{self.lo}, {self.hi}]")
        if self.hi > 1e-9:
            raise ValidationError(f"kernel values must be <= 0, got hi = {self.hi}")
        if self.hi > 0.0:
            object.__setattr__(self, "hi", 0.0)
        if self.hi < self.lo:
            object.__setattr__(self, "lo", self.hi)

    @staticmethod
    def closed_form(value: float) -> "KernelValue":
        return KernelValue(lo=float(value), hi=float(value),
                           provenance=Provenance.CLOSED_FORM)

    @staticmethod
    def interval(lo: float, hi: float) -> "KernelValue":
        return KernelValue(lo=float(lo), hi=float(hi), provenance=Provenance.SANDWICH_INTERVAL)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> float:
        if not self.is_exact:
            raise ValidationError("interval kernel value has no single value; use lo/hi")
        return self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def scaled(self, factor: float) -> "KernelValue":
        """Multiply the enclosure by a positive factor."""
        factor = positive(factor, "scaling factor")
        return KernelValue(lo=self.lo * factor, hi=self.hi * factor,
                           provenance=self.provenance)


# -- disc -------------------------------------------------------------------

def poisson_disc(p: complex, zeta: complex) -> float:
    """Negative Poisson kernel of the unit disc with boundary pole p."""
    return _disc_at(_disc_pole(p), zeta)


def _disc_pole(p) -> complex:
    """p as a complex number, checked to be unimodular: the disc's pole test."""
    p = complex(p)
    if abs(abs(p) - 1.0) > _SPHERE_TOL:
        raise ValidationError(f"pole must be unimodular, |p| = {abs(p)}")
    return p


def _disc_at(p: complex, zeta: complex) -> float:
    """Point side of ``poisson_disc``, at a pole checked by ``_disc_pole``."""
    p = complex(p)
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise ValidationError(f"point must be in the open disc, |zeta| = {abs(zeta)}")
    denom = abs(p - zeta) ** 2
    if denom == 0.0:
        raise ValidationError("kernel evaluated at its pole")
    return -(1.0 - abs(zeta) ** 2) / denom


def _poisson_discs(p: complex, zeta: np.ndarray) -> np.ndarray:
    """_disc_at at every entry of a complex array, with the same tests."""
    p = complex(p)
    r = np.abs(zeta)
    if np.any(r >= 1.0):
        raise ValidationError(f"point must be in the open disc, |zeta| = {np.max(r)}")
    denom = np.square(np.abs(p - zeta))
    if np.any(denom == 0.0):
        raise ValidationError("kernel evaluated at its pole")
    return -(1.0 - np.square(r)) / denom


# -- ball automorphisms and invariants ---------------------------------------

def mobius_ball(z0, w) -> np.ndarray:
    """The standard involutive automorphism phi_{z0} of the unit ball.

    phi_{z0}(z0) = 0, phi_{z0} o phi_{z0} = id, maps the closed ball onto
    itself; phi_0 = -id.  Acts on the last axis: the anchor z0 and the point
    w are each a point (n,) or an (M, n) array of points, and rows are
    mapped row by row, each within 6 eps / |1 - <w, z0>| of one call and of the
    exact image.  Identical inputs give identical bytes.
    """
    z0 = as_rows(z0, np.shape(z0)[1]) if np.ndim(z0) == 2 else as_vector(z0)
    w = as_points(w, z0.shape[-1])
    a2 = (z0 * z0.conj()).sum(axis=-1, keepdims=True).real
    if (a2 >= 1.0).any():
        raise ValidationError("automorphism anchor must be inside the open ball")
    if (point_norms(w) > 1.0 + 1e-12).any():
        raise ValidationError("point must be in the closed ball")
    zero = a2 == 0.0
    phi0 = zero.any()
    if phi0:
        a2 = np.where(zero, 1.0, a2)    # those rows are -w, taken at the end
    s = np.sqrt(1.0 - a2)
    ip = (w * z0.conj()).sum(axis=-1, keepdims=True)     # <w, z0>
    # Re, Im divided apart: ip / a2 cost boundary_rays digits_min 8.19 -> 6.98 (seed 1)
    proj = (ip.real / a2 + 1j * (ip.imag / a2)) * z0
    out = (z0 - proj - s * (w - proj)) / (1.0 - ip)
    return np.where(zero, -w, out) if phi0 else out


def mobius_ball_jacobian(z0, w) -> np.ndarray:
    """Complex Jacobian matrix J of phi_{z0} at w, (d phi(v))_i = sum_j J_ij v_j.

    Acts on the last axis like ``mobius_ball`` with one anchor: a point w
    gives an (n, n) matrix, an (M, n) array the (M, n, n) matrices, each within
    3 eps kappa of one call's and 4 eps kappa of the exact one, relative to its
    largest entry, kappa = 1/(1 - |z0|^2) + 1/|d|.  J = (-L d + (z0 - L w) z0^*)/d^2
    with d = 1 - <w, z0> and L = P + s(I - P), P the projection onto z0.
    """
    z0 = as_vector(z0)
    n = len(z0)
    w = as_points(w, n)
    a2 = (z0 * z0.conj()).sum().real
    s = math.sqrt(1.0 - a2)
    div = a2 or 1.0     # the anchor 0 has P = 0
    P = np.outer(z0, z0.conj()) / div
    L = P + s * (np.eye(n) - P)
    ip = (w * z0.conj()).sum(axis=-1, keepdims=True)     # <w, z0>
    # z0 - L w formed as mobius_ball forms it, for the same reason
    proj = (ip.real / div + 1j * (ip.imag / div)) * z0
    d = (1.0 - ip)[..., None]
    return (-L * d + (z0 - proj - s * (w - proj))[..., :, None] * z0.conj()) / d ** 2


def kobayashi(domain, z, w):
    """Kobayashi distance of a ball B(c, r): arctanh of the Mobius invariant.

    Points are carried to the unit ball by (z - c)/r.  For the disc this is
    the Poincare distance (1/2) log((1+m)/(1-m)) with m = |phi_z(w)|.  z and
    w are each a point (n,) or an (M, n) array of points; with rows the
    distances come as an array, each within 6 eps / ((1 - m^2) |1 - <w, z>|) of one call.
    """
    from .domains import DomainSpec

    if not isinstance(domain, DomainSpec) or not domain.is_ball_like:
        raise ValidationError("kobayashi distance is provided for balls")
    c, r = domain.center, domain.radius
    z = _to_unit_ball(c, r, as_points(z, domain.n))
    w = _to_unit_ball(c, r, as_points(w, domain.n))
    if (point_norms(z) >= 1.0).any() or (point_norms(w) >= 1.0).any():
        raise ValidationError("points must lie in the open ball")
    d = np.arctanh(np.minimum(point_norms(mobius_ball(z, w)), 1.0 - 1e-16))
    return d if d.ndim else float(d)


# -- pluricomplex Poisson kernel of balls -------------------------------------

def _to_unit_ball(c: np.ndarray, radius: float, z: np.ndarray) -> np.ndarray:
    """w = (z - c)/r on the last axis: B(c, r) carried onto B(0, 1).

    Exact on B(0, 1), where z - 0 rounds to z; dividing by 1 is skipped.
    """
    w = z - c
    return w if radius == 1.0 else w / radius


def _unit_pole(c: np.ndarray, radius: float, p: np.ndarray) -> tuple:
    """Pole side of the kernel of B(c, r): (q, conj(q)), q = (p - c)/r checked on the unit sphere.

    Read-only, as the pole memo keeps them; in C the test is the disc's.
    """
    q = read_only(_to_unit_ball(c, radius, p))[0]
    if len(q) == 1:
        _disc_pole(q[0])
    elif abs(norm(q) - 1.0) > _SPHERE_TOL:
        raise ValidationError("pole must lie on the unit sphere")
    return q, read_only(q.conj())[0]


def _ball_kernel_at(c: np.ndarray, radius: float, pole: tuple, z: np.ndarray) -> float:
    """Point side: the kernel (1/r) Omega((z-c)/r) of B(c, r) at pole = _unit_pole(c, r, p).

    Omega(w) = -(1 - ||w||^2)/|1 - <w, q>|^2, +0.0 on the sphere and up to 1e-9 outside;
    in C the core is the disc's, with denominator |q - w|^2, so every 1-D ball
    gives the disc's value.
    """
    q, qc = pole
    w = _to_unit_ball(c, radius, z)
    if len(w) == 1:
        value = _disc_at(q[0], w[0])
    else:
        nz = norm(w)
        if nz > 1.0 + _SPHERE_TOL:
            raise ValidationError("point must lie in the closed ball")
        denom = abs(1.0 - complex(np.add.reduce(w * qc, axis=None))) ** 2     # <w, q>
        if denom < 1e-300:
            raise ValidationError("kernel evaluated at its pole")
        value = min(nz ** 2 - 1.0, 0.0) / denom
    return value if radius == 1.0 else value / radius


def _ball_kernels(c: np.ndarray, radius: float, pole: tuple, Z: np.ndarray) -> np.ndarray:
    """_ball_kernel_at at every row of an (M, n) array, with the same tests.

    A row is within 3 eps/(1 - ||w||^2) relative of _ball_kernel_at and 8 eps/(1 - ||w||^2)
    of the exact kernel, w = (z - c)/r.
    """
    q, qc = pole
    W = _to_unit_ball(c, radius, Z)
    if len(c) == 1:
        value = _poisson_discs(q[0], W[:, 0])
    else:
        nz = row_norms(W)
        if np.any(nz > 1.0 + _SPHERE_TOL):
            raise ValidationError("point must lie in the closed ball")
        denom = np.square(np.abs(1.0 - np.sum(W * qc, axis=1)))
        if np.any(denom < 1e-300):
            raise ValidationError("kernel evaluated at its pole")
        value = np.minimum(np.square(nz) - 1.0, 0.0) / denom
    return value if radius == 1.0 else value / radius


def rescale_couple(value, rho: float):
    """Re-express a kernel value in the couple rho * theta (values scale by 1/rho)."""
    rho = positive(rho, "couple scale rho")
    if isinstance(value, KernelValue):
        return value.scaled(1.0 / rho)
    return value / rho


# -- boundary limits -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """A curve gamma: [0,1] -> closure(D) with gamma(1) = p on the boundary.

    ``gamma_prime_at_1`` is the one-sided derivative at t = 1; transversal
    approach requires Re <gamma'(1), nu_p> > 0.
    """

    gamma: Callable[[float], np.ndarray]
    gamma_prime_at_1: np.ndarray


@dataclass(frozen=True)
class BoundaryLimitResult:
    estimate: float
    predicted: float
    error: float
    levels: int

    @property
    def deviation(self) -> float:
        return abs(self.estimate - self.predicted)


def boundary_limit(evaluator, curve: BoundaryCurve, nu_p, *,
                   start_level: int = 3, max_level: int = 26) -> BoundaryLimitResult:
    """Extrapolate lim_{t->1} f(gamma(t)) * (1 - t) on the schedule t_k = 1 - 2^-k.

    The ladder is ``refine_until`` on h -> h f(gamma(1 - h)), with no
    divergence threshold; ``levels`` counts the levels it read.  Also returns
    the predicted transversal limit -2 Re [<gamma'(1), nu_p>]^{-1}.
    """
    nu_p = as_vector(nu_p)
    gp = as_vector(curve.gamma_prime_at_1, len(nu_p))
    theta = herm(gp, nu_p)
    if theta.real <= 1e-12:
        raise ValidationError(
            f"curve is tangential: Re <gamma'(1), nu> = {theta.real:.3e} must be positive")
    predicted = -2.0 * (1.0 / theta).real

    def scaled(hs):
        values = [evaluator(curve.gamma(1.0 - h)) for h in hs.tolist()]
        return hs * [v.value if isinstance(v, KernelValue) else v for v in values]

    ext = refine_until(scaled, start_level=start_level, max_level=max_level,
                       divergence_threshold=math.inf)
    return BoundaryLimitResult(estimate=ext.real, predicted=predicted,
                               error=ext.error, levels=ext.levels)
