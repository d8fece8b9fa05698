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
automorphisms, the Kobayashi distance (arctanh of the Mobius invariant), the
symmetric Green function with logarithmic pole G(z, w) = log ||phi_z(w)||,
and Richardson-extrapolated boundary limits along curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .extrapolate import Extrapolation, RichardsonTableau, richardson
from .utils import as_rows, as_vector, herm, norm, row_norms

#: |  ||p|| - 1 | below this counts as a boundary pole.
_SPHERE_TOL = 1e-9


class _NegInfinity:
    """Explicit sentinel for negative-infinite values (Green-function pole hits).

    Orders below every float but supports no arithmetic, so it can never
    silently propagate through computations.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEG_INFINITY"

    def __float__(self):
        return float("-inf")

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __eq__(self, other):
        return isinstance(other, _NegInfinity)

    def __hash__(self):
        return hash("NEG_INFINITY")


NEG_INFINITY = _NegInfinity()


def is_neg_infinity(x) -> bool:
    return isinstance(x, _NegInfinity)


class Provenance(str, Enum):
    CLOSED_FORM = "closed_form"
    SANDWICH_INTERVAL = "sandwich_interval"


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation: exact value or certified enclosure, always finite and <= 0."""

    lo: float
    hi: float
    provenance: Provenance

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError("kernel enclosure must be finite")
        # relative slack: where |kernel| is large, coinciding tangent balls
        # give ends that differ by a few ulps in either order
        if self.lo > self.hi + 1e-12 * max(1.0, abs(self.hi)):
            raise ValidationError(f"invalid enclosure [{self.lo}, {self.hi}]")
        if self.hi > 1e-9:
            raise ValidationError(f"kernel values must be <= 0, got hi = {self.hi}")
        object.__setattr__(self, "hi", min(self.hi, 0.0))
        object.__setattr__(self, "lo", min(self.lo, self.hi))

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
        if factor <= 0:
            raise ValidationError("scaling factor must be positive")
        return KernelValue(lo=self.lo * factor, hi=self.hi * factor,
                           provenance=self.provenance)


# -- disc -------------------------------------------------------------------

def poisson_disc(p: complex, zeta: complex) -> float:
    """Negative Poisson kernel of the unit disc with boundary pole p."""
    p = complex(p)
    zeta = complex(zeta)
    if abs(abs(p) - 1.0) > _SPHERE_TOL:
        raise ValidationError(f"pole must be unimodular, |p| = {abs(p)}")
    if abs(zeta) >= 1.0:
        raise ValidationError(f"point must be in the open disc, |zeta| = {abs(zeta)}")
    denom = abs(p - zeta) ** 2
    if denom == 0.0:
        raise ValidationError("kernel evaluated at its pole")
    return -(1.0 - abs(zeta) ** 2) / denom


# The array forms of the closed forms round every step as the scalar forms do,
# so that both agree bit for bit: Python's abs(complex) is hypot, which np.abs
# is not, and Python's float ** 2 is libm pow, which x * x is not.

def _cabs(w: np.ndarray) -> np.ndarray:
    """Entrywise abs(complex), rounded as Python rounds it."""
    return np.hypot(w.real, w.imag)


def _square(x: np.ndarray) -> np.ndarray:
    """Entrywise float ** 2, rounded as Python rounds it."""
    return np.float_power(x, 2)


def _poisson_discs(p: complex, zeta: np.ndarray) -> np.ndarray:
    """poisson_disc at every entry of a complex array, with the same tests."""
    p = complex(p)
    if abs(abs(p) - 1.0) > _SPHERE_TOL:
        raise ValidationError(f"pole must be unimodular, |p| = {abs(p)}")
    r = _cabs(zeta)
    if np.any(r >= 1.0):
        raise ValidationError(f"point must be in the open disc, |zeta| = {np.max(r)}")
    denom = _square(_cabs(p - zeta))
    if np.any(denom == 0.0):
        raise ValidationError("kernel evaluated at its pole")
    return -(1.0 - _square(r)) / denom


# -- ball automorphisms and invariants ---------------------------------------

def mobius_ball(z0, w) -> np.ndarray:
    """The standard involutive automorphism phi_{z0} of the unit ball.

    phi_{z0}(z0) = 0, phi_{z0} o phi_{z0} = id, maps the closed ball onto
    itself; phi_0 = -id.  Acts on the last axis: w is a point (n,) or an
    (M, n) array of points, mapped row by row.
    """
    z0 = as_vector(z0)
    if np.ndim(w) == 2:
        w = as_rows(w, len(z0))
        too_long = np.any(row_norms(w) > 1.0 + 1e-12)
    else:
        w = as_vector(w, len(z0))
        too_long = norm(w) > 1.0 + 1e-12
    a2 = float(np.real(herm(z0, z0)))
    if a2 >= 1.0:
        raise ValidationError("automorphism anchor must be inside the open ball")
    if too_long:
        raise ValidationError("point must be in the closed ball")
    if a2 == 0.0:
        return -w
    s = math.sqrt(1.0 - a2)
    ip = np.sum(w * np.conj(z0), axis=-1, keepdims=True)     # <w, z0>
    # parts divided apart: numpy's complex / real rounds differently
    proj = (ip.real / a2 + 1j * (ip.imag / a2)) * z0
    return (z0 - proj - s * (w - proj)) / (1.0 - ip)


def mobius_ball_jacobian(z0, w) -> np.ndarray:
    """Complex Jacobian matrix J of phi_{z0} at w, (d phi(v))_i = sum_j J_ij v_j."""
    z0 = as_vector(z0)
    n = len(z0)
    w = as_vector(w, n)
    a2 = float(np.real(herm(z0, z0)))
    if a2 == 0.0:
        return -np.eye(n, dtype=complex)
    s = math.sqrt(1.0 - a2)
    P = np.outer(z0, np.conj(z0)) / a2
    L = P + s * (np.eye(n, dtype=complex) - P)
    d = 1.0 - herm(w, z0)
    return (-L * d + np.outer(z0 - L @ w, np.conj(z0))) / d ** 2


def kobayashi(domain, z, w) -> float:
    """Kobayashi distance of a ball B(c, r): arctanh of the Mobius invariant.

    Points are carried to the unit ball by (z - c)/r.  For the disc this is
    the Poincare distance (1/2) log((1+m)/(1-m)) with m = |phi_z(w)|.
    """
    from .domains import DomainSpec

    if not isinstance(domain, DomainSpec) or not domain.is_ball_like:
        raise ValidationError("kobayashi distance is provided for balls")
    c, r = domain.center, domain.radius
    z = _to_unit_ball(c, r, as_vector(z, domain.n))
    w = _to_unit_ball(c, r, as_vector(w, domain.n))
    if norm(z) >= 1.0 or norm(w) >= 1.0:
        raise ValidationError("points must lie in the open ball")
    m = norm(mobius_ball(z, w))
    return float(np.arctanh(min(m, 1.0 - 1e-16)))


# -- pluricomplex Poisson kernel of balls -------------------------------------

def _to_unit_ball(c: np.ndarray, radius: float, z: np.ndarray) -> np.ndarray:
    """w = (z - c)/r on the last axis: B(c, r) carried onto B(0, 1).

    Exact on B(0, 1), where z - 0 rounds to z; dividing by 1 is skipped.
    """
    w = z - c
    return w if radius == 1.0 else w / radius


def omega_ball_value(n: int, p, z) -> float:
    """Raw kernel value -(1 - ||z||^2)/|1 - <z, p>|^2 of the unit ball at pole p."""
    return _unit_ball_kernel(as_vector(p, n), as_vector(z, n))


def _unit_ball_kernel(p: np.ndarray, z: np.ndarray) -> float:
    """omega_ball_value for vectors already coerced by as_vector to one length."""
    if abs(norm(p) - 1.0) > _SPHERE_TOL:
        raise ValidationError("pole must lie on the unit sphere")
    nz = norm(z)
    if nz > 1.0 + _SPHERE_TOL:
        raise ValidationError("point must lie in the closed ball")
    denom = abs(1.0 - herm(z, p)) ** 2
    if denom < 1e-300:
        raise ValidationError("kernel evaluated at its pole")
    return -max(1.0 - nz ** 2, 0.0) / denom


def omega_general_ball_value(center, radius: float, p, z) -> float:
    """Kernel of the ball B(center, radius) via the scaling rule (1/r) Omega((z-c)/r)."""
    c = as_vector(center)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    return _ball_kernel(c, radius, as_vector(p, len(c)), as_vector(z, len(c)))


def _ball_kernel(c: np.ndarray, radius: float, p: np.ndarray, z: np.ndarray) -> float:
    """omega_general_ball_value for coerced vectors and a positive radius.

    In C the unit-ball core is the disc's, poisson_disc, with denominator
    |q - w|^2, so every 1-D ball gives the disc's value.
    """
    q, w = _to_unit_ball(c, radius, p), _to_unit_ball(c, radius, z)
    value = poisson_disc(q[0], w[0]) if len(c) == 1 else _unit_ball_kernel(q, w)
    return value if radius == 1.0 else value / radius


def _unit_ball_kernels(p: np.ndarray, W: np.ndarray) -> np.ndarray:
    """_unit_ball_kernel at every row of an (M, n) array, with the same tests."""
    if abs(norm(p) - 1.0) > _SPHERE_TOL:
        raise ValidationError("pole must lie on the unit sphere")
    nz = row_norms(W)
    if np.any(nz > 1.0 + _SPHERE_TOL):
        raise ValidationError("point must lie in the closed ball")
    denom = _square(_cabs(1.0 - np.sum(W * np.conj(p), axis=1)))
    if np.any(denom < 1e-300):
        raise ValidationError("kernel evaluated at its pole")
    return -np.maximum(1.0 - _square(nz), 0.0) / denom


def _ball_kernels(c: np.ndarray, radius: float, p: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """_ball_kernel at every row of an (M, n) array."""
    q, W = _to_unit_ball(c, radius, p), _to_unit_ball(c, radius, Z)
    value = _poisson_discs(q[0], W[:, 0]) if len(c) == 1 else _unit_ball_kernels(q, W)
    return value if radius == 1.0 else value / radius


def rescale_couple(value, rho: float):
    """Re-express a kernel value in the couple rho * theta (values scale by 1/rho)."""
    if rho <= 0:
        raise ValidationError("couple scale must be positive")
    if isinstance(value, KernelValue):
        return value.scaled(1.0 / rho)
    return value / rho


# -- Green function -----------------------------------------------------------

def green_ball(n: int, z, w):
    """Pluricomplex Green function of the unit ball: G(z, w) = log ||phi_z(w)||.

    Symmetric in (z, w), negative inside, zero on the boundary, logarithmic
    pole at w = z (returned as the NEG_INFINITY sentinel).
    """
    z = as_vector(z, n)
    w = as_vector(w, n)
    if norm(z) >= 1.0 or norm(w) > 1.0 + _SPHERE_TOL:
        raise ValidationError("green_ball requires z interior and w in the closed ball")
    m = norm(mobius_ball(z, w))
    if m == 0.0:
        return NEG_INFINITY
    return float(np.log(min(m, 1.0)))


def green_general_ball(center, radius: float, z, w):
    """Green function of B(center, radius) by biholomorphic invariance."""
    c = as_vector(center)
    return green_ball(len(c), _to_unit_ball(c, radius, as_vector(z, len(c))),
                      _to_unit_ball(c, radius, as_vector(w, len(c))))


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

    Also returns the predicted transversal limit -2 Re [<gamma'(1), nu_p>]^{-1}.
    """
    nu_p = as_vector(nu_p)
    gp = as_vector(curve.gamma_prime_at_1, len(nu_p))
    theta = herm(gp, nu_p)
    if theta.real <= 1e-12:
        raise ValidationError(
            f"curve is tangential: Re <gamma'(1), nu> = {theta.real:.3e} must be positive")
    predicted = -2.0 * (1.0 / theta).real

    vals = []
    table = RichardsonTableau()
    best: Optional[Extrapolation] = None
    for k in range(start_level, max_level + 1):
        h = 2.0 ** (-k)
        v = evaluator(curve.gamma(1.0 - h))
        if isinstance(v, KernelValue):
            v = v.value
        vals.append(v * h)
        ext = table.append(vals[-1])
        if len(vals) >= 3:
            if best is None or ext.error <= best.error:
                best = ext
            elif ext.error > 16.0 * max(best.error, 1e-15):
                break  # refinement has hit the round-off floor
    if best is None:
        best = richardson(vals)
    return BoundaryLimitResult(estimate=best.real, predicted=predicted,
                               error=best.error, levels=len(vals))

