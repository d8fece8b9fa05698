"""Strongly pseudoconvex domains given by defining functions.

A domain is described by a smooth real field psi on C^n with psi < 0 inside,
psi = 0 on the boundary and nonvanishing gradient there.  Built-in kinds
(balls B(c, r), of which the disc and the unit ball are B(0, 1), and
axis-aligned Hermitian ellipsoids ``sum a_j |z_j|^2 = 1``) carry analytic
first and second derivatives.  Custom domains are expressions, whose
derivatives come from one exact jet evaluation (``ScalarField.jet``); where
a derivative does not exist (``sqrt`` or ``log`` at 0, ``abs`` at 0 other
than in a real power p >= 2) they raise ``DomainError``.

Derivative conventions: ``grad_psi`` holds the Wirtinger derivatives
``d psi / d z_j`` and ``hess_psi`` the mixed complex Hessian
``d^2 psi / (d z_i d conj(z_j))``.  For real psi the real differential acting
on a displacement v is ``2 Re <v, conj(grad_psi)>``, so the outward unit
normal is ``conj(grad_psi)`` normalized and ``|d psi| = 2 ||grad_psi||``.

The boundary frame at p fixes the canonical defining couple: the C-linear
functional ``theta_p(v) = <v, nu_p>`` (standard Hermitian product against the
outward unit normal), with ``theta_p(nu_p) = 1`` and kernel equal to the
complex tangent space.  All kernel normalizations in this package refer to
this couple; rescaled couples are handled by an explicit utility in
``kernels``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NotOnBoundaryError,
    PseudoconvexityError,
    ValidationError,
    malformed_spec,
    positive,
    spec_count,
)
from .expressions import ScalarField, infer_dimension
from .utils import BOUNDARY_TOL, as_rows, as_vector, herm, norm, read_only, sample_sphere, to_real

#: Foot-point iteration budget.
_FOOTPOINT_MAX_ITER = 200
#: Ray length past which a domain counts as unbounded along the ray.
_RAY_LIMIT = 1e9
#: Entries a domain's pole memo holds before it is emptied.
_POLE_MEMO_SIZE = 128
#: Largest n of boundary frames and radii: n x n arrays, and an O(n^4) Levi form (1.3 s at 128).
_FRAME_MAX_N = 128


class DomainKind(str, Enum):
    BALL = "ball"
    ELLIPSOID = "ellipsoid"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """A bounded domain with defining function and derivative access."""

    kind: DomainKind
    n: int
    center: Optional[np.ndarray] = None          # ball
    radius: Optional[float] = None               # ball
    coeffs: Optional[np.ndarray] = None          # ellipsoid
    expression: Optional[ScalarField] = None     # custom
    interior: np.ndarray = field(default=None)   # reference interior point
    label: str = ""
    _poles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def disc() -> "DomainSpec":
        """The unit disc, B(0, 1) in C."""
        return replace(DomainSpec.ball([0], 1.0), label="disc")

    @staticmethod
    def unit_ball(n: int) -> "DomainSpec":
        """The unit ball B(0, 1) of C^n."""
        n = spec_count(n, "dimension n")
        return replace(DomainSpec.ball(np.zeros(n), 1.0), label=f"unit_ball:{n}")

    @staticmethod
    def ball(center, radius: float) -> "DomainSpec":
        c = as_vector(center)
        radius = positive(radius, "ball radius")
        return DomainSpec(kind=DomainKind.BALL, n=spec_count(len(c), "ball dimension"),
                          center=c, radius=radius, interior=c.copy(),
                          label=f"ball(r={radius:g})")

    @staticmethod
    def ellipsoid(coeffs) -> "DomainSpec":
        a = positive(coeffs, "ellipsoid coefficients", vector=True)
        if a.max() > (most := np.finfo(float).max / 2):     # else the Hessian diag(2a) overflows
            raise ValidationError(f"ellipsoid coefficients must be at most {most}, got {coeffs!r}")
        return DomainSpec(kind=DomainKind.ELLIPSOID, n=len(a), coeffs=a,
                          interior=np.zeros(len(a), complex),
                          label="ellipsoid(" + ",".join(f"{x:g}" for x in a) + ")")

    @staticmethod
    def custom(psi, n: int, interior_point=None) -> "DomainSpec":
        """Custom domain psi = Re f < 0 from an expression f in z1..zn.

        ``psi`` is the expression string or its compiled ``ScalarField`` on
        C^n; anything else, a Python callable included, raises
        ``ValidationError``, since only expressions have exact derivatives.
        """
        n = spec_count(n, "dimension n")
        if isinstance(psi, str):
            psi = ScalarField(psi, n)
        elif not isinstance(psi, ScalarField) or psi.n != n:
            raise ValidationError(f"a custom domain in C^{n} takes an expression in z1..z{n}, "
                                  f"not {psi!r}")
        interior = (np.zeros(n, complex) if interior_point is None
                    else as_vector(interior_point, n))
        return DomainSpec(kind=DomainKind.CUSTOM, n=n, expression=psi,
                          interior=interior, label=f"custom({psi.source})")

    # -- defining function and derivatives ---------------------------------

    def psi(self, z) -> float:
        return self._psi(as_vector(z, self.n))

    def _psi(self, z: np.ndarray) -> float:
        """``psi`` at a point already coerced by ``as_vector``."""
        if self.kind is DomainKind.BALL:
            d = z - self.center
            return herm(d, d).real - self.radius ** 2
        if self.kind is DomainKind.ELLIPSOID:
            return float(np.add.reduce(self.coeffs * np.abs(z) ** 2)) - 1.0
        return float(self._expression_rows(z[None])[0])

    def psi_rows(self, Z) -> np.ndarray:
        """``psi`` at every row of an (M, n) array, within (n + 2) eps S of ``psi``, S the
        sum of its terms' moduli: the bound of summation in any order (Higham, *Accuracy
        and Stability of Numerical Algorithms*, ch. 3).  Identical inputs, identical bytes."""
        Z = as_rows(Z, self.n)
        if self.kind is DomainKind.BALL:
            D = Z - self.center
            return np.real(np.sum(D * np.conj(D), axis=1)) - self.radius ** 2
        if self.kind is DomainKind.ELLIPSOID:
            return np.sum(self.coeffs * np.abs(Z) ** 2, axis=1) - 1.0
        return self._expression_rows(Z)

    def _expression_rows(self, Z: np.ndarray) -> np.ndarray:
        """Re f at every row of a checked (M, n) array, in one field call."""
        # non-finite values are refused below, so numpy need not warn
        try:
            with np.errstate(all="ignore"):
                values = self.expression(Z).real
        except (OverflowError, ZeroDivisionError) as exc:     # in constants, as 1/0
            raise DomainError(f"defining function {self.expression.source!r} fails: {exc}") from exc
        if not np.isfinite(values).all():
            raise DomainError(f"defining function is not finite at {Z[~np.isfinite(values)][0]}")
        return values

    def grad_psi(self, z) -> np.ndarray:
        """Wirtinger gradient (d psi / d z_j)."""
        z = as_vector(z, self.n)
        if self.kind is DomainKind.BALL:
            return np.conj(z - self.center)
        if self.kind is DomainKind.ELLIPSOID:
            return self.coeffs * np.conj(z)
        return _jet_gradient(self.expression.jet(z), self.n)

    def hess_psi(self, z) -> np.ndarray:
        """Mixed complex Hessian  H_ij = d^2 psi / (d z_i d conj(z_j))."""
        z = as_vector(z, self.n)
        if self.kind is DomainKind.BALL:
            return np.eye(self.n, dtype=complex)
        if self.kind is DomainKind.ELLIPSOID:
            return np.diag(self.coeffs).astype(complex)
        return _jet_hessian(self.expression.jet(z), self.n)

    def real_hessian(self, z) -> np.ndarray:
        """Second derivatives of psi on R^{2n} in (Re z, Im z) coordinates."""
        z = as_vector(z, self.n)
        if self.kind is DomainKind.BALL:
            return 2.0 * np.eye(2 * self.n)
        if self.kind is DomainKind.ELLIPSOID:
            return np.diag(np.concatenate([2 * self.coeffs, 2 * self.coeffs]))
        J = _to_real_derivatives(self.n)
        return np.real(J @ self.expression.jet(z)[2] @ J.T)

    # -- geometry helpers ---------------------------------------------------

    @property
    def is_ball_like(self) -> bool:
        return self.kind is DomainKind.BALL

    @property
    def is_convex_kind(self) -> bool:
        return self.kind is not DomainKind.CUSTOM

    def bounding_radius(self) -> float:
        """Radius of a ball around the reference interior point containing the domain."""
        if self.is_ball_like:
            return self.radius
        if self.kind is DomainKind.ELLIPSOID:
            return float(1.0 / math.sqrt(np.min(self.coeffs)))
        return float("inf")

    def _per_pole(self, what: str, p: np.ndarray, compute):
        """Per-pole geometry: ``compute(self, p)`` run once per (what, p).

        ``compute`` validates p, so a rejected pole is never stored and raises again.
        """
        key = (what, p.tobytes())
        hit = self._poles.get(key)
        if hit is None:
            hit = compute(self, p)
            if len(self._poles) >= _POLE_MEMO_SIZE:
                self._poles.clear()
            self._poles[key] = hit
        return hit

    def __repr__(self):
        return f"DomainSpec({self.label or self.kind.value}, n={self.n})"


@functools.lru_cache(maxsize=None)
def _to_real_derivatives(n: int) -> np.ndarray:
    """J with (d/dx, d/dy) = J (d/dz, d/dconj(z)): real derivatives from a jet's.

    The real gradient of psi = Re f is ``Re(J d)`` and its real Hessian
    ``Re(J h J^T)``, in the (Re z, Im z) coordinates of ``to_real``.
    """
    # d/dx_j = d/dz_j + d/dconj(z_j) and d/dy_j = i (d/dz_j - d/dconj(z_j))
    eye = np.eye(n)
    return read_only(np.block([[eye, eye], [1j * eye, -1j * eye]]))[0]


def _jet_gradient(jet, n: int) -> np.ndarray:
    """Wirtinger gradient of psi = Re f from the jet of f."""
    # d(Re f)/dz_j = (df/dz_j + conj(df/dconj(z_j))) / 2
    d = jet[1]
    return 0.5 * (d[:n] + np.conj(d[n:]))


def _jet_hessian(jet, n: int) -> np.ndarray:
    """Mixed complex Hessian of psi = Re f from the jet of f."""
    # the same rule for Re f symmetrises d^2 f / (dz_i dconj(z_j))
    h = jet[2][:n, n:]
    return 0.5 * (h + h.conj().T)


@dataclass(frozen=True, eq=False)
class BoundaryFrame:
    """Boundary differential data at p: normal, complex tangent frame, Levi form.

    ``theta(v) = <v, nu>`` is the canonical defining couple; ``theta_coeffs``
    are the coefficients of that functional (so ``theta(v) = theta_coeffs @ v``).
    """

    p: np.ndarray
    nu: np.ndarray
    tangent_basis: np.ndarray       # (n-1, n), rows orthonormal, Hermitian-orthogonal to nu
    levi: np.ndarray                # (n-1, n-1) Hermitian positive definite
    theta_coeffs: np.ndarray

    def theta(self, v) -> complex:
        return herm(as_vector(v, len(self.nu)), self.nu)


def psi_jet(domain: DomainSpec, z):
    """Defining function value, Wirtinger gradient and mixed complex Hessian at z."""
    z = as_vector(z, domain.n)
    radius = domain.bounding_radius()
    if radius < float("inf") and norm(z - domain.interior) > 10.0 * max(radius, 1.0):
        raise ValidationError(f"point {z} is far outside the domain's bounding box")
    if domain.expression is None:
        return domain.psi(z), domain.grad_psi(z), domain.hess_psi(z)
    jet = domain.expression.jet(z)
    return float(jet[0].real), _jet_gradient(jet, domain.n), _jet_hessian(jet, domain.n)


def require_on_boundary(domain: DomainSpec, p) -> np.ndarray:
    p = as_vector(p, domain.n)
    v = domain.psi(p)
    if abs(v) >= BOUNDARY_TOL:
        raise NotOnBoundaryError(
            f"|psi(p)| = {abs(v):.3e} exceeds boundary tolerance {BOUNDARY_TOL:g}")
    return p


def outward_normal(domain: DomainSpec, p) -> np.ndarray:
    p = require_on_boundary(domain, p)
    g = domain.grad_psi(p)
    ng = norm(g)
    if ng < 1e-14:
        raise DomainError("defining function has vanishing gradient at the boundary point")
    return np.conj(g) / ng


def boundary_frame(domain: DomainSpec, p) -> BoundaryFrame:
    """Outward normal, orthonormal complex tangent basis and restricted Levi form at p."""
    return domain._per_pole("frame", as_vector(p, domain.n), _boundary_frame)


def _boundary_frame(domain: DomainSpec, p: np.ndarray) -> BoundaryFrame:
    _require_frame_dimension(domain)
    nu = outward_normal(domain, p)    # checks that p is on the boundary
    basis = _complex_tangent_basis(nu)
    H = domain.hess_psi(p)
    # Levi(u, v) = sum_ij H_ij u_i conj(v_j) restricted to the tangent basis
    levi = np.asarray([[np.sum(H * np.outer(ta, np.conj(tb)))
                        for tb in basis] for ta in basis], dtype=complex)
    levi = levi.reshape(len(basis), len(basis))
    if len(basis):
        levi = 0.5 * (levi + levi.conj().T)
        eigs = np.linalg.eigvalsh(levi)
        if np.min(eigs) <= 0:
            raise PseudoconvexityError(
                f"restricted Levi form not positive definite at p (min eig {np.min(eigs):.3e})")
    return BoundaryFrame(*read_only(p.copy(), nu, basis, levi, np.conj(nu)))


def _require_frame_dimension(domain: DomainSpec) -> None:
    if domain.n > _FRAME_MAX_N:
        raise ValidationError(f"boundary frames and osculating radii are computed up to "
                              f"dimension n = {_FRAME_MAX_N} (O(n^4) work), got n = {domain.n}")


def _complex_tangent_basis(nu: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the Hermitian orthogonal complement of nu."""
    n = len(nu)
    if n == 1:
        return np.zeros((0, 1), dtype=complex)
    # complete nu to a unitary basis via QR, deterministically
    M = np.eye(n, dtype=complex)
    k = int(np.argmax(np.abs(nu)))
    M[:, [0, k]] = M[:, [k, 0]]
    M[:, 0] = nu
    Q, R = np.linalg.qr(M)
    # fix phases so Q[:,0] is exactly parallel to nu
    phase = herm(nu, Q[:, 0])
    Q[:, 0] *= phase / abs(phase)
    return np.ascontiguousarray(Q[:, 1:].T)


def levi_density(domain: DomainSpec, p) -> float:
    """Density of the boundary form against surface volume at p.

    Equals ``4^{n-1} (n-1)! det(restricted Levi form) / |d psi|^{n-1}`` and is
    invariant under rescaling the defining function.
    """
    return domain._per_pole("levi_density", as_vector(p, domain.n), _levi_density)


def _levi_density(domain: DomainSpec, p: np.ndarray) -> float:
    frame = boundary_frame(domain, p)
    n = domain.n
    if n == 1:
        return 1.0
    det = float(np.real(np.linalg.det(frame.levi)))
    if det <= 0:
        raise PseudoconvexityError("degenerate Levi form")
    dpsi = 2.0 * norm(domain.grad_psi(frame.p))
    return float(4 ** (n - 1) * math.factorial(n - 1) * det / dpsi ** (n - 1))


@dataclass(frozen=True)
class OsculatingRadii:
    """Tangent-sphere radii at a boundary point.

    ``r_in`` is the reciprocal largest normal curvature (inscribed tangent
    ball), ``r_out`` the reciprocal smallest (circumscribed tangent ball).
    ``global_containment`` is True for the built-in convex kinds, where the
    tangent balls are certified to contain / be contained in the domain;
    custom domains get local-only radii.
    """

    r_in: float
    r_out: float
    global_containment: bool

    def __iter__(self):
        return iter((self.r_in, self.r_out))


def osculating_radii(domain: DomainSpec, p) -> OsculatingRadii:
    """Principal-curvature tangent ball radii from the real second fundamental form."""
    return domain._per_pole("radii", as_vector(p, domain.n), _osculating_radii)


def _osculating_radii(domain: DomainSpec, p: np.ndarray) -> OsculatingRadii:
    _require_frame_dimension(domain)
    p = require_on_boundary(domain, p)
    g = domain.grad_psi(p)
    if norm(g) < 1e-14:
        raise DomainError("vanishing gradient on the boundary")
    # real gradient of psi on R^{2n} is 2*conj(g) in complex form
    grad_r = to_real(2.0 * np.conj(g))
    gn = float(np.linalg.norm(grad_r))
    nr = grad_r / gn
    Hr = domain.real_hessian(p)
    # orthonormal basis of the real tangent space
    w, V = np.linalg.eigh(np.eye(2 * domain.n) - np.outer(nr, nr))
    T = V[:, w > 0.5]
    shape_op = T.T @ (Hr / gn) @ T
    curv = np.linalg.eigvalsh(shape_op)
    kmax = float(np.max(curv))
    kmin = float(np.min(curv))
    if kmax <= 0:
        raise PseudoconvexityError("no positive normal curvature at p")
    r_in = 1.0 / kmax
    r_out = 1.0 / kmin if kmin > 0 else float("inf")
    return OsculatingRadii(r_in=r_in, r_out=r_out,
                           global_containment=domain.is_convex_kind)


def signed_boundary_distance(domain: DomainSpec, z) -> float:
    """Signed Euclidean distance to the boundary: negative inside, zero on it."""
    z = as_vector(z, domain.n)
    if domain.is_ball_like:
        return norm(z - domain.center) - domain.radius
    nearest = _ellipsoid_nearest if domain.kind is DomainKind.ELLIPSOID else _footpoint_nearest
    _, dist, value = nearest(domain, z)
    return dist if value > 0 else 0.0 - dist      # +0.0 on the boundary, as a ball's


def nearest_boundary_point(domain: DomainSpec, z) -> np.ndarray:
    """The boundary point realizing the distance in signed_boundary_distance."""
    z = as_vector(z, domain.n)
    if domain.is_ball_like:
        d = z - domain.center
        nd = norm(d)
        if nd < 1e-15:
            d, nd = np.eye(1, domain.n, dtype=complex)[0], 1.0
        return domain.center + domain.radius * d / nd
    if domain.kind is DomainKind.ELLIPSOID:
        return _ellipsoid_nearest(domain, z)[0]
    return _footpoint_nearest(domain, z)[0]


def _ellipsoid_nearest(domain: DomainSpec, z: np.ndarray):
    """x, |z - x| and psi(z) for the nearest point x of an ellipsoid's boundary to z.

    Where psi(z) is exactly 0, x is z itself, at distance 0.0."""
    value = domain.psi(z)
    if value == 0:
        return z.copy(), 0.0, value
    x, dist = _ellipsoid_nearest_point(domain.coeffs, z)
    return x, dist, value


def _ellipsoid_nearest_point(a: np.ndarray, z: np.ndarray):
    """Nearest point on {sum a_j |z_j|^2 = 1} via the scalar multiplier equation.

    The projection solves x_j = z_j / (1 + lam * a_j) with
    h(lam) = sum a_j |x_j|^2 = 1; for the nearest point the root lies in
    (-1/max(a), inf) where h is strictly decreasing.  Coordinates with
    z_j = 0 admit axis branches at lam = -1/a_j, handled separately.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=complex)
    amax = float(np.max(a))
    trace = []

    def h(lam):
        return float(np.sum(a * np.abs(z) ** 2 / (1 + lam * a) ** 2))

    candidates = []
    active = np.abs(z) > 0
    if np.any(active):
        # h is strictly decreasing on (-1/amax, inf); bracket the root
        lam_lo, lam_hi = None, None
        if h(0.0) >= 1.0:
            lam_lo = 0.0
            lam_hi = 1.0
            while h(lam_hi) > 1.0:
                lam_hi *= 2.0
                if lam_hi > 1e12:
                    raise ConvergenceError("multiplier bracket failed", trace)
        else:
            lam_hi = 0.0
            step = 0.5 * (0.0 - (-1.0 / amax))
            lam_lo = -1.0 / amax + step
            while h(lam_lo) < 1.0:
                step *= 0.5
                lam_lo = -1.0 / amax + step
                if step < 1e-18:
                    lam_lo = None  # no root: nearest point on an axis branch
                    break
        if lam_lo is not None:
            lam = 0.5 * (lam_lo + lam_hi)
            for it in range(200):
                val = h(lam)
                trace.append((it, lam, val))
                if abs(val - 1.0) < 1e-14:
                    break
                dh = float(np.sum(-2 * a ** 2 * np.abs(z) ** 2 / (1 + lam * a) ** 3))
                if val > 1.0:
                    lam_lo = lam
                else:
                    lam_hi = lam
                lam_newton = lam - (val - 1.0) / dh if dh != 0 else None
                if lam_newton is not None and lam_lo < lam_newton < lam_hi:
                    lam = lam_newton
                else:
                    lam = 0.5 * (lam_lo + lam_hi)
            else:
                raise ConvergenceError("ellipsoid projection did not converge", trace)
            x = z / (1 + lam * a)
            candidates.append(x)
    # axis branches: for every coordinate with z_j = 0 the projection may sit
    # off-center on that axis, with multiplier exactly -1/a_j
    for j in range(len(a)):
        if abs(z[j]) > 0:
            continue
        denom = 1.0 - a / a[j]
        degenerate = np.abs(denom) < 1e-15
        if np.any(degenerate & (np.abs(z) > 0)):
            continue  # multiplier pole hit by an active coordinate
        x = np.where(degenerate, 0.0, z / np.where(degenerate, 1.0, denom))
        rest = float(np.sum(a * np.abs(x) ** 2))
        if rest <= 1.0:
            x = np.array(x, dtype=complex)
            x[j] = math.sqrt((1.0 - rest) / a[j])
            candidates.append(x)
    if not candidates:
        raise ConvergenceError("no projection candidate found", trace)
    dists = [norm(z - x) for x in candidates]
    k = int(np.argmin(dists))
    return candidates[k], float(dists[k])


def _footpoint_nearest(domain: DomainSpec, z: np.ndarray):
    """Nearest boundary point of a custom domain: Newton on the Lagrange system.

    In real coordinates the nearest point x to z on {psi = 0} solves
    x - z + lam grad psi(x) = 0, psi(x) = 0, with Jacobian
    [[I + lam Hess psi, grad psi], [grad psi^T, 0]] in (x, lam).  Each
    iterate makes one jet, takes lam by least squares and stops once the
    tangential part of z - x is below 1e-12 * scale and |psi| below 1e-14.
    The Newton step is taken only where I + lam Hess psi is positive definite
    on the tangent space (the second-order condition of a nearest point,
    tested by one Cholesky factorisation); elsewhere the step slides along the
    tangential part of z - x.  Both steps correct psi to first order along the
    normal.  A step that neither lowers the merit |z - x|^2 / 2 + mu |psi| nor
    halves the Lagrange residual is halved, at the cost of one more jet.  The
    start is the end of the ray bracket towards z with the smaller |psi|.
    Returns x, |z - x| and psi(z), which rides in the bracket's first field call.
    """
    n = domain.n
    offset = z - domain.interior
    direction = offset / r if (r := norm(offset)) >= 1e-14 else np.eye(1, n, dtype=complex)[0]
    t, at_t, at_half, at_z = _ray_bracket(domain, direction[None], z[None])
    # the end with the smaller |psi|, t / 2 on a tie; at t = 1 at_half is nan
    t = 0.5 * t[0] if abs(at_half[0]) <= abs(at_t[0]) else t[0]
    x, zr = to_real(domain.interior + t * direction), to_real(z)
    J = _to_real_derivatives(n)
    scale = max(norm(z), 1.0)
    trace = []
    last = None         # the last accepted iterate: x, merit, step, slope, mu, residual
    alpha = 1.0         # the fraction of last's step that led to x
    for it in range(_FOOTPOINT_MAX_ITER):
        value, d, h = domain.expression.jet(x[:n] + 1j * x[n:])
        v = value.real
        grad = np.real(J @ d)
        g2 = float(grad @ grad)
        if g2 < 1e-30:
            raise ConvergenceError("vanishing gradient in the foot-point iteration", trace)
        w = zr - x
        lam = float(w @ grad) / g2
        w_tan = w - lam * grad
        resid = math.sqrt(w_tan @ w_tan)
        trace.append((it, resid, abs(v)))
        if resid < 1e-12 * scale and abs(v) < 1e-14:
            x = x - (v / g2) * grad         # the last normal correction needs no new jet
            return x[:n] + 1j * x[n:], float(np.linalg.norm(zr - x)), float(at_z[0])
        residual = math.hypot(resid, v / math.sqrt(g2))
        if last is not None:
            x0, merit, step, slope, mu, residual0 = last
            if (0.5 * float(w @ w) + mu * abs(v) > merit + 1e-4 * alpha * slope
                    and residual > 0.5 * residual0):
                alpha *= 0.5
                x = x0 + alpha * step
                continue
        # the tangential part y of the Newton step solves P A y = w_tan + v P A grad / g2,
        # with A = I + lam Hess psi and P the projection onto the tangent space;
        # A is positive definite there iff P A P + nu nu^T is
        eye = np.eye(2 * n)
        A = eye + lam * np.real(J @ h @ J.T)
        nu = grad / math.sqrt(g2)
        normal = np.outer(nu, nu)
        P = eye - normal
        M = P @ A @ P + normal
        try:
            np.linalg.cholesky(M)
            y = np.linalg.solve(M, w_tan + (v / g2) * (P @ (A @ grad)))
        except np.linalg.LinAlgError:
            y = w_tan
        # mu makes the step descend on the merit: slope <= -mu |psi| / 2 where psi != 0
        rate = lam * v - float(w_tan @ y)       # d/d alpha of |z - x|^2 / 2
        mu = max(last[4] if last else 0.0, 2.0 * abs(lam), 2.0 * rate / abs(v) if v else 0.0)
        slope = rate - mu * abs(v)
        step = y - (v / g2) * grad
        last = (x, 0.5 * float(w @ w) + mu * abs(v), step, slope, mu, residual)
        alpha = 1.0
        x = x + step
    raise ConvergenceError("foot-point iteration did not converge", trace)


def boundary_samples(domain: DomainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic (seeded) boundary sample points, |psi| = 0 to high accuracy."""
    count = spec_count(count, "count")
    V = np.array([sample_sphere(rng, domain.n) for _ in range(count)])
    if domain.is_ball_like:
        return domain.center + domain.radius * V
    if domain.kind is DomainKind.ELLIPSOID:
        return V * np.sqrt(1.0 / np.sum(domain.coeffs * np.abs(V) ** 2, axis=1))[:, None]
    # bisect every ray at once, one field call per step
    t_hi = _ray_bracket(domain, V, V[:0])[0]       # no point rides along
    t_lo = np.zeros(count)
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        # psi keeps its sign at either end, so no later step moves a bracket whose mid is an end
        moving = (mid != t_lo) & (mid != t_hi)
        if not moving.any():
            break
        inside = domain._expression_rows(domain.interior + mid[:, None] * V) < 0
        np.copyto(t_lo, mid, where=moving & inside)
        np.copyto(t_hi, mid, where=moving > inside)     # moving and not inside
    return domain.interior + (0.5 * (t_lo + t_hi))[:, None] * V


def _ray_bracket(domain: DomainSpec, V: np.ndarray, Z: np.ndarray) -> tuple:
    """For each row v of V, the first t in 1, 2, 4, ... with psi(interior + t * v) >= 0,
    psi there and at t / 2 (nan at t = 1); psi at the (k, n) rows Z rides in the first call."""
    t, at_half = np.ones(len(V)), np.full(len(V), np.nan)
    values = domain._expression_rows(np.concatenate([Z, domain.interior + V]))
    at_z, values = values[:len(Z)], values[len(Z):]
    while (below := values < 0).any():
        at_half[below] = values[below]
        t[below] *= 2.0
        if t.max() > _RAY_LIMIT:
            raise ConvergenceError("domain appears unbounded along the ray")
        values = domain._expression_rows(domain.interior + t[:, None] * V)
    return t, values, at_half, at_z


# -- JSON interface ----------------------------------------------------------

@malformed_spec("domain spec")
def domain_from_json(spec) -> DomainSpec:
    """Build a DomainSpec from a JSON object / string / ``kind:params`` shorthand.

    Accepted forms::

        {"kind": "disc"}
        {"kind": "unit_ball", "n": 2}
        {"kind": "ball", "center": [[re, im], ...], "radius": r}
        {"kind": "ellipsoid", "a": [1.0, 2.0]}
        {"kind": "custom", "psi": "z1*conj(z1)-1", "n": 1}
        "unit_ball:2" | "disc" | "ellipsoid:1,2"
    """
    if isinstance(spec, DomainSpec):
        return spec
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            spec = json.loads(text)
        else:
            return _domain_from_shorthand(text)
    if not isinstance(spec, dict):
        raise ValidationError(f"cannot interpret domain spec {spec!r}")
    known = {"kind", "n", "center", "radius", "a", "psi"}
    extra = set(spec) - known
    if extra:
        raise ValidationError(f"unknown fields in domain spec: {sorted(extra)}")
    kind = spec.get("kind")
    if kind == "disc":
        return DomainSpec.disc()
    if kind == "unit_ball":
        return DomainSpec.unit_ball(spec["n"])
    if kind == "ball":
        center = [complex(re, im) for re, im in spec["center"]]
        return DomainSpec.ball(center, spec["radius"])
    if kind == "ellipsoid":
        return DomainSpec.ellipsoid(spec["a"])
    if kind == "custom":
        source = str(spec["psi"])
        n = spec["n"] if "n" in spec else infer_dimension(source)
        return DomainSpec.custom(source, n)
    raise ValidationError(f"unknown domain kind {kind!r}")


def _domain_from_shorthand(text: str) -> DomainSpec:
    head, _, tail = text.partition(":")
    if head == "disc":
        return DomainSpec.disc()
    if head == "unit_ball":
        return DomainSpec.unit_ball(int(tail))
    if head == "ellipsoid":
        return DomainSpec.ellipsoid([float(x) for x in tail.split(",")])
    raise ValidationError(f"unknown domain shorthand {text!r}")
