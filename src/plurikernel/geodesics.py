"""Complex geodesics of balls through a boundary point.

A complex geodesic is a holomorphic disc isometric for the Kobayashi
distance.  In the unit ball every geodesic through an interior point z and a
boundary point p arises by Mobius transport of a radial disc: with
p' = phi_z(p), the disc zeta -> phi_z(zeta p') passes through z = phi(0) and
p = phi(1).  The parametrization is unique up to pre-composition with the
two-parameter group of disc automorphisms fixing 1, realized here in
half-plane coordinates as w -> a w + i b under the Cayley map
C(zeta) = (1+zeta)/(1-zeta).

The normalized (CHL) parametrization anchored at p satisfies

    phi(1) = p,   phi'(1) = <v, nu_p> v  (|v| = 1, <v, nu_p> > 0),
    Im <phi''(1), nu_p> = 0,

and both automorphism parameters come out in closed form: a from the scale
condition <phi'(1), nu_p> = |phi'(1)|^2, then b from the second-derivative
reality condition.

Each geodesic carries its holomorphic retraction rho with affine fibers in
the transported coordinates (the Lempert projection) and the left inverse
rho_tilde with rho = phi o rho_tilde and rho_tilde o phi = id.  Restricted to
a geodesic anchored at p, the ball kernel collapses to the one-variable
Poisson kernel:

    Omega_p(phi(zeta)) = Re[ <phi'(1), nu_p> ^{-1} ] * P(zeta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError, positive, spec_count
from .kernels import _ball_kernels, _poisson_discs, _to_unit_ball, _unit_pole, mobius_ball
from .utils import as_rows, as_vector, herm, norm


@dataclass(frozen=True)
class DiscAutomorphism:
    """Mobius transformation (A z + B)/(C z + D) of the disc fixing 1."""

    A: complex
    B: complex
    C: complex
    D: complex

    @staticmethod
    def from_halfplane(a: float, b: float) -> "DiscAutomorphism":
        """The automorphism conjugate to w -> a w + i b on Re w > 0."""
        a = positive(a, "half-plane dilation a")
        return DiscAutomorphism(A=a + 1 - 1j * b, B=a - 1 + 1j * b,
                                C=a - 1 - 1j * b, D=a + 1 + 1j * b)

    @staticmethod
    def identity() -> "DiscAutomorphism":
        return DiscAutomorphism(1.0, 0.0, 0.0, 1.0)

    def __call__(self, zeta: complex) -> complex:
        return (self.A * zeta + self.B) / (self.C * zeta + self.D)

    def derivative(self, zeta: complex) -> complex:
        det = self.A * self.D - self.B * self.C
        return det / (self.C * zeta + self.D) ** 2

    def inverse(self) -> "DiscAutomorphism":
        return DiscAutomorphism(A=self.D, B=-self.B, C=-self.C, D=self.A)


@dataclass(frozen=True, eq=False)
class GeodesicDisc:
    """A parametrized complex geodesic of a ball, with projection and left inverse."""

    phi: Callable[[complex], np.ndarray]             # or a 1-D array of zeta to (M, n) rows
    phi_prime: Callable[[complex], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]          # Lempert projection
    rho_tilde: Callable[[np.ndarray], complex]       # left inverse
    boundary_point: np.ndarray                        # phi(1) = p
    phi1_prime: np.ndarray                            # phi'(1)
    phi1_second: np.ndarray                           # phi''(1)
    chl_flag: bool
    chl_direction: Optional[np.ndarray]               # v with phi'(1) = <v,nu> v
    center: np.ndarray
    radius: float

    @property
    def nu(self) -> np.ndarray:
        """Outward unit normal of the ball at the anchor boundary point."""
        return _to_unit_ball(self.center, self.radius, self.boundary_point)


def geodesic_through(z, p, normalize_chl: bool = True,
                     center=None, radius: float = 1.0) -> GeodesicDisc:
    """The complex geodesic of a ball through interior z, anchored at boundary p.

    Defaults to the unit ball; pass ``center``/``radius`` for a general ball
    (handled by affine transport).  With ``normalize_chl`` the parametrization
    is the normalized one described in the module docstring; otherwise
    phi(0) = z.
    """
    radius = positive(radius, "ball radius")
    if center is None:
        center = np.zeros(len(as_vector(p)), dtype=complex)
    c0 = as_vector(center)
    n = len(c0)
    z = _to_unit_ball(c0, radius, as_vector(z, n))
    p = _unit_pole(c0, radius, as_vector(p, n))
    if norm(z) >= 1.0 - 1e-12:
        raise ValidationError("z must be strictly inside the ball")
    if norm(z - p) < 1e-12:
        raise ValidationError("z and p must differ")

    nu = p
    pp = mobius_ball(z, p)              # transported boundary point
    a2 = float(np.real(herm(z, z)))
    if a2 == 0.0:
        L_pp = pp
        c = 0.0 + 0.0j
    else:
        s = np.sqrt(1.0 - a2)
        proj = (herm(pp, z) / a2) * z
        L_pp = proj + s * (pp - proj)
        c = herm(pp, z)
    u = c * z - L_pp                    # constant numerator of phi'

    def phi_raw(zeta: complex) -> np.ndarray:
        return (z - zeta * L_pp) / (1.0 - zeta * c)

    def phi_raw_prime(zeta: complex) -> np.ndarray:
        return u / (1.0 - zeta * c) ** 2

    V = u / (1.0 - c) ** 2              # phi_raw'(1)
    V2 = 2.0 * c * u / (1.0 - c) ** 3   # phi_raw''(1)

    if normalize_chl:
        kappa = herm(V, nu)
        if abs(kappa.imag) > 1e-9 * abs(kappa) or kappa.real <= 0:
            raise ValidationError(f"geodesic boundary derivative is not transversal: {kappa}")
        kap = kappa.real
        a = radius * float(np.real(herm(V, V))) / kap
        b = -float(np.imag(herm(V2, nu))) / kap
        h = DiscAutomorphism.from_halfplane(a, b)
        h1p = 1.0 / a
        h1pp = (1.0 - a + 1j * b) / a ** 2
        phi1_prime = V * h1p
        phi1_second = V2 * h1p ** 2 + V * h1pp
        v = phi1_prime / norm(phi1_prime)
        chl = True
    else:
        h = DiscAutomorphism.identity()
        phi1_prime = V
        phi1_second = V2
        v = None
        chl = False
    h_inv = h.inverse()

    def phi(zeta) -> np.ndarray:
        if np.ndim(zeta) == 0:
            return c0 + radius * phi_raw(h(zeta))
        if len(zeta) == 1:      # numpy rounds a 1 x 1 product unlike a scalar times a vector
            return phi(zeta[0])[None, :]
        w = [h(x) for x in zeta]                # the scalar steps of phi_raw, per element
        d = np.array([1.0 - x * c for x in w])
        return c0 + radius * ((z - np.array(w)[:, None] * L_pp) / d[:, None])

    def phi_prime(zeta: complex) -> np.ndarray:
        return radius * phi_raw_prime(h(zeta)) * h.derivative(zeta)

    def rho_tilde(w) -> complex:
        wt = (as_vector(w, n) - c0) / radius
        if norm(wt) >= 1.0 + 1e-12:
            raise ValidationError("point outside the ball")
        return complex(h_inv(herm(mobius_ball(z, wt), pp)))

    def rho(w) -> np.ndarray:
        return phi(rho_tilde(w))

    return GeodesicDisc(phi=phi, phi_prime=phi_prime, rho=rho, rho_tilde=rho_tilde,
                        boundary_point=c0 + radius * p, phi1_prime=radius * phi1_prime,
                        phi1_second=radius * phi1_second, chl_flag=chl, chl_direction=v,
                        center=c0, radius=radius)


def default_disc_grid(count: int = 200, rmax: float = 0.95) -> np.ndarray:
    """Deterministic evaluation grid in the disc: tensor of radii and angles."""
    count = spec_count(count, "grid count")
    n_r = max(4, int(np.sqrt(count)))
    n_t = max(4, -(-count // n_r))
    radii = np.linspace(0.05, rmax, n_r)
    angles = 2 * np.pi * np.arange(n_t) / n_t
    grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return grid[:count]


def restriction_identity_check(p, g: GeodesicDisc, grid=None) -> float:
    """Max deviation of Omega(phi(zeta)) from Re[theta(phi'(1))^{-1}] P(zeta) on a grid."""
    p = as_vector(p)
    if norm(p - g.boundary_point) > 1e-8:
        raise ValidationError("geodesic is not anchored at the requested pole")
    zetas = default_disc_grid() if grid is None else np.asarray(grid, dtype=complex).ravel()
    if not len(zetas):
        raise ValidationError("restriction check needs a non-empty grid")
    theta = herm(g.phi1_prime, g.nu)
    factor = (1.0 / theta).real
    lhs = _ball_kernels(g.center, g.radius, _unit_pole(g.center, g.radius, g.boundary_point),
                        as_rows(g.phi(zetas), len(g.center)))
    rhs = factor * _poisson_discs(1.0, zetas)
    return float(np.max(np.abs(lhs - rhs)))
