"""Boundary quadrature and the reproducing formula.

Quadrature rules discretize the boundary measure omega with weights that
absorb the Levi density and the surface element; their total mass is
(2 pi)^n on the unit sphere of C^n.  For n = 1 this is the trapezoid rule on
the circle (omega = d theta); for n = 2 a tensor rule in Hopf coordinates

    z1 = cos(eta) e^{i th1},  z2 = sin(eta) e^{i th2},
    surface element cos(eta) sin(eta) d eta d th1 d th2,  Levi density 2,

with Gauss-Legendre nodes in eta and trapezoid nodes in the angles (both
spectrally accurate for the smooth periodic integrands that arise).

A function continuous up to the boundary is reproduced at interior z by

    f(z) ~ (2 pi)^{-n} sum_i f(xi_i) |Omega_{xi_i}(z)|^n w_i,

exact (in the limit) for pluriharmonic f.  For n = 1 the subharmonic case
adds the classical Riesz correction

    f(z) = boundary term - (2 pi)^{-1} int_D |G(z, w)| (Lap f)(w) dA(w),

implemented on a polar Gauss-Legendre x trapezoid grid.  Normalization: with
d^c = i(dbar - d) the current dd^c f equals (Lap f) dx dy, so the area
integral uses the plain Laplacian against Lebesgue measure; the worked cases
f = |w|^2 and |w|^4 at z = 0 then reproduce f(0) = 0 exactly.

Node sums use numpy pairwise summation in a fixed order, so results are
deterministic for a given rule.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ValidationError
from .utils import as_vector, read_only

TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 16      # nodes per block in reproduce: a block's temporaries stay in cache


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Boundary nodes and positive weights approximating the boundary measure.

    ``nodes`` and ``weights`` are read-only views: a rule is shared by every
    call made on it, so a field that writes into its argument raises.
    """

    nodes: np.ndarray          # (M, n) complex boundary points
    weights: np.ndarray        # (M,) positive
    n: int                     # complex dimension
    resolution: int

    def __post_init__(self):
        nodes, weights = read_only(self.nodes.view(), self.weights.view())
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def __len__(self):
        return len(self.weights)


@lru_cache(maxsize=16)
def _gauss_legendre(m: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1] of order m, read-only, computed once."""
    return read_only(*np.polynomial.legendre.leggauss(m))


def sphere_quadrature(n: int, resolution: int) -> QuadratureRule:
    """Quadrature for the boundary measure of the unit ball, n in {1, 2}."""
    if resolution < 4:
        raise ValidationError("resolution must be at least 4")
    theta = TWO_PI * np.arange(resolution) / resolution
    if n == 1:
        nodes = np.exp(1j * theta)[:, None]
        weights = np.full(resolution, TWO_PI / resolution)
        return QuadratureRule(nodes=nodes, weights=weights, n=1, resolution=resolution)
    if n == 2:
        # node (i, j, k) is (cos eta_i e^{i th_j}, sin eta_i e^{i th_k}), in C order
        x, wx = _gauss_legendre(resolution)
        eta = (x + 1.0) * (math.pi / 4.0)
        weta = wx * (math.pi / 4.0)
        wtheta = TWO_PI / resolution
        c, s, e = np.cos(eta), np.sin(eta), np.exp(1j * theta)
        nodes = np.empty((resolution, resolution, resolution, 2), dtype=complex)
        nodes[..., 0] = (c[:, None] * e)[:, :, None]
        nodes[..., 1] = s[:, None, None] * e
        # weight = levi density (= 2) * surface element * quadrature weights,
        # constant over each eta slab
        weights = np.repeat(2.0 * c * s * weta * wtheta * wtheta, resolution * resolution)
        return QuadratureRule(nodes=nodes.reshape(-1, 2), weights=weights, n=2,
                              resolution=resolution)
    raise ValidationError(f"sphere quadrature implemented for n in {{1, 2}}, got n={n}")


class _NotRowwise(Exception):
    """A field that cannot be evaluated on a block of rule nodes at once."""


def _block_values(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """f on a block of nodes as one real value per row; _NotRowwise if it cannot be."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = np.asarray(f(nodes), dtype=float)
    except Exception as exc:
        raise _NotRowwise from exc
    if nodes.shape[1] == 1 and vals.shape == nodes.shape:
        vals = vals[:, 0]      # a field on the circle's (M, 1) nodes, one column
    if vals.shape != (len(nodes),):
        raise _NotRowwise
    return vals


def _node_sum(values: Callable, z: np.ndarray, rule: QuadratureRule) -> float:
    """(2 pi)^{-n} sum_i values(rows)_i |Omega_{xi_i}(z)|^n w_i over _BLOCK-row blocks."""
    num = 1.0 - float(np.vdot(z, z).real)
    zc = np.conj(z)
    integrand = np.empty(len(rule))
    for start in range(0, len(rule), _BLOCK):
        rows = slice(start, start + _BLOCK)
        fvals = values(rows)
        om = num / np.abs(1.0 - rule.nodes[rows] @ zc) ** 2
        integrand[rows] = fvals * om ** rule.n * rule.weights[rows]
    # one pairwise sum over the whole rule: the result does not depend on _BLOCK
    return float(np.sum(integrand)) / TWO_PI ** rule.n


def reproduce(f: Callable, z, rule: QuadratureRule) -> float:
    """(2 pi)^{-n} sum_i f(xi_i) |Omega_{xi_i}(z)|^n w_i  for interior z.

    ``f`` is called on blocks of rows of ``rule.nodes`` and must act row by
    row.  If it raises, warns or returns the wrong shape on any block, the
    whole rule is evaluated again node by node (one call per node).
    """
    z = as_vector(z, rule.n)
    if float(np.vdot(z, z).real) >= 1.0:
        raise ValidationError("reproduction point must be interior")
    try:
        return _node_sum(lambda rows: _block_values(f, rule.nodes[rows]), z, rule)
    except _NotRowwise:
        fvals = np.array([float(np.asarray(f(xi), dtype=complex).reshape(-1)[0].real)
                          for xi in rule.nodes])
        return _node_sum(lambda rows: fvals[rows], z, rule)


@dataclass(frozen=True)
class RieszDecomposition:
    """Parts of the n = 1 representation: value = boundary_term - correction."""

    boundary_term: float
    correction: float

    @property
    def value(self) -> float:
        return self.boundary_term - self.correction


def riesz_correction_1d(f: Callable, laplacian: Callable, z, rule: QuadratureRule,
                        radial: int = 200, angular: int = 200) -> RieszDecomposition:
    """Full disc representation of a subharmonic f with evaluable Laplacian.

    ``laplacian`` must return (Lap f)(w); the area correction integrates
    |G(z, w)| (Lap f)(w) over the disc on a polar grid (Gauss-Legendre in r,
    trapezoid in the angle) and is normalized by 1/(2 pi).
    """
    if rule.n != 1:
        raise ValidationError("riesz correction is the n = 1 formula; need a circle rule")
    z = as_vector(z, 1)
    if abs(z[0]) >= 1.0:
        raise ValidationError("evaluation point must be inside the disc")
    boundary = reproduce(f, z, rule)

    x, wx = _gauss_legendre(radial)
    r = (x + 1.0) / 2.0
    wr = wx / 2.0
    theta = TWO_PI * np.arange(angular) / angular
    W = (wr * (TWO_PI / angular) * r)[:, None]     # constant along each circle
    w_pts = r[:, None] * np.exp(1j * theta)
    z0 = z[0]
    with np.errstate(divide="ignore"):
        g = np.log(np.abs((z0 - w_pts) / (1.0 - np.conj(z0) * w_pts)))
    g = np.where(np.isfinite(g), g, 0.0)   # measure-zero pole node, if ever hit
    lap = np.asarray(laplacian(w_pts), dtype=float)
    if lap.shape != w_pts.shape:
        lap = np.broadcast_to(lap, w_pts.shape)
    correction = float(np.sum((-g) * lap * W)) / TWO_PI
    return RieszDecomposition(boundary_term=boundary, correction=correction)


def rule_to_csv(rule: QuadratureRule, stream) -> None:
    """Write a rule as CSV: re/im of each node coordinate, then the weight."""
    writer = csv.writer(stream, lineterminator="\n")
    header = []
    for j in range(rule.n):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    header.append("weight")
    writer.writerow(header)
    for xi, w in zip(rule.nodes, rule.weights):
        row = []
        for j in range(rule.n):
            row += [repr(float(xi[j].real)), repr(float(xi[j].imag))]
        row.append(repr(float(w)))
        writer.writerow(row)
