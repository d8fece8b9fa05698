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

A rule is held as its factors, O(resolution^2) numbers.  ``reproduce`` builds
a few eta slabs of nodes at a time and sums its integrand, one float per node,
in one numpy pairwise sum: results are deterministic for a given rule.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import ValidationError
from .utils import as_vector, read_only

TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 14      # nodes per block in reproduce: its nodes and temporaries stay in cache
_MAX_NODES = 1 << 24  # sphere_quadrature's largest rule: a 128 MiB integrand in reproduce


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Boundary nodes and positive weights approximating the boundary measure, as factors.

    A slab is the nodes that share one eta (on the circle, one node): row i
    of ``slab_coords[j]`` holds the values of coordinate j on slab i, whose
    nodes are all their combinations in C order, each of weight
    ``slab_weights[i]``.  ``nodes`` (M, n) and ``weights`` (M,) are built
    only when asked for.  Every array is read-only: a rule is shared by every
    call made on it, so a field that writes into its argument raises.
    """

    slab_coords: tuple         # n complex arrays (slabs, 1 or resolution)
    slab_weights: np.ndarray   # (slabs,) positive
    n: int                     # complex dimension
    resolution: int

    def __post_init__(self):
        views = read_only(*(c.view() for c in self.slab_coords), self.slab_weights.view())
        object.__setattr__(self, "slab_coords", views[:-1])
        object.__setattr__(self, "slab_weights", views[-1])

    def __len__(self):
        return len(self.slab_weights) * self.slab_coords[0].shape[1] ** self.n

    @property
    def total_mass(self) -> float:
        return float(np.sum(self._weights()))     # the pairwise sum of ``weights``, not kept

    @cached_property
    def nodes(self) -> np.ndarray:
        return next(self._blocks(len(self)))[1]

    @cached_property
    def weights(self) -> np.ndarray:
        return read_only(self._weights())[0]

    def _weights(self) -> np.ndarray:
        return np.repeat(self.slab_weights, len(self) // len(self.slab_weights))

    def _blocks(self, size: int):
        """(rows, nodes, weights) for runs of whole slabs of about ``size`` nodes.

        ``nodes`` is a fresh read-only C-ordered array; the rest are slices.
        """
        width = self.slab_coords[0].shape[1]
        per_slab = width ** self.n
        step = max(1, size // per_slab)
        for start in range(0, len(self.slab_weights), step):
            coords = [c[start:start + step] for c in self.slab_coords]
            slabs = len(coords[0])
            # the first coordinate by repeating whole rows, twice as fast as a strided broadcast
            lead = np.column_stack([coords[0].reshape(-1)] * self.n)
            nodes = np.repeat(lead, per_slab // width, axis=0)
            grid = nodes.reshape((slabs,) + (width,) * self.n + (self.n,), copy=False)
            for j, coord in enumerate(coords[1:], 1):
                grid[..., j] = coord.reshape((slabs,) + (1,) * j + (width,) + (1,) * (self.n - 1 - j))
            yield (slice(start * per_slab, (start + slabs) * per_slab), read_only(nodes)[0],
                   self.slab_weights[start:start + step])


@lru_cache(maxsize=16)
def _gauss_legendre(m: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1] of order m, read-only, computed once."""
    return read_only(*np.polynomial.legendre.leggauss(m))


def sphere_quadrature(n: int, resolution: int) -> QuadratureRule:
    """Quadrature for the boundary measure of the unit ball, n in {1, 2}.

    The rule has resolution**(2n - 1) nodes, at most 2^24.
    """
    if n not in (1, 2):
        raise ValidationError(f"sphere quadrature implemented for n in {{1, 2}}, got n={n}")
    if resolution < 4:
        raise ValidationError("resolution must be at least 4")
    count = resolution ** (2 * n - 1)
    if count > _MAX_NODES:
        raise ValidationError(f"resolution {resolution} gives a rule of {count} nodes "
                              f"in C^{n}, above the cap of 2^24 = {_MAX_NODES} nodes")
    theta = TWO_PI * np.arange(resolution) / resolution
    e = np.exp(1j * theta)
    if n == 1:
        return QuadratureRule(slab_coords=(e[:, None],), n=1, resolution=resolution,
                              slab_weights=np.full(resolution, TWO_PI / resolution))
    # node (i, j, k) is (cos eta_i e^{i th_j}, sin eta_i e^{i th_k})
    x, wx = _gauss_legendre(resolution)
    eta = (x + 1.0) * (math.pi / 4.0)
    weta = wx * (math.pi / 4.0)
    wtheta = TWO_PI / resolution
    c, s = np.cos(eta), np.sin(eta)
    # weight = levi density (= 2) * surface element * quadrature weights
    return QuadratureRule(slab_coords=(c[:, None] * e, s[:, None] * e), n=2, resolution=resolution,
                          slab_weights=2.0 * c * s * weta * wtheta * wtheta)


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
    """(2 pi)^{-n} sum_i values(rows, nodes)_i |Omega_{xi_i}(z)|^n w_i, block by block."""
    num = 1.0 - float(np.vdot(z, z).real)
    zc = np.conj(z)
    integrand = np.empty(len(rule))
    for rows, nodes, weights in rule._blocks(_BLOCK):
        om = num / np.abs(1.0 - nodes @ zc) ** 2
        terms = values(rows, nodes) * om ** rule.n
        integrand[rows] = (terms.reshape(len(weights), -1) * weights[:, None]).reshape(-1)
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
        return _node_sum(lambda rows, nodes: _block_values(f, nodes), z, rule)
    except _NotRowwise:
        fvals = np.array([float(np.asarray(f(xi), dtype=complex).reshape(-1)[0].real)
                          for _, nodes, _ in rule._blocks(_BLOCK) for xi in nodes])
        return _node_sum(lambda rows, nodes: fvals[rows], z, rule)


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
    if radial < 1 or angular < 1:
        raise ValidationError(f"polar grid needs at least 1 node per axis, "
                              f"got radial={radial}, angular={angular}")
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
    """Write a rule as CSV: re/im of each node coordinate, then the weight.

    Rows follow ``rule.nodes`` and are written slab by slab from the rule's
    factors, so the node array is never built.
    """
    header = [f"{part}_z{j + 1}" for j in range(rule.n) for part in ("re", "im")]
    stream.write(",".join(header + ["weight"]) + "\n")
    for i, w in enumerate(rule.slab_weights.tolist()):
        cells = [[f"{x.real!r},{x.imag!r}" for x in coord[i].tolist()]
                 for coord in rule.slab_coords]
        stream.writelines(",".join(row) + f",{w!r}\n" for row in itertools.product(*cells))
