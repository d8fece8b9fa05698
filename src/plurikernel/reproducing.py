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

A rule is held as its factors, O(resolution^2) numbers.  ``reproduce`` works
a few eta slabs at a time in one workspace per call (one block plus 8 bytes
per slab); f gets a read-only, coordinate-major (M, n) view of the block's
nodes, valid only during that call.  <xi, z> is built from the factors: the
res values slab_coords[j] * conj(z_j) per slab, broadcast-added over j in
order into Re and Im, and |1 - <xi, z>|^2 = (1 - Re)^2 + Im^2.  The weighted
slab sums are added in slab order, so results do not depend on the block size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError, spec_count
from .utils import as_vector, read_only

TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 12      # nodes per block in reproduce: its arrays stay in cache and on the heap
_MAX_NODES = 1 << 24  # sphere_quadrature's largest rule


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
        return len(self.slab_weights) * self._slab_size

    @property
    def _slab_size(self) -> int:
        return self.slab_coords[0].shape[1] ** self.n

    @property
    def total_mass(self) -> float:
        return self._slab_size * float(np.sum(self.slab_weights))

    @cached_property
    def nodes(self) -> np.ndarray:
        return self._nodes(slice(None), np.empty((self.n, len(self)), complex))

    @cached_property
    def weights(self) -> np.ndarray:
        return read_only(np.repeat(self.slab_weights, self._slab_size))[0]

    def _grid(self, j: int, v: np.ndarray) -> np.ndarray:
        """Coordinate j's values (slabs, width) shaped to broadcast onto the slabs' node grid."""
        return v.reshape(v.shape[:1] + (1,) * j + v.shape[1:] + (1,) * (self.n - 1 - j))

    def _nodes(self, slabs: slice, out: np.ndarray) -> np.ndarray:
        """Write the nodes of ``slabs`` into ``out`` (n, M) and return them read-only as (M, n)."""
        count = len(self.slab_weights[slabs])
        out = out[:, :count * self._slab_size]
        for j, c in enumerate(self.slab_coords):
            np.copyto(out[j].reshape((count,) + c.shape[1:] * self.n), self._grid(j, c[slabs]))
        return read_only(out.T)[0]


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
    resolution = spec_count(resolution, "resolution", least=4)
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


def reproduce(f: Callable, z, rule: QuadratureRule) -> float:
    """(2 pi)^{-n} sum_i f(xi_i) |Omega_{xi_i}(z)|^n w_i  for interior z.

    ``f`` is called once on each block of whole slabs of ``rule.nodes`` and
    must return one real value per row (on the circle an (M, 1) column too);
    another shape raises ``ValidationError``, a value that is not finite
    ``DomainError``.  Its argument is overwritten by the next block.
    """
    z = as_vector(z, rule.n)
    num = 1.0 - float(np.vdot(z, z).real)
    if num <= 0.0:
        raise ValidationError("reproduction point must be interior")
    step = max(1, _BLOCK // rule._slab_size)        # whole slabs per block
    slabs = min(step, len(rule.slab_weights))
    # the workspace: n rows of nodes, a row for the slab factors times conj(z), and
    # Re and Im of <xi, z>, which become |1 - <xi, z>|^2 and then the kernel
    work = np.empty((rule.n + 2, slabs * rule._slab_size), complex)
    products = work[rule.n, :rule.n * rule.slab_coords[0][:slabs].size].reshape(rule.n, slabs, -1)
    re_im = work[-1].view(float).reshape((2, slabs) + rule.slab_coords[0].shape[1:] * rule.n)
    slab_sums = np.empty(len(rule.slab_weights))
    for block in (slice(start, start + step) for start in range(0, len(slab_sums), step)):
        nodes = rule._nodes(block, work[:rule.n])
        # non-finite values are refused below, so numpy need not warn
        with np.errstate(all="ignore"):
            vals = np.asarray(np.real(f(nodes)), dtype=float)
        if rule.n == 1 and vals.shape == nodes.shape:
            vals = vals[:, 0]      # a field on the circle's (M, 1) nodes, one column
        if vals.shape != (len(nodes),):
            raise ValidationError(f"f gave shape {vals.shape}, not one value per node row")
        if not np.isfinite(vals).all():
            raise DomainError(f"f is not finite at the node {nodes[~np.isfinite(vals)][0]}")
        re, im = re_im[:, :len(nodes) // rule._slab_size]    # on the slabs' node grid
        for j, p in enumerate(products[:, :len(re)]):     # <xi, z> in coordinate order
            p = rule._grid(j, np.multiply(rule.slab_coords[j][block], np.conj(z[j]), out=p))
            if j == 0:
                re[...], im[...] = p.real, p.imag
            else:
                re += p.real
                im += p.imag
        np.square(np.subtract(1.0, re, out=re), out=re)
        re += np.square(im, out=im)                   # |1 - <xi, z>|^2
        np.divide(num, re, out=re)
        re **= rule.n
        re *= vals.reshape(re.shape)
        np.sum(re.reshape(len(re), -1), axis=1, out=slab_sums[block])
    slab_sums *= rule.slab_weights
    return float(np.sum(slab_sums)) / TWO_PI ** rule.n


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
    radial = spec_count(radial, "radial polar grid")
    angular = spec_count(angular, "angular polar grid")
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
    # in place: fewer grid-sized temporaries for malloc to return and fault in again
    den = np.conj(z[0]) * w_pts
    g = np.abs(np.divide(z[0] - w_pts, np.subtract(1.0, den, out=den), out=den))
    with np.errstate(divide="ignore"):
        np.log(g, out=g)
    g[~np.isfinite(g)] = 0.0   # measure-zero pole node, if ever hit
    # non-finite values are refused below, so numpy need not warn
    with np.errstate(all="ignore"):
        lap = np.broadcast_to(np.asarray(laplacian(w_pts), dtype=float), w_pts.shape)
    if not np.isfinite(lap).all():
        raise DomainError(f"the Laplacian is not finite at {w_pts[~np.isfinite(lap)][0]}")
    np.multiply(np.negative(g, out=g), lap, out=g)
    correction = float(np.sum(np.multiply(g, W, out=g))) / TWO_PI
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
