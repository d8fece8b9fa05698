"""Horoball geometry and boundary dilation of holomorphic maps.

The horoball H(p, R) is the sublevel set {Omega_p < -1/R}; in the disc these
are the classical horocycles (discs internally tangent at p).  For a
holomorphic map f between two domains and boundary points p, q, the dilation
coefficient

    lambda = sup_z  Omega_p(z) / Omega_q(f(z))

is finite exactly when f maps horoballs at p into horoballs at q with radius
scaled by lambda:  f(H(p, R)) into H(q, lambda R).  Finiteness is a local
condition along the inward normal, which is what the estimators here
exploit: a seeded compact-exhaustion grid supplies a certified sup lower
bound, a refinement along the normal ray supplies the extrapolated ray
limit, and the two are reported side by side (for unregistered maps neither
is claimed to equal the global sup).

Derivative probes along cones at p quantify the boundary behavior of df
split by the geodesic projections at p and q: the normal-normal component
tends to lambda, the mixed components decay at the square-root rate, and the
tangent-tangent component stays bounded.  The three classical finiteness
conditions (kernel ratio, Kobayashi distance defect, boundary distance
ratio) are evaluated jointly by ``condition_equivalence_check``.

Maps with a registered inverse (identity, unitary, ball automorphism) also
pull back the kernel of their target ball, together with the induced
defining couple (``pullback_kernel``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .bounds import kernel_value, kernel_values, tangent_balls
from .domains import (
    DomainSpec,
    boundary_frame,
    nearest_boundary_point,
    outward_normal,
    require_on_boundary,
    signed_boundary_distance,
)
from .errors import NumericalError, ValidationError, malformed_spec, positive, spec_count
from .extrapolate import Extrapolation, refine_until, richardson
from .kernels import (KernelValue, _to_unit_ball, kobayashi, mobius_ball,
                      mobius_ball_jacobian)
from .utils import as_points, as_vector, herm, norm, row_norms, sample_ball_rows

_DIVERGENCE = 1e6
_SETTLED = 1e-3             # _classify: largest error, relative to 1 + |value|, of a finite ray
_RAY_START_LEVEL = 3        # lambda_estimate: normal-ray levels, h = 2^-level
_RAY_MAX_LEVEL = 26
_COMPACT_RADIUS = 0.9       # lambda_estimate: exhaustion radius for the grid
_APERTURE = 0.25            # jwc_derivative_probes: cone aperture and levels
_PROBE_START_LEVEL = 3
_PROBE_MAX_LEVEL = 20
_EQUIV_START_LEVEL = 3      # condition_equivalence_check: normal-ray levels
_EQUIV_MAX_LEVEL = 24


# -- registered holomorphic maps ----------------------------------------------

@dataclass(frozen=True, eq=False)
class MapSpec:
    """A holomorphic map between disc/ball domains with derivative access.

    ``fn`` and ``jacobian`` act on the last axis.  Given a point of shape (n,)
    ``fn`` returns the image point (m,) and ``jacobian`` the complex Jacobian
    matrix J (m, n) with (df_z(v))_i = sum_j J_ij v_j; given an (M, n) array
    of points they return the (M, m) images and the (M, m, n) Jacobians, row
    for row, each within the bound its functions state (``mobius_ball``'s for
    ``ball_auto``).  A constant (m, n) Jacobian broadcasts to either shape.  Calling
    the map and ``derivative`` accept both shapes and raise
    ``ValidationError`` on any other result shape; ``jwc_derivative_probes``
    takes every Jacobian it needs in one ``derivative`` call on rows.
    ``inverse`` is set for biholomorphisms whose inverse is registered;
    ``pullback_kernel`` requires it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    source: DomainSpec
    target: DomainSpec
    describe: str = "map"
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, z) -> np.ndarray:
        Z = as_points(z, self.source.n)
        W = as_points(self.fn(Z), self.target.n)
        if W.shape[:-1] != Z.shape[:-1]:
            raise ValidationError(f"map sent points of shape {Z.shape} to shape {W.shape}")
        return W

    def derivative(self, z) -> np.ndarray:
        Z = as_points(z, self.source.n)
        J = np.asarray(self.jacobian(Z), dtype=complex)
        shape = Z.shape[:-1] + (self.target.n, self.source.n)
        if J.shape not in (shape, shape[-2:]):
            raise ValidationError(f"jacobian shape {J.shape} does not match map dimensions")
        return np.broadcast_to(J, shape)


def identity_map(n: int) -> MapSpec:
    dom = DomainSpec.unit_ball(n)
    eye = np.eye(dom.n, dtype=complex)
    return MapSpec(fn=lambda z: z, jacobian=lambda z: eye,
                   source=dom, target=dom, describe=f"identity:{n}",
                   inverse=lambda w: w)


def blaschke_map(a: complex) -> MapSpec:
    """Disc automorphism f(z) = (z + a)/(1 + conj(a) z)."""
    a = complex(a)
    if abs(a) >= 1:
        raise ValidationError("blaschke parameter must satisfy |a| < 1")
    dom = DomainSpec.disc()
    return MapSpec(
        fn=lambda z: (z + a) / (1 + np.conj(a) * z),
        jacobian=lambda z: (1 - abs(a) ** 2) / (1 + np.conj(a) * z[..., None]) ** 2,
        source=dom, target=dom, describe=f"blaschke(a={a})")


def power_map(k: int) -> MapSpec:
    k = spec_count(k, "power k")
    dom = DomainSpec.disc()
    return MapSpec(fn=lambda z: z ** k,
                   jacobian=lambda z: k * z[..., None] ** (k - 1),
                   source=dom, target=dom, describe=f"power:{k}")


def diag_map(coeffs) -> MapSpec:
    d = np.asarray(coeffs, dtype=complex)
    if np.any(np.abs(d) > 1.0 + 1e-12):
        raise ValidationError("diagonal entries must have modulus <= 1")
    J = np.diag(d)
    dom = DomainSpec.unit_ball(len(d))
    return MapSpec(fn=lambda z: d * z, jacobian=lambda z: J, source=dom, target=dom,
                   describe="diag(" + ",".join(f"{x:g}" for x in np.abs(d)) + ")")


def ball_auto_map(anchor) -> MapSpec:
    a = as_vector(anchor)
    if (a * a.conj()).sum().real >= 1.0:      # |a|^2 as mobius_ball measures it
        raise ValidationError("automorphism anchor must be inside the open ball")
    dom = DomainSpec.unit_ball(len(a))
    return MapSpec(fn=lambda z: mobius_ball(a, z),
                   jacobian=lambda z: mobius_ball_jacobian(a, z), source=dom, target=dom,
                   describe="ball_auto", inverse=lambda w: mobius_ball(a, w))


def unitary_map(U) -> MapSpec:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError("unitary matrix must be square")
    if not np.allclose(U.conj().T @ U, np.eye(len(U)), atol=1e-10):
        raise ValidationError("matrix is not unitary")
    dom = DomainSpec.unit_ball(len(U))
    Uh = U.conj().T
    return MapSpec(fn=lambda z: _apply(U, z), jacobian=lambda z: U,
                   source=dom, target=dom, describe="unitary",
                   inverse=lambda w: _apply(Uh, w))


def _apply(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A @ z on the last axis of z: one point or every row, rounded alike."""
    return np.matmul(A, z[..., None])[..., 0]


def constant_map(c, source_n: int) -> MapSpec:
    c = as_vector(c)
    if norm(c) >= 1.0:
        raise ValidationError("constant value must be interior to the target ball")
    m = len(c)
    source_n = spec_count(source_n, "source_n")
    Z = np.zeros((m, source_n), dtype=complex)
    return MapSpec(fn=lambda z: np.broadcast_to(c, z.shape[:-1] + (m,)).copy(),
                   jacobian=lambda z: Z, source=DomainSpec.unit_ball(source_n),
                   target=DomainSpec.unit_ball(m), describe="constant")


def product_map(n: int) -> MapSpec:
    """Coordinate product (z_1 ... z_n): ball of C^n -> disc."""
    dom = DomainSpec.unit_ball(n)
    diagonal = np.eye(dom.n, dtype=bool)
    # row j of the stacked copies has 1 in place of z_j; its product is d/dz_j
    return MapSpec(fn=lambda z: np.prod(z, axis=-1, keepdims=True),
                   jacobian=lambda z: np.prod(np.where(diagonal, 1.0, z[..., None, :]),
                                              axis=-1)[..., None, :],
                   source=dom, target=DomainSpec.disc(), describe=f"product:{dom.n}")


def compose_maps(outer: MapSpec, inner: MapSpec) -> MapSpec:
    if inner.target.n != outer.source.n:
        raise ValidationError("composition dimensions do not match")
    return MapSpec(fn=lambda z: outer.fn(inner.fn(z)),
                   jacobian=lambda z: outer.derivative(inner(z)) @ inner.derivative(z),
                   source=inner.source, target=outer.target,
                   describe=f"{outer.describe} o {inner.describe}")


@malformed_spec("map spec")
def map_from_json(spec) -> MapSpec:
    """Build a registered map from a JSON object / string composition tree.

    Nodes: {"blaschke": {"a": a}}, {"power": k}, {"diag": [d1, ...]},
    {"ball_auto": {"anchor": [[re, im], ...]}}, {"unitary": [[[re,im],...],...]},
    {"identity": n}, {"constant": {"c": [[re, im], ...], "n_source": n}},
    {"product": n}, {"compose": [outer, ..., inner]} (function order).
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if isinstance(spec, MapSpec):
        return spec
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValidationError(f"map spec must be a single-key object, got {spec!r}")
    key, val = next(iter(spec.items()))
    if key == "blaschke":
        a = val["a"]
        a = complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a)
        return blaschke_map(a)
    if key == "power":
        return power_map(val)
    if key == "diag":
        return diag_map([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                         for v in val])
    if key == "ball_auto":
        return ball_auto_map([complex(re, im) for re, im in val["anchor"]])
    if key == "unitary":
        return unitary_map([[complex(re, im) for re, im in row] for row in val])
    if key == "identity":
        return identity_map(val)
    if key == "constant":
        return constant_map([complex(re, im) for re, im in val["c"]], val["n_source"])
    if key == "product":
        return product_map(val)
    if key == "compose":
        maps = [map_from_json(m) for m in val]
        if not maps:
            raise ValidationError("empty composition")
        out = maps[0]
        for m in maps[1:]:
            out = compose_maps(out, m)
        return out
    raise ValidationError(f"unregistered map type: {key!r}")


# -- kernel pullback -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PulledBackKernel:
    """z -> Omega_q(F(z)) on the target together with the pulled-back defining couple.

    ``couple_coeffs`` is the vector c with theta'(v) = <v, c>.  For maps with
    a registered inverse theta' = scale_to_standard * theta_p with theta_p the
    canonical couple at the pole preimage, so multiplying values by
    ``scale_to_standard`` renormalizes the kernel to the canonical couple.
    """

    evaluator: Callable[[np.ndarray], float]
    couple_coeffs: np.ndarray
    pole: np.ndarray
    scale_to_standard: float

    def standard_evaluator(self) -> Callable[[np.ndarray], float]:
        rho = self.scale_to_standard
        ev = self.evaluator
        return lambda z: rho * ev(z)


def pullback_kernel(F: MapSpec, q) -> PulledBackKernel:
    """Pull back a ball kernel with pole q under a map with a registered inverse.

    The target kernel is ``kernel_value(F.target, q, .)``, the kernel of the
    ball B(c, r) at q in the canonical couple theta_q(v) = <v, (q - c)/r>.
    The pulled-back couple is theta'(v) = theta_q(dF_p v) at p = F^{-1}(q); it
    is a positive multiple of the canonical couple at p, and
    ``scale_to_standard`` carries that multiple.
    """
    if not isinstance(F, MapSpec) or F.inverse is None:
        raise ValidationError(f"pullback needs a map with a registered inverse, got {F!r}")
    tgt = F.target
    if not tgt.is_ball_like:
        raise ValidationError("pullback targets a ball")
    q = require_on_boundary(tgt, q)
    p = as_vector(F.inverse(q), F.source.n)
    coeffs = F.derivative(p).conj().T @ _to_unit_ball(tgt.center, tgt.radius, q)
    rho = herm(outward_normal(F.source, p), coeffs)
    if abs(rho.imag) > 1e-9 * abs(rho) or rho.real <= 0:
        raise ValidationError(f"pulled-back couple is not positively oriented: theta'(nu) = {rho}")
    return PulledBackKernel(evaluator=lambda z: kernel_value(tgt, q, F(z)).value,
                            couple_coeffs=coeffs, pole=p, scale_to_standard=float(rho.real))


# -- horoballs -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Horoball:
    """Sublevel set {Omega_p < -1/R} with certified membership tests."""

    pole: np.ndarray
    radius: float
    kernel: Callable[[np.ndarray], KernelValue]

    def contains(self, z) -> int:
        """+1 certified inside, -1 certified outside, 0 undetermined (interval gap)."""
        kv = self.kernel(z)
        return int(_side(kv.lo, kv.hi, -1.0 / self.radius))


def _side(lo, hi, threshold):
    """Membership in {kernel < threshold} from enclosure ends, scalars or arrays.

    +1 certified inside (hi below the threshold), -1 certified outside (lo at
    or above it), 0 undetermined (the enclosure straddles it).
    """
    return np.where(hi < threshold, 1, np.where(lo >= threshold, -1, 0))


# -- dilation estimation ---------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling for dilation estimation."""

    seed: int = 0
    grid_count: int = 400

    def __post_init__(self):
        spec_count(self.seed, "seed", least=0)
        spec_count(self.grid_count, "grid_count")


@dataclass(frozen=True, eq=False)
class JuliaReport:
    """Dilation estimate at (p, q): grid sup and extrapolated normal-ray limit."""

    lambda_estimate: float            # sup over all evaluated samples (lower bound)
    normal_ray_limit: float           # Richardson limit along the inward normal
    target: np.ndarray
    diverged: bool = False
    ray_error: float = float("nan")

    @property
    def finite(self) -> bool:
        return not self.diverged and np.isfinite(self.lambda_estimate)


def _ratio_lower(num_hi, den_lo):
    """Certified lower bound of Omega_p(z)/Omega_q(f(z)) from enclosure ends (both <= 0).

    Takes floats or arrays; +inf where the target end is 0.
    """
    return np.divide(num_hi, den_lo, out=np.full(np.shape(num_hi), np.inf), where=den_lo < 0.0)


def _divide(num, den):
    """num / den on arrays, raising ZeroDivisionError where Python's float / would."""
    if np.any(den == 0.0):
        raise ZeroDivisionError("float division by zero")
    return num / den


def _ray(p: np.ndarray, nu: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The points p - h nu of the inward normal ray, one row per step h."""
    return p - h[:, None] * nu


def _kernel_ratios(mapspec: MapSpec, p, q, Z) -> np.ndarray:
    """``_ratio_lower`` of Omega_p(z)/Omega_q(f(z)) at every row of Z, one array call per kernel.

    Each image point must lie inside the target; a zero target end gives +inf.
    """
    W = mapspec(Z)
    if np.any(mapspec.target.psi_rows(W) >= 0):
        raise ValidationError("map sends a sample outside the target domain")
    return _ratio_lower(kernel_values(mapspec.source, p, Z)[1],
                        kernel_values(mapspec.target, q, W)[0])


def _kernel_ratio_ray(mapspec: MapSpec, p, q, nu, start_level: int, max_level: int):
    """Refine ``_kernel_ratios`` along z = p - h nu, every level in one array call.

    A zero target end reads as divergence.
    """
    return refine_until(lambda h: _kernel_ratios(mapspec, p, q, _ray(p, nu, h)),
                        start_level=start_level, max_level=max_level,
                        divergence_threshold=_DIVERGENCE)


def _interior_samples(domain: DomainSpec, count: int, rng, radius_cap: float) -> np.ndarray:
    """``count`` seeded interior points, as an array, drawn a batch at a time.

    Each batch is one ``sample_ball_rows`` call for exactly the points still
    missing (within a budget of 50 * count draws); the accepted points keep
    their order of drawing.
    """
    radius = radius_cap * domain.bounding_radius()
    budget = 50 * count
    out = []
    got = attempts = 0
    while got < count and attempts < budget:
        k = min(count - got, budget - attempts)
        attempts += k
        Z = domain.interior + sample_ball_rows(rng, k, domain.n, radius)
        Z = Z[domain.psi_rows(Z) < -1e-9]
        out.append(Z)
        got += len(Z)
    if got < count:
        raise NumericalError("interior sampling failed to reach the requested count")
    return np.concatenate(out) if out else np.empty((0, domain.n), dtype=complex)


def lambda_estimate(mapspec: MapSpec, p, q,
                    plan: SamplingPlan = SamplingPlan()) -> JuliaReport:
    """Estimate the dilation sup_z Omega_p(z)/Omega_q(f(z)).

    The grid sup is a certified lower bound for the true sup; the normal-ray
    limit is the Richardson extrapolation of the ratio along z = p - h nu_p.
    A diverging ray (past 1e6 with monotone growth) is reported as infinite.
    """
    src, tgt = mapspec.source, mapspec.target
    p = as_vector(p, src.n)
    q = as_vector(q, tgt.n)
    nu = outward_normal(src, p)
    rng = np.random.default_rng(plan.seed)

    grid = _interior_samples(src, plan.grid_count, rng, _COMPACT_RADIUS)
    sup = float(np.max(_kernel_ratios(mapspec, p, q, grid), initial=0.0))

    seen = []      # the ray's ratios, from refine_until's one call

    def ratios(h):
        seen.append(_kernel_ratios(mapspec, p, q, _ray(p, nu, h)))
        return seen[-1]

    ray = refine_until(ratios, start_level=_RAY_START_LEVEL, max_level=_RAY_MAX_LEVEL,
                       divergence_threshold=_DIVERGENCE)
    if ray.diverged:
        return JuliaReport(lambda_estimate=float("inf"), normal_ray_limit=float("inf"),
                           target=q, diverged=True)
    sup = max(sup, float(np.max(seen[0][:6])))
    return JuliaReport(lambda_estimate=max(sup, ray.real),
                       normal_ray_limit=ray.real,
                       target=q, ray_error=ray.error)


# -- horoball transport -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InclusionViolation:
    point: np.ndarray
    radius: float
    target_value_hi: float
    required: float

    @property
    def margin(self) -> float:
        return self.target_value_hi - self.required


@dataclass(frozen=True)
class InclusionReport:
    radii: Sequence[float]
    checked: int
    violations: List[InclusionViolation]
    undetermined: int
    ray_tightness: Optional[Extrapolation] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _horoball_draws(rng, n: int, R: float, count: int, Q: Optional[np.ndarray]) -> np.ndarray:
    """``count`` direct samples from the horoball of the unit ball at pole Q e1, radius R.

    In coordinates with p = e1 the horoball is the ellipsoid
    (1+R)|w1 - 1/(1+R)|^2 + R ||w'||^2 < R^2/(1+R); ``Q`` is a unitary
    sending e1 to p, or None when p = e1.  The unit-ball draws are one
    ``sample_ball_rows`` batch.
    """
    U = sample_ball_rows(rng, count, n, 1.0)
    W = np.empty_like(U)
    W[:, 0] = 1.0 / (1.0 + R) + (R / (1.0 + R)) * U[:, 0]
    W[:, 1:] = math.sqrt(R / (1.0 + R)) * U[:, 1:]
    return W if Q is None else _apply(Q, W)


def _unitary_from_e1(p: np.ndarray) -> Optional[np.ndarray]:
    """A unitary sending e1 to p (deterministic completion); None when p is e1."""
    n = len(p)
    M = np.eye(n, dtype=complex)
    if norm(p - M[:, 0]) < 1e-15:
        return None
    M[:, 0] = p
    Q, _ = np.linalg.qr(M)
    Q[:, 0] = p
    return Q


def horoball_inclusion_check(mapspec: MapSpec, p, q, lam: float,
                             radii: Sequence[float] = (0.1, 1.0, 10.0),
                             samples_per_radius: int = 500,
                             seed: int = 0) -> InclusionReport:
    """Sample each horoball H(p, R) and certify f(H(p, R)) within H(q, lam R).

    Membership on both sides goes through kernel values; interval kernels
    count indeterminate cases in ``undetermined`` instead of failing them.
    Samples are drawn in batches of the count still missing (one
    ``sample_ball_rows`` call each) and classified as arrays.
    Also reports the tightness ratio along the normal ray:
    mu(h) = image radius / (lam * source radius), which tends to 1 exactly
    when the dilation is attained along the normal.
    """
    lam = positive(lam, "dilation lam")
    positive(radii, "horoball radii", vector=True)
    samples_per_radius = spec_count(samples_per_radius, "samples_per_radius")
    rng = np.random.default_rng(spec_count(seed, "seed", least=0))
    src, tgt = mapspec.source, mapspec.target
    p = as_vector(p, src.n)
    q = as_vector(q, tgt.n)
    violations: List[InclusionViolation] = []
    undetermined = 0
    checked = 0

    if src.is_ball_like:
        inner_center, inner_radius = src.center, src.radius
    else:
        # horoballs of an inscribed tangent ball are certified subsets of the
        # domain's horoballs (the inner kernel dominates from above)
        (inner_center, inner_radius), _ = tangent_balls(src, p)
    Q = _unitary_from_e1(_to_unit_ball(inner_center, inner_radius, p))

    budget = 100 * samples_per_radius
    for R in radii:
        required = -1.0 / (lam * R)
        got = attempts = 0
        while got < samples_per_radius and attempts < budget:
            k = min(samples_per_radius - got, budget - attempts)
            attempts += k
            Z = inner_center + inner_radius * _horoball_draws(
                rng, src.n, R / inner_radius, k, Q)
            side = _side(*kernel_values(src, p, Z), -1.0 / R)
            undetermined += int(np.count_nonzero(side == 0))
            Z = Z[side > 0]
            got += len(Z)
            if not len(Z):
                continue
            lo, hi = kernel_values(tgt, q, mapspec(Z))
            image_side = _side(lo, hi, required)
            undetermined += int(np.count_nonzero(image_side == 0))
            violations.extend(InclusionViolation(point=Z[i], radius=R, required=required,
                                                 target_value_hi=float(hi[i]))
                              for i in np.flatnonzero(image_side < 0))
        checked += got
        if got < samples_per_radius:
            raise NumericalError(f"could not draw {samples_per_radius} horoball samples "
                                 f"at R={R} (got {got})")

    nu = outward_normal(src, p)

    def tightness(h):
        Z = _ray(p, nu, h)
        Rz = _divide(-1.0, kernel_values(src, p, Z)[1])
        return _divide(-1.0, kernel_values(tgt, q, mapspec(Z))[1]) / (lam * Rz)

    ray = refine_until(tightness, start_level=4, max_level=24)
    return InclusionReport(radii=tuple(radii), checked=checked, violations=violations,
                           undetermined=undetermined, ray_tightness=ray)


# -- derivative probes ------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    """Boundedness and limits of the four boundary-derivative probes.

    probe 1: normal-to-normal derivative (limit = dilation),
    probe 2: sqrt-weighted normal-to-tangential defect (limit 0),
    probe 3: inverse-sqrt-weighted tangential-to-normal derivative (limit 0),
    probe 4: tangential-to-tangential defect (bounded).
    """

    probe_max: dict
    probe1_limit: complex
    probe1_error: float
    probe2_limit: float
    probe3_limit: float
    probe2_tail: float
    probe3_tail: float
    levels: int


def jwc_derivative_probes(mapspec: MapSpec, p, q) -> ProbeReport:
    """Evaluate the four derivative probes along cone directions at p.

    The source and target must be balls B(c, r), so that in the unit-ball
    coordinates (z - c)/r the geodesic projections at p and q are the linear
    ones rho_tilde(z) = <z, p>, rho(w) = <w, q> q.  The cone points of every
    level are one array: one ``psi_rows`` and one ``derivative`` call, and
    the probes are array reductions.  Refuses to run when the normal-ray
    dilation diverges.
    """
    src, tgt = mapspec.source, mapspec.target
    if not (src.is_ball_like and tgt.is_ball_like):
        raise ValidationError("derivative probes require disc/ball source and target")
    p = as_vector(p, src.n)
    q = as_vector(q, tgt.n)
    nu = outward_normal(src, p)

    probe_ray = _kernel_ratio_ray(mapspec, p, q, nu, start_level=6, max_level=23)
    if probe_ray.diverged:
        raise ValidationError("boundary dilation diverges along the normal ray; probes refused")

    # the normal, then nu + eps tau for each complex tangent tau and each eps
    tangents = boundary_frame(src, p).tangent_basis
    eps = np.array([_APERTURE, -_APERTURE, 1j * _APERTURE, -1j * _APERTURE])
    cone = (nu + eps[:, None] * tangents[:, None, :]).reshape(-1, src.n)
    directions = np.vstack([nu, cone / row_norms(cone)[:, None]])
    h = 2.0 ** -np.arange(_PROBE_START_LEVEL, _PROBE_MAX_LEVEL + 1)
    Z = p - h[:, None, None] * directions            # (level, direction, n)
    inside = src.psi_rows(Z.reshape(-1, src.n)).reshape(Z.shape[:2]) < 0
    Z = Z[inside]
    central = np.broadcast_to(np.arange(len(directions)) == 0, inside.shape)[inside]

    # J v for v = nu, tau_1, ... (one matrix-vector product each, as for one
    # point), split along q: <J v, q> and the norm of J v - <J v, q> q
    JV = _apply(mapspec.derivative(Z)[:, None], np.vstack([nu, tangents]))
    q1 = _to_unit_ball(tgt.center, tgt.radius, q)
    along = (JV * q1.conj()).sum(axis=-1)
    across = row_norms((JV - along[..., None] * q1).reshape(-1, tgt.n)).reshape(along.shape)
    p1, Z1 = (_to_unit_ball(src.center, src.radius, x) for x in (p, Z))
    root_s = np.sqrt(np.abs(1.0 - (Z1 * p1.conj()).sum(axis=-1)))     # sqrt |1 - <z, p>|
    probes = [along[:, 0], root_s * across[:, 0],
              np.max(np.abs(along[:, 1:]), axis=1, initial=0.0) / root_s,
              np.max(across[:, 1:], axis=1, initial=0.0)]
    probe_max = {i: float(np.max(np.abs(v), initial=0.0)) for i, v in enumerate(probes, 1)}

    r1, r2, r3 = (v[central] for v in probes[:3])
    ext1 = richardson(r1)
    ext2 = richardson(r2, orders=np.arange(1, len(r2)) * 0.5)
    ext3 = richardson(r3, orders=np.arange(1, len(r3)) * 0.5)
    return ProbeReport(probe_max=probe_max,
                       probe1_limit=ext1.limit, probe1_error=ext1.error,
                       probe2_limit=abs(ext2.limit), probe3_limit=abs(ext3.limit),
                       probe2_tail=float(r2[-1]), probe3_tail=float(r3[-1]), levels=len(r1))


# -- equivalence of the three finiteness conditions --------------------------------

@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Joint evaluation of the three boundary finiteness conditions."""

    lambda_value: float               # condition 1 (normal-ray dilation)
    kobayashi_liminf: float           # condition 2
    distance_ratio_liminf: float      # condition 3
    target: Optional[np.ndarray]
    all_finite: bool
    all_infinite: bool

    @property
    def consistent(self) -> bool:
        return self.all_finite or self.all_infinite


def _classify(ext: Extrapolation):
    """Value and finiteness verdict from a ray extrapolation.

    A ray whose extrapolation error fails to settle (relative to the value)
    is classified as divergent; this catches the logarithmically growing
    Kobayashi defect, which never trips a magnitude threshold.
    """
    if ext.diverged or not np.isfinite(ext.real) or ext.error > _SETTLED * (1.0 + abs(ext.real)):
        return float("inf"), False
    return ext.real, True


def condition_equivalence_check(mapspec: MapSpec, p) -> EquivalenceReport:
    """Evaluate dilation, Kobayashi defect and distance ratio along the normal ray.

    Source and target must be balls.  The Kobayashi defect is measured from
    their reference interior points.  The target boundary point q is
    detected from the ray images, to O(h^2) at h = 2^-24; when they stay away
    from the target boundary all three conditions are reported infinite.
    """
    src, tgt = mapspec.source, mapspec.target
    if not (src.is_ball_like and tgt.is_ball_like):
        raise ValidationError("finiteness conditions require ball source and target")
    p = as_vector(p, src.n)
    nu = outward_normal(src, p)

    # target boundary point: the deep ray images' nearest boundary points at 2h and h
    # are O(h) from f(p), one Richardson step on them O(h^2)
    far, near = mapspec(_ray(p, nu, np.ldexp(1.0, [1 - _EQUIV_MAX_LEVEL, -_EQUIV_MAX_LEVEL])))
    q = None if abs(signed_boundary_distance(tgt, near)) >= 1e-4 else nearest_boundary_point(
        tgt, 2.0 * nearest_boundary_point(tgt, near) - nearest_boundary_point(tgt, far))

    def distance_ratios(h):     # condition 3; balls' signed distances |z - c| - r
        Z = _ray(p, nu, h)
        return _divide(np.abs(row_norms(mapspec(Z) - tgt.center) - tgt.radius),
                       np.abs(row_norms(Z - src.center) - src.radius))

    def kobayashi_defects(h):   # condition 2
        Z = _ray(p, nu, h)
        return kobayashi(src, src.interior, Z) - kobayashi(tgt, mapspec(Z), tgt.interior)

    ratio3 = refine_until(distance_ratios, start_level=_EQUIV_START_LEVEL,
                          max_level=_EQUIV_MAX_LEVEL, divergence_threshold=_DIVERGENCE)
    cond2 = refine_until(kobayashi_defects, start_level=_EQUIV_START_LEVEL,
                         max_level=_EQUIV_MAX_LEVEL)

    # condition 1: kernel ratio toward the detected q
    if q is None:
        v1, fin1 = float("inf"), False
    else:
        cond1 = _kernel_ratio_ray(mapspec, p, q, nu, _EQUIV_START_LEVEL, _EQUIV_MAX_LEVEL)
        v1, fin1 = _classify(cond1)

    v3, fin3 = _classify(ratio3)
    v2, fin2 = _classify(cond2)
    finite = [fin1, fin2, fin3]
    return EquivalenceReport(lambda_value=v1, kobayashi_liminf=v2, distance_ratio_liminf=v3,
                             target=q, all_finite=all(finite), all_infinite=not any(finite))
