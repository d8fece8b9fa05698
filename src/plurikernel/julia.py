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
pull back the unit-ball kernel, together with the induced defining couple
(``pullback_kernel``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import bounds as _bounds
from .domains import (
    DomainKind,
    DomainSpec,
    outward_normal,
    require_on_boundary,
    signed_boundary_distance,
)
from .errors import NumericalError, ValidationError, malformed_spec
from .extrapolate import Extrapolation, refine_until, richardson
from .kernels import (
    KernelValue,
    kobayashi,
    mobius_ball,
    mobius_ball_jacobian,
    omega_ball_value,
)
from .utils import as_vector, herm, norm, sample_ball

_DIVERGENCE = 1e6


# -- registered holomorphic maps ----------------------------------------------

@dataclass(frozen=True, eq=False)
class MapSpec:
    """A holomorphic map between disc/ball domains with derivative access.

    ``derivative(z)`` returns the complex Jacobian matrix J with
    (df_z(v))_i = sum_j J_ij v_j.  ``inverse`` is set for biholomorphisms
    whose inverse is registered; ``pullback_kernel`` requires it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    source: DomainSpec
    target: DomainSpec
    describe: str = "map"
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, z) -> np.ndarray:
        return as_vector(self.fn(as_vector(z, self.source.n)), self.target.n)

    def derivative(self, z) -> np.ndarray:
        J = np.asarray(self.jacobian(as_vector(z, self.source.n)), dtype=complex)
        if J.shape != (self.target.n, self.source.n):
            raise ValidationError(f"jacobian shape {J.shape} does not match map dimensions")
        return J


def _ball_domain(n: int) -> DomainSpec:
    return DomainSpec.disc() if n == 1 else DomainSpec.unit_ball(n)


def identity_map(n: int) -> MapSpec:
    eye = np.eye(n, dtype=complex)
    dom = _ball_domain(n)
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
        fn=lambda z: np.array([(z[0] + a) / (1 + np.conj(a) * z[0])]),
        jacobian=lambda z: np.array([[(1 - abs(a) ** 2) / (1 + np.conj(a) * z[0]) ** 2]]),
        source=dom, target=dom, describe=f"blaschke(a={a})")


def power_map(k: int) -> MapSpec:
    if k < 1:
        raise ValidationError("power must be a positive integer")
    dom = DomainSpec.disc()
    return MapSpec(fn=lambda z: np.array([z[0] ** k]),
                   jacobian=lambda z: np.array([[k * z[0] ** (k - 1)]]),
                   source=dom, target=dom, describe=f"power:{k}")


def diag_map(coeffs) -> MapSpec:
    d = np.asarray(coeffs, dtype=complex)
    if np.any(np.abs(d) > 1.0 + 1e-12):
        raise ValidationError("diagonal entries must have modulus <= 1")
    J = np.diag(d)
    n = len(d)
    return MapSpec(fn=lambda z: d * z, jacobian=lambda z: J,
                   source=_ball_domain(n), target=_ball_domain(n),
                   describe="diag(" + ",".join(f"{x:g}" for x in np.abs(d)) + ")")


def ball_auto_map(anchor) -> MapSpec:
    a = as_vector(anchor)
    n = len(a)
    return MapSpec(fn=lambda z: mobius_ball(a, z),
                   jacobian=lambda z: mobius_ball_jacobian(a, z),
                   source=_ball_domain(n), target=_ball_domain(n),
                   describe="ball_auto", inverse=lambda w: mobius_ball(a, w))


def unitary_map(U) -> MapSpec:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError("unitary matrix must be square")
    if not np.allclose(U.conj().T @ U, np.eye(len(U)), atol=1e-10):
        raise ValidationError("matrix is not unitary")
    n = len(U)
    Uh = U.conj().T
    return MapSpec(fn=lambda z: U @ z, jacobian=lambda z: U,
                   source=_ball_domain(n), target=_ball_domain(n), describe="unitary",
                   inverse=lambda w: Uh @ w)


def constant_map(c, source_n: int) -> MapSpec:
    c = as_vector(c)
    if norm(c) >= 1.0:
        raise ValidationError("constant value must be interior to the target ball")
    m = len(c)
    Z = np.zeros((m, source_n), dtype=complex)
    return MapSpec(fn=lambda z: c.copy(), jacobian=lambda z: Z,
                   source=_ball_domain(source_n), target=_ball_domain(m),
                   describe="constant")


def product_map(n: int) -> MapSpec:
    """Coordinate product (z_1 ... z_n): ball of C^n -> disc."""
    if n < 1:
        raise ValidationError("dimension must be positive")

    def jac(z):
        rows = np.empty((1, n), dtype=complex)
        for j in range(n):
            rows[0, j] = np.prod(np.delete(z, j)) if n > 1 else 1.0
        return rows

    return MapSpec(fn=lambda z: np.array([np.prod(z)]), jacobian=jac,
                   source=_ball_domain(n), target=DomainSpec.disc(),
                   describe=f"product:{n}")


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
        return power_map(int(val))
    if key == "diag":
        return diag_map([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                         for v in val])
    if key == "ball_auto":
        return ball_auto_map([complex(re, im) for re, im in val["anchor"]])
    if key == "unitary":
        return unitary_map([[complex(re, im) for re, im in row] for row in val])
    if key == "identity":
        return identity_map(int(val))
    if key == "constant":
        return constant_map([complex(re, im) for re, im in val["c"]],
                            int(val["n_source"]))
    if key == "product":
        return product_map(int(val))
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
    """z -> Omega_{B, q}(F(z)) together with the pulled-back defining couple.

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
    """Pull back the unit-ball kernel with pole q under a map with a registered inverse.

    The target kernel is the unit-ball kernel at q in the canonical couple.
    The pulled-back couple is theta'(v) = theta_q(dF_p v) at p = F^{-1}(q); it
    is a positive multiple of the canonical couple at p, and
    ``scale_to_standard`` carries that multiple.
    """
    if not isinstance(F, MapSpec) or F.inverse is None:
        raise ValidationError(f"pullback needs a map with a registered inverse, got {F!r}")
    if F.target.kind not in (DomainKind.DISC, DomainKind.UNIT_BALL):
        raise ValidationError("pullback targets the unit ball")
    q = require_on_boundary(F.target, q)
    n = F.target.n
    p = as_vector(F.inverse(q), F.source.n)
    coeffs = F.derivative(p).conj().T @ q
    rho = herm(outward_normal(F.source, p), coeffs)
    if abs(rho.imag) > 1e-9 * abs(rho) or rho.real <= 0:
        raise ValidationError(f"pulled-back couple is not positively oriented: theta'(nu) = {rho}")
    return PulledBackKernel(evaluator=lambda z: omega_ball_value(n, q, F(z)),
                            couple_coeffs=coeffs,
                            pole=p,
                            scale_to_standard=float(rho.real))


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
        threshold = -1.0 / self.radius
        if kv.pole_hit:
            return 1
        if kv.hi < threshold:
            return 1
        if kv.lo >= threshold:
            return -1
        return 0


def domain_kernel(domain: DomainSpec, p) -> Callable[[np.ndarray], KernelValue]:
    """Kernel evaluator of a domain at pole p (closed form or certified interval)."""
    p = as_vector(p, domain.n)
    return lambda z: _bounds.kernel_value(domain, p, z)


# -- dilation estimation ---------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling for dilation estimation."""

    seed: int = 0
    grid_count: int = 400
    ray_start_level: int = 3
    ray_max_level: int = 26
    compact_radius: float = 0.9   # exhaustion radius for the grid


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


def _ratio_lower(kv_num: KernelValue, kv_den: KernelValue) -> float:
    """Certified lower bound of Omega_p(z)/Omega_q(f(z)) from enclosures (both <= 0)."""
    if kv_num.pole_hit or kv_den.pole_hit:
        raise NumericalError("kernel pole hit while sampling the ratio")
    if kv_den.lo >= 0.0:
        return float("inf")
    return kv_num.hi / kv_den.lo


def _interior_samples(domain: DomainSpec, count: int, rng, radius_cap: float):
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        z = sample_ball(rng, domain.n, radius_cap * domain.bounding_radius())
        z = domain.interior + z
        if domain.psi(z) < -1e-9:
            out.append(z)
    if len(out) < count:
        raise NumericalError("interior sampling failed to reach the requested count")
    return out


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
    kern_p = domain_kernel(src, p)
    kern_q = domain_kernel(tgt, q)
    nu = outward_normal(src, p)
    rng = np.random.default_rng(plan.seed)

    def ratio_at(z) -> float:
        w = mapspec(z)
        if tgt.psi(w) >= 0:
            raise ValidationError("map sends a sample outside the target domain")
        return _ratio_lower(kern_p(z), kern_q(w))

    sup = 0.0
    for z in _interior_samples(src, plan.grid_count, rng, plan.compact_radius):
        sup = max(sup, ratio_at(z))

    ray = refine_until(lambda h: ratio_at(p - h * nu),
                       start_level=plan.ray_start_level,
                       max_level=plan.ray_max_level,
                       divergence_threshold=_DIVERGENCE)
    if ray.diverged:
        return JuliaReport(lambda_estimate=float("inf"), normal_ray_limit=float("inf"),
                           target=q, diverged=True)
    ray_vals = [ratio_at(p - 2.0 ** (-k) * nu)
                for k in range(plan.ray_start_level, plan.ray_start_level + 6)]
    sup = max(sup, max(ray_vals))
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


def _sample_horoball_ball(rng, n: int, p: np.ndarray, R: float) -> np.ndarray:
    """Direct sample from the horoball of the unit ball at pole p, radius R.

    In coordinates with p = e1 the horoball is the ellipsoid
    (1+R)|w1 - 1/(1+R)|^2 + R ||w'||^2 < R^2/(1+R).
    """
    u = sample_ball(rng, n, 1.0)
    c = 1.0 / (1.0 + R)
    w = np.empty(n, dtype=complex)
    w[0] = c + (R / (1.0 + R)) * u[0]
    if n > 1:
        w[1:] = math.sqrt(R / (1.0 + R)) * u[1:]
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    if norm(p - e1) < 1e-15:
        return w
    return _unitary_from_e1(p) @ w


def _unitary_from_e1(p: np.ndarray) -> np.ndarray:
    """A unitary sending e1 to p (deterministic completion)."""
    n = len(p)
    M = np.eye(n, dtype=complex)
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
    Also reports the tightness ratio along the normal ray:
    mu(h) = image radius / (lam * source radius), which tends to 1 exactly
    when the dilation is attained along the normal.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValidationError("inclusion check requires a finite positive dilation")
    src, tgt = mapspec.source, mapspec.target
    p = as_vector(p, src.n)
    q = as_vector(q, tgt.n)
    kern_p = domain_kernel(src, p)
    kern_q = domain_kernel(tgt, q)
    rng = np.random.default_rng(seed)
    violations: List[InclusionViolation] = []
    undetermined = 0
    checked = 0

    if src.is_ball_like:
        inner_center, inner_radius = src.ball_center, src.ball_radius
    else:
        # horoballs of an inscribed tangent ball are certified subsets of the
        # domain's horoballs (the inner kernel dominates from above)
        (inner_center, inner_radius), _ = _bounds.tangent_balls(src, p)

    for R in radii:
        ball = Horoball(pole=p, radius=R, kernel=kern_p)
        got = 0
        attempts = 0
        while got < samples_per_radius and attempts < 100 * samples_per_radius:
            attempts += 1
            z = inner_center + inner_radius * _sample_horoball_ball(
                rng, src.n, (p - inner_center) / inner_radius, R / inner_radius)
            side = ball.contains(z)
            if side == 0:
                undetermined += 1
                continue
            if side < 0:
                continue
            got += 1
            checked += 1
            kv = kern_q(mapspec(z))
            required = -1.0 / (lam * R)
            if kv.pole_hit:
                continue
            if kv.hi < required:
                continue
            if kv.lo >= required:
                violations.append(InclusionViolation(point=z, radius=R,
                                                     target_value_hi=kv.hi,
                                                     required=required))
            else:
                undetermined += 1
        if got < samples_per_radius:
            raise NumericalError(f"could not draw {samples_per_radius} horoball samples "
                                 f"at R={R} (got {got})")

    nu = outward_normal(src, p)

    def tightness(h):
        z = p - h * nu
        Rz = -1.0 / kern_p(z).hi
        val = kern_q(mapspec(z))
        return (-1.0 / val.hi) / (lam * Rz)

    ray = refine_until(tightness, start_level=4, max_level=24)
    return InclusionReport(radii=tuple(radii), checked=checked,
                           violations=violations, undetermined=undetermined,
                           ray_tightness=ray)


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


def jwc_derivative_probes(mapspec: MapSpec, p, q, aperture: float = 0.25,
                          start_level: int = 3, max_level: int = 20) -> ProbeReport:
    """Evaluate the four derivative probes along cone directions at p.

    The source and target must be disc/ball kinds so the geodesic projections
    at p and q are the linear ones rho_tilde(z) = <z, p>, rho(w) = <w, q> q.
    Refuses to run when the normal-ray dilation diverges.
    """
    src, tgt = mapspec.source, mapspec.target
    if not (src.is_ball_like and tgt.is_ball_like):
        raise ValidationError("derivative probes require disc/ball source and target")
    p = as_vector(p, src.n)
    q = as_vector(q, tgt.n)
    kern_p = domain_kernel(src, p)
    kern_q = domain_kernel(tgt, q)
    nu = outward_normal(src, p)

    probe_ray = refine_until(
        lambda h: kern_p(p - h * nu).hi / kern_q(mapspec(p - h * nu)).lo,
        start_level=6, max_level=23, divergence_threshold=_DIVERGENCE)
    if probe_ray.diverged:
        raise ValidationError(
            "boundary dilation diverges along the normal ray; probes refused")

    # tangent directions at p (complex orthogonal complement of nu)
    from .domains import boundary_frame

    frame = boundary_frame(src, p)
    tangents = list(frame.tangent_basis)
    directions = [nu]
    for tau in tangents:
        for eps in (aperture, -aperture, 1j * aperture, -1j * aperture):
            d = nu + eps * tau
            directions.append(d / norm(d))

    def probes_at(z):
        J = mapspec.derivative(z)
        dv = J @ nu
        r1 = herm(dv, q)
        defect_v = dv - r1 * q
        s = abs(1.0 - herm(z, p))
        vals = {1: r1, 2: math.sqrt(s) * norm(defect_v)}
        if tangents:
            worst3 = 0.0
            worst4 = 0.0
            for tau in tangents:
                dt = J @ tau
                worst3 = max(worst3, abs(herm(dt, q)))
                worst4 = max(worst4, norm(dt - herm(dt, q) * q))
            vals[3] = worst3 / math.sqrt(s)
            vals[4] = worst4
        else:
            vals[3] = 0.0
            vals[4] = 0.0
        return vals

    probe_max = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    central = {1: [], 2: [], 3: []}
    tail2 = tail3 = 0.0
    levels = 0
    for k in range(start_level, max_level + 1):
        h = 2.0 ** (-k)
        for idx, d in enumerate(directions):
            z = p - h * d
            if src.psi(z) >= 0:
                continue
            vals = probes_at(z)
            for i in range(1, 5):
                probe_max[i] = max(probe_max[i], abs(vals[i]))
            if idx == 0:
                central[1].append(vals[1])
                central[2].append(abs(vals[2]))
                central[3].append(abs(vals[3]))
                tail2, tail3 = abs(vals[2]), abs(vals[3])
                levels += 1
    ext1 = richardson(central[1])
    ext2 = richardson(central[2], orders=np.arange(1, len(central[2])) * 0.5)
    ext3 = richardson(central[3], orders=np.arange(1, len(central[3])) * 0.5)
    return ProbeReport(probe_max=probe_max,
                       probe1_limit=ext1.limit, probe1_error=ext1.error,
                       probe2_limit=abs(ext2.limit), probe3_limit=abs(ext3.limit),
                       probe2_tail=tail2, probe3_tail=tail3, levels=levels)


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


def _classify(ext: Extrapolation, tol: float = 1e-3):
    """Value and finiteness verdict from a ray extrapolation.

    A ray whose extrapolation error fails to settle (relative to the value)
    is classified as divergent; this catches the logarithmically growing
    Kobayashi defect, which never trips a magnitude threshold.
    """
    if ext.diverged or not np.isfinite(ext.real):
        return float("inf"), False
    if ext.error > tol * (1.0 + abs(ext.real)):
        return float("inf"), False
    return ext.real, True


def condition_equivalence_check(mapspec: MapSpec, p, z0=None, z0_target=None,
                                start_level: int = 3,
                                max_level: int = 24) -> EquivalenceReport:
    """Evaluate dilation, Kobayashi defect and distance ratio along the normal ray.

    The target boundary point q is detected from the ray image; when the
    image stays away from the target boundary all three conditions are
    reported infinite.
    """
    src, tgt = mapspec.source, mapspec.target
    p = as_vector(p, src.n)
    nu = outward_normal(src, p)
    z0 = src.interior if z0 is None else as_vector(z0, src.n)
    z0t = tgt.interior if z0_target is None else as_vector(z0_target, tgt.n)

    # candidate target boundary point from the deep ray image
    w_deep = mapspec(p - 2.0 ** (-max_level) * nu)
    dist_deep = abs(signed_boundary_distance(tgt, w_deep))
    q = None
    if dist_deep < 1e-4:
        wc = (w_deep - tgt.ball_center)
        q = tgt.ball_center + tgt.ball_radius * wc / norm(wc)

    # condition 3: boundary distance ratio
    ratio3 = refine_until(
        lambda h: abs(signed_boundary_distance(tgt, mapspec(p - h * nu)))
        / abs(signed_boundary_distance(src, p - h * nu)),
        start_level=start_level, max_level=max_level,
        divergence_threshold=_DIVERGENCE)

    # condition 2: Kobayashi distance defect
    cond2 = refine_until(
        lambda h: kobayashi(src, z0, p - h * nu)
        - kobayashi(tgt, mapspec(p - h * nu), z0t),
        start_level=start_level, max_level=max_level)

    # condition 1: kernel ratio toward the detected q
    if q is None:
        v1, fin1 = float("inf"), False
    else:
        kern_p = domain_kernel(src, p)
        kern_q = domain_kernel(tgt, q)
        cond1 = refine_until(
            lambda h: kern_p(p - h * nu).hi / kern_q(mapspec(p - h * nu)).lo,
            start_level=start_level, max_level=max_level,
            divergence_threshold=_DIVERGENCE)
        v1, fin1 = _classify(cond1)

    v3, fin3 = _classify(ratio3)
    v2, fin2 = _classify(cond2)
    finite = [fin1, fin2, fin3]
    return EquivalenceReport(lambda_value=v1,
                             kobayashi_liminf=v2,
                             distance_ratio_liminf=v3,
                             target=q,
                             all_finite=all(finite),
                             all_infinite=not any(finite))
