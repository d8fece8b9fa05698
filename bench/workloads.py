"""The four workloads: seeded inputs, the calls into the program, their checks.

``plan(seed)`` draws every input with numpy alone; ``build(P, plan)`` turns
the plan into program objects (domains, poles, maps, compiled fields,
quadrature rules) and into cases.  A case holds operations, each a
zero-argument call into the program that returns a tuple of numbers, and a
check that reads those outputs against references from ``reference``.

The operations look the program's functions up on ``P`` (the plurikernel
package) or its modules at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
KERNEL_RTOL = 1e-10          # closed-form kernels, all points used here
DILATION_RTOL = 1e-8         # derivative probe limits of registered maps
RAY_RTOL = 1e-6              # Richardson ray limits, and the sup estimates that take them
GREEN_RTOL = 1e-5            # Aitken-accelerated first-order quotients: ~1e-8, tail to 2.3e-7
REPRODUCE_ATOL = 1e-9        # reproducing formula at the resolutions used here


@dataclass
class Case:
    label: str
    ops: list                          # [(kind, zero-argument call)]
    check: Callable                    # (Checker, outputs) -> None
    expect_fail: str | None = None     # exception class accepted as the known fault


# -- seeded geometry, numpy only ----------------------------------------------

def unit_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def in_unit_ball(rng, n, radius=1.0):
    """Uniform point in the ball of C^n; same draws as plurikernel.utils.sample_ball."""
    return unit_vector(rng, n) * radius * rng.random() ** (1.0 / (2 * n))


def tangent_unit(rng, nu):
    """Random unit vector Hermitian-orthogonal to nu."""
    v = unit_vector(rng, len(nu))
    v = v - np.vdot(nu, v) * nu
    return v / np.linalg.norm(v)


class Ball:
    def __init__(self, center, radius):
        self.c = np.asarray(center, dtype=complex)
        self.r = float(radius)
        self.n = len(self.c)

    def psi(self, z):
        return float(np.sum(np.abs(z - self.c) ** 2)) - self.r ** 2

    def boundary(self, v):
        return self.c + self.r * v / np.linalg.norm(v)

    def normal(self, p):
        return (p - self.c) / self.r

    def interior(self, u):
        return self.c + self.r * u


class Ellipsoid:
    def __init__(self, coeffs):
        self.a = np.asarray(coeffs, dtype=float)
        self.n = len(self.a)
        self.c = np.zeros(self.n, complex)

    def psi(self, z):
        return float(np.sum(self.a * np.abs(z) ** 2)) - 1.0

    def boundary(self, v):
        return v / math.sqrt(float(np.sum(self.a * np.abs(v) ** 2)))

    def normal(self, p):
        g = self.a * p
        return g / np.linalg.norm(g)

    def interior(self, u):
        return u / np.sqrt(self.a)


def approach_points(rng, geo, p, levels):
    """Points p - t d with t = 2^-k, d a seeded non-tangential direction at p."""
    nu = geo.normal(p)
    out = []
    for k in levels:
        t = 2.0 ** (-k)
        if geo.n == 1:      # the disc: turn the normal by up to 0.5 rad
            d = nu * np.exp(1j * (rng.random() - 0.5))
        else:
            s = 0.5 * rng.random() * np.exp(1j * TWO_PI * rng.random())
            d = nu + s * tangent_unit(rng, nu)
            d = d / np.linalg.norm(d)
        z = p - t * d
        if geo.psi(z) >= -1e-14:
            z = p - t * nu
        out.append(z)
    return out


# -- kernel_field -------------------------------------------------------------

KF_DOMAINS = [
    # (label, JSON spec for domain_from_json, numpy geometry, reference ball or None)
    ("unit_ball:2", "unit_ball:2", Ball([0, 0], 1.0), ([0, 0], 1.0)),
    ("ball", {"kind": "ball", "center": [[0.2, 0.1], [-0.3, 0.0]], "radius": 1.5},
     Ball([0.2 + 0.1j, -0.3], 1.5), ([0.2 + 0.1j, -0.3], 1.5)),
    ("ellipsoid:1,2", "ellipsoid:1,2", Ellipsoid([1, 2]), None),
    ("ellipsoid:1,2,3", "ellipsoid:1,2,3", Ellipsoid([1, 2, 3]), None),
    ("ellipsoid:2,2", "ellipsoid:2,2", Ellipsoid([2, 2]), ([0, 0], math.sqrt(0.5))),
]
# ellipsoid:2,2 is the ball of radius 1/sqrt(2) written as an ellipsoid.  Its
# two tangent balls coincide, and where |kernel| is large the program's
# enclosure comes out with lo above hi by more than KernelValue's absolute
# 1e-12 slack, so kernel_value and sandwich_bounds raise ValidationError (a
# known fault).  Which points hit it depends on the points, so this domain's
# inputs come from a fixed generator, not the workload seed: the same
# operations fail in every run, and they count as failed.
FIXED_INPUTS = {"ellipsoid:2,2": 0}      # label -> seed of its fixed generator
KNOWN_FAULT = "ValidationError"
KF_POLES = 2
KF_UNIFORM, KF_NEAR, KF_APPROACH = 16, 12, 12
KF_UBC_POLES, KF_UBC_POINTS = 12, 4


def plan_kernel_field(rng):
    plan = []
    for label, spec, geo, ref_ball in KF_DOMAINS:
        g = np.random.default_rng(FIXED_INPUTS[label]) if label in FIXED_INPUTS else rng
        poles = []
        for _ in range(KF_POLES):
            p = geo.boundary(unit_vector(g, geo.n))
            pts = [geo.interior(in_unit_ball(g, geo.n, 0.95)) for _ in range(KF_UNIFORM)]
            for _ in range(KF_NEAR):
                b = geo.boundary(unit_vector(g, geo.n))
                delta = 10.0 ** g.uniform(-4.0, -2.0)
                pts.append(geo.c + (1.0 - delta) * (b - geo.c))
            pts += approach_points(g, geo, p, range(2, 2 + KF_APPROACH))
            poles.append((p, pts))
        ubc_poles = [geo.boundary(unit_vector(g, geo.n)) for _ in range(KF_UBC_POLES)]
        ubc_points = [geo.interior(in_unit_ball(g, geo.n, 0.9)) for _ in range(KF_UBC_POINTS)]
        plan.append(dict(label=label, spec=spec, geo=geo, ref_ball=ref_ball, poles=poles,
                         ubc=(ubc_poles, ubc_points)))
    return plan


def build_kernel_field(P, plan):
    cases = []
    for d in plan:
        dom = P.domain_from_json(d["spec"])
        for p, pts in d["poles"]:
            cands = [P.peak_candidate(dom, p), P.ball_restriction_candidate(dom, p)]
            for z in pts:
                cases.append(Case(
                    label=f"{d['label']} kernel",
                    ops=[("kernel_value", _kv(P.bounds, "kernel_value", dom, p, z)),
                         ("sandwich_bounds", _kv(P.bounds, "sandwich_bounds", dom, p, z)),
                         ("lower_envelope",
                          lambda dom=dom, p=p, z=z, c=cands: (P.bounds.lower_envelope(dom, p, z, c),))],
                    check=_check_kernel_point(d, p, z),
                    expect_fail=KNOWN_FAULT if d["label"] in FIXED_INPUTS else None))
        ubc_poles, ubc_points = d["ubc"]
        cases.append(Case(
            label=f"{d['label']} uniform_bound_check",
            ops=[("uniform_bound_check", lambda dom=dom, zs=ubc_points, ps=ubc_poles: (
                P.bounds.uniform_bound_check(dom, zs, ps),))],
            check=_check_uniform_bound(d["geo"], ubc_poles, ubc_points)))
    return cases


def _kv(module, name, dom, p, z):
    def op():
        kv = getattr(module, name)(dom, p, z)
        return (kv.lo, kv.hi)
    return op


def _check_kernel_point(d, p, z):
    def check(ck, out):
        (k_lo, k_hi), (s_lo, s_hi), (env,) = out
        what = f"{d['label']} pole {p} point {z}"
        for name, lo, hi in (("kernel_value", k_lo, k_hi), ("sandwich_bounds", s_lo, s_hi)):
            ck.holds(f"{what}: {name} enclosure [{lo}, {hi}] not lo <= hi <= 0", lo <= hi <= 0.0)
        # the program does not round outward, so near the pole the envelope may
        # pass hi by round-off; allow what the kernel check allows
        ck.holds(f"{what}: lower_envelope {env} above hi {k_hi}",
                 env <= k_hi + KERNEL_RTOL * abs(k_hi))
        if d["ref_ball"] is None:
            # the circumscribed-ball member is both the envelope's and the sandwich's lower end
            ck.holds(f"{what}: lower_envelope {env} below lo {k_lo}",
                     env >= k_lo - 1e-12 * abs(k_lo))
            return
        ref = ck.R.ball_kernel(*d["ref_ball"], p, z)
        for name, v in (("kernel_value lo", k_lo), ("kernel_value hi", k_hi),
                        ("sandwich lo", s_lo), ("sandwich hi", s_hi), ("lower_envelope", env)):
            ck.close(f"{what}: {name}", v, ref, KERNEL_RTOL)
    return check


def _check_uniform_bound(geo, poles, points):
    def check(ck, out):
        ((worst,),) = out
        R = ck.R
        ref = max(abs(R.peak_value(R.vec(geo.normal(p)), p, z)) for p in poles for z in points)
        ck.close("uniform_bound_check", worst, ref, KERNEL_RTOL)
    return check


# -- boundary_rays ------------------------------------------------------------

def _mobius(a, w):
    """The involutive ball automorphism phi_a(w), written out in numpy."""
    a2 = float(np.vdot(a, a).real)
    s = math.sqrt(1.0 - a2)
    proj = (np.vdot(a, w) / a2) * a
    return (a - proj - s * (w - proj)) / (1.0 - np.vdot(a, w))


# The maps are fixed: how much work the Julia estimators do depends on the
# map, and a seeded map would make ops_per_s follow the seed.
BLASCHKE_A, POWER_K = 0.4, 3
AUTO_ANCHOR = np.array([0.3 + 0.1j, -0.2 + 0.15j])
AUTO_POLE = np.array([0.6, 0.8j])
DIAG_D = 0.5 + 0.3j
COMPOSE_A, COMPOSE_K = 0.3, 2


def plan_boundary_rays(rng):
    one = np.array([1.0 + 0j])
    e1 = np.array([1.0 + 0j, 0.0])
    maps = [
        # (label, JSON map spec, p, q, dilation reference as (kind, args))
        ("blaschke", {"blaschke": {"a": BLASCHKE_A}}, one, one, ("blaschke", BLASCHKE_A)),
        ("power", {"power": POWER_K}, one, one, ("const", POWER_K)),
        ("ball_auto", {"ball_auto": {"anchor": [[x.real, x.imag] for x in AUTO_ANCHOR]}},
         AUTO_POLE, _mobius(AUTO_ANCHOR, AUTO_POLE), ("ball_auto", AUTO_ANCHOR, AUTO_POLE)),
        ("diag", {"diag": [[1.0, 0.0], [DIAG_D.real, DIAG_D.imag]]}, e1, e1, ("const", 1)),
        ("compose", {"compose": [{"blaschke": {"a": COMPOSE_A}}, {"power": COMPOSE_K}]},
         one, one, ("blaschke_power", COMPOSE_A, COMPOSE_K)),
    ]
    green = []
    for _ in range(8):
        green.append(("unit_ball:2", in_unit_ball(rng, 2, 0.9), unit_vector(rng, 2)))
    for _ in range(4):
        green.append(("disc", in_unit_ball(rng, 1, 0.9), unit_vector(rng, 1)))
    geodesics = [(in_unit_ball(rng, 2, 0.9), unit_vector(rng, 2)) for _ in range(6)]
    limits = []
    for _ in range(4):
        p = unit_vector(rng, 2)
        s = 0.6 * rng.random() * np.exp(1j * TWO_PI * rng.random())
        d = p + s * tangent_unit(rng, p)
        limits.append((p, d / np.linalg.norm(d)))
    rays = []
    for label, n in (("disc", 1), ("unit_ball:2", 2)):
        p = unit_vector(rng, n)
        rays.append((label, p, approach_points(rng, Ball(np.zeros(n), 1.0), p, range(1, 15))))
    return dict(maps=maps, sampling_seed=int(rng.integers(0, 2 ** 31)), green=green,
                geodesics=geodesics, limits=limits, rays=rays)


HOROBALL_SAMPLES = 100


def build_boundary_rays(P, plan):
    cases = []
    seed = plan["sampling_seed"]
    for label, spec, p, q, lam_ref in plan["maps"]:
        m = P.map_from_json(spec)
        lam = _dilation_float(lam_ref)
        cases.append(Case(
            label=f"{label} julia",
            ops=[("lambda_estimate", lambda m=m, p=p, q=q: _lambda_out(P, m, p, q, seed)),
                 ("horoball_inclusion_check", lambda m=m, p=p, q=q, lam=lam: _horoball_out(
                     P, m, p, q, lam, seed)),
                 ("jwc_derivative_probes", lambda m=m, p=p, q=q: _probes_out(P, m, p, q)),
                 ("condition_equivalence_check", lambda m=m, p=p: _equiv_out(P, m, p))],
            check=_check_julia(label, lam_ref)))
    doms = {"unit_ball:2": P.domain_from_json("unit_ball:2"), "disc": P.domain_from_json("disc")}
    for label, z, p in plan["green"]:
        dom = doms[label]
        cases.append(Case(
            label=f"{label} green",
            ops=[("normal_derivative_green",
                  lambda dom=dom, z=z, p=p: (P.green.normal_derivative_green(dom, z, p).value,))],
            check=_check_closed_kernel(f"{label} normal_derivative_green", p, z, GREEN_RTOL)))
    for z, p in plan["geodesics"]:
        cases.append(Case(label="geodesic", ops=[("geodesic", lambda z=z, p=p: _geodesic_out(P, z, p))],
                          check=_check_geodesic(z, p)))
    ball = doms["unit_ball:2"]
    for p, d in plan["limits"]:
        curve = P.BoundaryCurve(gamma=lambda t, p=p, d=d: p - (1.0 - t) * d, gamma_prime_at_1=d)
        cases.append(Case(
            label="boundary_limit",
            ops=[("boundary_limit", lambda p=p, curve=curve: (P.kernels.boundary_limit(
                lambda z: P.bounds.kernel_value(ball, p, z), curve, p).estimate,))],
            check=_check_limit(p, d)))
    for label, p, pts in plan["rays"]:
        dom = doms[label]
        for z in pts:
            cases.append(Case(
                label=f"{label} ray kernel",
                ops=[("kernel_value", lambda dom=dom, p=p, z=z: (P.bounds.kernel_value(dom, p, z).value,))],
                check=_check_closed_kernel(f"{label} kernel_value", p, z, KERNEL_RTOL)))
    return cases


def _dilation_float(ref):
    kind, *args = ref
    if kind == "blaschke":
        return (1 - args[0]) / (1 + args[0])
    if kind == "blaschke_power":
        return args[1] * (1 - args[0]) / (1 + args[0])
    if kind == "ball_auto":
        a, p = args
        return (1 - float(np.vdot(a, a).real)) / abs(1 - np.vdot(a, p)) ** 2
    return float(args[0])


def _dilation_exact(R, ref):
    kind, *args = ref
    if kind == "blaschke":
        return R.dilation_blaschke(args[0])
    if kind == "blaschke_power":
        return args[1] * R.dilation_blaschke(args[0])
    if kind == "ball_auto":
        return R.dilation_ball_auto(*args)
    return R.mp.mpf(args[0])


def _lambda_out(P, m, p, q, seed):
    rep = P.lambda_estimate(m, p, q, P.SamplingPlan(seed=seed))
    return (rep.lambda_estimate, rep.normal_ray_limit, float(rep.diverged))


def _horoball_out(P, m, p, q, lam, seed):
    rep = P.horoball_inclusion_check(m, p, q, lam, samples_per_radius=HOROBALL_SAMPLES, seed=seed)
    return (float(rep.checked), float(len(rep.violations)), rep.ray_tightness.real)


def _probes_out(P, m, p, q):
    rep = P.jwc_derivative_probes(m, p, q)
    return (rep.probe1_limit, rep.probe2_limit, rep.probe3_limit)


def _equiv_out(P, m, p):
    rep = P.condition_equivalence_check(m, p)
    return (rep.lambda_value, rep.distance_ratio_liminf, float(rep.all_finite))


def _check_julia(label, lam_ref):
    def check(ck, out):
        (est, ray, diverged), (checked, violations, tight), (pr1, pr2, pr3), (eq_lam, eq_dist, fin) = out
        lam = _dilation_exact(ck.R, lam_ref)
        ck.holds(f"{label}: lambda_estimate diverged", diverged == 0.0)
        ck.close(f"{label}: lambda_estimate", est, lam, RAY_RTOL)
        ck.close(f"{label}: normal_ray_limit", ray, lam, RAY_RTOL)
        ck.holds(f"{label}: horoball check counted {checked} samples",
                 checked == 3 * HOROBALL_SAMPLES)
        ck.holds(f"{label}: {violations} horoball inclusion violations", violations == 0)
        ck.close(f"{label}: horoball ray tightness", tight, ck.R.mp.mpf(1), RAY_RTOL)
        ck.close(f"{label}: probe 1 limit", pr1, lam, DILATION_RTOL)
        ck.holds(f"{label}: probe 2/3 limits {pr2}, {pr3} not near 0", pr2 < 1e-4 and pr3 < 1e-4)
        ck.holds(f"{label}: finiteness conditions disagree", fin == 1.0)
        ck.close(f"{label}: equivalence lambda", eq_lam, lam, RAY_RTOL)
        ck.close(f"{label}: equivalence distance ratio", eq_dist, lam, RAY_RTOL)
    return check


def _check_closed_kernel(what, p, z, rtol):
    def check(ck, out):
        if len(p) == 1:
            ref = ck.R.disc_poisson(p[0], z[0])
        else:
            ref = ck.R.ball_kernel([0] * len(p), 1.0, p, z)
        ck.close(f"{what} pole {p} point {z}", out[0][0], ref, rtol)
    return check


GEODESIC_ZETAS = (0.0, 0.5, -0.3 + 0.4j, 0.9j)


def _geodesic_out(P, z, p):
    g = P.geodesic_through(z, p)
    dev = P.restriction_identity_check(p, g)
    return (dev, *g.phi1_prime, *g.phi(1.0), *(c for zeta in GEODESIC_ZETAS for c in g.phi(zeta)))


def _check_geodesic(z, p):
    def check(ck, out):
        R = ck.R
        (dev, d1, d2, e1, e2, *phis) = out[0]
        what = f"geodesic through {z} at {p}"
        ck.holds(f"{what}: restriction identity deviation {dev}", dev <= 1e-10)
        ck.holds(f"{what}: phi(1) = {(e1, e2)} is not p", np.linalg.norm(np.array([e1, e2]) - p) <= 1e-12)
        theta = R.herm(R.vec([d1, d2]), R.vec(p))
        ck.holds(f"{what}: <phi'(1), nu> = {complex(theta)} is not |phi'(1)|^2",
                 abs(theta - R.norm2(R.vec([d1, d2]))) <= 1e-12 * abs(theta))
        for i, zeta in enumerate(GEODESIC_ZETAS):
            w = phis[2 * i: 2 * i + 2]
            lhs = R.ball_kernel([0, 0], 1.0, p, w)
            rhs = R.mp.re(1 / theta) * R.disc_poisson(1.0, zeta)
            ck.close(f"{what}: Omega(phi({zeta}))", lhs, rhs, KERNEL_RTOL)
    return check


def _check_limit(p, d):
    def check(ck, out):
        ref = ck.R.transversal_limit(d, p)
        ck.close(f"boundary_limit at {p} along {d}", out[0][0], ref, RAY_RTOL)
    return check


# -- quadrature -----------------------------------------------------------------

# pluriharmonic fields: (expression for the program, exact value in mpmath)
FIELDS_1 = [
    ("re(z1)", lambda mp, z: mp.re(z[0])),
    ("im(z1**3)", lambda mp, z: mp.im(z[0] ** 3)),
    ("re(exp(z1))", lambda mp, z: mp.re(mp.exp(z[0]))),
]
FIELDS_2 = [
    ("re(z1)", lambda mp, z: mp.re(z[0])),
    ("re(z1*z2)", lambda mp, z: mp.re(z[0] * z[1])),
    ("im(z2**2)+3*re(z1)", lambda mp, z: mp.im(z[1] ** 2) + 3 * mp.re(z[0])),
]
# (n, resolution, radii of the points): a rule's a priori error decays like
# r^resolution, so each rule is paired with the radii it resolves below 1e-10
RULES = {
    "circle": (1, 2048, (0.3, 0.5, 0.7, 0.9, 0.95, 0.97)),
    "riesz": (1, 256, ()),
    "sphere_small": (2, 32, (0.3, 0.35, 0.4, 0.4)),
    "sphere_large": (2, 128, (0.7, 0.8)),
}
# The Riesz area term is about 4 digits off the centre, and its error moves
# with the point's angle to the polar grid, so these points are fixed rather
# than seeded: otherwise digits_min would follow the seed.
RIESZ_POINTS = (0.0, 0.3, 0.6 * np.exp(0.7j))
RIESZ_RTOL = 1e-3


def _point_at_radius(rng, n, r):
    return r * unit_vector(rng, n)


def plan_quadrature(rng):
    points = {}
    for name, (n, _, radii) in RULES.items():
        fields = FIELDS_1 if n == 1 else FIELDS_2
        pts = []
        for i, r in enumerate(radii):
            if name == "sphere_large":   # one field per point, fixed: their costs differ
                pts.append((1 + i % (len(fields) - 1), _point_at_radius(rng, n, r)))
            else:
                pts += [(j, _point_at_radius(rng, n, r)) for j in range(len(fields))]
        points[name] = pts
    riesz = [np.array([z], dtype=complex) for z in RIESZ_POINTS]
    return dict(points=points, riesz=riesz)


def build_quadrature(P, plan):
    rules = {name: P.sphere_quadrature(n, res) for name, (n, res, _) in RULES.items()}
    fields = {1: [P.expressions.ScalarField(src, 1) for src, _ in FIELDS_1],
              2: [P.expressions.ScalarField(src, 2) for src, _ in FIELDS_2]}
    cases = []
    for name, rule in rules.items():
        n = RULES[name][0]
        cases.append(Case(label=f"{name} mass", ops=[("total_mass", lambda rule=rule: (rule.total_mass,))],
                          check=_check_mass(name, n)))
        for j, z in plan["points"][name]:
            f = fields[n][j]
            cases.append(Case(
                label=f"{name} reproduce",
                ops=[("reproduce", lambda f=f, z=z, rule=rule: (P.reproducing.reproduce(f.real_part, z, rule),))],
                check=_check_reproduce(name, (FIELDS_1 if n == 1 else FIELDS_2)[j], z)))
    for z in plan["riesz"]:
        cases.append(Case(
            label="riesz",
            ops=[("riesz_correction_1d", lambda z=z: (P.reproducing.riesz_correction_1d(
                _abs2, _lap_abs2, z, rules["riesz"]).value,))],
            check=_check_riesz(z)))
    return cases


def _abs2(w):
    return np.abs(w) ** 2


def _lap_abs2(w):
    return np.full(np.shape(w), 4.0)


def _check_mass(name, n):
    def check(ck, out):
        ck.close(f"{name}: total mass", out[0][0], (2 * ck.R.mp.pi) ** n, 1e-12)
    return check


def _check_reproduce(name, field_def, z):
    src, exact = field_def

    def check(ck, out):
        ref = exact(ck.R.mp, ck.R.vec(z))
        ck.near(f"{name}: reproduce {src} at {z}", out[0][0], ref, REPRODUCE_ATOL)
    return check


def _check_riesz(z):
    def check(ck, out):
        ref = ck.R.norm2(ck.R.vec(z))
        what = f"riesz |z|^2 at {z}"
        if ref == 0:
            ck.near(what, out[0][0], ref, 1e-8)
        else:
            ck.close(what, out[0][0], ref, RIESZ_RTOL)
    return check


# -- custom_geometry ------------------------------------------------------------

# psi(z) = <H z, z> + Re(z^T L z) - 1, written as an expression for the program
CUSTOM_DOMAINS = [
    ("ball", "z1*conj(z1)+z2*conj(z2)-1", [[1, 0], [0, 1]], [[0, 0], [0, 0]]),
    ("perturbed_ball", "z1*conj(z1)+z2*conj(z2)+0.25*re(z1*z2)-1",
     [[1, 0], [0, 1]], [[0, 0.125], [0.125, 0]]),
    ("ellipsoid", "z1*conj(z1)+2*z2*conj(z2)-1", [[1, 0], [0, 2]], [[0, 0], [0, 0]]),
]
CG_JETS, CG_FRAMES, CG_SAMPLES = 6, 5, 6
DISTANCE_POINTS = 100        # fixed points of the custom unit ball: seed 0, radius 0.9
JET_RTOL, HESS_ATOL, FRAME_ATOL = 1e-7, 1e-5, 1e-6


def _quad_form(H, L, v):
    H = np.asarray(H, dtype=complex)
    L = np.asarray(L, dtype=complex)
    return float(np.vdot(v, H @ v).real + (v @ L @ v).real)


def plan_custom_geometry(rng):
    fixed = np.random.default_rng(0)
    distance = [in_unit_ball(fixed, 2, 0.9) for _ in range(DISTANCE_POINTS)]
    domains = []
    for label, src, H, L in CUSTOM_DOMAINS:
        jets = [in_unit_ball(rng, 2, 0.7) for _ in range(CG_JETS)]
        frames = []
        for _ in range(CG_FRAMES):
            v = unit_vector(rng, 2)
            frames.append(v / math.sqrt(_quad_form(H, L, v)))
        domains.append(dict(label=label, src=src, H=H, L=L, jets=jets, frames=frames,
                            sample_seed=int(rng.integers(0, 2 ** 31))))
    return dict(distance=distance, domains=domains)


def build_custom_geometry(P, plan):
    cases = []
    doms = {}
    for d in plan["domains"]:
        dom = P.domain_from_json({"kind": "custom", "psi": d["src"], "n": 2})
        doms[d["label"]] = dom
        for z in d["jets"]:
            cases.append(Case(label=f"{d['label']} psi_jet",
                              ops=[("psi_jet", lambda dom=dom, z=z: _jet_out(P, dom, z))],
                              check=_check_jet(d, z)))
        for p in d["frames"]:
            cases.append(Case(
                label=f"{d['label']} frame",
                ops=[("boundary_frame", lambda dom=dom, p=p: _frame_out(P, dom, p)),
                     ("levi_density", lambda dom=dom, p=p: (P.domains.levi_density(dom, p),)),
                     ("osculating_radii", lambda dom=dom, p=p: tuple(P.domains.osculating_radii(dom, p)))],
                check=_check_frame(d, p)))
        s = d["sample_seed"]
        cases.append(Case(
            label=f"{d['label']} boundary_samples",
            ops=[("boundary_samples", lambda dom=dom, s=s: tuple(
                P.domains.boundary_samples(dom, CG_SAMPLES, np.random.default_rng(s)).ravel()))],
            check=_check_samples(d)))
    ball = doms["ball"]
    for z in plan["distance"]:
        cases.append(Case(
            label="ball signed_boundary_distance",
            ops=[("signed_boundary_distance",
                  lambda z=z: (P.domains.signed_boundary_distance(ball, z),))],
            check=_check_distance(z), expect_fail="ConvergenceError"))
    return cases


def _jet_out(P, dom, z):
    value, grad, hess = P.domains.psi_jet(dom, z)
    return (value, *grad, *np.asarray(hess).ravel())


def _frame_out(P, dom, p):
    frame = P.domains.boundary_frame(dom, p)
    return (*frame.nu, *np.asarray(frame.levi).ravel())


def _check_jet(d, z):
    def check(ck, out):
        R = ck.R
        value, g1, g2, *hess = out[0]
        what = f"{d['label']} psi_jet at {z}"
        ref_v, ref_g, ref_h = R.quadratic_jet(d["H"], d["L"], z)
        ck.close(f"{what}: value", value, ref_v, 1e-12)
        for k, g in enumerate((g1, g2)):
            ck.close(f"{what}: gradient {k}", g, ref_g[k], JET_RTOL)
        for k, h in enumerate(hess):
            ck.near(f"{what}: complex Hessian {k}", h, ref_h[k // 2][k % 2], HESS_ATOL)
    return check


def _levi_reference(R, d, p):
    """Restricted Levi form <H t, t> on the unit complex tangent t at p (n = 2)."""
    _, grad, H = R.quadratic_jet(d["H"], d["L"], p)
    gn = R.mp.sqrt(R.norm2(grad))
    nu = [R.mp.conj(x) / gn for x in grad]
    t = [-R.mp.conj(nu[1]), R.mp.conj(nu[0])]
    Ht = [H[i][0] * t[0] + H[i][1] * t[1] for i in range(2)]
    return nu, R.mp.re(R.herm(Ht, t)), gn


def _check_frame(d, p):
    def check(ck, out):
        R = ck.R
        (nu1, nu2, levi), (dens,), (r_in, r_out) = out
        what = f"{d['label']} boundary point {p}"
        nu, levi_ref, gn = _levi_reference(R, d, p)
        ck.near(f"{what}: normal 1", nu1, nu[0], FRAME_ATOL)
        ck.near(f"{what}: normal 2", nu2, nu[1], FRAME_ATOL)
        if d["L"] != [[0, 0], [0, 0]]:
            ck.holds(f"{what}: Levi form {levi} under a pluriharmonic perturbation is not 1",
                     abs(levi - 1.0) <= FRAME_ATOL)
        ck.close(f"{what}: Levi form", levi, levi_ref, FRAME_ATOL)
        # 4^(n-1) (n-1)! det(Levi) / |d psi|^(n-1) with |d psi| = 2 |grad|, n = 2
        ck.close(f"{what}: levi_density", dens, 2 * levi_ref / gn, FRAME_ATOL)
        ref_in, ref_out = R.osculating_radii(d["H"], d["L"], p)
        ck.close(f"{what}: r_in", r_in, ref_in, FRAME_ATOL)
        ck.close(f"{what}: r_out", r_out, ref_out, FRAME_ATOL)
    return check


def _check_samples(d):
    def check(ck, out):
        pts = np.asarray(out[0]).reshape(-1, 2)
        ck.holds(f"{d['label']}: boundary_samples returned {len(pts)} points", len(pts) == CG_SAMPLES)
        for x in pts:
            ck.holds(f"{d['label']}: boundary sample {x} has psi = {_quad_form(d['H'], d['L'], x) - 1}",
                     abs(_quad_form(d["H"], d["L"], x) - 1.0) <= 1e-12)
    return check


def _check_distance(z):
    def check(ck, out):
        ref = ck.R.mp.sqrt(ck.R.norm2(ck.R.vec(z))) - 1
        ck.close(f"ball signed_boundary_distance at {z}", out[0][0], ref, 1e-9)
    return check


WORKLOADS = {
    "kernel_field": (plan_kernel_field, build_kernel_field),
    "boundary_rays": (plan_boundary_rays, build_boundary_rays),
    "quadrature": (plan_quadrature, build_quadrature),
    "custom_geometry": (plan_custom_geometry, build_custom_geometry),
}
