"""Command-line frontend.

Subcommands: kernel, bounds, geodesic, green, reproduce, julia.  Outputs are
deterministic for a fixed command line and seed; results go to stdout or
--output as JSON, CSV or plain two/three-column plot data.  Validation
errors exit with status 2, numerical failures with status 3, both with a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

import numpy as np

from . import __version__
from .errors import NumericalError, PluriKernelError, ValidationError


def parse_point(text: str, n: int) -> np.ndarray:
    """Parse 'e1' / '0' / comma-separated complex components ('0.3,0', '1+2i,0')."""
    text = text.strip()
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        if not 1 <= k <= n:
            raise ValidationError(f"basis vector {text} out of range for n={n}")
        v = np.zeros(n, dtype=complex)
        v[k - 1] = 1.0
        return v
    parts = [p for p in text.split(",") if p.strip() != ""]
    vals = []
    for part in parts:
        try:
            vals.append(complex(part.strip().replace("i", "j")))
        except ValueError as exc:
            raise ValidationError(f"cannot parse component {part!r}") from exc
    if len(vals) == 1 and n > 1:
        if vals[0] == 0:
            return np.zeros(n, dtype=complex)
        raise ValidationError(f"point {text!r} has 1 component but n={n}")
    if len(vals) != n:
        raise ValidationError(f"point {text!r} has {len(vals)} components but n={n}")
    return np.asarray(vals, dtype=complex)


def _writable(path: str):
    """``open(path, "w")``, with a path that cannot be written reported as ValidationError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(args, payload_json: dict, rows, header) -> None:
    """Write the result in the chosen format: json, csv or plotdata."""
    out = sys.stdout if args.output is None else _writable(args.output)
    try:
        if args.format == "json":
            out.write(json.dumps(payload_json, sort_keys=True))
            out.write("\n")
        elif args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
        else:  # plotdata
            out.write("# " + " ".join(header) + "\n")
            for row in rows:
                out.write(" ".join(_fmt(x) for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _kv_payload(kv) -> dict:
    if kv.is_exact:
        return {"value": kv.value, "provenance": kv.provenance.value}
    return {"lo": kv.lo, "hi": kv.hi, "provenance": kv.provenance.value}


# -- subcommands ----------------------------------------------------------------

def _emit_points(args, n: int, texts, evaluate, header=None) -> int:
    """Write ``evaluate(z)`` at each point z of ``texts``: one payload, or {"values": [...]}.

    ``evaluate`` returns the point's JSON payload and its table: a dict of
    named values, one row after the point's re_z*, im_z* columns, or, with
    ``header`` given, a list of rows written as they are.
    """
    payloads, rows = [], []
    for text in texts:
        z = parse_point(text, n)
        payload, table = evaluate(z)
        payloads.append(payload)
        rows.extend(table if header else [[*z.real, *z.imag, *table.values()]])
    header = header or [f"{part}_z{j+1}" for part in ("re", "im") for j in range(n)] + list(table)
    _emit(args, payloads[0] if len(payloads) == 1 else {"values": payloads}, rows, header)
    return 0


def _cmd_kernel(args) -> int:
    from .bounds import kernel_value
    from .domains import domain_from_json

    domain = domain_from_json(args.domain)
    pole = parse_point(args.pole, domain.n)

    def evaluate(z):
        kv = kernel_value(domain, pole, z)
        return _kv_payload(kv), {"lo": kv.lo, "hi": kv.hi}

    return _emit_points(args, domain.n, args.point, evaluate)


def _cmd_bounds(args) -> int:
    from .bounds import ball_restriction_candidate, lower_envelope, peak_candidate, sandwich_bounds
    from .domains import domain_from_json

    domain = domain_from_json(args.domain)
    pole = parse_point(args.pole, domain.n)
    candidates = [peak_candidate(domain, pole)]
    try:
        candidates.append(ball_restriction_candidate(domain, pole))
    except PluriKernelError:
        pass

    def evaluate(z):
        kv, env = sandwich_bounds(domain, pole, z), lower_envelope(domain, pole, z, candidates)
        table = {"lo": kv.lo, "hi": kv.hi, "lower_envelope": env}
        return {**_kv_payload(kv), "lower_envelope": env}, table

    return _emit_points(args, domain.n, args.point, evaluate)


def _cmd_geodesic(args) -> int:
    from .bounds import kernel_values
    from .domains import domain_from_json
    from .geodesics import default_disc_grid, geodesic_through, restriction_identity_check

    domain = domain_from_json(args.domain)
    if not domain.is_ball_like:
        raise ValidationError("geodesics are available for disc/ball domains")
    pole = parse_point(args.pole, domain.n)
    through = parse_point(args.through, domain.n)
    g = geodesic_through(through, pole, normalize_chl=not args.raw,
                         center=domain.center, radius=domain.radius)
    grid = default_disc_grid(args.grid)
    dev = restriction_identity_check(pole, g, grid)
    payload = {
        "chl": g.chl_flag,
        "boundary_point": _cvec(g.boundary_point),
        "phi_prime_at_1": _cvec(g.phi1_prime),
        "phi_second_at_1": _cvec(g.phi1_second),
        "direction": _cvec(g.chl_direction) if g.chl_direction is not None else None,
        "restriction_deviation": dev,
        "grid_points": int(len(grid)),
    }
    ts = np.linspace(-0.95, 0.95, 97)
    values, _ = kernel_values(domain, g.boundary_point, g.phi(ts))
    rows = [[float(t), float(v)] for t, v in zip(ts, values)]
    _emit(args, payload, rows, ["t", "omega_on_geodesic"])
    return 0


def _cmd_green(args) -> int:
    from .bounds import kernel_value
    from .domains import domain_from_json
    from .green import demailly_density, normal_derivative_green

    domain = domain_from_json(args.domain)
    pole = parse_point(args.pole, domain.n)

    def evaluate(z):
        nd = normal_derivative_green(domain, z, pole, h0=args.h0)
        om = kernel_value(domain, pole, z).value
        return {
            "normal_derivative": nd.value,
            "omega": om,
            "deviation": abs(nd.value - om),
            "lipschitz_estimate": nd.lipschitz_estimate,
            "demailly_density": demailly_density(domain, z, pole),
        }, nd.step_sequence

    return _emit_points(args, domain.n, args.point, evaluate, header=["h", "quotient"])


def _cmd_reproduce(args) -> int:
    from .domains import domain_from_json
    from .expressions import ScalarField
    from .reproducing import riesz_correction_1d, reproduce, rule_to_csv, sphere_quadrature

    domain = domain_from_json(args.domain)
    unit = domain.is_ball_like and domain.radius == 1.0 and not domain.center.any()
    if not unit or domain.n not in (1, 2):
        raise ValidationError("reproduction rules cover the disc and the unit ball of C^2")
    rule = sphere_quadrature(domain.n, args.resolution)
    if args.export_rule:
        with _writable(args.export_rule) as fh:
            rule_to_csv(rule, fh)
    field = ScalarField(args.f, domain.n)
    lap = None if args.laplacian is None else ScalarField(args.laplacian, domain.n)

    def evaluate(z):
        if lap is None:
            payload = {"reproduced": reproduce(field.real_part, z, rule)}
        else:
            # the area term evaluates on scalar grids, which need a trailing coordinate axis
            dec = riesz_correction_1d(
                field.real_part, lambda w: np.real(lap(np.asarray(w)[..., None])),
                z, rule, radial=args.radial_grid, angular=args.angular_grid)
            payload = {"boundary_term": dec.boundary_term,
                       "correction": dec.correction, "value": dec.value}
        return payload, payload

    return _emit_points(args, domain.n, args.z, evaluate)


def _cmd_julia(args) -> int:
    from .julia import (SamplingPlan, condition_equivalence_check, horoball_inclusion_check,
                        jwc_derivative_probes, lambda_estimate, map_from_json)

    mapspec = map_from_json(args.map)
    p = parse_point(args.p, mapspec.source.n)
    q = parse_point(args.q, mapspec.target.n)
    plan = SamplingPlan(seed=args.seed, grid_count=args.grid_count)
    report = lambda_estimate(mapspec, p, q, plan)
    payload = {
        "lambda": report.lambda_estimate,
        "normal_ray_limit": report.normal_ray_limit,
        "diverged": report.diverged,
        "q": _cvec(report.target),
    }
    rows = [[report.lambda_estimate, report.normal_ray_limit]]
    header = ["lambda", "normal_ray_limit"]
    if args.radii and report.finite:
        lam = args.lam if args.lam is not None else report.normal_ray_limit
        inc = horoball_inclusion_check(mapspec, p, q, lam,
                                       radii=args.radii,
                                       samples_per_radius=args.samples,
                                       seed=args.seed)
        payload["inclusion"] = {
            "lambda_used": lam,
            "checked": inc.checked,
            "violations": len(inc.violations),
            "undetermined": inc.undetermined,
            "ray_tightness": inc.ray_tightness.real if inc.ray_tightness else None,
        }
    if args.probes and report.finite:
        pr = jwc_derivative_probes(mapspec, p, q)
        payload["probes"] = {
            "max": {str(k): v for k, v in pr.probe_max.items()},
            "probe1_limit": [pr.probe1_limit.real, pr.probe1_limit.imag],
            "probe2_limit": pr.probe2_limit,
            "probe3_limit": pr.probe3_limit,
        }
    if args.equivalence:
        eq = condition_equivalence_check(mapspec, p)
        payload["equivalence"] = {
            "lambda": eq.lambda_value,
            "kobayashi": eq.kobayashi_liminf,
            "distance_ratio": eq.distance_ratio_liminf,
            "all_finite": eq.all_finite,
            "all_infinite": eq.all_infinite,
            "consistent": eq.consistent,
        }
    _emit(args, payload, rows, header)
    return 0


def _cvec(v) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


# -- parser ----------------------------------------------------------------------

#: A minus sign and a digit, a decimal point or ``i`` start a value (``--point -0.3,0``).
_NEGATIVE_VALUE = re.compile(r"^-[\d.i]")


class _Parser(argparse.ArgumentParser):
    """Reads negative point components as values and raises on usage errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="plurikernel",
                 description="kernels, bounds and boundary formulas "
                             "on strongly pseudoconvex domains")
    ap.add_argument("--version", action="version", version=f"plurikernel {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, func, *required):
        """A subcommand running ``func``, with the ``required`` options (--point takes many)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for option in required:
            p.add_argument(f"--{option}", required=True, nargs="+" if option == "point" else None)
        return p

    command("kernel", "evaluate a kernel at interior points", _cmd_kernel,
            "domain", "pole", "point")
    command("bounds", "certified kernel enclosures and envelopes", _cmd_bounds,
            "domain", "pole", "point")

    p = command("geodesic", "normalized geodesic through a point", _cmd_geodesic,
                "domain", "pole", "through")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--raw", action="store_true", help="skip boundary normalization")

    p = command("green", "Green normal derivative vs kernel", _cmd_green,
                "domain", "pole", "point")
    p.add_argument("--h0", type=float, default=1e-3)

    p = command("reproduce", "boundary reproducing formula", _cmd_reproduce, "domain")
    p.add_argument("--f", required=True, help="scalar field expression in z1..zn")
    p.add_argument("--z", required=True, nargs="+")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--laplacian", default=None,
                   help="Laplacian expression: adds the n=1 area correction")
    p.add_argument("--radial-grid", type=int, default=200)
    p.add_argument("--angular-grid", type=int, default=200)
    p.add_argument("--export-rule", default=None, help="write quadrature rule CSV here")

    p = command("julia", "boundary dilation, horoballs, probes", _cmd_julia, "map", "p", "q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-count", type=int, default=400)
    p.add_argument("--radii", type=float, nargs="*", default=None,
                   help="horoball radii for the inclusion check")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--lam", type=float, default=None,
                   help="dilation used by the inclusion check (default: estimated)")
    p.add_argument("--probes", action="store_true")
    p.add_argument("--equivalence", action="store_true")

    for p in sub.choices.values():      # every subcommand's last options
        p.add_argument("--format", choices=("json", "csv", "plotdata"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValidationError as exc:
        _error_json("validation", str(exc), {})
        return 2
    try:
        return args.func(args)
    except ValidationError as exc:
        _error_json("validation", str(exc), {"command": args.command})
        return 2
    except NumericalError as exc:
        ctx = {"command": args.command}
        if getattr(exc, "trace", None):
            ctx["trace_length"] = len(exc.trace)
        _error_json("numerical", str(exc), ctx)
        return 3
    except PluriKernelError as exc:
        _error_json("error", str(exc), {"command": args.command})
        return 2


def _error_json(code: str, message: str, context: dict) -> None:
    sys.stderr.write(json.dumps(
        {"code": code, "message": message, "context": context}, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
