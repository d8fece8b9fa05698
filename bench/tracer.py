"""Per-layer timing from outside the program.

The tracer wraps the public functions of each plurikernel module, and a few
public methods, in timing shims.  It swaps the shims into every plurikernel
namespace that binds the original object, so calls between modules are
timed too, and swaps the originals back when disabled.  Nothing is added
inside the package.

For every wrapped name it keeps, per phase ("setup" or "rounds"), the call
count, the total time and the self time: total time minus the time spent in
wrapped calls made from inside it.  Private helpers are not wrapped, so
their time counts as their caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("utils", "expressions", "domains", "kernels", "bounds", "extrapolate",
          "green", "geodesics", "julia", "reproducing")
METHODS = {
    "domains": {"DomainSpec": ("psi", "grad_psi", "hess_psi", "real_hessian")},
    "expressions": {"ScalarField": ("__call__",)},
    "julia": {"MapSpec": ("__call__", "derivative"), "Horoball": ("contains",)},
}


def _reproduce_bytes(n_nodes: int, n: int) -> int:
    """Bytes one reproduce call holds, computed from the array shapes in reproducing.py.

    The rule's nodes (n complex) and weights, plus the node-length temporaries
    of the call: f values, inner products (complex), |1 - inner|^2, kernel
    powers, and the integrand with its two partial products.
    """
    return n_nodes * (16 * n + 8 + 8 + 16 + 8 + 8 + 8 + 8)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats = {ph: defaultdict(lambda: [0, 0.0, 0.0]) for ph in ("setup", "rounds")}
        self.extra = {ph: defaultdict(float) for ph in ("setup", "rounds")}
        self._stack: list[float] = []
        self._patches = []          # (namespace owner, attribute, original, shim)
        self._build()

    # -- installation ---------------------------------------------------------

    def _build(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "plurikernel" or name.startswith("plurikernel.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"plurikernel.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                shim = self._shim(f"{layer}.{attr}", obj)
                for owner in modules:
                    for name, val in list(vars(owner).items()):
                        if val is obj:
                            self._patches.append((owner, name, obj, shim))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    obj = cls.__dict__[meth]
                    self._patches.append((cls, meth, obj, self._shim(f"{layer}.{cls_name}.{meth}", obj)))

    def enable(self):
        for owner, name, _, shim in self._patches:
            setattr(owner, name, shim)

    def disable(self):
        for owner, name, orig, _ in self._patches:
            setattr(owner, name, orig)

    # -- the shim -------------------------------------------------------------

    def _shim(self, key, fn):
        stack = self._stack
        count_levels = key == "extrapolate.refine_until"
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if count_levels:    # refine_until samples its first argument once per level
                args = (self._counted(args[0]), *args[1:])
            stack.append(0.0)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec = self.stats[self.phase][key]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                if ok:
                    self._after(key, args, kwargs, result)

        return shim

    def _counted(self, f):
        def counted(h):
            self.extra[self.phase]["extrapolate.refine_until.levels"] += 1
            return f(h)
        return counted

    def _after(self, key, args, kwargs, result):
        extra = self.extra[self.phase]
        if key == "kernels.boundary_limit":
            extra["kernels.boundary_limit.levels"] += result.levels
        elif key == "domains.signed_boundary_distance":
            extra["domains.signed_boundary_distance.ok"] += 1
        elif key == "reproducing.sphere_quadrature":
            extra["reproducing.rule_nodes"] = max(extra["reproducing.rule_nodes"], len(result))
        elif key == "reproducing.reproduce":
            rule = args[2] if len(args) > 2 else kwargs["rule"]
            extra["reproducing.reproduce.nodes"] += len(rule)
            mb = _reproduce_bytes(len(rule), rule.n) / 1e6
            extra["reproducing.reproduce.computed_mb"] = max(
                extra["reproducing.reproduce.computed_mb"], mb)

    # -- reduction ------------------------------------------------------------

    def metrics(self, ops: int, import_ms: float, overhead_pct: float) -> dict:
        """The per-layer metrics of BENCHMARK.json from the "rounds" phase (and setup)."""
        st, ex = self.stats["rounds"], self.extra["rounds"]
        su = self.stats["setup"]

        def calls(key, stats=st):
            return stats[key][0] if key in stats else 0

        def per_call_self(key, scale, stats=st):
            c = calls(key, stats)
            return stats[key][2] * scale / c if c else 0.0

        def layer_self(layer):
            return sum(rec[2] for key, rec in st.items() if key.split(".")[0] == layer)

        def per_op(x):
            return x / ops if ops else 0.0

        sbd = "domains.signed_boundary_distance"
        nodes = ex["reproducing.reproduce.nodes"]
        rule_nodes = max(self.extra["setup"]["reproducing.rule_nodes"], ex["reproducing.rule_nodes"])
        m = {
            "utils.as_vector.calls_per_op": (per_op(calls("utils.as_vector")), "calls/op"),
            "domains.boundary_frame.calls_per_op": (per_op(calls("domains.boundary_frame")), "calls/op"),
            "domains.osculating_radii.calls_per_op": (per_op(calls("domains.osculating_radii")), "calls/op"),
            "bounds.tangent_balls.calls_per_op": (per_op(calls("bounds.tangent_balls")), "calls/op"),
            "bounds.kernel_value.self_us": (per_call_self("bounds.kernel_value", 1e6), "us"),
            "bounds.self_ms_per_op": (per_op(layer_self("bounds")) * 1e3, "ms/op"),
            "domains.boundary_frame.self_us": (per_call_self("domains.boundary_frame", 1e6), "us"),
            "bounds.kernel_value.calls_per_op": (per_op(calls("bounds.kernel_value")), "calls/op"),
            "kernels.omega_ball_value.calls_per_op": (per_op(calls("kernels.omega_ball_value")), "calls/op"),
            "kernels.self_ms_per_op": (per_op(layer_self("kernels")) * 1e3, "ms/op"),
            "extrapolate.refine_until.levels": (
                ex["extrapolate.refine_until.levels"] / max(calls("extrapolate.refine_until"), 1), "count"),
            "kernels.boundary_limit.levels": (
                ex["kernels.boundary_limit.levels"] / max(calls("kernels.boundary_limit"), 1), "count"),
            "extrapolate.self_ms_per_op": (per_op(layer_self("extrapolate")) * 1e3, "ms/op"),
            "julia.self_ms_per_op": (per_op(layer_self("julia")) * 1e3, "ms/op"),
            "green.normal_derivative_green.self_us": (
                per_call_self("green.normal_derivative_green", 1e6), "us"),
            "geodesics.restriction_identity_check.self_ms": (
                per_call_self("geodesics.restriction_identity_check", 1e3), "ms"),
            "reproducing.sphere_quadrature.self_ms": (
                per_call_self("reproducing.sphere_quadrature", 1e3, su), "ms"),
            "reproducing.reproduce.ns_per_node": (
                st["reproducing.reproduce"][2] * 1e9 / nodes if nodes else 0.0, "ns"),
            "reproducing.riesz_correction_1d.self_ms": (
                per_call_self("reproducing.riesz_correction_1d", 1e3), "ms"),
            "reproducing.rule_nodes": (float(rule_nodes), "count"),
            "reproducing.reproduce.computed_mb": (ex["reproducing.reproduce.computed_mb"], "MB"),
            "domains.psi.calls_per_op": (per_op(calls("domains.DomainSpec.psi")), "calls/op"),
            "expressions.field_evals_per_op": (
                per_op(calls("expressions.ScalarField.__call__")), "calls/op"),
            "expressions.self_ms_per_op": (per_op(layer_self("expressions")) * 1e3, "ms/op"),
            "domains.signed_boundary_distance.ok_ratio": (
                ex[sbd + ".ok"] / calls(sbd) if calls(sbd) else 0.0, "ratio"),
            "domains.signed_boundary_distance.self_us": (per_call_self(sbd, 1e6), "us"),
            "domains.self_ms_per_op": (per_op(layer_self("domains")) * 1e3, "ms/op"),
            "import.plurikernel_ms": (import_ms, "ms"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def table(self) -> dict:
        """Raw per-function figures, for the trace file."""
        return {ph: {k: {"calls": c, "total_s": t, "self_s": s}
                     for k, (c, t, s) in sorted(self.stats[ph].items())}
                for ph in self.stats} | {"extra": {ph: dict(self.extra[ph]) for ph in self.extra}}
