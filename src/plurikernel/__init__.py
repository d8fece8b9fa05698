"""Pluricomplex Poisson kernels, horoball geometry and boundary reproducing formulas.

Each public name, and each library module as an attribute (``plurikernel.domains``),
is imported on first use (PEP 562), so ``import plurikernel`` loads no submodule
and each CLI subcommand loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: The public names of the package, by the module that defines them
_EXPORTS = {
    "bounds": ("CandidateKind", "CandidateMember", "ball_restriction_candidate", "kernel_value",
               "kernel_values", "lower_envelope", "peak_candidate", "sandwich_bounds",
               "uniform_bound_check"),
    "domains": ("BoundaryFrame", "DomainKind", "DomainSpec", "OsculatingRadii", "boundary_frame",
                "domain_from_json", "levi_density", "osculating_radii", "psi_jet",
                "signed_boundary_distance"),
    "errors": ("ContainmentError", "ConvergenceError", "DomainError", "NotOnBoundaryError",
               "NumericalError", "PluriKernelError", "PseudoconvexityError", "ValidationError"),
    "geodesics": ("GeodesicDisc", "geodesic_through", "restriction_identity_check"),
    "green": ("NormalDerivativeResult", "demailly_density", "green_function",
              "green_omega_identity_check", "normal_derivative_green"),
    "julia": ("EquivalenceReport", "Horoball", "InclusionReport", "JuliaReport", "MapSpec",
              "SamplingPlan", "condition_equivalence_check", "horoball_inclusion_check",
              "jwc_derivative_probes", "lambda_estimate", "map_from_json", "pullback_kernel"),
    "kernels": ("BoundaryCurve", "BoundaryLimitResult", "KernelValue", "Provenance",
                "boundary_limit", "kobayashi", "mobius_ball", "poisson_disc", "rescale_couple"),
    "reproducing": ("QuadratureRule", "RieszDecomposition", "reproduce", "riesz_correction_1d",
                    "rule_to_csv", "sphere_quadrature"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "expressions", "extrapolate", "utils"}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A submodule, or a public name, imported from its module and kept in this namespace."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
