"""Pluricomplex Poisson kernels, horoball geometry and boundary reproducing formulas."""

__version__ = "0.1.0"

from .bounds import (
    CandidateKind,
    CandidateMember,
    ball_restriction_candidate,
    kernel_value,
    kernel_values,
    lower_envelope,
    peak_candidate,
    sandwich_bounds,
    uniform_bound_check,
)
from .domains import (
    BoundaryFrame,
    DomainKind,
    DomainSpec,
    OsculatingRadii,
    boundary_frame,
    domain_from_json,
    levi_density,
    osculating_radii,
    psi_jet,
    signed_boundary_distance,
)
from .errors import (
    ContainmentError,
    ConvergenceError,
    DomainError,
    NotOnBoundaryError,
    NumericalError,
    PluriKernelError,
    PseudoconvexityError,
    ValidationError,
)
from .geodesics import GeodesicDisc, geodesic_through, restriction_identity_check
from .green import (
    NormalDerivativeResult,
    demailly_density,
    green_function,
    green_omega_identity_check,
    normal_derivative_green,
)
from .julia import (
    EquivalenceReport,
    Horoball,
    InclusionReport,
    JuliaReport,
    MapSpec,
    SamplingPlan,
    condition_equivalence_check,
    horoball_inclusion_check,
    jwc_derivative_probes,
    lambda_estimate,
    map_from_json,
    pullback_kernel,
)
from .kernels import (
    NEG_INFINITY,
    BoundaryCurve,
    BoundaryLimitResult,
    KernelValue,
    Provenance,
    boundary_limit,
    is_neg_infinity,
    kobayashi,
    mobius_ball,
    poisson_disc,
    rescale_couple,
)
from .reproducing import (
    QuadratureRule,
    RieszDecomposition,
    reproduce,
    riesz_correction_1d,
    rule_to_csv,
    sphere_quadrature,
)
