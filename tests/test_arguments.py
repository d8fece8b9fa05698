"""Counts, seeds, sizes, radii and scales are checked where they enter the library.

Every count or seed goes through ``errors.spec_count`` and every positive
real through ``errors.positive``, so a bad value raises ``ValidationError``
whose message starts with the argument's name, never a bare numpy error or a
silent result.  numpy integer and float scalars stay accepted and give the
results of Python ints and floats.
"""

import math
import re

import numpy as np
import pytest

from plurikernel import (
    DomainSpec,
    KernelValue,
    SamplingPlan,
    ValidationError,
    geodesic_through,
    horoball_inclusion_check,
    kernel_value,
    lambda_estimate,
    normal_derivative_green,
    rescale_couple,
    riesz_correction_1d,
    sphere_quadrature,
)
from plurikernel.domains import boundary_samples
from plurikernel.geodesics import DiscAutomorphism, default_disc_grid
from plurikernel.julia import blaschke_map, constant_map, identity_map, power_map, product_map

E1 = np.array([1, 0], dtype=complex)
P1 = np.array([1], dtype=complex)
BLASCHKE = blaschke_map(0.5)
CIRCLE = sphere_quadrature(1, 16)


def _riesz(**grid):
    return riesz_correction_1d(lambda w: np.real(w[..., 0]), lambda w: 0.0 * np.real(w),
                               [0.3], CIRCLE, **grid)


#: (argument name, the least count allowed, the entry point called with the value)
COUNTS = [
    ("dimension n", 1, DomainSpec.unit_ball),
    ("dimension n", 1, lambda v: DomainSpec.custom("-1", v)),
    ("count", 1, lambda v: boundary_samples(DomainSpec.unit_ball(2), v,
                                            np.random.default_rng(0))),
    ("power k", 1, power_map),
    ("dimension n", 1, product_map),
    ("dimension n", 1, identity_map),
    ("source_n", 1, lambda v: constant_map([0.1], v)),
    ("grid_count", 1, lambda v: SamplingPlan(grid_count=v)),
    ("seed", 0, lambda v: SamplingPlan(seed=v)),
    ("seed", 0, lambda v: horoball_inclusion_check(BLASCHKE, P1, P1, 1 / 3, seed=v)),
    ("samples_per_radius", 1,
     lambda v: horoball_inclusion_check(BLASCHKE, P1, P1, 1 / 3, samples_per_radius=v)),
    ("resolution", 4, lambda v: sphere_quadrature(2, v)),
    ("radial polar grid", 1, lambda v: _riesz(radial=v)),
    ("angular polar grid", 1, lambda v: _riesz(angular=v)),
    ("grid count", 1, default_disc_grid),
]

#: (argument name, the entry point called with the value)
REALS = [
    ("ball radius", lambda v: DomainSpec.ball([0, 0], v)),
    ("ball radius", lambda v: geodesic_through([0.3, 0], E1, radius=v)),
    ("ellipsoid coefficients", lambda v: DomainSpec.ellipsoid([v, v])),
    ("half-plane dilation a", lambda v: DiscAutomorphism.from_halfplane(v, 0.0)),
    ("initial step h0",
     lambda v: normal_derivative_green(DomainSpec.unit_ball(2), [0.3, 0], E1, h0=v)),
    ("scaling factor", lambda v: KernelValue.closed_form(-1.0).scaled(v)),
    ("couple scale rho", lambda v: rescale_couple(-1.0, v)),
    ("dilation lam", lambda v: horoball_inclusion_check(BLASCHKE, P1, P1, v)),
    ("horoball radii", lambda v: horoball_inclusion_check(BLASCHKE, P1, P1, 1 / 3, radii=(v,))),
]

BAD_REALS = [True, 0, -1, math.nan, math.inf, "1"]


def _bad_counts(least):
    return [2.5, True, least - 1, -1, math.nan, math.inf, "1"]


@pytest.mark.parametrize("what, least, call", COUNTS,
                         ids=[f"{i}-{c[0]}" for i, c in enumerate(COUNTS)])
def test_bad_counts_name_the_argument(what, least, call):
    for value in _bad_counts(least):
        with pytest.raises(ValidationError, match=rf"^{re.escape(what)} must be an integer >= "):
            call(value)


@pytest.mark.parametrize("what, call", REALS, ids=[f"{i}-{c[0]}" for i, c in enumerate(REALS)])
def test_bad_reals_name_the_argument(what, call):
    for value in BAD_REALS:
        with pytest.raises(ValidationError, match=rf"^{re.escape(what)} must be a .*finite real"):
            call(value)


@pytest.mark.parametrize("coeffs", [[], [True, True], ["1", "2"], [1j, 2.0]])
def test_ellipsoid_coefficients_are_a_nonempty_vector_of_reals(coeffs):
    with pytest.raises(ValidationError, match="ellipsoid coefficients"):
        DomainSpec.ellipsoid(coeffs)


def test_scalars_and_vectors_are_not_mixed_up():
    with pytest.raises(ValidationError, match="ball radius must be a finite real"):
        DomainSpec.ball([0, 0], [0.5])
    with pytest.raises(ValidationError, match="horoball radii must be a non-empty vector"):
        horoball_inclusion_check(BLASCHKE, P1, P1, 1 / 3, radii=1.0)


def test_empty_ball_is_refused():
    with pytest.raises(ValidationError, match="ball dimension"):
        DomainSpec.ball([], 1.0)


def test_numpy_scalars_give_the_results_of_python_numbers():
    assert np.array_equal(default_disc_grid(np.int64(50)), default_disc_grid(50))
    fine, coarse = sphere_quadrature(2, np.int64(8)), sphere_quadrature(2, 8)
    assert (fine.resolution, fine.total_mass) == (coarse.resolution, coarse.total_mass)
    z = [0.2, 0.1j]
    ball = DomainSpec.ball([0, 0], np.float64(0.7))
    assert kernel_value(ball, [0.7, 0], z) == \
        kernel_value(DomainSpec.ball([0, 0], 0.7), [0.7, 0], z)
    assert DomainSpec.ellipsoid(np.array([1.0, 2.0])).label == "ellipsoid(1,2)"
    assert power_map(np.int64(3))([0.5]).tolist() == power_map(3)([0.5]).tolist()
    plan = SamplingPlan(seed=np.int64(3), grid_count=np.int64(20))
    assert lambda_estimate(BLASCHKE, P1, P1, plan).lambda_estimate == \
        lambda_estimate(BLASCHKE, P1, P1, SamplingPlan(seed=3, grid_count=20)).lambda_estimate
    assert rescale_couple(-1.0, np.float64(4.0)) == -0.25
