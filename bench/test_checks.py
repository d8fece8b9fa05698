"""Self-tests of the benchmark's checks, without the timed phase.

    python3 -m pytest bench/test_checks.py -q

Each check must pass on the untouched program's outputs and reject a
perturbed output.  Only a few cases of each kind are run, so the tests take
seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import plurikernel as P  # noqa: E402
import workloads as W  # noqa: E402
from checks import Failed, judge, run_op  # noqa: E402

PER_LABEL = 2


def sample_cases(name, seed=0, per_label=PER_LABEL):
    """The first per_label cases of each label of a workload, with their outputs."""
    plan_fn, build_fn = W.WORKLOADS[name]
    cases = build_fn(P, plan_fn(np.random.default_rng(seed)))
    kept, count = [], {}
    for case in cases:
        if count.get(case.label, 0) < per_label:
            count[case.label] = count.get(case.label, 0) + 1
            kept.append(case)
    return [(case, [run_op(fn) for _, fn in case.ops]) for case in kept]


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def workload(request):
    return request.param, sample_cases(request.param)


def failures(case, outs):
    ck, _ = judge([case], outs)
    return ck.failures


def find(cases, label):
    return next((c, o) for c, o in cases if c.label == label)


def test_untouched_outputs_pass(workload):
    name, cases = workload
    for case, outs in cases:
        assert failures(case, outs) == [], (name, case.label)


@pytest.fixture(scope="module")
def kernel_cases():
    return sample_cases("kernel_field")


@pytest.mark.parametrize("label", ["unit_ball:2 kernel", "ball kernel", "ellipsoid:2,2 kernel"])
def test_kernel_value_off_by_relative_1e9_is_rejected(kernel_cases, label):
    case, outs = find(kernel_cases, label)
    (lo, hi), sandwich, env = outs
    bumped = [(lo * (1 + 1e-9), hi * (1 + 1e-9)), sandwich, env]
    assert failures(case, bumped)


def test_uniform_bound_off_by_relative_1e9_is_rejected(kernel_cases):
    case, outs = find(kernel_cases, "ellipsoid:1,2 uniform_bound_check")
    assert failures(case, [(outs[0][0] * (1 + 1e-9),)])


@pytest.mark.parametrize("bad", [lambda lo, hi: (hi, lo - 1e-3), lambda lo, hi: (lo, 1e-3)],
                         ids=["lo_above_hi", "hi_above_0"])
def test_broken_enclosure_is_rejected(kernel_cases, bad):
    case, outs = find(kernel_cases, "ellipsoid:1,2 kernel")
    (lo, hi), sandwich, env = outs
    assert failures(case, [bad(lo, hi), sandwich, env])
    assert failures(case, [(lo, hi), bad(*sandwich), env])


def test_envelope_above_hi_is_rejected(kernel_cases):
    case, outs = find(kernel_cases, "ellipsoid:1,2 kernel")
    (lo, hi), sandwich, _ = outs
    assert failures(case, [(lo, hi), sandwich, (hi + 1e-6 * abs(lo),)])


def seventh_digit(x):
    """x with its 7th significant digit moved by one."""
    return x + 10.0 ** (np.floor(np.log10(abs(x))) - 6)


@pytest.fixture(scope="module")
def ray_cases():
    return sample_cases("boundary_rays")


@pytest.mark.parametrize("label", ["blaschke julia", "power julia", "ball_auto julia",
                                   "compose julia"])
def test_dilation_off_in_7th_digit_is_rejected(ray_cases, label):
    case, outs = find(ray_cases, label)
    lam, horo, (pr1, pr2, pr3), equiv = outs
    assert failures(case, [lam, horo, (seventh_digit(pr1.real), pr2, pr3), equiv])


def test_horoball_violation_is_rejected(ray_cases):
    case, outs = find(ray_cases, "blaschke julia")
    lam, (checked, _, tight), probes, equiv = outs
    assert failures(case, [lam, (checked, 1.0, tight), probes, equiv])


def test_green_and_geodesic_perturbations_are_rejected(ray_cases):
    case, outs = find(ray_cases, "unit_ball:2 green")
    assert failures(case, [(outs[0][0] * (1 + 1e-4),)])
    case, outs = find(ray_cases, "geodesic")
    dev, d1, d2, e1, e2, *phis = outs[0]
    phis[2] += 1e-8
    assert failures(case, [(dev, d1, d2, e1, e2, *phis)])


@pytest.fixture(scope="module")
def quad_cases():
    return sample_cases("quadrature")


@pytest.mark.parametrize("label", ["circle reproduce", "sphere_small reproduce",
                                   "sphere_large reproduce"])
def test_reproduced_value_off_by_1e8_is_rejected(quad_cases, label):
    case, outs = find(quad_cases, label)
    assert failures(case, [(outs[0][0] + 1e-8,)])


def test_rule_mass_off_is_rejected(quad_cases):
    case, outs = find(quad_cases, "sphere_large mass")
    assert failures(case, [(outs[0][0] * (1 + 1e-10),)])


@pytest.fixture(scope="module")
def custom_cases():
    return sample_cases("custom_geometry", per_label=8)   # enough fixed points to see both outcomes


def test_levi_form_not_identity_under_pluriharmonic_perturbation_is_rejected(custom_cases):
    case, outs = find(custom_cases, "perturbed_ball frame")
    (nu1, nu2, levi), dens, radii = outs
    assert failures(case, [(nu1, nu2, levi * (1 + 1e-4)), dens, radii])


def test_distance_off_is_rejected_and_known_fault_is_accepted(custom_cases):
    done = [(c, o) for c, o in custom_cases
            if c.label == "ball signed_boundary_distance" and not isinstance(o[0], Failed)]
    case, outs = done[0]
    assert failures(case, [(outs[0][0] + 1e-8,)])
    assert failures(case, [Failed(P.ConvergenceError("stalled"))]) == []
    assert failures(case, [Failed(ValueError("other"))])


def test_known_enclosure_fault_is_accepted_only_on_its_domain(kernel_cases):
    fault = Failed(P.ValidationError("invalid enclosure [-2.0, -2.1]"))
    case, outs = find(kernel_cases, "ellipsoid:2,2 kernel")
    assert failures(case, [fault, fault, outs[2]]) == []
    assert failures(case, [Failed(ValueError("other")), *outs[1:]])
    case, outs = find(kernel_cases, "ellipsoid:1,2 kernel")
    assert failures(case, [fault, fault, outs[2]])
