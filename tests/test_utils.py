import math

import numpy as np
import pytest

from plurikernel import DomainSpec, kernel_value, kernel_values, signed_boundary_distance
from plurikernel.errors import ValidationError
from plurikernel.kernels import KernelValue, Provenance, mobius_ball
from plurikernel.utils import as_vector, herm, norm


def _inputs(rng):
    """Seeded points in C^1..C^4 and the other forms the helpers take."""
    out = []
    for n in (1, 2, 3, 4):
        for scale in 10.0 ** rng.uniform(-8, 8, size=50):
            v = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            out += [v, list(v), v.real.copy(), v.real.tolist()]
    out += [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)), rng.normal(size=(2, 4)),
            (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))).T]
    return out


def test_norm_rounds_as_numpy_norm(rng):
    for v in _inputs(rng):
        assert norm(v) == float(np.linalg.norm(np.asarray(v, complex)))
        assert type(norm(v)) is float


def test_herm_rounds_as_numpy_sum(rng):
    vs = _inputs(rng)
    for v, w in zip(vs, vs[4:] + vs[:4]):
        if np.shape(v) == np.shape(w):
            a, b = np.asarray(v, complex), np.asarray(w, complex)
            assert herm(v, w) == complex(np.sum(a * np.conj(b)))
            assert type(herm(v, w)) is complex


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
                                 complex(-math.inf, 0), complex(0, math.inf),
                                 complex(0, -math.inf), math.nan, -math.inf])
def test_as_vector_refuses_non_finite_parts(bad):
    for z in ([0.5, bad], np.array([0.5, bad]), np.array([bad], dtype=complex)):
        with pytest.raises(ValidationError, match="^point has non-finite components$"):
            as_vector(z)


def test_as_vector_refuses_wrong_shapes():
    with pytest.raises(ValidationError, match=r"^expected a point in C\^2, got length 3$"):
        as_vector([0.1, 0.2, 0.3], 2)
    with pytest.raises(ValidationError,
                       match=r"^expected a point \(1-d vector\), got shape \(2, 2\)$"):
        as_vector(np.zeros((2, 2)), 2)


#: Points that are not numbers: text, and values numpy's complex conversion refuses
NOT_NUMBERS = ["a,b", "1", b"1", np.array([object(), 1], dtype=object), [1, "a"], {1: 2},
               ["0.5", "0"], np.array(["1", "0"]), np.array([1, "0.5"], dtype=object)]


@pytest.mark.parametrize("call", [
    lambda z: kernel_value(DomainSpec.unit_ball(2), [1, 0], z),
    lambda z: kernel_values(DomainSpec.ellipsoid([1.0, 2.0]), [1, 0], z),
    lambda z: DomainSpec.ellipsoid([1.0, 2.0]).psi_rows(z),
    lambda z: signed_boundary_distance(DomainSpec.ellipsoid([1.0, 2.0]), z),
    lambda z: mobius_ball([0.5, 0], z),
], ids=["kernel_value", "kernel_values", "psi_rows", "signed_boundary_distance", "mobius_ball"])
def test_points_that_are_not_numbers_raise_validation_error(call):
    # the text "1" would be read as 1+0j; malformed text and objects would
    # raise numpy's bare ValueError or TypeError
    for z in NOT_NUMBERS:
        with pytest.raises(ValidationError, match="^(expected numbers|cannot read) "):
            call(z)


def test_as_vector_does_not_copy_a_complex_vector():
    z = np.array([0.1 + 0.2j, -0.3j])
    assert as_vector(z, 2) is z
    assert as_vector(z.real, 2).dtype == np.complex128


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64(math.nan), np.float64(-math.inf)])
def test_kernel_value_refuses_non_finite_ends(bad):
    for lo, hi in ((bad, -1.0), (-1.0, bad), (bad, bad)):
        with pytest.raises(ValidationError, match="^kernel enclosure must be finite$"):
            KernelValue(lo=lo, hi=hi, provenance=Provenance.SANDWICH_INTERVAL)
    kv = KernelValue(lo=np.float64(-2.0), hi=-1.0, provenance=Provenance.SANDWICH_INTERVAL)
    assert (kv.lo, kv.hi) == (-2.0, -1.0)
