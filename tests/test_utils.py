import dataclasses
import math
import pickle

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


def _fast_and_generic(rng):
    """Seeded complex128 values as a C-contiguous ndarray, and the same numbers in forms
    that take the generic paths: a list, a big-endian array and a strided view; and real
    values as complex128 and as real arrays.  Up to 1001 long, so that a sum taken in
    another order would round otherwise.
    """
    out = []
    for shape in [(1,), (2,), (3,), (17,), (64,), (1001,), (3, 2), (4, 5)]:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a *= 10.0 ** rng.uniform(-8, 8)
        wide = np.repeat(a, 2, axis=-1)
        out.append((a, [a.tolist(), a.astype(">c16"), wide[..., ::2]]))
        real = a.real.copy()
        out.append((real.astype(complex), [real, real.tolist(), real.astype(">f8")]))
    return out


def _bits(x) -> tuple:
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def test_fast_paths_give_the_generic_paths_bytes(rng):
    cases = _fast_and_generic(rng)
    for i, (fast, generic) in enumerate(cases):
        assert fast.dtype is np.dtype(complex) and fast.flags.c_contiguous
        if fast.ndim == 1:
            assert as_vector(fast) is fast
            # the same numbers with negative strides, which np.linalg.norm sums in memory order
            rev = fast[::-1].copy()[::-1]
            assert norm(rev).hex() == float(np.linalg.norm(rev)).hex()
        for g in generic:
            if fast.ndim == 1:
                v = as_vector(g)
                assert (v.dtype.str, v.tobytes()) == (fast.dtype.str, fast.tobytes())
            assert norm(g).hex() == norm(fast).hex()
        fast2, generic2 = cases[i ^ 1]      # the other case of the same shape
        want = _bits(herm(fast, fast2))
        for g, g2 in zip(generic, generic2):
            assert _bits(herm(g, g2)) == _bits(herm(fast, g2)) == _bits(herm(g, fast2)) == want


def test_kernel_value_is_a_frozen_slotted_record():
    kv = KernelValue.interval(-2.0, -1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kv.lo = -3.0
    assert not hasattr(kv, "__dict__")
    again = pickle.loads(pickle.dumps(kv))
    assert again == kv and (again.lo, again.hi, again.provenance) == (-2.0, -1.0, kv.provenance)
    # replace builds a new record, through the same tests and clamps
    with pytest.raises(ValidationError, match="^kernel enclosure must be finite$"):
        dataclasses.replace(kv, lo=math.nan)
    with pytest.raises(ValidationError, match=r"^invalid enclosure \[-0.5, -1.0\]$"):
        dataclasses.replace(kv, lo=-0.5)
    assert dataclasses.replace(kv, hi=5e-10).hi == 0.0
