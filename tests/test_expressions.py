import math

import numpy as np
import pytest

from plurikernel.expressions import ScalarField
from plurikernel.errors import DomainError, ValidationError


def test_basic_evaluation():
    f = ScalarField("z1*conj(z1) + 2*z2*conj(z2) - 1", n=2)
    assert f([1.0, 0.0]) == pytest.approx(0.0)
    assert f([0.0, 0.0]) == pytest.approx(-1.0)
    g = ScalarField("re(z1*z2)", n=2)
    assert g([1 + 1j, 1j]) == pytest.approx(-1.0)


def test_functions_and_constants():
    f = ScalarField("abs(exp(i*pi*z1))", n=1)
    assert f([1.0]) == pytest.approx(1.0)
    g = ScalarField("sqrt(z1)**2", n=1)
    assert g([4.0]) == pytest.approx(4.0)
    h = ScalarField("im(z1) + e", n=1)
    assert h([2j]) == pytest.approx(2.0 + math.e)


def test_vectorized_over_coordinate_arrays():
    f = ScalarField("re(z1)**2", n=2)
    pts = np.array([[1.0, 0.0], [0.5, 0.2], [0.0, 1.0]], dtype=complex)
    assert np.allclose(f(pts), [1.0, 0.25, 0.0])


def test_constant_field_gives_one_complex_value_per_point():
    pts = np.zeros((4, 3, 2), dtype=complex)
    for source in ("1", "-2.5", "conj(i)"):
        values = ScalarField(source, n=2)(pts)
        assert values.shape == (4, 3) and values.dtype == complex
        assert np.all(values == complex(ScalarField(source, n=2)([0.0, 0.0])))


def test_rejects_unknown_names_and_calls():
    with pytest.raises(ValidationError):
        ScalarField("__import__('os')", n=1)
    with pytest.raises(ValidationError):
        ScalarField("open('x')", n=1)
    with pytest.raises(ValidationError):
        ScalarField("z1.real", n=1)
    with pytest.raises(ValidationError):
        ScalarField("z3", n=2)
    with pytest.raises(ValidationError):
        ScalarField("lambda: 1", n=1)
    with pytest.raises(ValidationError):
        ScalarField("[1,2]", n=1)
    with pytest.raises(ValidationError):
        ScalarField("exp(z1, 2)entirely bogus", n=1)


def test_rejects_string_literals_and_keywords():
    with pytest.raises(ValidationError):
        ScalarField("'abc'", n=1)
    with pytest.raises(ValidationError):
        ScalarField("abs(x='1')", n=1)


# one case per jet rule, f(z) on C: derivatives in (z, conj z) worked out by
# hand; a holomorphic g has first derivatives (g', 0) and second [[g'', 0], [0, 0]]
Z0 = 0.7 - 0.4j


def _holomorphic(g1, g2):
    return np.array([g1, 0]), np.array([[g2, 0], [0, 0]])


def _abs_jet(z):
    r = abs(z)
    return (np.array([np.conj(z), z]) / (2 * r),
            np.array([[-np.conj(z) ** 2, r * r], [r * r, -z * z]]) / (4 * r ** 3))


JET_CASES = [
    ("1/z1", lambda z: _holomorphic(-1 / z ** 2, 2 / z ** 3)),
    ("z1**3", lambda z: _holomorphic(3 * z ** 2, 6 * z)),
    ("z1**-2", lambda z: _holomorphic(-2 / z ** 3, 6 / z ** 4)),
    ("z1**2.5", lambda z: _holomorphic(2.5 * z ** 1.5, 3.75 * z ** 0.5)),
    ("z1**z1", lambda z: _holomorphic(z ** z * (np.log(z) + 1),
                                      z ** z * ((np.log(z) + 1) ** 2 + 1 / z))),
    ("2**z1", lambda z: _holomorphic(np.log(2) * 2 ** z, np.log(2) ** 2 * 2 ** z)),
    ("exp(2*z1)", lambda z: _holomorphic(2 * np.exp(2 * z), 4 * np.exp(2 * z))),
    ("log(z1)", lambda z: _holomorphic(1 / z, -1 / z ** 2)),
    ("sqrt(z1)", lambda z: _holomorphic(0.5 / np.sqrt(z), -0.25 / z ** 1.5)),
    ("abs(z1)", _abs_jet),
    ("im(z1)", lambda z: (np.array([-0.5j, 0.5j]), np.zeros((2, 2)))),
    ("re(z1*z1)", lambda z: (np.array([z, np.conj(z)]), np.diag([1.0, 1.0]))),
    ("z1/conj(z1)", lambda z: (np.array([1 / np.conj(z), -z / np.conj(z) ** 2]),
                               np.array([[0, -1 / np.conj(z) ** 2],
                                         [-1 / np.conj(z) ** 2, 2 * z / np.conj(z) ** 3]]))),
]


@pytest.mark.parametrize("source,reference", JET_CASES)
def test_jet_rules_against_hand_derivatives(source, reference):
    f = ScalarField(source, n=1)
    value, d, h = f.jet([Z0])
    want_d, want_h = reference(Z0)
    assert value == pytest.approx(f([Z0]), rel=1e-14)
    assert np.max(np.abs(d - want_d)) <= 1e-14 * np.max(np.abs(want_d))
    assert np.max(np.abs(h - want_h)) <= 1e-14 * max(np.max(np.abs(want_h)), 1.0)


def test_jet_mixed_second_derivatives():
    # f = z1^2 conj(z2) + exp(z1 z2): second derivatives in (z1, z2, conj z1, conj z2)
    z1, z2 = 0.3 + 0.2j, -0.5 + 0.1j
    _, d, h = ScalarField("z1**2*conj(z2) + exp(z1*z2)", n=2).jet([z1, z2])
    e = np.exp(z1 * z2)
    assert np.allclose(d, [2 * z1 * np.conj(z2) + z2 * e, z1 * e, 0, z1 ** 2], rtol=1e-14, atol=0)
    want = np.zeros((4, 4), complex)
    want[0, 0] = 2 * np.conj(z2) + z2 * z2 * e
    want[0, 1] = want[1, 0] = e + z1 * z2 * e
    want[1, 1] = z1 * z1 * e
    want[0, 3] = want[3, 0] = 2 * z1
    assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(want))


def test_jet_of_constant_and_affine_fields():
    value, d, h = ScalarField("2*pi - 1", n=2).jet([0.5, 0.5])
    assert value == 2 * math.pi - 1
    assert not d.any() and h.shape == (4, 4) and not h.any()
    value, d, h = ScalarField("3*z2 - conj(z1)", n=2).jet([1j, 2.0])
    assert value == 6.0 + 1j
    assert np.array_equal(d, [0, 3, -1, 0]) and not h.any()


@pytest.mark.parametrize("source", ["abs(z1)", "abs(z1)**1.5", "abs(z1)*abs(z1)", "sqrt(z1)",
                                    "log(z1)", "1/z1", "z1**-1", "z1**0.5", "z1**z1", "z2/0"])
def test_jet_without_derivative_at_zero_raises(source):
    with pytest.raises(DomainError):
        ScalarField(source, n=2).jet([0.0, 1.0])


def test_jet_overflow_raises_domain_error():
    for source in ("exp(z1)", "z1**2", "z1*z1*z1"):
        with pytest.raises(DomainError):
            ScalarField(source, n=1).jet([1e200])
    # the value 1e20 is finite, but d/dz2 = z1**2 overflows in the numpy product
    field = ScalarField("z1*z2*z1", n=2)
    assert np.isfinite(field([1e160, 1e-300]))
    with pytest.raises(DomainError):
        field.jet([1e160, 1e-300])


def test_jet_smooth_powers_at_zero():
    _, d, h = ScalarField("z1**2 + z1**1.0 + z1**0", n=1).jet([0.0])
    assert np.array_equal(d, [1, 0])
    assert np.array_equal(h, [[2, 0], [0, 0]])
    # abs(u)**p = (u conj(u))**(p/2) is smooth at u = 0 for p >= 2
    value, d, h = ScalarField("abs(z1)**2", n=1).jet([0.0])
    assert value == 0 and not d.any() and np.array_equal(h, [[0, 1], [1, 0]])
    for source in ("abs(z1)**3", "abs(z1)**2.5", "abs(z1-1j)**4"):
        value, d, h = ScalarField(source, n=1).jet([1j if "1j" in source else 0.0])
        assert value == 0 and not d.any() and not h.any()


def test_field_calls_bind_only_their_own_coordinates():
    # every call binds z1..zn afresh: a point without z2 finds no z2 left over
    # from the last call, of the same field or of another; it is refused
    f, g = ScalarField("z1 + z2", n=2), ScalarField("z1 * z2", n=2)
    assert f([[1.0, 2.0]])[0] == 3.0 and g.jet([1.0, 2.0])[0] == 2.0
    for field in (f, g):
        with pytest.raises(ValidationError, match="z2"):
            field([[5.0]])
        with pytest.raises(ValidationError, match="z2"):
            field.jet([5.0])
        with pytest.raises(ValidationError, match="2 coordinates"):
            field([[5.0, 1.0, 2.0]])
        with pytest.raises(ValidationError, match="2 coordinates"):
            field.jet([5.0, 1.0, 2.0])
    assert f([[5.0, 1.0]])[0] == 6.0 and g.jet([5.0, 1.0])[0] == 5.0


def test_jet_seeds_are_read_only():
    # the jets of z1..zn start from identity rows and a zero Hessian cached per
    # dimension; a jet that hands them out cannot be used to change them
    for _ in range(2):
        value, d, h = ScalarField("z2", n=2).jet([0.5, 0.25])
        assert value == 0.25 and np.array_equal(d, [0, 1, 0, 0]) and not h.any()
        for seed in (d, h):
            with pytest.raises(ValueError, match="read-only"):
                seed[0] = 7.0
