import cmath
import math
import warnings

import numpy as np
import pytest

from plurikernel import BoundaryCurve, DomainSpec, boundary_limit, kernel_value
from plurikernel.errors import ValidationError
from plurikernel.extrapolate import refine_until, richardson

import oracle


def test_richardson_polynomial_sequence():
    # f(h) = 3 + 2h + 5h^2 sampled on h = 2^-k: limit recovered exactly
    hs = 2.0 ** -np.arange(2, 12)
    vals = 3.0 + 2.0 * hs + 5.0 * hs ** 2
    ext = richardson(vals)
    assert ext.real == pytest.approx(3.0, abs=1e-12)
    assert ext.error < 1e-10


def test_richardson_half_integer_orders():
    hs = 2.0 ** -np.arange(2, 16)
    vals = 1.0 + 4.0 * np.sqrt(hs) + 2.0 * hs
    ext = richardson(vals, orders=np.arange(1, len(vals)) * 0.5)
    assert ext.real == pytest.approx(1.0, abs=1e-9)


def test_richardson_does_not_claim_convergence_for_linear_growth():
    # regression: sequences growing linearly in the level index must not
    # produce a tiny error estimate from a single-entry table column
    vals = 0.35 * np.arange(20) + 1.0
    ext = richardson(vals)
    assert ext.error > 0.1


def test_refine_until_divergence_flag():
    ext = refine_until(lambda h: 1.0 / h, start_level=3, max_level=24,
                       divergence_threshold=1e6)
    assert ext.diverged


def test_refine_until_convergence():
    ext = refine_until(lambda h: -2.0 + 0.7 * h + h * h, start_level=3, max_level=20)
    assert not ext.diverged
    assert ext.real == pytest.approx(-2.0, abs=1e-10)


def test_late_exact_match_off_the_best_is_not_taken():
    # converging values with an alternating 1e-12 that no column cancels, then two
    # equal values 3e-9 off the limit: the ladder's last level is exact, past the
    # floor, and its match is refused for the best estimate
    hs = 2.0 ** -np.arange(3, 27.0)
    vals = 2.0 + 0.5 * hs + 1e-12 * (-1.0) ** np.arange(24)
    vals[-2:] = 2.0 + 3e-9
    ext = richardson(vals)
    assert ext.error == 0.0 and ext.limit == 2.0 + 3e-9
    ext = refine_until(lambda h: vals)
    assert ext.levels == 24 and 0.0 < ext.error < 1e-10
    assert abs(ext.limit - 2.0) < 1e-11


def test_boundary_limit_refuses_a_late_false_match():
    # a benchmark curve (seed 3) whose 24th level is exact on a limit 1.6e-8
    # relative off the transversal limit; the ladder keeps its best estimate
    p = np.array([-0.8004256017097539 + 0.5101115654460571j, 0.31476147745020444 + 0.005500839855510779j])
    d = np.array([-0.7086584370843689 + 0.529069880482922j, 0.4197186527071599 + 0.2042658407189337j])
    ball = DomainSpec.unit_ball(2)
    curve = BoundaryCurve(gamma=lambda t: p - (1.0 - t) * d, gamma_prime_at_1=d)
    ext = richardson([kernel_value(ball, p, curve.gamma(1.0 - h)).value * h
                      for h in 2.0 ** -np.arange(3, 27.0)])
    exact = oracle.R.transversal_limit(d, p)
    assert ext.error == 0.0 and oracle.rel_error(ext.limit, exact) > 1e-8
    res = boundary_limit(lambda z: kernel_value(ball, p, z), curve, p)
    assert res.levels == 24 and oracle.rel_error(res.estimate, exact) < 1e-14


def _full_tableau(values, orders=None):
    """richardson with every column of the tableau built as a whole array."""
    seq = np.asarray(values)
    m = len(seq)
    if m == 1:
        return seq[0], float("inf")
    orders = np.asarray(np.arange(1, m) if orders is None else orders, dtype=float)
    table = [seq.astype(complex)]
    best, best_err = complex(seq[-1]), abs(seq[-1] - seq[-2])
    for j in range(1, m):
        if j - 1 >= len(orders):
            break
        fac = 2.0 ** orders[j - 1]
        prev = table[-1]
        cur = (fac * prev[1:] - prev[:-1]) / (fac - 1.0)
        table.append(cur)
        if len(cur) < 2:
            break
        err = abs(cur[-1] - cur[-2])
        if err <= best_err:
            best_err, best = err, complex(cur[-1])
    return complex(best), float(best_err)


def _rebuilt_every_level(f, start_level, max_level):
    """refine_until's stop rule (no divergence) with the full tableau rebuilt at every level.

    Returns (limit, error, levels read).
    """
    vals, best, floor = [], None, False
    hs = 2.0 ** -np.arange(start_level, max_level + 1.0)
    for v in f(hs):
        vals.append(v)
        if len(vals) < min(3, len(hs)):
            continue
        ext = _full_tableau(vals)
        slack = 16.0 * max(best[1], 1e-15) if best else None
        if not floor and (best is None or ext[1] <= best[1]):
            best = ext
            if ext[1] == 0.0:
                return (*best, len(vals))
        elif not floor:
            floor = ext[1] > slack
        elif ext[1] == 0.0 and abs(ext[0] - best[0]) <= slack:
            return (*ext, len(vals))
    return (*best, len(vals))


def _fields(rng):
    """Fields of h that take one step or an array of steps."""
    fields = [lambda h: -2.0 + 0.7 * h + h * h, lambda h: 2.0 + h, lambda h: np.ones_like(h),
              lambda h: np.cos(h) + 1j * np.sin(3.0 * h)]
    for a, b, c in rng.normal(size=(20, 3)):
        fields.append(lambda h, a=a, b=b, c=c:
                      a + b * np.sqrt(h) + c * np.log1p(h) + 1e-13 * np.sin(1e7 * h))
    return fields


def test_richardson_equals_full_tableau_bit_for_bit(rng):
    hs = 2.0 ** -np.arange(2, 27)
    seqs = [np.ones(6), 0.35 * np.arange(20) + 1.0, 3.0 + 2.0 * hs + 5.0 * hs ** 2]
    seqs += [np.array([f(h) for h in hs]) for f in _fields(rng)]
    seqs += list(rng.normal(size=(10, 12)) + 1j * rng.normal(size=(10, 12)))
    for seq in seqs:
        for m in (1, 2, 3, 7, len(seq)):
            vals = seq[:m]
            for orders in (None, np.arange(1, m) * 0.5, [1.0, 2.0], []):
                ext = richardson(vals, orders=orders)
                assert (ext.limit, ext.error) == _full_tableau(vals, orders)
                assert ext.levels == len(vals)


def test_refine_until_equals_full_tableau_bit_for_bit(rng):
    for f in _fields(rng):
        for start, stop in ((3, 26), (4, 24), (3, 5), (3, 4)):
            ext = refine_until(f, start_level=start, max_level=stop)
            assert (ext.limit, ext.error, ext.levels) == _rebuilt_every_level(f, start, stop)


@pytest.mark.parametrize("error", [ValidationError, FloatingPointError])
def test_refine_until_propagates_an_array_call_error(rng, error):
    # f is called once, on every level's h: an error it raises at h <= 2^-12
    # (as an enclosure can fail deep on a ray) propagates with its type, also
    # where the ladder would have stopped above that h
    h_bad = 2.0 ** -12

    def guarded(f, seen):
        def g(h):
            seen.append(len(h))
            if np.any(h <= h_bad):
                raise error("fails below 2^-12")
            return f(h)
        return g

    for f in [lambda h: np.ones_like(h), lambda h: 2.0 + h, lambda h: 1.0 / h] + _fields(rng):
        seen = []
        with pytest.raises(error, match="fails below"):
            refine_until(guarded(f, seen), start_level=3, max_level=26,
                         divergence_threshold=1e3)
        assert seen == [24]
    with pytest.raises(ValueError, match="shape"):    # one value for every level
        refine_until(lambda h: 1.0)


def test_boundary_limit_equals_full_tableau_bit_for_bit(rng):
    e1 = np.array([1.0, 0.0], dtype=complex)
    curve = BoundaryCurve(gamma=lambda t: np.array([t, 0.0], dtype=complex),
                          gamma_prime_at_1=e1)
    for f in _fields(rng):
        def evaluator(z, f=f):
            return f(1.0 - z[0].real) / (1.0 - z[0].real)

        # refine_until's stop rule on h f(gamma(1 - h)), with the full tableau rebuilt at every level
        best = _rebuilt_every_level(
            lambda hs: [evaluator(curve.gamma(1.0 - h)) * h for h in hs], 3, 26)
        res = boundary_limit(evaluator, curve, e1)
        assert (res.estimate, res.error, res.levels) == (best[0].real, best[1], best[2])


class _Complex128Tableau:
    """A tableau grown one value at a time on numpy complex128 scalars, the arithmetic
    ``richardson`` must round as.

    ``append`` returns the estimate of the values so far as (limit, error), and
    whether some column's last two entries agree.
    """

    def __init__(self, orders=None):
        self.open = orders is None
        self.facs = [] if orders is None else [2.0 ** p for p in np.asarray(orders, dtype=float)]
        self.ends = []

    def append(self, value):
        older = self.ends
        if self.open and len(self.facs) < len(older):
            self.facs.append(2.0 ** np.float64(len(older)))
        ends = [np.complex128(value)]
        for fac, below in zip(self.facs, older):
            ends.append((fac * ends[-1] - below) / (fac - 1.0))
        self.ends = ends
        if not older:
            return complex(ends[0]), float("inf"), False
        best, best_err = ends[0], abs(ends[0] - older[0])
        for below, top in zip(older[1:], ends[1:]):
            err = abs(top - below)
            if err <= best_err:
                best, best_err = top, err
        return complex(best), float(best_err), any(x - y == 0 for x, y in zip(ends, older))


def test_tableau_rounds_as_complex128_scalars(rng):
    hs = 2.0 ** -np.arange(3, 27)
    seqs = [f(hs) for f in _fields(rng)]
    for scale in 10.0 ** rng.uniform(-6, 6, size=40):
        seqs += [scale * rng.normal(size=24),
                 scale * (rng.normal(size=24) + 1j * rng.normal(size=24))]
    # a constant tail, a complex value after real ones, and a -0.0 imaginary part
    negative_zero = (1.0 + 0.3 * hs).astype(complex)
    negative_zero.imag = -0.0
    seqs += [np.r_[1.0 + hs[:10], np.full(14, 1.5)],
             np.r_[2.0 - hs[:12], 2.0 - hs[12:] + 1e-9j],
             negative_zero]
    for seq in seqs:
        # open orders, as refine_until and boundary_limit grow them, and the
        # half-integer orders jwc_derivative_probes passes
        for orders in (None, np.arange(1, len(seq)) * 0.5):
            ref = _Complex128Tableau(orders=orders)
            for m in range(1, len(seq) + 1):
                ext = richardson(seq[:m], orders=orders)
                limit, error, exact = ref.append(seq[m - 1])
                assert (ext.limit, ext.error) == (limit, error)
                assert type(ext.limit) is complex and type(ext.error) is float
                assert exact == (ext.error == 0.0)


def test_overflowing_column_factor_gives_a_nan_error():
    # 2**k overflows from the 1024th column on, which the default orders of
    # 1,099 values would reach; a nan value gives a nan error, as on 10
    # values, with no warning and no OverflowError
    seq = [0.49, 1.83, 0.62, 0.13, 0.71, -0.92, -0.34, 0.79, 0.63, math.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (seq, seq[:-1] * 122 + [math.nan]):
            ext = richardson(values)
            assert cmath.isnan(ext.limit) and math.isnan(ext.error)
            # finite values keep the estimate of the columns whose factors are finite
            ext = richardson(values[:-1])
            assert math.isfinite(ext.error)


def test_orders_whose_factor_rounds_to_one_are_refused():
    for orders in ([1e-17], [1.0, 1e-17]):
        with pytest.raises(ValidationError, match=r"^Richardson order .* gives the column factor"):
            richardson([1.0, 1.5, 1.75], orders=orders)
    # no orders at all: the raw sequence, as before
    assert richardson([1.0, 1.5, 1.75], orders=[]).limit == 1.75


def test_orders_whose_factor_overflows_are_refused():
    # 2**p is finite for every p below 1024 and overflows from 1024 on
    for orders in ([1024.0], [1.0, 2000.0], [np.nextafter(1024.0, 2000.0)]):
        with pytest.raises(ValidationError, match=r"^Richardson order .* column factor 2\*\*p = inf"):
            richardson([1.0, 1.5, 1.75], orders=orders)
    ext = richardson([1.0, 1.5, 1.75], orders=[np.nextafter(1024.0, 0.0)])
    assert (ext.limit, ext.error) == (1.75, 0.25)


def test_empty_sequences_rejected():
    with pytest.raises(ValueError):
        richardson([])
