import numpy as np
import pytest

from plurikernel import BoundaryCurve, boundary_limit
from plurikernel.errors import ValidationError
from plurikernel.extrapolate import aitken, refine_until, richardson


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


def test_aitken_geometric_sequence():
    # s_k = L + c r^k
    ks = np.arange(12)
    vals = 2.0 + 3.0 * 0.5 ** ks
    ext = aitken(vals)
    assert ext.real == pytest.approx(2.0, abs=1e-10)


def test_refine_until_divergence_flag():
    ext = refine_until(lambda h: 1.0 / h, start_level=3, max_level=24,
                       divergence_threshold=1e6)
    assert ext.diverged


def test_refine_until_convergence():
    ext = refine_until(lambda h: -2.0 + 0.7 * h + h * h, start_level=3, max_level=20)
    assert not ext.diverged
    assert ext.real == pytest.approx(-2.0, abs=1e-10)


def _full_tableau(values, ratio=2.0, orders=None):
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
        fac = ratio ** orders[j - 1]
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
    """refine_until's loop (no divergence) with the full tableau rebuilt at every level."""
    vals, best = [], None
    for v in f(2.0 ** -np.arange(start_level, max_level + 1.0)):
        vals.append(v)
        if len(vals) >= 3:
            best = _full_tableau(vals)
            if best[1] == 0.0:
                break
    return best if best is not None else _full_tableau(vals)


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
            for ratio, orders in ((2.0, None), (2.0, np.arange(1, m) * 0.5),
                                  (2.0, [1.0, 2.0]), (3.0, None), (2.0, [])):
                ext = richardson(vals, ratio=ratio, orders=orders)
                assert (ext.limit, ext.error) == _full_tableau(vals, ratio, orders)


def test_refine_until_equals_full_tableau_bit_for_bit(rng):
    for f in _fields(rng):
        for start, stop in ((3, 26), (4, 24), (3, 5), (3, 4)):
            ext = refine_until(f, start_level=start, max_level=stop)
            assert (ext.limit, ext.error) == _rebuilt_every_level(f, start, stop)


def test_refine_until_walks_the_levels_when_the_array_call_raises(rng):
    # an array call that raises at h <= 2^-12 (as an enclosure can fail deep
    # on a ray): a ladder that stops above that h returns the per-level
    # ladder's result, one that reaches it raises the same error
    h_bad = 2.0 ** -12

    def guarded(f, seen):
        def g(h):
            seen.append(len(h))
            if np.any(h <= h_bad):
                raise ValidationError("enclosure fails below 2^-12")
            return f(h)
        return g

    stopping = [lambda h: np.ones_like(h), lambda h: 2.0 + h, lambda h: -2.0 + 0.7 * h + h * h]
    for f in stopping:
        seen = []
        ext = refine_until(guarded(f, seen), start_level=3, max_level=26)
        assert ext == refine_until(f, start_level=3, max_level=26)
        assert seen[0] == 24 and set(seen[1:]) == {1} and 3 <= len(seen) - 1 < 9
    seen = []
    ext = refine_until(guarded(lambda h: 1.0 / h, seen), start_level=3, max_level=26,
                       divergence_threshold=1e3)
    assert ext.diverged and ext.limit == 1024.0 and seen == [24] + [1] * 8
    for f in _fields(rng)[4:]:
        seen = []
        with pytest.raises(ValidationError):
            refine_until(guarded(f, seen), start_level=3, max_level=26)
        assert seen == [24] + [1] * 10
    with pytest.raises(ValueError, match="shape"):    # one value for every level
        refine_until(lambda h: 1.0)


def test_boundary_limit_equals_full_tableau_bit_for_bit(rng):
    e1 = np.array([1.0, 0.0], dtype=complex)
    curve = BoundaryCurve(gamma=lambda t: np.array([t, 0.0], dtype=complex),
                          gamma_prime_at_1=e1)
    for f in _fields(rng):
        def evaluator(z, f=f):
            return f(1.0 - z[0].real) / (1.0 - z[0].real)

        # boundary_limit's loop, with the full tableau rebuilt at every level
        vals, best = [], None
        for k in range(3, 27):
            h = 2.0 ** (-k)
            vals.append(evaluator(curve.gamma(1.0 - h)) * h)
            if len(vals) >= 3:
                ext = _full_tableau(vals)
                if best is None or ext[1] <= best[1]:
                    best = ext
                elif ext[1] > 16.0 * max(best[1], 1e-15):
                    break
        res = boundary_limit(evaluator, curve, e1)
        assert (res.estimate, res.error, res.levels) == (best[0].real, best[1], len(vals))


def test_empty_sequences_rejected():
    with pytest.raises(ValueError):
        richardson([])
    with pytest.raises(ValueError):
        aitken([])
