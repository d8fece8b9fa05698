"""Sequence extrapolation for limits sampled on geometric step schedules.

Two workhorses:

* ``richardson`` for sequences f(h_k) with h_k = h_0 / ratio**k and an error
  expansion in known powers of h (the powers need not be integers; half-power
  expansions arise along square-root boundary rates).
* ``aitken`` (repeated delta-squared) when only geometric error decay is
  known, e.g. first-order one-sided difference quotients.

Both track an error estimate by comparing neighboring table entries and stop
improving once round-off noise dominates, in the spirit of Ridders' method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, positive, spec_count


@dataclass(frozen=True)
class Extrapolation:
    """Result of extrapolating a sequence to its limit."""

    limit: complex
    error: float          # heuristic error estimate (neighbor-difference)
    diverged: bool = False

    @property
    def real(self) -> float:
        return float(np.real(self.limit))


class RichardsonTableau:
    """A Richardson tableau grown by one value f(h_k) at a time.

    Only the last entry of each column is kept, as a Python complex.
    ``append`` adds one entry to every column,
    ``(fac * upper - lower) / (fac - 1)`` on the last two entries of the
    column before with fac = ratio**p_j, and returns the estimate from the
    values so far: the last entry of the column whose last two entries
    differ least (later columns win ties).  ``orders`` as in ``richardson``;
    when given, the tableau has one column per order.  ``ratio`` is a finite
    real > 0 other than 1.

    The entries round as on numpy complex128 scalars: numpy divides a complex
    by a real scalar by multiplying by its reciprocal, so each column keeps
    s = 1/(fac - 1), and ``abs`` of a Python complex is libm's ``hypot``, as
    numpy's is.  Only the sign of a zero can differ, where a value has a -0.0
    part, and a difference whose modulus overflows raises ``OverflowError``
    where numpy gave inf.
    """

    def __init__(self, ratio: float = 2.0, orders=None):
        ratio = positive(ratio, "step ratio")
        if ratio == 1.0:
            raise ValidationError("step ratio must not be 1, got 1.0")
        self._ratio = ratio
        self._open = orders is None
        orders = [] if orders is None else np.asarray(orders, dtype=float)
        self._facs = [_column(ratio ** p) for p in orders]     # (fac, 1/(fac - 1)) per column
        self.ends = []      # ends[j]: the last entry of column j

    def append(self, value) -> Extrapolation:
        older = self.ends
        if self._open and len(self._facs) < len(older):
            self._facs.append(_column(self._ratio ** np.float64(len(older))))
        ends = [complex(value)]
        for (fac, s), below in zip(self._facs, older):
            ends.append((fac * ends[-1] - below) * s)
        self.ends = ends
        if not older:
            return Extrapolation(limit=ends[0], error=float("inf"))
        best, best_err = ends[0], abs(ends[0] - older[0])
        for below, top in zip(older[1:], ends[1:]):   # a column's first entry has no error
            err = abs(top - below)
            if err <= best_err:
                best, best_err = top, err
        return Extrapolation(limit=best, error=best_err)


def _column(fac) -> tuple:
    """(fac, 1/(fac - 1)) of one tableau column, as floats."""
    return float(fac), 1.0 / float(fac - 1.0)


def richardson(values, ratio: float = 2.0, orders=None) -> Extrapolation:
    """Extrapolate values[k] = f(h0/ratio**k) assuming f(h) = L + sum c_i h^{p_i}.

    ``orders`` lists the exponents p_1 < p_2 < ... of the error expansion;
    defaults to 1, 2, 3, ...  Entries may be fractional.
    """
    seq = np.asarray(values)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    table = RichardsonTableau(ratio, orders)
    for v in seq:
        best = table.append(v)
    return best


def aitken(values) -> Extrapolation:
    """Repeated Aitken delta-squared acceleration of a scalar sequence."""
    s = np.asarray(values, dtype=complex)
    if len(s) == 0:
        raise ValueError("empty sequence")
    best = complex(s[-1])
    best_err = abs(s[-1] - s[-2]) if len(s) >= 2 else float("inf")
    while len(s) >= 3:
        d1 = np.diff(s)
        d2 = np.diff(s, 2)
        safe = np.abs(d2) > 1e-300
        nxt = np.where(safe, s[:-2] - d1[:-1] ** 2 / np.where(safe, d2, 1.0), s[2:])
        s = nxt
        err = abs(s[-1] - s[-2]) if len(s) >= 2 else best_err
        if err <= best_err:
            best_err = err
            best = complex(s[-1])
    return Extrapolation(limit=best, error=float(best_err))


def refine_until(f, *, start_level: int = 3, max_level: int = 26,
                 divergence_threshold: float = 1e9) -> Extrapolation:
    """Sample f at h_k = 2**-k for k = start_level..max_level and Richardson-extrapolate.

    ``f`` takes the array of every level's h and returns the array of its
    values, so the whole ladder is one call, and an error it raises
    propagates.  The tableau is then grown one level at a time.  It stops
    early when the error estimate is exactly 0, which no later level can
    improve, or when a raw value blows past ``divergence_threshold``
    (reported as divergence, with the last raw value as the limit); the
    values past the stop are never read.
    """
    start_level = spec_count(start_level, "start_level", least=0)
    max_level = spec_count(max_level, "max_level", least=start_level)
    hs = np.ldexp(1.0, -np.arange(start_level, max_level + 1))
    values = f(hs)
    if np.shape(values) != hs.shape:
        raise ValueError(f"f returned shape {np.shape(values)} for {len(hs)} levels")
    vals = []
    table = RichardsonTableau()
    best = None
    for v in values:
        if not np.isfinite(v) or abs(v) > divergence_threshold:
            return Extrapolation(limit=complex(v), error=float("inf"), diverged=True)
        vals.append(v)
        ext = table.append(v)
        if len(vals) >= 3:
            best = ext
            if best.error == 0.0:
                break
    if best is None:
        best = richardson(vals)
    return best
