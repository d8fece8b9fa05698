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

import math
import operator
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

    ``append`` adds one entry to every column, ``(fac * upper - lower) /
    (fac - 1)`` on the last two entries of the column before, with
    fac = ratio**p_j.  ``estimate`` gives the last entry of the column whose
    last two entries differ least (later columns win ties), with that
    difference as its error; ``exact``, whether some column's last two
    entries agree (for finite values, an error of 0).  ``orders`` as in
    ``richardson``; ``ratio`` is a finite real > 0 other than 1.

    The entries round as on numpy complex128 scalars: numpy divides a complex
    by a real scalar by multiplying by its reciprocal, so each column keeps
    s = 1/(fac - 1), and ``abs`` of a Python complex is libm's ``hypot``, as
    numpy's is.  Only the sign of a zero can differ, where a value has a -0.0
    part, and a difference whose modulus overflows raises ``OverflowError``
    where numpy gave inf.  While the values are real with imaginary part
    +0.0, every fac > 1 and every entry is finite, the entries are those
    entries' real parts as Python floats (their imaginary parts stay +0.0).
    """

    def __init__(self, ratio: float = 2.0, orders=None):
        ratio = positive(ratio, "step ratio")
        if ratio == 1.0:
            raise ValidationError("step ratio must not be 1, got 1.0")
        self._ratio = ratio
        self._open = orders is None
        orders = [] if self._open or not np.size(orders) else \
            positive(orders, "Richardson orders", vector=True).tolist()
        self._facs = [_column(ratio, p) for p in orders]     # (fac, 1/(fac - 1)) per column
        self._real = ratio > 1.0 and all(fac > 1.0 for fac, _ in self._facs)
        self.ends = []      # ends[j]: the last entry of column j
        self._below = []    # the ends before the last append

    def append(self, value) -> None:
        older = self.ends
        if self._open and len(self._facs) < len(older):
            self._facs.append(_column(self._ratio, float(len(older))))
        v = complex(value)
        if self._real and v.imag == 0.0 and math.copysign(1.0, v.imag) > 0.0:
            ends = self._entries(v.real, older)
            if math.isfinite(ends[-1]):     # a non-finite entry spreads to the last one
                self._below, self.ends = older, ends
                return
        if self._real:
            self._real = False
            older = [complex(x) for x in older]
        self._below, self.ends = older, self._entries(v, older)

    def _entries(self, top, older) -> list:
        ends = [top]
        for (fac, s), below in zip(self._facs, older):
            ends.append((fac * ends[-1] - below) * s)
        return ends

    def estimate(self) -> Extrapolation:
        """The estimate from the values so far (error inf after one value)."""
        ends, older = self.ends, self._below
        if not older:
            return Extrapolation(limit=complex(ends[0]), error=float("inf"))
        best, best_err = ends[0], abs(ends[0] - older[0])
        for below, top in zip(older[1:], ends[1:]):   # a column's first entry has no error
            err = abs(top - below)
            if err <= best_err:
                best, best_err = top, err
        return Extrapolation(limit=complex(best), error=best_err)

    def exact(self) -> bool:
        """Whether some column's last two entries x, y have x - y == 0 (inf - inf is not)."""
        return 0.0 in map(operator.sub, self.ends, self._below)


def _column(ratio: float, p: float) -> tuple:
    """(fac, 1/(fac - 1)) of the column of order p, fac = ratio**p (inf past the float range)."""
    try:
        fac = ratio ** p
    except OverflowError:
        # libm left errno at ERANGE, which CPython's abs of a complex with a nan
        # part would report later as OverflowError; math.pow of inf clears it
        fac = math.pow(math.inf, 1.0)
    if fac == 1.0:
        raise ValidationError(f"Richardson order {p!r} gives the column factor {ratio!r}**p = 1")
    return fac, 1.0 / (fac - 1.0)


def richardson(values, ratio: float = 2.0, orders=None) -> Extrapolation:
    """Extrapolate values[k] = f(h0/ratio**k) assuming f(h) = L + sum c_i h^{p_i}.

    ``orders`` lists the exponents p_1 < p_2 < ... of the error expansion;
    defaults to 1, 2, 3, ...  Entries may be fractional; each is a finite
    real > 0 with ratio**p not 1, else ValidationError.
    """
    seq = np.asarray(values)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    table = RichardsonTableau(ratio, orders)
    for v in seq.tolist():
        table.append(v)
    return table.estimate()


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
        s = np.where(safe, s[:-2] - d1[:-1] ** 2 / np.where(safe, d2, 1.0), s[2:])
        err = abs(s[-1] - s[-2]) if len(s) >= 2 else best_err
        if err <= best_err:
            best, best_err = complex(s[-1]), err
    return Extrapolation(limit=best, error=float(best_err))


def refine_until(f, *, start_level: int = 3, max_level: int = 26,
                 divergence_threshold: float = 1e9) -> Extrapolation:
    """Sample f at h_k = 2**-k for k = start_level..max_level and Richardson-extrapolate.

    ``f`` takes the array of every level's h and returns the array of its
    values, so the whole ladder is one call, and an error it raises
    propagates.  The tableau is then grown one level at a time, and stops
    early once it is ``exact`` (an error of 0, which no later level can
    improve) or when a raw value blows past ``divergence_threshold``
    (divergence, with the last raw value as the limit).  The estimate is
    taken once, at the stop; the values past it are never read.
    """
    start_level = spec_count(start_level, "start_level", least=0)
    max_level = spec_count(max_level, "max_level", least=start_level)
    hs = np.ldexp(1.0, -np.arange(start_level, max_level + 1))
    values = f(hs)
    if np.shape(values) != hs.shape:
        raise ValueError(f"f returned shape {np.shape(values)} for {len(hs)} levels")
    table = RichardsonTableau()
    for k, v in enumerate(values):
        if not np.isfinite(v) or abs(v) > divergence_threshold:
            return Extrapolation(limit=complex(v), error=float("inf"), diverged=True)
        table.append(v)
        if k >= 2 and table.exact():
            break
    return table.estimate()
