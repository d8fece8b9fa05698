"""Richardson extrapolation of limits sampled on halving step schedules.

``richardson`` extrapolates a whole sequence f(h0 / 2**k) whose error
expands in known powers of h (half-integer ones arise along square-root
boundary rates).  ``refine_until`` is the one ladder: it reads the tableau
level by level and keeps the estimate with the least error until round-off
noise dominates, in the spirit of Ridders' method.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, positive, spec_count


@dataclass(frozen=True)
class Extrapolation:
    """Result of extrapolating a sequence to its limit."""

    limit: complex
    error: float          # heuristic error estimate (neighbor-difference)
    diverged: bool = False
    levels: int = 0       # values read

    @property
    def real(self) -> float:
        return float(np.real(self.limit))


def _tableau(values: list, orders=None):
    """Yield, for each value in turn, the ends of the tableau's columns and the ends before them.

    ends[0] is the value and ends[j + 1] = (fac * ends[j] - below[j]) * s, with
    fac = 2**orders[j] and s = 1/(fac - 1), as numpy divides a complex by a real
    scalar.  The entries keep the values' type, as ``tolist()`` gives it: Python
    floats on real values, else Python complex numbers, which round as numpy
    complex128 scalars do (``abs`` is libm's ``hypot``, as numpy's is) but for
    the sign of a zero part.  ``orders`` defaults to 1, 2, 3, ...
    """
    if orders is None:
        orders = range(1, min(len(values), sys.float_info.max_exp))    # 2**p overflows from there
    facs = [(2.0 ** p, 1.0 / (2.0 ** p - 1.0)) for p in orders]
    ends = []
    for v in values:
        below, ends = ends, [v]
        for (fac, s), lower in zip(facs, below):
            ends.append((fac * ends[-1] - lower) * s)
        yield ends, below


def _least(ends: list, below: list) -> tuple:
    """(limit, error): the last end of the column whose last two entries differ least
    (later columns win ties), and that difference; (the value, inf) after one value."""
    errors = list(map(abs, map(operator.sub, ends, below))) or [math.inf]
    # a nan errors[0] is the least (nothing compares below it), and index finds it by identity
    least = min(errors)
    return ends[len(errors) - 1 - errors[::-1].index(least)], least


def richardson(values, orders=None) -> Extrapolation:
    """Extrapolate values[k] = f(h0/2**k) assuming f(h) = L + sum c_i h^{p_i}.

    ``orders`` lists the exponents p_1 < p_2 < ... of the error expansion;
    defaults to 1, 2, 3, ...  Entries may be fractional; each is a finite
    real > 0 whose column factor 2**p is finite (p < 1024) and not 1, else
    ValidationError.
    """
    seq = np.asarray(values)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    if orders is not None:
        orders = positive(orders, "Richardson orders", vector=True).tolist() if np.size(orders) else []
        for p in orders:
            if p >= sys.float_info.max_exp or 2.0 ** p == 1.0:
                raise ValidationError(f"Richardson order {p!r} gives the column factor 2**p = "
                                      f"{'inf' if p >= sys.float_info.max_exp else 1}")
    for ends, below in _tableau(seq.tolist(), orders):
        pass
    limit, error = _least(ends, below)
    return Extrapolation(limit=complex(limit), error=float(error), levels=len(seq))


def refine_until(f, *, start_level: int = 3, max_level: int = 26,
                 divergence_threshold: float = 1e9) -> Extrapolation:
    """Sample f at h_k = 2**-k for k = start_level..max_level and Richardson-extrapolate.

    ``f`` takes the array of every level's h and returns the array of its
    values (one call; an error it raises propagates).  From the third level
    on (or the last, if fewer) the ladder keeps the estimate with the least
    error, until a level's error exceeds 16 max(best error, 1e-15): the
    round-off floor.  A level with an error of 0 ends the ladder with its
    estimate, past the floor only if that lies within the same bound of the
    best.  A raw value that is not finite or exceeds ``divergence_threshold``
    (a real > 0, or inf for none) ends it as divergence, with that value as
    the limit.
    """
    start_level = spec_count(start_level, "start_level", least=0)
    max_level = spec_count(max_level, "max_level", least=start_level)
    if divergence_threshold != math.inf:
        positive(divergence_threshold, "divergence_threshold")
    hs = np.ldexp(1.0, -np.arange(start_level, max_level + 1))
    values = f(hs)
    if np.shape(values) != hs.shape:
        raise ValueError(f"f returned shape {np.shape(values)} for {len(hs)} levels")
    values = np.asarray(values).tolist()       # Python numbers, rounded as numpy's
    best, floor = None, False       # (limit, error) kept; whether the floor is passed
    for levels, (ends, below) in enumerate(_tableau(values), 1):
        if not cmath.isfinite(ends[0]) or abs(ends[0]) > divergence_threshold:
            return Extrapolation(limit=complex(ends[0]), error=math.inf, diverged=True, levels=levels)
        if levels < min(3, len(hs)):
            continue
        limit, err = _least(ends, below)
        if not floor:
            if best is None or err <= best[1]:
                best = limit, err
                if err == 0.0:
                    break
            else:
                floor = err > 16.0 * max(best[1], 1e-15)
        elif err == 0.0 and abs(limit - best[0]) <= 16.0 * max(best[1], 1e-15):
            best = limit, err
            break
    return Extrapolation(limit=complex(best[0]), error=float(best[1]), levels=levels)
