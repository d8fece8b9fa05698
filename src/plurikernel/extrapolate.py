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


@dataclass(frozen=True)
class Extrapolation:
    """Result of extrapolating a sequence to its limit."""

    limit: complex
    error: float          # heuristic error estimate (neighbor-difference)
    diverged: bool = False

    @property
    def real(self) -> float:
        return float(np.real(self.limit))


def richardson(values, ratio: float = 2.0, orders=None) -> Extrapolation:
    """Extrapolate values[k] = f(h0/ratio**k) assuming f(h) = L + sum c_i h^{p_i}.

    ``orders`` lists the exponents p_1 < p_2 < ... of the error expansion;
    defaults to 1, 2, 3, ...  Entries may be fractional.
    """
    seq = np.asarray(values)
    m = len(seq)
    if m == 0:
        raise ValueError("empty sequence")
    if m == 1:
        return Extrapolation(limit=complex(seq[0]), error=float("inf"))
    if orders is None:
        orders = np.arange(1, m)
    orders = np.asarray(orders, dtype=float)

    table = [seq.astype(complex)]
    best = complex(seq[-1])
    best_err = abs(seq[-1] - seq[-2])
    for j in range(1, m):
        if j - 1 >= len(orders):
            break
        fac = ratio ** orders[j - 1]
        prev = table[-1]
        cur = (fac * prev[1:] - prev[:-1]) / (fac - 1.0)
        table.append(cur)
        if len(cur) < 2:
            break  # single-entry columns carry no internal error estimate
        err = abs(cur[-1] - cur[-2])
        if err <= best_err:
            best_err = err
            best = complex(cur[-1])
    return Extrapolation(limit=best, error=float(best_err))


def aitken(values, passes: int | None = None) -> Extrapolation:
    """Repeated Aitken delta-squared acceleration of a scalar sequence."""
    s = np.asarray(values, dtype=complex)
    if len(s) == 0:
        raise ValueError("empty sequence")
    best = complex(s[-1])
    best_err = abs(s[-1] - s[-2]) if len(s) >= 2 else float("inf")
    k = 0
    while len(s) >= 3 and (passes is None or k < passes):
        d1 = np.diff(s)
        d2 = np.diff(s, 2)
        safe = np.abs(d2) > 1e-300
        nxt = np.where(safe, s[:-2] - d1[:-1] ** 2 / np.where(safe, d2, 1.0), s[2:])
        s = nxt
        k += 1
        err = abs(s[-1] - s[-2]) if len(s) >= 2 else best_err
        if err <= best_err:
            best_err = err
            best = complex(s[-1])
    return Extrapolation(limit=best, error=float(best_err))


def refine_until(f, *, start_level: int = 3, max_level: int = 26,
                 divergence_threshold: float = 1e9) -> Extrapolation:
    """Sample f at h_k = 2**-k for k = start_level.. and Richardson-extrapolate.

    Stops early when the error estimate is exactly 0, which no later level
    can improve, or when the raw values blow past ``divergence_threshold``
    (reported as divergence, with the last raw value as the limit).
    """
    vals = []
    best = None
    for k in range(start_level, max_level + 1):
        v = f(2.0 ** (-k))
        if not np.isfinite(v) or abs(v) > divergence_threshold:
            return Extrapolation(limit=complex(v), error=float("inf"), diverged=True)
        vals.append(v)
        if len(vals) >= 3:
            best = richardson(vals)
            if best.error == 0.0:
                break
    if best is None:
        best = richardson(vals)
    return best
