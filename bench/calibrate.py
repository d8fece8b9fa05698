"""Host-speed calibration: a fixed snippet that uses no program code.

The host this benchmark was built on switches between speed regimes every
few seconds, and a regime can last longer than a run: the same round of
operations took from 3.2 s to 5.6 s within one minute.  Process CPU time
tracks wall time, and there are no hardware counters.  So the timed phase
runs this snippet every CAL_EVERY seconds and scales each stretch of
operation time by REFERENCE_S / (the snippet's time around it).  Reported
times are thereby times on a host where the snippet takes REFERENCE_S.

The snippet mixes the three kinds of work the program does: interpreted
Python, numpy calls on short vectors, and numpy passes over long arrays.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1.5e-3       # the snippet's typical time on the 2-core host it was tuned on
CAL_EVERY = 0.1            # seconds of operations between two snippets
WINDOW = 5                 # snippets per rolling median

_SHORT = [np.array([0.1 + 0.2j, 0.3 - 0.1j]) * (k + 1) for k in range(4)]
# 2 MB float arrays, past the L2 cache; preallocated, so that the snippet's
# speed does not depend on the allocator state the program left behind
_A = np.linspace(0.0, 1.0, 1 << 18)
_B = np.linspace(1.0, 2.0, 1 << 18)
_C = np.empty(1 << 18)


def snippet() -> float:
    """About 0.5 ms of each kind of work on the host it was tuned on."""
    acc = 0
    for i in range(5000):
        acc += i * i
    x = 0.0
    for k in range(40):
        v = np.asarray(_SHORT[k % 4], dtype=complex)
        x += float(np.linalg.norm(v)) + abs(complex(np.sum(v * np.conj(v))))
    for _ in range(2):
        np.multiply(_A, 0.5, out=_C)
        x += float(np.dot(_C, _B))
    return acc + x


def time_snippet() -> float:
    """Time of the snippet's second pass: the first brings its data back into cache,
    so that the time does not depend on the cache footprint of what ran before."""
    snippet()
    t0 = time.perf_counter()
    snippet()
    return time.perf_counter() - t0


class Calibration:
    """Snippet times taken during a timed phase, and the speed factors they give."""

    def __init__(self):
        self.durations: list[float] = []
        self.next_due = 0.0
        self.run()

    def due(self, now: float) -> bool:
        return now >= self.next_due

    def run(self) -> int:
        """Time the snippet once; returns its index."""
        self.durations.append(time_snippet())
        self.next_due = time.perf_counter() + CAL_EVERY
        return len(self.durations) - 1

    def factor(self, j: int) -> float:
        """REFERENCE_S over the median snippet time of the WINDOW snippets around j."""
        lo = max(0, min(j - WINDOW // 2, len(self.durations) - WINDOW))
        window = sorted(self.durations[lo:lo + WINDOW])
        return REFERENCE_S / window[len(window) // 2]

