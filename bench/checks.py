"""Output checks: comparison against references and properties of the method.

A Checker collects, for one run, the digits of every output that has a
reference and a message for every check that failed.  Digits are
-log10 of the relative error, capped at 16.
"""

from __future__ import annotations

import math


class Checker:
    def __init__(self):
        import reference   # mpmath, loaded only once the timed phase is over

        self.R = reference
        self.digits: list[float] = []
        self.worst = (float("inf"), "")        # (digits, what) of the least accurate output
        self.failures: list[str] = []
        self.checks = 0

    def _digits(self, what: str, rel: float) -> None:
        d = 16.0 if rel == 0 else min(16.0, -math.log10(rel))
        self.digits.append(d)
        if d < self.worst[0]:
            self.worst = (d, what)

    def holds(self, what: str, condition) -> bool:
        self.checks += 1
        if not bool(condition):
            self.failures.append(what)
            return False
        return True

    def close(self, what: str, value, ref, rtol: float) -> bool:
        """|value - ref| <= rtol |ref| for a nonzero reference; records digits."""
        err = float(abs(self.R.mp.mpc(complex(value)) - ref))
        scale = float(abs(ref))
        rel = err / scale
        self._digits(what, rel)
        return self.holds(f"{what}: {complex(value)!r} vs {complex(ref)!r}, "
                          f"rel err {rel:.2e} > {rtol:g}", rel <= rtol)

    def near(self, what: str, value, ref, atol: float) -> bool:
        """|value - ref| <= atol; records digits when the reference is nonzero."""
        err = float(abs(self.R.mp.mpc(complex(value)) - ref))
        scale = float(abs(ref))
        if scale > 0:
            self._digits(what, err / scale)
        return self.holds(f"{what}: {complex(value)!r} vs {complex(ref)!r}, "
                          f"abs err {err:.2e} > {atol:g}", err <= atol)


class Failed:
    """An operation that raised; compared and reported by exception class and message."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"Failed({self.name}: {self.message})"


def run_op(fn):
    try:
        return fn()
    except Exception as exc:   # every failure is counted, and judged by judge()
        return Failed(exc)


def judge(cases, outputs) -> tuple[Checker, int]:
    """Check one round's outputs, case by case; returns the checker and the failed count.

    A failed operation is accepted only where its case names that exception
    class as the known fault; its case's other checks are then skipped.
    """
    ck = Checker()
    failed = 0
    k = 0
    for case in cases:
        outs = outputs[k:k + len(case.ops)]
        k += len(case.ops)
        bad = [o for o in outs if isinstance(o, Failed)]
        failed += len(bad)
        if bad:
            if not (case.expect_fail and all(o.name == case.expect_fail for o in bad)):
                ck.holds(f"{case.label}: unexpected failure {bad[0]!r}", False)
            continue
        try:
            case.check(ck, outs)
        except Exception as exc:
            ck.holds(f"{case.label}: check raised {exc!r}", False)
    return ck, failed


def median(values):
    s = sorted(values)
    m = len(s)
    if m == 0:
        return float("nan")
    return s[m // 2] if m % 2 else 0.5 * (s[m // 2 - 1] + s[m // 2])
