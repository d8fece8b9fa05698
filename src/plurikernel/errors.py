"""Exception hierarchy.

Validation failures (bad inputs, violated preconditions) and numerical
failures (non-convergent iterations, uncertified bounds) are kept separate
so the CLI can map them to distinct exit codes.
"""

import math
from contextlib import contextmanager
from numbers import Integral, Real

import numpy as np


class PluriKernelError(Exception):
    """Base class for all library errors."""


class ValidationError(PluriKernelError):
    """Invalid argument or violated precondition."""


class DomainError(ValidationError):
    """Malformed domain data (non-finite defining function, bad parameters)."""


class NotOnBoundaryError(ValidationError):
    """A point required to lie on the boundary does not, within tolerance."""


class PseudoconvexityError(ValidationError):
    """The restricted complex Hessian is not positive definite where required."""


class NumericalError(PluriKernelError):
    """A numerical procedure failed to produce a certified result."""


class ConvergenceError(NumericalError):
    """An iteration or refinement did not converge.

    Carries the iteration trace (list of per-step records) for diagnosis.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ContainmentError(NumericalError):
    """Tangent-ball containment is not certified for the requested domain."""


@contextmanager
def malformed_spec(what: str):
    """Report bad JSON, a missing key or a value of the wrong type in a spec as ValidationError."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def spec_count(value, what: str, least: int = 1) -> int:
    """A count, seed or size: an integer >= ``least``, never a bool or a float to truncate."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def positive(value, what: str, *, vector: bool = False):
    """A size, radius, scale or step: a finite real > 0 as a float, never a bool or a string.

    With ``vector``, a non-empty 1-D array of them instead, as a float array.
    """
    if vector:
        a = np.asarray(value) if np.ndim(value) == 1 else np.empty(0)
        if not (a.size and a.dtype.kind in "iuf" and ((0 < a) & (a < np.inf)).all()):
            raise ValidationError(f"{what} must be a non-empty vector of finite reals > 0, "
                                  f"got {value!r}")
        return a.astype(float)
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValidationError(f"{what} must be a finite real > 0, got {value!r}")
    return float(value)
