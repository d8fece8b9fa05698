"""Exception hierarchy.

Validation failures (bad inputs, violated preconditions) and numerical
failures (non-convergent iterations, uncertified bounds) are kept separate
so the CLI can map them to distinct exit codes.
"""

from contextlib import contextmanager
from numbers import Integral


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


def spec_count(value) -> int:
    """A count read from a spec: an integer, never a bool or a float to truncate."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"expected an integer count, got {value!r}")
    return int(value)
