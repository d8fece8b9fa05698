"""Small shared helpers: Hermitian products, point coercion, seeded sampling."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Points with |psi| below this count as boundary points by default.
BOUNDARY_TOL = 1e-9


def as_vector(z, n: int | None = None) -> np.ndarray:
    """Coerce to a complex vector, optionally of length n; a complex128 vector is not copied."""
    if type(z) is np.ndarray and z.dtype == np.complex128 and z.ndim == 1:
        v = z
    else:
        v = np.atleast_1d(np.asarray(z, dtype=complex))
        if v.ndim != 1:
            raise ValidationError(f"expected a point (1-d vector), got shape {v.shape}")
    if n is not None and len(v) != n:
        raise ValidationError(f"expected a point in C^{n}, got length {len(v)}")
    if not np.isfinite(v).all():
        raise ValidationError("point has non-finite components")
    return v


def herm(v, w) -> complex:
    """Standard Hermitian product <v, w> = sum v_j * conj(w_j)."""
    return complex(np.sum(np.asarray(v, dtype=complex) * np.conj(np.asarray(w, dtype=complex))))


def read_only(*arrays) -> tuple:
    """Mark arrays read-only, for results shared between callers; returns them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=complex)))


def to_real(v: np.ndarray) -> np.ndarray:
    """Flatten a complex vector to (Re..., Im...) real coordinates."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag])


def sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform point on the unit sphere of C^n."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def sample_ball(rng: np.random.Generator, n: int, radius: float = 1.0) -> np.ndarray:
    """Uniform point in the ball of C^n (Lebesgue measure on R^{2n})."""
    v = sample_sphere(rng, n)
    return v * radius * rng.random() ** (1.0 / (2 * n))
