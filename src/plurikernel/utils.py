"""Small shared helpers: Hermitian products, point coercion, seeded sampling.

Fast paths: ``as_vector``, ``herm`` and ``norm`` use a complex128 ndarray (``norm``: contiguous
1-d) as it is, skipping coercions that would return it unchanged, so both paths give the same bits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ValidationError

#: Points with |psi| below this count as boundary points by default.
BOUNDARY_TOL = 1e-9
_COMPLEX128 = np.dtype(complex)     # ``v.dtype is _COMPLEX128`` picks the fast paths


def as_vector(z, n: int | None = None) -> np.ndarray:
    """Coerce to a complex vector, optionally of length n; a complex128 vector is not copied."""
    if type(z) is np.ndarray and z.dtype is _COMPLEX128 and z.ndim == 1:
        v = z
    else:
        v = np.atleast_1d(_complex_array(z))
        if v.ndim != 1:
            raise ValidationError(f"expected a point (1-d vector), got shape {v.shape}")
    if n is not None and len(v) != n:
        raise ValidationError(f"expected a point in C^{n}, got length {len(v)}")
    if not all(map(cmath.isfinite, v.tolist())):
        raise ValidationError("point has non-finite components")
    return v


def as_rows(Z, n: int) -> np.ndarray:
    """Coerce to an (M, n) complex array of points, each passing ``as_vector``'s tests."""
    A = _complex_array(Z)
    if A.ndim != 2 or A.shape[1] != n:
        raise ValidationError(f"expected an (M, {n}) array of points in C^{n}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError("point has non-finite components")
    return A


def _complex_array(z) -> np.ndarray:
    """``np.asarray(z, dtype=complex)``, with text, and values numpy cannot read, refused."""
    try:
        a = np.asarray(z)
        if a.dtype.kind in "SU" or a.dtype == object and any(isinstance(x, (str, bytes)) for x in a.flat):
            raise ValidationError(f"expected numbers for a point, got {type(z).__name__} {z!r}")
        return a.astype(complex, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read a point from a {type(z).__name__}: {exc}") from exc


def as_points(z, n: int) -> np.ndarray:
    """``as_rows`` for a 2-d array, ``as_vector`` for one point."""
    return as_rows(z, n) if np.ndim(z) == 2 else as_vector(z, n)


def herm(v, w) -> complex:
    """<v, w> = sum v_j * conj(w_j), rounded as ``np.sum(v * np.conj(w))`` (no wrapper)."""
    if not (type(v) is type(w) is np.ndarray and v.dtype is w.dtype is _COMPLEX128):
        v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
    return complex(np.add.reduce(v * w.conj(), axis=None))


def read_only(*arrays) -> tuple:
    """Mark arrays read-only, for results shared between callers; returns them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def norm(v) -> float:
    """Euclidean norm, rounded as ``np.linalg.norm``: sqrt(re.re + im.im), BLAS dots, no wrapper."""
    x = (v if type(v) is np.ndarray and v.dtype is _COMPLEX128 and v.ndim == 1
         and v.flags.c_contiguous else np.asarray(v, dtype=complex).ravel(order="K"))
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def row_norms(W: np.ndarray) -> np.ndarray:
    """``norm`` of every row of an (M, n) complex array, rounded as ``norm`` rounds one row."""
    re, im = W.real, W.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def point_norms(z: np.ndarray):
    """``norm`` of one point, as a numpy float, or ``row_norms`` of every row of an (M, n) array."""
    return row_norms(z) if z.ndim == 2 else np.linalg.norm(z)


def to_real(v: np.ndarray) -> np.ndarray:
    """Flatten a complex vector to (Re..., Im...) real coordinates."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag])


def sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform point on the unit sphere of C^n.

    The point is (x + iy)/|x + iy| for 2n standard normal draws; it rounds
    as ``v / np.linalg.norm(v)`` does, without that call's overhead.
    """
    g = rng.standard_normal(2 * n)
    v = g[:n] + 1j * g[n:]
    x, y = v.real, v.imag
    return v / math.sqrt(x.dot(x) + y.dot(y))


def sample_ball(rng: np.random.Generator, n: int, radius: float = 1.0) -> np.ndarray:
    """Uniform point in the ball of C^n (Lebesgue measure on R^{2n})."""
    v = sample_sphere(rng, n)
    return v * radius * rng.random() ** (1.0 / (2 * n))


def sample_ball_rows(rng: np.random.Generator, count: int, n: int,
                     radius: float = 1.0) -> np.ndarray:
    """``count`` uniform points in the ball of C^n, as rows, drawn in one batch.

    The draws are one ``(count, 2n)`` block of normals, then ``count``
    uniforms; one row draws and rounds as ``sample_ball(rng, n, radius)``, bit
    for bit.  ``row_norms`` rounds as the sphere's norm and ``float_power``
    as Python's ``**`` (numpy's ``**`` does not).
    """
    G, u = rng.standard_normal((count, 2 * n)), rng.random(count)
    V = G[:, :n] + 1j * G[:, n:]
    return V / row_norms(V)[:, None] * radius * np.float_power(u, 1.0 / (2 * n))[:, None]
