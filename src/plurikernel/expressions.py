"""Safe evaluator for small scalar-field expressions.

Accepts expressions in the coordinates ``z1 .. zn`` with ``conj``, ``re``,
``im``, ``abs``, ``exp``, ``log``, ``sqrt``, arithmetic and powers, e.g.::

    z1*conj(z1) + 2*z2*conj(z2) - 1
    re(z1*z2)

Compilation walks the AST and rejects anything outside the whitelist, so
expression strings coming from CLI flags or JSON files cannot execute code.
Compiled fields evaluate vectorized when handed arrays of coordinates.

``ScalarField.jet`` runs the same compiled code over second-order jets in
the 2n variables (z_1 .. z_n, conj z_1 .. conj z_n), as in forward-mode
automatic differentiation (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., 2008), and so gives exact Wirtinger derivatives of the field.
"""

from __future__ import annotations

import ast
import cmath
import functools

import numpy as np

from .errors import DomainError, ValidationError
from .utils import read_only

_FUNCTIONS = {
    "re": np.real,
    "im": np.imag,
    "conj": np.conj,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_CONSTANTS = {"pi": np.pi, "e": np.e, "i": 1j, "j": 1j, "I": 1j}

#: The names a field call sees besides z1..zn, which each call binds in locals of its own
_ENV = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def infer_dimension(source: str) -> int:
    """Largest coordinate index z_j appearing in an expression (at least 1)."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse expression {source!r}: {exc}") from exc
    n = 1
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id.startswith("z") and node.id[1:].isdigit():
            n = max(n, int(node.id[1:]))
    return n


class ScalarField:
    """A compiled expression f(z) on C^n, callable on points or coordinate arrays."""

    def __init__(self, source: str, n: int):
        self.source = source
        self.n = n
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ValidationError(f"cannot parse expression {source!r}: {exc}") from exc
        _check(tree.body, n)
        self._code = compile(tree, "<field>", "eval")
        self._names = [f"z{j + 1}" for j in range(n)]

    def __call__(self, z):
        """One value per point of z (..., n); a constant expression gives a complex array too."""
        z = self._point(z)
        columns = z.transpose(-1, *range(z.ndim - 1))       # columns[j] is z[..., j]
        # the AST was whitelisted at compile time, so eval only sees arithmetic
        values = eval(self._code, _ENV, dict(zip(self._names, columns)))
        return np.full(z.shape[:-1], values, dtype=complex) if np.ndim(values) == 0 else values

    def jet(self, z):
        """Value, first and second derivatives of f at one point z.

        The derivatives are taken in the 2n variables (z_1 .. z_n, conj z_1 ..
        conj z_n): a length-2n vector and a 2n x 2n matrix, symmetric up to
        rounding and read-only where shared with the seeds.  ``abs(u)**p``
        with a real p >= 2 is exact at u = 0, where it is smooth although
        ``abs`` is not.  Raises ``DomainError`` where a derivative does not
        exist, such as ``abs`` (in any other use), ``sqrt`` or ``log`` at 0,
        or where the value or a derivative is not finite (an overflow).
        """
        z = self._point(z)
        eye, zero = _seeds(2 * len(z))
        jets = {name: _Jet(x, row, zero) for name, x, row in zip(self._names, z.tolist(), eye)}
        try:
            # non-finite entries are caught below, so numpy need not warn
            with np.errstate(all="ignore"):
                out = eval(self._code, _JET_ENV, jets)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"derivatives of {self.source!r} fail at {z}: {exc}") from exc
        if not isinstance(out, _Jet):       # an expression free of z1..zn
            out = _Jet(complex(out), zero[0], zero)
        if not (cmath.isfinite(out.v) and np.isfinite(out.d).all() and np.isfinite(out.h).all()):
            raise DomainError(f"derivatives of {self.source!r} are not finite at {z}")
        return out.v, out.d, out.h

    def _point(self, z) -> np.ndarray:
        """z as a complex array whose last axis holds z1..zn; any other length is refused."""
        z = np.asarray(z, dtype=complex)
        if z.shape[-1:] != (self.n,):
            raise ValidationError(f"{self!r} takes points of {self.n} coordinates, "
                                  f"not of shape {z.shape}")
        return z

    def real_part(self, z) -> float:
        """Evaluate and return the real part (fields used as data are real)."""
        return np.real(self(z))

    def __repr__(self):
        return f"ScalarField({self.source!r}, n={self.n})"


class _Jet:
    """Value ``v``, first derivatives ``d`` and second derivatives ``h`` of a field.

    The variables are (z_1 .. z_n, conj z_1 .. conj z_n), treated as
    independent (Wirtinger calculus), so ``d`` has length 2n and ``h`` is
    2n x 2n and symmetric up to rounding.  Jets are never changed in place,
    so results may share arrays with their operands.
    """

    __slots__ = ("v", "d", "h")
    __array_ufunc__ = None       # numpy scalars defer to the reflected operators

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    def chain(self, f0, f1, f2) -> "_Jet":
        """The jet of g(self) from g's value ``f0`` and derivatives ``f1``, ``f2`` at ``v``."""
        d = self.d
        return _Jet(f0, f1 * d, f1 * self.h + f2 * (d[:, None] * d))

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v + other.v, self.d + other.d, self.h + other.h)
        return _Jet(self.v + other, self.d, self.h)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.v, -self.d, -self.h)

    def __pos__(self):
        return self

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Jet):
            a, b = self.d, other.d
            cross = a[:, None] * b
            return _Jet(self.v * other.v, self.v * b + other.v * a,
                        self.v * other.h + other.v * self.h + (cross + cross.T))
        return _Jet(self.v * other, self.d * other, self.h * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "_Jet":
        if self.v == 0:
            raise DomainError("division by an expression that is 0")
        r = 1.0 / self.v
        return self.chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other):
        if isinstance(other, _Jet):
            return self * other.reciprocal()
        if other == 0:
            raise DomainError("division by 0 in an expression")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, c):
        if isinstance(c, _Jet):
            return _exp(c * _log(self))
        if isinstance(self, _AbsOfZero) and not isinstance(c, complex) and c >= 2:
            # |u|^p = s^(p/2) with s = u conj(u); ds = 0 at u = 0, so the
            # f''(s) term, infinite for 2 < p < 4, is dropped, not formed as inf * 0
            return self.s.chain(0.0, 0.5 * c * 0.0 ** (0.5 * c - 1), 0.0)
        if not isinstance(c, complex) and float(c).is_integer() and c >= 0:
            k = int(c)
            return self.chain(self.v ** k, k * self.v ** (k - 1) if k else 0.0,
                              k * (k - 1) * self.v ** (k - 2) if k > 1 else 0.0)
        if self.v == 0:
            raise DomainError(f"power {c} of an expression that is 0 has no derivative")
        p = self.v ** c
        return self.chain(p, c * p / self.v, c * (c - 1) * p / (self.v * self.v))

    def __rpow__(self, c):
        if c == 0:
            raise DomainError("a power with a variable exponent needs a nonzero base")
        return _exp(self * cmath.log(c))

    def conj(self) -> "_Jet":
        """conj(f): the z and conj z slots swap and every entry is conjugated."""
        swap = _swap(len(self.d))
        return _Jet(self.v.conjugate(), self.d[swap].conj(), self.h[swap[:, None], swap].conj())


@functools.lru_cache(maxsize=None)
def _seeds(m: int) -> tuple:
    """The jets' seeds in m variables: identity rows and a zero Hessian, read-only, as shared."""
    return read_only(np.eye(m, dtype=complex), np.zeros((m, m), complex))


@functools.lru_cache(maxsize=None)
def _swap(m: int) -> np.ndarray:
    """Index that exchanges the z and conj z halves of a length-m derivative vector.

    Cached because ``np.roll`` costs about 7 us a call, and a jet of the unit
    ball, about 27 us in all (2-core Xeon VM, numpy 2.4), conjugates twice."""
    return np.roll(np.arange(m), m // 2)


def _lifted(name, rule):
    """The jet rule ``rule`` for ``_FUNCTIONS[name]``, which still serves plain numbers."""
    plain = _FUNCTIONS[name]

    def apply(u):
        return rule(u) if isinstance(u, _Jet) else plain(u)
    return apply


def _exp(u: _Jet) -> _Jet:
    e = cmath.exp(u.v)
    return u.chain(e, e, e)


def _log(u: _Jet) -> _Jet:
    if u.v == 0:
        raise DomainError("log of an expression that is 0")
    r = 1.0 / u.v
    return u.chain(cmath.log(u.v), r, -r * r)


def _sqrt(u: _Jet) -> _Jet:
    if u.v == 0:
        raise DomainError("sqrt of an expression that is 0 has no derivative")
    s = cmath.sqrt(u.v)
    return u.chain(s, 0.5 / s, -0.25 / (s * u.v))


class _AbsOfZero(_Jet):
    """``abs(u)`` at u = 0, where abs has no derivative: its derivatives are
    nan, so any use ends in the ``DomainError`` of ``ScalarField.jet``'s
    finite check, except a real power p >= 2, which ``__pow__`` takes
    from s = u conj(u)."""

    __slots__ = ("s",)

    def __init__(self, s: _Jet):
        nan = np.full_like(s.h, np.nan)
        super().__init__(0.0, nan[0], nan)
        self.s = s


def _abs(u: _Jet) -> _Jet:
    s = u * u.conj()
    return _sqrt(s) if u.v != 0 else _AbsOfZero(s)


#: The names a jet call sees besides z1..zn, bound as in a field call
_JET_ENV = {
    "__builtins__": {}, **_CONSTANTS,
    "re": _lifted("re", lambda u: (u + u.conj()) * 0.5),
    "im": _lifted("im", lambda u: (u - u.conj()) * -0.5j),
    "conj": _lifted("conj", _Jet.conj),
    "abs": _lifted("abs", _abs),
    "exp": _lifted("exp", _exp),
    "log": _lifted("log", _log),
    "sqrt": _lifted("sqrt", _sqrt),
}


def _check(node: ast.AST, n: int) -> None:
    if isinstance(node, ast.Expression):
        _check(node.body, n)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _check(node.left, n)
        _check(node.right, n)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _check(node.operand, n)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ValidationError(f"function not allowed in expression: {ast.dump(node.func)}")
        if node.keywords:
            raise ValidationError("keyword arguments not allowed in expressions")
        for arg in node.args:
            _check(arg, n)
    elif isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return
        if node.id.startswith("z") and node.id[1:].isdigit():
            j = int(node.id[1:])
            if 1 <= j <= n:
                return
            raise ValidationError(f"coordinate {node.id} out of range for n={n}")
        raise ValidationError(f"unknown name in expression: {node.id}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, complex)):
            raise ValidationError(f"literal not allowed: {node.value!r}")
    else:
        raise ValidationError(f"syntax not allowed in expression: {type(node).__name__}")
