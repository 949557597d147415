"""Truncated formal power series, and the one rounding step of float mode.

A series is an immutable coefficient tuple c_0..c_N (coefficient of z^0..z^N)
tagged with a scalar mode.  The moment engines and the checks compute over
exact rationals (:class:`fractions.Fraction`); a float-mode job computes over
the exact binary values of its cumulants, and :func:`reported` rounds each
value that reaches its report once, to the nearest float.  Float series hold
those rounded values.  Mixing modes inside one computation raises
``ValueError``.

The Cauchy-transform argument 1/z + R(z) is never stored as a Laurent
object: operations that need the pole (:func:`invert_pole_series`) take the
regular part and treat the 1/z term implicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple, Union

RATIONAL = "rational"
FLOAT = "float"

Number = Union[int, float, Fraction, str]


def as_scalar(value: Number, mode: str):
    """Coerce *value* to the scalar type of *mode*.

    Rational mode accepts ints, Fractions and "p/q" strings; float mode
    accepts anything float() does.
    """
    if mode == RATIONAL:
        if isinstance(value, float):
            raise ValueError("float value %r in rational mode" % (value,))
        return value if isinstance(value, Fraction) else Fraction(value)
    if mode == FLOAT:
        if isinstance(value, str):
            return float(Fraction(value))
        return float(value)
    raise ValueError("unknown scalar mode %r" % (mode,))


def scalars_close(a, b, rel: float = 1e-10) -> bool:
    """Mode-agnostic comparison: exact for Fractions, relative for floats."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= rel * max(1.0, abs(fa), abs(fb))


def reported(values, mode: str) -> list:
    """Exact *values* as a job of *mode* reports them: unchanged in
    rational mode; in float mode each rounded once to the nearest float,
    infinite past the float range."""
    if mode == RATIONAL:
        return list(values)
    out = []
    for v in values:
        try:
            out.append(float(v))
        except OverflowError:
            out.append(math.inf if v > 0 else -math.inf)
    return out


def common_denominator(values, scales=None):
    """(numerators, d) with values[k] / scales[k] = numerators[k] / d: the
    numerators are integers and d is the lcm of the denominators of the
    rationals values[k] times scales[k] (integers, 1 by default)."""
    values = tuple(values)
    dens = [v.denominator for v in values]
    if scales is not None:
        dens = [d * s for d, s in zip(dens, scales)]
    d = math.lcm(*dens)
    return tuple(v.numerator * (d // e) for v, e in zip(values, dens)), d


class Record:
    """Immutable value with the named fields ``_fields``: equal only to an
    instance of its own class with equal fields, hashed by those fields,
    and shown as ``Name(field=value, ...)``.  ``__init__`` of a subclass
    sets its attributes with ``object.__setattr__``."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class TruncatedSeries:
    """Coefficients c_0..c_N of a power series truncated at order N."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs: Iterable[Number], mode: str = RATIONAL):
        coeffs = tuple(as_scalar(c, mode) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least c_0")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int, mode: str = RATIONAL) -> "TruncatedSeries":
        return cls([0] * (order + 1), mode)

    @classmethod
    def one(cls, order: int, mode: str = RATIONAL) -> "TruncatedSeries":
        return cls([1] + [0] * order, mode)

    def _check(self, other: "TruncatedSeries") -> None:
        if self.mode != other.mode:
            raise ValueError("scalar mode mismatch: %s vs %s"
                             % (self.mode, other.mode))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[:order + 1], self.mode)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)],
            self.mode)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.mode)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = min(self.order, other.order)
        zero = as_scalar(0, self.mode)
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(out, self.mode)

    def __eq__(self, other) -> bool:
        """Coefficientwise equality up to the common order."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.mode != other.mode:
            return False
        n = min(self.order, other.order)
        return self.coeffs[:n + 1] == other.coeffs[:n + 1]

    __hash__ = None

    def agrees(self, other: "TruncatedSeries", rel: float = 1e-10) -> bool:
        """Like ``==`` but with a relative tolerance in float mode."""
        self._check(other)
        n = min(self.order, other.order)
        return all(scalars_close(self.coeffs[k], other.coeffs[k], rel)
                   for k in range(n + 1))

    def __repr__(self) -> str:
        return "TruncatedSeries(%r, mode=%r)" % (list(self.coeffs), self.mode)


def invert_pole_series(reg: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of C(z) = 1/z + reg(z).

    Both C and its inverse B(z) = sum b_n z^{n+1} are handled through their
    tail sequences: the input holds c_{k+1} at index k (so reg = the regular
    part of C), the output holds b_{k+1} at index k, with c_0 = b_0 = 1
    implicit.  In this convention the map is an involution, and the full
    inverse is B(z) = z + z^2 * result(z).
    """
    one = as_scalar(1, reg.mode)
    c, b = [one, *reg.coeffs], [one]
    for _ in reg.coeffs:
        extend_pole_inverse(c, b)
    return TruncatedSeries(b[1:], reg.mode)


def extend_pole_inverse(c: list, b: list) -> None:
    """Append the next coefficient b_m of the inverse to b = [1, b_1..b_{m-1}]
    from c = [1, c_1..c_m, ...], full sequences with the implicit 1 at
    index 0.  The recursion is triangular, so growing both sides one
    coefficient per step gives the same values as inverting anew."""
    m = len(b)
    # sum_{i+j=m} c_i b_j = 0 with c_0 = b_0 = 1
    b.append(-sum(c[i] * b[m - i] for i in range(1, m + 1)))
