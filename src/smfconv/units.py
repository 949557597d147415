"""The commutative unit algebra: elements are spanned by four orthogonal
projections q_{1,1}, q_{1,2}, q_{2,1}, q_{2,2} (vacuum, words starting
(2,2), words starting (1,1), words starting off-diagonally).  Internal
units decompose as

    1_{1,1} = q11 + q21      1_{2,2} = q11 + q12
    1_{1,2} = q12 + q22      1_{2,1} = q21 + q22

and the global identity is the sum of all four.  An element acts on a
Fock vector by scaling each word by its component at the word's q class.

A :class:`FockVector` holds integer numerators over one positive
denominator.  An element has exact rational components and keeps them as
numerators over ``den``, the lcm of their denominators, so its action
multiplies integers and multiplies the vector's denominator by ``den``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

from .series import RATIONAL, Record, as_scalar, common_denominator

QCELLS: Tuple[Tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))


def q_class(word: tuple) -> Tuple[int, int]:
    """q-basis class of a word: vacuum, (1,1)-started, (2,2)-started, or
    off-diagonally started."""
    if not word:
        return (1, 1)
    if word[0] == (1, 1):
        return (2, 1)
    if word[0] == (2, 2):
        return (1, 2)
    return (2, 2)


class FockVector(NamedTuple):
    """Sparse Fock vector {word: numerator} over one positive denominator."""

    entries: dict
    den: int = 1

    def read(self, word) -> Fraction:
        """The coefficient of *word*, as one Fraction."""
        return Fraction(self.entries.get(word, 0), self.den)


_UNIT_DECOMP = {
    (1, 1): ((1, 1), (2, 1)),
    (2, 2): ((1, 1), (1, 2)),
    (1, 2): ((1, 2), (2, 2)),
    (2, 1): ((2, 1), (2, 2)),
}


class UnitElement(Record):
    """Element of the unit algebra, stored over the q-projection basis:
    ``beta`` holds the rational coefficients in QCELLS order.  ``den`` and
    ``_by_head`` are derived, and take no part in equality or the repr:
    the numerators over the lcm of the components' denominators, keyed by
    the head letter of a word (None for the vacuum)."""

    _fields = ("beta",)
    __slots__ = _fields + ("den", "_by_head")

    def __init__(self, beta: tuple):
        if len(beta) != 4:
            raise ValueError("four q-components required")
        beta = tuple(as_scalar(v, RATIONAL) for v in beta)
        nums, den = common_denominator(beta)
        by_class = dict(zip(QCELLS, nums))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_by_head", {
            head: by_class[q_class((head,) if head else ())]
            for head in (None, *_UNIT_DECOMP)})

    @classmethod
    def zero(cls) -> "UnitElement":
        return cls((0, 0, 0, 0))

    @classmethod
    def identity(cls) -> "UnitElement":
        return cls((1, 1, 1, 1))

    @classmethod
    def internal_unit(cls, i: int, j: int) -> "UnitElement":
        parts = _UNIT_DECOMP[(i, j)]
        return cls(tuple(1 if qc in parts else 0 for qc in QCELLS))

    def component(self, qcell):
        return self.beta[QCELLS.index(tuple(qcell))]

    def apply(self, vec: FockVector) -> FockVector:
        """Action on a Fock vector: the output denominator is the input's
        times ``den``."""
        by_head = self._by_head
        out = {}
        for w, c in vec.entries.items():
            f = by_head[w[0] if w else None]
            if f != 0:
                out[w] = f * c
        return FockVector(out, vec.den * self.den)

    def __add__(self, other: "UnitElement") -> "UnitElement":
        return UnitElement(tuple(a + b for a, b in zip(self.beta, other.beta)))

    def __sub__(self, other: "UnitElement") -> "UnitElement":
        return UnitElement(tuple(a - b for a, b in zip(self.beta, other.beta)))

    def __mul__(self, other: "UnitElement") -> "UnitElement":
        return UnitElement(tuple(a * b for a, b in zip(self.beta, other.beta)))

    def scale(self, factor) -> "UnitElement":
        f = as_scalar(factor, RATIONAL)
        return UnitElement(tuple(f * b for b in self.beta))

    def state_value(self, state: str):
        """Value of the element under phi, phi1 or phi2."""
        idx = {"phi": (1, 1), "phi1": (2, 1), "phi2": (1, 2)}[state]
        return self.component(idx)


def compression(i: int, j: int) -> UnitElement:
    """Projection cutting A down for the per-cell transform identity:
    1 - 1_{1,1}1_{2,2} (= 1 - q11) on the diagonal, 1 - 1_{j,j} off it."""
    one = UnitElement.identity()
    if i == j:
        return one - (UnitElement.internal_unit(1, 1)
                      * UnitElement.internal_unit(2, 2))
    return one - UnitElement.internal_unit(j, j)
