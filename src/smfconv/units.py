"""The commutative unit algebra: elements are spanned by four orthogonal
projections q_{1,1}, q_{1,2}, q_{2,1}, q_{2,2} (vacuum, words starting
(2,2), words starting (1,1), words starting off-diagonally).  Internal
units decompose as

    1_{1,1} = q11 + q21      1_{2,2} = q11 + q12
    1_{1,2} = q12 + q22      1_{2,1} = q21 + q22

and the global identity is the sum of all four.  An element acts on a
Fock vector by scaling each word by its component at the word's q class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .series import RATIONAL, as_scalar

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


_UNIT_DECOMP = {
    (1, 1): ((1, 1), (2, 1)),
    (2, 2): ((1, 1), (1, 2)),
    (1, 2): ((1, 2), (2, 2)),
    (2, 1): ((2, 1), (2, 2)),
}


@dataclass(frozen=True)
class UnitElement:
    """Element of the unit algebra, stored over the q-projection basis."""

    beta: tuple          # coefficients in QCELLS order
    mode: str = RATIONAL

    def __post_init__(self):
        if len(self.beta) != 4:
            raise ValueError("four q-components required")
        object.__setattr__(self, "beta",
                           tuple(as_scalar(v, self.mode) for v in self.beta))

    @classmethod
    def zero(cls, mode: str = RATIONAL) -> "UnitElement":
        return cls((0, 0, 0, 0), mode)

    @classmethod
    def identity(cls, mode: str = RATIONAL) -> "UnitElement":
        return cls((1, 1, 1, 1), mode)

    @classmethod
    def q_projection(cls, qcell, mode: str = RATIONAL) -> "UnitElement":
        return cls(tuple(1 if qc == tuple(qcell) else 0 for qc in QCELLS),
                   mode)

    @classmethod
    def internal_unit(cls, i: int, j: int,
                      mode: str = RATIONAL) -> "UnitElement":
        parts = _UNIT_DECOMP[(i, j)]
        return cls(tuple(1 if qc in parts else 0 for qc in QCELLS), mode)

    def component(self, qcell):
        return self.beta[QCELLS.index(tuple(qcell))]

    def apply(self, vec: dict) -> dict:
        """Action on a Fock vector {word: coefficient}."""
        out = {}
        for w, c in vec.items():
            f = self.component(q_class(w))
            if f != 0:
                out[w] = f * c
        return out

    def __add__(self, other: "UnitElement") -> "UnitElement":
        self._check(other)
        return UnitElement(tuple(a + b for a, b in zip(self.beta, other.beta)),
                           self.mode)

    def __sub__(self, other: "UnitElement") -> "UnitElement":
        self._check(other)
        return UnitElement(tuple(a - b for a, b in zip(self.beta, other.beta)),
                           self.mode)

    def __mul__(self, other: "UnitElement") -> "UnitElement":
        self._check(other)
        return UnitElement(tuple(a * b for a, b in zip(self.beta, other.beta)),
                           self.mode)

    def scale(self, factor) -> "UnitElement":
        f = as_scalar(factor, self.mode)
        return UnitElement(tuple(f * b for b in self.beta), self.mode)

    def _check(self, other: "UnitElement") -> None:
        if self.mode != other.mode:
            raise ValueError("scalar mode mismatch")

    def is_projection(self) -> bool:
        return all(b in (0, 1) for b in self.beta)

    def state_value(self, state: str):
        """Value of the element under phi, phi1 or phi2."""
        idx = {"phi": (1, 1), "phi1": (2, 1), "phi2": (1, 2)}[state]
        return self.component(idx)


def compression(i: int, j: int, mode: str = RATIONAL) -> UnitElement:
    """Projection cutting A down for the per-cell transform identity:
    1 - 1_{1,1}1_{2,2} (= 1 - q11) on the diagonal, 1 - 1_{j,j} off it."""
    one = UnitElement.identity(mode)
    if i == j:
        return one - (UnitElement.internal_unit(1, 1, mode)
                      * UnitElement.internal_unit(2, 2, mode))
    return one - UnitElement.internal_unit(j, j, mode)
