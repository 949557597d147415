"""2x2 arrays of distributions given through their free-cumulant sequences."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .series import RATIONAL, Record, TruncatedSeries, as_scalar

Cell = Tuple[int, int]

ALL_CELLS: Tuple[Cell, ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

SHAPES: Dict[str, frozenset] = {
    "square": frozenset(ALL_CELLS),
    "diagonal": frozenset({(1, 1), (2, 2)}),
    "lower_triangular": frozenset({(1, 1), (2, 1), (2, 2)}),
    "upper_anti_triangular": frozenset({(1, 1), (1, 2), (2, 1)}),
    "column": frozenset({(1, 1), (2, 1)}),
}


class NamedLaw(Record):
    """A distribution given by name: semicircle(a), point_mass(b), or an
    explicit cumulant sequence."""

    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    @classmethod
    def semicircle(cls, a) -> "NamedLaw":
        return cls("semicircle", (a,))

    @classmethod
    def point_mass(cls, b) -> "NamedLaw":
        return cls("point_mass", (b,))

    @classmethod
    def custom(cls, cumulants: Sequence) -> "NamedLaw":
        return cls("custom", tuple(cumulants))

    def cumulants(self, order: int, mode: str = RATIONAL) -> tuple:
        """r(1..order) for this law."""
        zero = as_scalar(0, mode)
        if self.kind == "semicircle":
            out = [zero] * order
            if order >= 2:
                out[1] = as_scalar(self.params[0], mode)
            return tuple(out)
        if self.kind == "point_mass":
            out = [zero] * order
            if order >= 1:
                out[0] = as_scalar(self.params[0], mode)
            return tuple(out)
        if self.kind == "custom":
            vals = [as_scalar(v, mode) for v in self.params]
            vals += [zero] * (order - len(vals))
            return tuple(vals[:order])
        raise ValueError("unknown law kind %r" % (self.kind,))


class DistributionArray(Record):
    """Shape set J with a free-cumulant sequence r(1..p) per cell.

    Cells outside J behave as identically zero cumulants.  All cells share
    one scalar mode and one cumulant order p.
    """

    __slots__ = _fields = ("cells", "mode")

    def __init__(self, cells: Tuple[Tuple[Cell, tuple], ...],
                 mode: str = RATIONAL):
        if not cells:
            raise ValueError("array needs at least one cell")
        orders = {len(c) for _, c in cells}
        if len(orders) != 1:
            raise ValueError("all cells must share one cumulant order")
        if orders == {0}:
            raise ValueError("cumulant sequences must have order >= 1")
        for cell, _ in cells:
            if cell not in ALL_CELLS:
                raise ValueError("cell %r outside the 2x2 index set" % (cell,))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def from_cumulants(cls, cumulants: Mapping[Cell, Sequence],
                       mode: str = RATIONAL) -> "DistributionArray":
        cells = tuple(sorted(
            (cell, tuple(as_scalar(v, mode) for v in seq))
            for cell, seq in cumulants.items()))
        return cls(cells, mode)

    @classmethod
    def from_laws(cls, laws: Mapping[Cell, NamedLaw], order: int,
                  mode: str = RATIONAL) -> "DistributionArray":
        return cls.from_cumulants(
            {cell: law.cumulants(order, mode) for cell, law in laws.items()},
            mode)

    @property
    def J(self) -> frozenset:
        return frozenset(cell for cell, _ in self.cells)

    @property
    def order(self) -> int:
        return len(self.cells[0][1])

    def exact(self) -> "DistributionArray":
        """The array over exact rationals: a float array's cumulants as
        the Fractions of their binary values, so that rounding its
        results once gives them correctly rounded.  ValueError names a
        cell whose cumulants are not finite."""
        if self.mode == RATIONAL:
            return self
        cells = []
        for cell, seq in self.cells:
            try:
                cells.append((cell, tuple(Fraction(v) for v in seq)))
            except (OverflowError, ValueError):
                raise ValueError("cell %r: cumulants not finite" % (cell,))
        return DistributionArray(tuple(cells), RATIONAL)

    def graded(self) -> Tuple[int, Dict[Cell, list]]:
        """(lam, ints): lam the lcm of the exact cumulants' denominators
        (1 for an integral array), and per cell the ints r(k) lam^k,
        k = 1..order, zeros outside J; see :mod:`smfconv.moments`."""
        cmap = self.exact().cumulant_map()
        lam = math.lcm(*(v.denominator for seq in cmap.values() for v in seq))
        return lam, {cell: [v.numerator * (lam // v.denominator) * lam ** k
                            for k, v in enumerate(cmap.get(cell, ()))]
                     or [0] * self.order for cell in ALL_CELLS}

    def cumulant_map(self) -> Dict[Cell, tuple]:
        return dict(self.cells)

    def padded(self, order: int) -> "DistributionArray":
        """Extend every cell with zero cumulants up to r(order)."""
        if self.order >= order:
            return self
        zero = as_scalar(0, self.mode)
        pad = (zero,) * (order - self.order)
        return DistributionArray(tuple((c, seq + pad) for c, seq in self.cells),
                                 self.mode)

    def r(self, cell: Cell, k: int):
        """Cumulant r_cell(k); zero outside J."""
        if not 1 <= k <= self.order:
            raise ValueError("cumulant order %d out of range" % k)
        for c, seq in self.cells:
            if c == cell:
                return seq[k - 1]
        return as_scalar(0, self.mode)

    def r_series(self, cell: Cell) -> TruncatedSeries:
        """R-transform tail of the cell: coefficient of z^k is r(k+1)."""
        for c, seq in self.cells:
            if c == cell:
                return TruncatedSeries(seq, self.mode)
        return TruncatedSeries.zero(self.order - 1, self.mode)
