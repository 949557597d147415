"""Unit-valued transform layer: assembling the matricial R-transform,
inverting its Cauchy argument, checking the linearization residuals in all
states, and reconstructing the transform uniquely from moment data.

A unit-valued series is stored as four scalar series over the q basis.
Transform series use the tail convention of :func:`series.invert_pole_series`:
coefficient k of an R-side series is c_{k+1} (so the series is the regular
part of 1/z + R), and coefficient k of a B-side series is b_{k+1} (the
multiplicative inverse being z + z^2 * tail), with c_0 = b_0 = 1 implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .arrays import DistributionArray
from .fock import FockModel
from .series import TruncatedSeries, as_scalar, invert_pole_series
from .units import QCELLS, UnitElement

# q-component of the assembled transform <- pairwise sums of cell transforms
Q_SUMMANDS = {
    (1, 1): ((1, 1), (2, 2)),
    (2, 1): ((1, 1), (2, 1)),
    (1, 2): ((2, 2), (1, 2)),
    (2, 2): ((1, 2), (2, 1)),
}


@dataclass(frozen=True)
class UnitSeries:
    """Series with unit-algebra coefficients, as four scalar series."""

    components: Tuple[Tuple[Tuple[int, int], TruncatedSeries], ...]

    def __post_init__(self):
        cells = tuple(c for c, _ in self.components)
        if cells != QCELLS:
            raise ValueError("components must cover the q basis in order")
        orders = {s.order for _, s in self.components}
        modes = {s.mode for _, s in self.components}
        if len(orders) != 1 or len(modes) != 1:
            raise ValueError("components must share order and mode")

    @classmethod
    def from_map(cls, comp: Dict[Tuple[int, int], TruncatedSeries]):
        return cls(tuple((qc, comp[qc]) for qc in QCELLS))

    def component(self, qcell) -> TruncatedSeries:
        return dict(self.components)[tuple(qcell)]

    @property
    def order(self) -> int:
        return self.components[0][1].order

    @property
    def mode(self) -> str:
        return self.components[0][1].mode

    def coefficient(self, n: int) -> UnitElement:
        return UnitElement(tuple(s.coeffs[n] for _, s in self.components),
                           self.mode)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitSeries):
            return NotImplemented
        return all(a == b for (_, a), (_, b)
                   in zip(self.components, other.components))

    __hash__ = None

    def agrees(self, other: "UnitSeries", rel: float = 1e-10) -> bool:
        return all(a.agrees(b, rel) for (_, a), (_, b)
                   in zip(self.components, other.components))


def assemble_matricial_r(array: DistributionArray, order: int) -> UnitSeries:
    """Sum of the cell R-transforms weighted by their internal units.

    Over the q basis each component is the sum of two cell transforms:
    q11 <- (1,1)+(2,2), q21 <- (1,1)+(2,1), q12 <- (2,2)+(1,2),
    q22 <- (1,2)+(2,1); each is the R-transform of the free convolution of
    the two cell distributions.
    """
    if array.order < order + 1:
        raise ValueError("need cumulants to order %d" % (order + 1))
    comp = {}
    for qc, (c1, c2) in Q_SUMMANDS.items():
        s = (array.r_series(c1) + array.r_series(c2)).truncate(order)
        comp[qc] = s
    return UnitSeries.from_map(comp)


def invert_C(r: UnitSeries, order: int | None = None) -> UnitSeries:
    """Multiplicative inverse of 1/z + R, componentwise over the q basis."""
    return UnitSeries.from_map(
        {qc: invert_pole_series(r.component(qc), order)
         for qc in QCELLS})


def b_elements(B: UnitSeries, count: int) -> List[UnitElement]:
    """Inverse-series coefficients b_0..b_count as unit elements."""
    if count > B.order + 1:
        raise ValueError("B holds b_1..b_%d, requested b_%d"
                         % (B.order + 1, count))
    out = [UnitElement.identity(B.mode)]
    for n in range(count):
        out.append(B.coefficient(n))
    return out


class _AlternatingTable:
    """S_d = sum_{k=1}^d sum_{n1+..+nk=d-k} <b_{n1} M b_{n2} .. M b_{nk} v, v>
    for one state vector v, built one anti-diagonal k + r = d at a time.

    U[k, r] sums the products over compositions of r into k parts, applied
    to v.  b_r enters only through U[1, r], so the k >= 2 part of S_d needs
    b_0..b_{d-2} alone, and a b_{d-1} not yet in b_ops counts as zero: that
    is how reconstruct_unique solves for it.  Callers may append to b_ops.
    """

    def __init__(self, model: FockModel, b_ops: list, mid_op, state: str):
        self.b_ops, self.mid = b_ops, mid_op
        self.base = model.state_vector(state)
        self.ref = next(iter(self.base))
        self.zero = as_scalar(0, model.mode)
        self.U: dict = {}
        self.MU: dict = {}                # M U[k, r], each applied once

    def _mid_u(self, k: int, r: int):
        if (k, r) not in self.MU:
            u = self.U[k, r] if k > 1 else self.b_ops[r].apply(self.base)
            self.MU[k, r] = self.mid.apply(u)
        return self.MU[k, r]

    def sum(self, d: int):
        zero = self.zero
        total = (self.b_ops[d - 1].apply(self.base).get(self.ref, zero)
                 if d - 1 < len(self.b_ops) else zero)
        for k in range(2, d + 1):
            acc: dict = {}
            for n1 in range(d - k + 1):
                mu = self._mid_u(k - 1, d - k - n1)
                for w, c in self.b_ops[n1].apply(mu).items():
                    acc[w] = acc.get(w, zero) + c
            self.U[k, d - k] = {w: c for w, c in acc.items() if c != 0}
            total += self.U[k, d - k].get(self.ref, zero)
        return total


def linearization_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """Residuals of the vacuum-state linearization identity; the expected
    value is 1 at m = 1 and 0 for every larger m."""
    if m_max > model.depth:
        raise ValueError("m_max %d exceeds model depth %d"
                         % (m_max, model.depth))
    table = _AlternatingTable(model, b_elements(B, m_max), model.total(),
                              "phi")
    return [table.sum(d) for d in range(1, m_max + 1)]


def compressed_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """Per-cell residual table of the compressed identity.

    Cell (i,j) pairs the compression P_{i,j} (1 - q11 on the diagonal,
    1 - 1_{j,j} off it) with the vector state at e_{i,i}; each row of the
    table is expected to read 1, 0, 0, ...
    """
    if m_max > model.depth:
        raise ValueError("need model depth >= m_max")
    b_ops = b_elements(B, m_max)
    out = {}
    for cell in sorted(model.J):
        table = _AlternatingTable(model, b_ops, model.compressed_total(cell),
                                  "phi1" if cell[0] == 1 else "phi2")
        out[cell] = [table.sum(d) for d in range(1, m_max + 1)]
    return out


def reconstruct_unique(model: FockModel, order: int) -> UnitSeries:
    """Recover the matricial R-transform from moment data alone.

    Solves the vacuum-state recursion for the q11 components and the two
    compressed conjugate-state recursions for q21 and q12; the q22
    component follows from the linear relation Q22 = Q21 + Q12 - Q11 on
    the Cauchy-argument side.  Needs one cell in each row of J and model
    depth at least order + 1.
    """
    if order + 1 > model.depth:
        raise ValueError("need model depth >= order + 1")
    mode = model.mode
    row_cell = {}
    for i in (1, 2):
        for cell in ((i, i), (i, 3 - i)):
            if cell in model.J:
                row_cell[i] = cell
                break
    if set(row_cell) != {1, 2}:
        raise ValueError("reconstruction needs a cell in each row of J")

    # B-side components read off moment data, one table per state; the
    # level-(m+1) sum vanishes, and b_m enters it only as <b_m v, v>
    b_ops = [UnitElement.identity(mode)]
    tables = {
        (1, 1): _AlternatingTable(model, b_ops, model.total(), "phi"),
        (2, 1): _AlternatingTable(
            model, b_ops, model.compressed_total(row_cell[1]), "phi1"),
        (1, 2): _AlternatingTable(
            model, b_ops, model.compressed_total(row_cell[2]), "phi2"),
    }
    b_tails = {qc: [] for qc in QCELLS}       # b_1..b_m per component
    for m in range(1, order + 2):
        for qc, table in tables.items():
            b_tails[qc].append(-table.sum(m + 1))
        # invert_pole_series is an involution on tails: b <-> c
        c = {qc: invert_pole_series(TruncatedSeries(b_tails[qc], mode))
             for qc in tables}
        c[(2, 2)] = c[(2, 1)] + c[(1, 2)] - c[(1, 1)]
        b_tails[(2, 2)].append(invert_pole_series(c[(2, 2)]).coeffs[-1])
        b_ops.append(UnitElement(
            tuple(b_tails[qc][-1] for qc in QCELLS), mode))

    return UnitSeries.from_map(c)
