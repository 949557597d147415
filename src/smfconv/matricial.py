"""Unit-valued transform layer: assembling the matricial R-transform,
inverting its Cauchy argument, checking the linearization residuals in all
states, and reconstructing the transform uniquely from moment data.

A unit-valued series is stored as four scalar series over the q basis.
Transform series use the tail convention of :func:`series.invert_pole_series`:
coefficient k of an R-side series is c_{k+1} (so the series is the regular
part of 1/z + R), and coefficient k of a B-side series is b_{k+1} (the
multiplicative inverse being z + z^2 * tail), with c_0 = b_0 = 1 implicit.

Every series and sum here is exact: the transforms are assembled from the
exact array (``DistributionArray.exact``) and the Fock model is exact, so
the residual tables and the reconstruction decide their identities
exactly in both precisions.  Only the residuals a float job reports are
rounded, once each.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .arrays import DistributionArray
from .fock import STATE_WORDS, FockModel, runs
from .series import Record, TruncatedSeries, extend_pole_inverse, \
    invert_pole_series, reported
from .units import QCELLS, FockVector, UnitElement

# q-component of the assembled transform <- pairwise sums of cell transforms
Q_SUMMANDS = {
    (1, 1): ((1, 1), (2, 2)),
    (2, 1): ((1, 1), (2, 1)),
    (1, 2): ((2, 2), (1, 2)),
    (2, 2): ((1, 2), (2, 1)),
}


class UnitSeries(Record):
    """Series with unit-algebra coefficients, as four scalar series of
    one order."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: Tuple[Tuple[Tuple[int, int],
                                               TruncatedSeries], ...]):
        cells = tuple(c for c, _ in components)
        if cells != QCELLS:
            raise ValueError("components must cover the q basis in order")
        if len({s.order for _, s in components}) != 1:
            raise ValueError("components must share one order")
        object.__setattr__(self, "components", components)

    @classmethod
    def from_map(cls, comp: Dict[Tuple[int, int], TruncatedSeries]):
        return cls(tuple((qc, comp[qc]) for qc in QCELLS))

    def component(self, qcell) -> TruncatedSeries:
        return dict(self.components)[tuple(qcell)]

    @property
    def order(self) -> int:
        return self.components[0][1].order

    def coefficient(self, n: int) -> UnitElement:
        return UnitElement(tuple(s.coeffs[n] for _, s in self.components))

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
    the two cell distributions.  The series are exact whatever the
    array's precision.
    """
    if array.order < order + 1:
        raise ValueError("need cumulants to order %d" % (order + 1))
    array = array.exact()
    comp = {}
    for qc, (c1, c2) in Q_SUMMANDS.items():
        s = (array.r_series(c1) + array.r_series(c2)).truncate(order)
        comp[qc] = s
    return UnitSeries.from_map(comp)


def invert_C(r: UnitSeries) -> UnitSeries:
    """Multiplicative inverse of 1/z + R, componentwise over the q basis."""
    return UnitSeries.from_map(
        {qc: invert_pole_series(r.component(qc)) for qc in QCELLS})


def b_elements(B: UnitSeries, count: int) -> List[UnitElement]:
    """Inverse-series coefficients b_0..b_count as unit elements."""
    if count > B.order + 1:
        raise ValueError("B holds b_1..b_%d, requested b_%d"
                         % (B.order + 1, count))
    out = [UnitElement.identity()]
    for n in range(count):
        out.append(B.coefficient(n))
    return out


def _combine(vectors: Sequence[FockVector]) -> FockVector:
    """Sum of Fock vectors over the lcm of their denominators, adding
    the entries vector by vector; zero sums are kept."""
    den = math.lcm(*(v.den for v in vectors))
    out: dict = {}
    for v in vectors:
        f = den // v.den
        if f == 1:
            for w, c in v.entries.items():
                out[w] = out.get(w, 0) + c
        else:
            for w, c in v.entries.items():
                out[w] = out.get(w, 0) + c * f
    return FockVector(out, den)


class _AlternatingTable:
    """S_d = sum_{k=1}^d sum_{n1+..+nk=d-k} <b_{n1} M b_{n2} .. M b_{nk} v, v>
    for one state vector v and d = 1..top, by one linear recursion in d.

    Summed by first factor, the products of S_d applied to v add up to
    Y_d = b_{d-1} v + X_d, X_d = sum_{n=0}^{d-2} b_n M Y_{d-1-n}, and
    S_d = <Y_d, v>.  Level d keeps X_d and M Y_d, applied once when level
    d + 1 is built, so m levels apply M m - 1 times.  X_d needs only
    b_0..b_{d-2}, so a b_{d-1} not yet in b_ops counts as zero: that is
    how reconstruct_unique solves for it.  Callers may append to b_ops.
    Each sum of vectors is taken over the lcm of their denominators, and
    S_d is read as one Fraction.

    The tables prune by run count, as ``FockModel._power_moments`` does.
    Y_L meets at most top - L more applications of M before its images
    are read at a level <= top; each strips at most one run from the
    front of a word, and the b_n keep every word.  So a word of Y_L with
    more than top - L + runs(ref) runs never reaches the reference word
    and is dropped before M is applied.  The surviving entries get the
    same contributions, so every S_d is unchanged.
    """

    def __init__(self, model: FockModel, b_ops: list, mid_op, state: str,
                 top: int):
        self.b_ops, self.mid, self.top = b_ops, mid_op, top
        self.base = model.state_vector(state)
        self.ref = STATE_WORDS[state]
        self.ref_runs = runs(self.ref)
        self.X: list = [None]             # X_d at index d
        self.MY: list = [None]            # M Y_d at index d

    def sum(self, d: int):
        if d > self.top:
            raise ValueError("level %d is above the table's top level %d"
                             % (d, self.top))
        for level in range(len(self.X), d + 1):
            if level > 1:                 # b_{level-2} is known by now
                y = _combine([self.b_ops[level - 2].apply(self.base),
                              self.X[level - 1]])
                limit = self.top - (level - 1) + self.ref_runs
                self.MY.append(self.mid.apply(FockVector(
                    {w: c for w, c in y.entries.items()
                     if c != 0 and runs(w) <= limit}, y.den)))
            acc = _combine([self.b_ops[n].apply(self.MY[level - 1 - n])
                            for n in range(level - 1)])
            self.X.append(FockVector(
                {w: c for w, c in acc.entries.items() if c != 0}, acc.den))
        # S_d = <b_{d-1} v + X_d, v>, both terms read over one denominator
        parts = [self.X[d]]
        if d - 1 < len(self.b_ops):
            parts.insert(0, self.b_ops[d - 1].apply(self.base))
        ref = self.ref
        at_ref = [FockVector({ref: v.entries[ref]}, v.den)
                  for v in parts if ref in v.entries]
        return _combine(at_ref).read(ref)


def linearization_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """Residuals of the vacuum-state linearization identity, in the
    model's precision; the expected value is 1 at m = 1 and 0 for every
    larger m."""
    if m_max > model.depth:
        raise ValueError("m_max %d exceeds model depth %d"
                         % (m_max, model.depth))
    table = _AlternatingTable(model, b_elements(B, m_max), model.total(),
                              "phi", m_max)
    return reported((table.sum(d) for d in range(1, m_max + 1)), model.mode)


def compressed_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """Per-cell residual table of the compressed identity.

    Cell (i,j) pairs the compression P_{i,j} (1 - q11 on the diagonal,
    1 - 1_{j,j} off it) with the vector state at e_{i,i}; each row of the
    table is expected to read 1, 0, 0, ...  Residuals are in the model's
    precision.
    """
    if m_max > model.depth:
        raise ValueError("need model depth >= m_max")
    b_ops = b_elements(B, m_max)
    out = {}
    for cell in sorted(model.J):
        table = _AlternatingTable(model, b_ops, model.compressed_total(cell),
                                  "phi1" if cell[0] == 1 else "phi2", m_max)
        out[cell] = reported((table.sum(d) for d in range(1, m_max + 1)),
                             model.mode)
    return out


def reconstruct_unique(model: FockModel, order: int) -> UnitSeries:
    """Recover the matricial R-transform from moment data alone.

    Solves the vacuum-state recursion for the q11 components and the two
    compressed conjugate-state recursions for q21 and q12; the q22
    component follows from the linear relation Q22 = Q21 + Q12 - Q11 on
    the Cauchy-argument side.  Needs one cell in each row of J and model
    depth at least order + 1.  The series are exact whatever the model's
    precision.
    """
    if order + 1 > model.depth:
        raise ValueError("need model depth >= order + 1")
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
    b_ops = [UnitElement.identity()]
    top = order + 2
    tables = {
        (1, 1): _AlternatingTable(model, b_ops, model.total(), "phi", top),
        (2, 1): _AlternatingTable(
            model, b_ops, model.compressed_total(row_cell[1]), "phi1", top),
        (1, 2): _AlternatingTable(
            model, b_ops, model.compressed_total(row_cell[2]), "phi2", top),
    }
    # b_0..b_m and c_0..c_m per component, b_0 = c_0 = 1; the pole-series
    # inverse is an involution b <-> c, grown one coefficient per step
    b = {qc: [1] for qc in QCELLS}
    c = {qc: [1] for qc in QCELLS}
    for m in range(1, order + 2):
        for qc, table in tables.items():
            b[qc].append(-table.sum(m + 1))
            extend_pole_inverse(b[qc], c[qc])
        c[(2, 2)].append(c[(2, 1)][m] + c[(1, 2)][m] - c[(1, 1)][m])
        extend_pole_inverse(c[(2, 2)], b[(2, 2)])
        b_ops.append(UnitElement(tuple(b[qc][m] for qc in QCELLS)))

    return UnitSeries.from_map(
        {qc: TruncatedSeries(c[qc][1:]) for qc in QCELLS})
