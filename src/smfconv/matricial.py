"""Unit-valued transform layer: assembling the matricial R-transform,
inverting its Cauchy argument, checking the linearization residuals in all
states, and reconstructing the transform uniquely from moment data.

A unit-valued series is stored as four scalar series over the q basis.
Transform series use the tail convention of :func:`series.invert_pole_series`:
coefficient k of an R-side series is c_{k+1} (so the series is the regular
part of 1/z + R), and coefficient k of a B-side series is b_{k+1} (the
multiplicative inverse being z + z^2 * tail), with c_0 = b_0 = 1 implicit.

The checks read, for a middle operator M (the total A or a compression)
and a state vector v, the coefficients S_d of <(1 - B M)^{-1} B v, v>:
the products <b_{n_1} M b_{n_2} .. M b_{n_k} v, v> summed over k and
n_1 + .. + n_k = d - k.  Expected are 1, 0, 0, ...  As (1 - B M)^{-1} B =
(C - M)^{-1}, the sums come from one recursion on the unit coefficients
r_j = c_{j+1} of R, which are zero past the last cumulant:

    Y_1 = v,   Y_{d+1} = M Y_d - sum_{j<d} r_j Y_{d-j},   S_d = <Y_d, v>.

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
from .series import Record, TruncatedSeries, invert_pole_series, reported
from .units import QCELLS, FockVector, UnitElement, q_class

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


def _difference(v: FockVector, minus: Sequence[FockVector]) -> FockVector:
    """v less the sum of the vectors *minus*, over the lcm of their
    denominators; zero entries are kept."""
    den = math.lcm(v.den, *(u.den for u in minus))
    f = den // v.den
    out = dict(v.entries) if f == 1 else \
        {w: c * f for w, c in v.entries.items()}
    for u in minus:
        f = den // u.den
        for w, c in u.entries.items():
            out[w] = out.get(w, 0) - (c if f == 1 else c * f)
    return FockVector(out, den)


class _ResolventTable:
    """S_d = <Y_d, v> for one state vector v and d = 1..top, by the
    recursion of the module docstring.

    Building level d + 1 applies M once, to Y_d, and each nonzero r_j,
    j <= d - 2, once, to Y_{d-j}: Z_{d+1} is their difference.  The last
    term, r_{d-1} v, is v times the component of r_{d-1} at the q class
    of the reference word, so it is added as a scalar: to S_{d+1}, and to
    Y_{d+1} when that is first needed.  An r_{d-1} not yet in r_ops counts
    as zero in S_{d+1}: that is how reconstruct_unique solves for it
    before appending it to r_ops.

    The table prunes by run count with ``FockModel.prune``, as
    ``FockModel._power_moments`` does.
    Y_L meets at most top - L more applications of M before its images
    are read at a level <= top; each strips at most one run from the
    front of a word, and the r_j keep every word.  So a word of Y_L with
    more than top - L + runs(ref) runs never reaches the reference word
    and is dropped, which leaves every S_d unchanged.
    """

    def __init__(self, model: FockModel, r_ops: list, mid_op, state: str,
                 top: int):
        self.model, self.r_ops, self.mid, self.top = model, r_ops, mid_op, top
        self.ref = STATE_WORDS[state]
        self.qref, self.ref_runs = q_class(self.ref), runs(self.ref)
        self.Y: list = [None]             # Y_d at index d, pruned
        self.Z = FockVector({self.ref: 1})    # Z_d for d = len(Y)
        self.at_ref = [None, self.Z.read(self.ref)]   # <Z_d, v> at index d

    def _scalar(self, d: int):
        """r_{d-2} at the q class of the reference word; 0 while unknown."""
        if 2 <= d < len(self.r_ops) + 2:
            return self.r_ops[d - 2].component(self.qref)
        return 0

    def sum(self, d: int):
        if d > self.top:
            raise ValueError("level %d is above the table's top level %d"
                             % (d, self.top))
        while len(self.Y) < d:
            level, x = len(self.Y), self._scalar(len(self.Y))
            y = _difference(self.Z, [FockVector(
                {self.ref: x.numerator}, x.denominator)] if x else [])
            self.Y.append(self.model.prune(
                y, self.top - level + self.ref_runs))
            self.Z = _difference(self.mid.apply(self.Y[level]), [
                r.apply(self.Y[level - j])
                for j, r in enumerate(self.r_ops[:level - 1]) if any(r.beta)])
            self.at_ref.append(self.Z.read(self.ref))
        return self.at_ref[d] - self._scalar(d)


def _r_elements(B: UnitSeries, m_max: int) -> List[UnitElement]:
    """r_0..r_{m_max-2} of R = invert_C(B), the pole inverse being an
    involution on tails; the levels up to m_max need no more."""
    if m_max > B.order + 1:
        raise ValueError("B holds b_1..b_%d, requested b_%d"
                         % (B.order + 1, m_max))
    R = invert_C(B)
    return [R.coefficient(j) for j in range(m_max - 1)]


def linearization_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """Residuals of the vacuum-state linearization identity, in the
    model's precision; the expected value is 1 at m = 1 and 0 for every
    larger m."""
    if m_max > model.depth:
        raise ValueError("m_max %d exceeds model depth %d"
                         % (m_max, model.depth))
    table = _ResolventTable(model, _r_elements(B, m_max), model.total(),
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
    r_ops = _r_elements(B, m_max)
    out = {}
    for cell in sorted(model.J):
        table = _ResolventTable(model, r_ops, model.compressed_total(cell),
                                "phi1" if cell[0] == 1 else "phi2", m_max)
        out[cell] = reported((table.sum(d) for d in range(1, m_max + 1)),
                             model.mode)
    return out


def reconstruct_unique(model: FockModel, order: int) -> UnitSeries:
    """Recover the matricial R-transform from moment data alone.

    Solves the vacuum-state recursion for the q11 components and the two
    compressed conjugate-state recursions for q21 and q12; the q22
    component follows from the linear relation R22 = R21 + R12 - R11.
    Needs one cell in each row of J and model depth at least order + 1.
    The series are exact whatever the model's precision.
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

    # one table per state; S_{m+2} vanishes, and r_m enters it only as
    # <r_m v, v>, so each table read without r_m gives r_m's component at
    # the q class of its reference word
    r_ops: List[UnitElement] = []
    top = order + 2
    tables = {
        (1, 1): _ResolventTable(model, r_ops, model.total(), "phi", top),
        (2, 1): _ResolventTable(
            model, r_ops, model.compressed_total(row_cell[1]), "phi1", top),
        (1, 2): _ResolventTable(
            model, r_ops, model.compressed_total(row_cell[2]), "phi2", top),
    }
    for m in range(order + 1):
        r = {qc: table.sum(m + 2) for qc, table in tables.items()}
        r[(2, 2)] = r[(2, 1)] + r[(1, 2)] - r[(1, 1)]
        r_ops.append(UnitElement(tuple(r[qc] for qc in QCELLS)))
    return UnitSeries.from_map(
        {qc: TruncatedSeries(u.component(qc) for u in r_ops)
         for qc in QCELLS})
