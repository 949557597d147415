"""Unit-valued transform layer: assembling the matricial R-transform,
checking the linearization identities in all states, and reconstructing
the transform uniquely from moment data.

A unit-valued series is stored as four scalar series over the q basis.
Transform series use the tail convention of :func:`series.invert_pole_series`:
coefficient k of an R-side series is c_{k+1} (so the series is the regular
part of C = 1/z + R), and coefficient k of a B-side series is b_{k+1} (the
multiplicative inverse being z + z^2 * tail), with c_0 = b_0 = 1 implicit.

For a middle operator M (the total A or a compression) and a state vector
v, a :class:`smfconv.fock.ResolventTable` reads the coefficients S_d of
<(1 - B M)^{-1} B v, v> = <(C - M)^{-1} v, v> off the coefficients of R;
the identities expect 1, 0, 0, ...  One table per operator and state
serves eq56, eq611 and uniqueness (:func:`check_residuals`), so a job
forms no B.  The tables and the reconstruction are exact whatever the
array's precision; only the residuals a float job reports are rounded,
once each.  ``linearization_residuals`` and ``compressed_residuals``,
which take B, are adapters over :func:`check_residuals`, kept for
perfbench's replay of a job.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .arrays import DistributionArray
from .fock import FockModel, ResolventTable
from .series import Record, TruncatedSeries, invert_pole_series, reported
from .units import QCELLS, UnitElement

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


def _tables(model: FockModel, r_ops, tops: Dict) -> Dict:
    """The resolvent tables of the checks, keyed as *tops* is, each summed
    to its own top level: key None is the table of A in the vacuum state
    phi, a cell that of the cell's compressed total in its row's state."""
    return {key: ResolventTable(
        model, r_ops,
        model.total() if key is None else model.compressed_total(key),
        "phi" if key is None else "phi%d" % key[0], top)
        for key, top in tops.items()}


def _row_cells(J) -> Tuple[Tuple[int, int], ...]:
    """Per row, the cell whose compressed state yields one component of
    R: the diagonal cell when it is in J, else the row's other cell."""
    cells = tuple((i, i) if (i, i) in J else (i, 3 - i) for i in (1, 2))
    if not set(cells) <= set(J):
        raise ValueError("reconstruction needs a cell in each row of J")
    return cells


def _q22(r: Dict):
    """R22 = R21 + R12 - R11, from components keyed by q cell."""
    return r[(2, 1)] + r[(1, 2)] - r[(1, 1)]


def check_residuals(model: FockModel, R: UnitSeries, m_max: int,
                    checks) -> Dict[str, tuple]:
    """{check: (pass, residuals)} for each of eq56, eq611 and uniqueness
    in *checks*, from tables of R's coefficients r_0..r_{m_max-1}.

    eq56 reads S_1..S_{m_max} of the vacuum table, eq611 those of each
    cell's table (a dict by cell), in the model's precision.  uniqueness
    (residuals None) passes when ``reconstruct_unique(model, m_max - 1)``
    rebuilds R.  That reads r_m off level m + 2 of the vacuum and row-cell
    tables, which reads only r_0..r_m, r_m as the scalar at the reference
    word.  So by induction on m the r_m solved for is S_{m+2} plus R's r_m
    at that word's q class: the three tables, alone built to m_max + 1,
    must read 0 at d = 2..m_max+1, and R must satisfy q22 = ``_q22``.
    """
    if m_max > model.depth:
        raise ValueError("m_max %d exceeds model depth %d"
                         % (m_max, model.depth))
    if m_max > R.order + 1:
        raise ValueError("R holds r_0..r_%d, requested r_%d"
                         % (R.order, m_max - 1))
    r_ops = [R.coefficient(j) for j in range(m_max)]
    unique = (None, *_row_cells(model.J)) if "uniqueness" in checks else ()
    keys = {"eq56": [None], "eq611": sorted(model.J)}
    tops = {key: m_max for c in checks for key in keys.get(c, ())}
    tops.update(dict.fromkeys(unique, m_max + 1))
    tables = _tables(model, r_ops, tops)

    def residuals(key):
        return reported([tables[key].sum(d) for d in range(1, m_max + 1)],
                        model.mode)

    def passed(res):
        return res[0] == 1 and not any(res[1:])

    out = {}
    if "eq56" in checks:
        res = residuals(None)
        out["eq56"] = (passed(res), res)
    if "eq611" in checks:
        rows = {cell: residuals(cell) for cell in sorted(model.J)}
        out["eq611"] = (all(map(passed, rows.values())), rows)
    if unique:
        out["uniqueness"] = (all(
            tables[key].sum(d) == 0 for key in unique
            for d in range(2, m_max + 2)) and all(
            r.component((2, 2)) == _q22(dict(zip(QCELLS, r.beta)))
            for r in r_ops), None)
    return out


def linearization_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """eq56's residuals, R read off B by the pole inverse, an involution
    on tails."""
    return check_residuals(model, invert_C(B), m_max, ("eq56",))["eq56"][1]


def compressed_residuals(model: FockModel, B: UnitSeries, m_max: int):
    """eq611's residuals by cell, R read off B as above."""
    return check_residuals(model, invert_C(B), m_max,
                           ("eq611",))["eq611"][1]


def reconstruct_unique(model: FockModel, order: int) -> UnitSeries:
    """Recover the matricial R-transform to *order* from moment data
    alone, exactly in both precisions.  S_{m+2} vanishes and r_m enters
    it only as <r_m v, v>, so level m + 2 of the vacuum and row-cell
    tables, read without r_m, gives r_m at the q class of each table's
    reference word (q11, q21, q12); q22 follows by ``_q22``.  Needs a cell
    in each row of J and model depth at least order + 1."""
    if order + 1 > model.depth:
        raise ValueError("need model depth >= order + 1")
    r_ops: List[UnitElement] = []
    tables = _tables(model, r_ops,
                     dict.fromkeys((None, *_row_cells(model.J)), order + 2))
    for m in range(order + 1):
        r = {table.qref: table.sum(m + 2) for table in tables.values()}
        r[(2, 2)] = _q22(r)
        r_ops.append(UnitElement(tuple(r[qc] for qc in QCELLS)))
    return UnitSeries.from_map(
        {qc: TruncatedSeries(u.component(qc) for u in r_ops)
         for qc in QCELLS})
