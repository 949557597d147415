"""Reference oracles that only the tests call.

Each oracle computes a quantity the library also computes, by a route
that shares no code with the engine under test: literal enumeration of
colored non-crossing partitions, the blockwise nesting-forest sum over
each non-crossing partition, the classical free moment-cumulant
formula, composition of reciprocal Cauchy transforms, the pole product
C(z) B(z) = 1 written out coefficientwise, the closed-form fixed-point
equations of the five binary convolution kinds, the Fock operators and
cell polynomials as full column tables over the word basis, acting on
{word: scalar} dicts with Fraction coefficients, alternating
sums written out one product per composition and summed over the
coefficients of B = C^{-1} by ``_AlternatingTable`` (the library sums
them over R), and the closed-form
transform of a square array with semicircle diagonals and point-mass
off-diagonals.  ``cut_pass_fixed_point`` recomposes the subordination
series from scratch at every order, with the series composition,
shift and reciprocal defined here.  ``reinverting_reconstruct`` inverts
every transform tail anew at each step, and ``full_relation_violations``
checks the creation relation on the whole word basis.
``four_unknown_damped`` iterates the numeric fixed point with one unknown
per cell, the off-diagonal resolvent twice, ``full_tail_newton``
polishes it by Newton on full-length cell tails, ``four_unknown_cauchy``
runs the two in the library's phases, and ``dict_keyed_cauchy`` runs the
library's damped map over dicts keyed by cell and class, forming G_(1,1)
at every step.  Two thin wrappers
drive the subordination engine on single laws and on the binary
convolution kinds, ``perfbench_workloads`` loads the benchmark's job
configs, and ``module_imports`` reads a module's imports for the
engine-independence guards.

The test-only API lives here too: free cumulants from moments
(``r_from_moments``), a cell's cumulants recovered from the Fock model
(``single_cell_r``), the subordinate family (``solve_subordination``),
arrays padded with zero cumulants (``padded``), the closed-form Meixner
density, the row-identical arrays of the binary convolution kinds, the
word-validity predicate, the B-side unit coefficients (``b_elements``)
and the q-basis projections (``q_projection``, ``is_projection``).

Matricial labels: a block's label is (c, c) when every enclosing block
carries its own color c (or nothing encloses it), and (c, c') otherwise,
where c' is the color of the nearest differently-colored enclosing block.
With two colors c' is simply the opposite color.  A colored partition is
admitted for a shape set J iff every label lies in J; covering blocks
always get diagonal labels.
"""

from __future__ import annotations

import ast
import cmath
import importlib.util
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

from smfconv import (FLOAT, QCELLS, RATIONAL, SHAPES, DistributionArray,
                     FockModel, NamedLaw, TruncatedSeries, UnitElement,
                     UnitSeries, master_cauchy)
from smfconv.analytic import (CAUCHY_DAMPED_ITER, CAUCHY_MAX_ITER,
                              CAUCHY_TOL, CELL_CLASS, NEWTON_MAX_ITER,
                              NEWTON_ORDER, Q_RESOLVENTS,
                              _series_fixed_point, _tails)
from smfconv.arrays import ALL_CELLS
from smfconv.fock import ResolventTable, can_prepend, runs
from smfconv.partitions import NCPartition, enumerate_nc
from smfconv.series import as_scalar, invert_pole_series, scalars_close
from smfconv.units import FockVector, compression, q_class

Label = Tuple[int, int]


# -- the test-only API -------------------------------------------------------


def r_from_moments(moments: TruncatedSeries) -> TruncatedSeries:
    """Free cumulants of a moment sequence, as the R-transform tail.

    Input: m_0..m_N with m_0 = 1.  Output: series with r(k+1) at index k,
    i.e. R(z) = sum_k out[k] z^k, determined by the triangular system
    m_n = sum_{k=1}^{n} r_k [z^{n-k}] M(z)^k.
    """
    if moments.coeffs[0] != 1:
        raise ValueError("moment sequence must be normalized (m_0 = 1)")
    n = moments.order
    if n == 0:
        raise ValueError("need at least the first moment")
    mode = moments.mode
    powers = [TruncatedSeries.one(n, mode)]
    for _ in range(n):
        powers.append(powers[-1] * moments)
    r = []
    for m in range(1, n + 1):
        s = as_scalar(0, mode)
        for k in range(1, m):
            s += r[k - 1] * powers[k].coeffs[m - k]
        r.append(moments.coeffs[m] - s)
    return TruncatedSeries(r, mode)


def single_cell_r(model: FockModel, cell, order: int) -> TruncatedSeries:
    """Cumulants of one cell operator recovered from its own moments
    in the cell's state; must reproduce the input cumulants."""
    if order + 1 > model.depth:
        raise ValueError("need depth >= order + 1")
    table = ResolventTable(model, (), model.toeplitz(cell),
                           model._cell_state(cell), order + 1)
    return r_from_moments(TruncatedSeries(table.sums()))


def solve_subordination(array: DistributionArray,
                        order: int) -> Dict[Label, TruncatedSeries]:
    """Moment generating functions of the four subordinate transforms,
    exact whatever the array's precision: each cell's is the resolvent of
    the q-class it reads."""
    lam, resolvents = _series_fixed_point(array, order)
    return {cell: TruncatedSeries([Fraction(c, lam ** t) for t, c
                                   in enumerate(resolvents[q])])
            for cell, q in CELL_CLASS.items()}


def padded(array: DistributionArray, order: int) -> DistributionArray:
    """The array with every cell extended by zero cumulants up to
    r(order)."""
    if array.order >= order:
        return array
    zero = as_scalar(0, array.mode)
    pad = (zero,) * (order - array.order)
    return DistributionArray(tuple((c, seq + pad) for c, seq in array.cells),
                             array.mode)


def meixner_density(a: float, b: float, x: float) -> float:
    """Continuous part sqrt(4a - (x-b)^2) / (pi (4a + 2bx - x^2)) on
    [b - 2 sqrt(a), b + 2 sqrt(a)], zero outside."""
    disc = 4 * a - (x - b) ** 2
    if disc <= 0:
        return 0.0
    return math.sqrt(disc) / (math.pi * (4 * a + 2 * b * x - x * x))


def row_identical_array(kind: str, law1: NamedLaw, law2: NamedLaw,
                        order: int, mode: str = RATIONAL) -> DistributionArray:
    """Array realizing a binary convolution: row 1 carries law1, row 2 law2,
    on the shape matching *kind*."""
    shape_for_kind = {
        "free": "square",
        "monotone": "lower_triangular",
        "boolean": "diagonal",
        "s_free": "upper_anti_triangular",
        "orthogonal": "column",
    }
    if kind not in shape_for_kind:
        raise ValueError("unknown convolution kind %r" % (kind,))
    J = SHAPES[shape_for_kind[kind]]
    laws = {cell: (law1 if cell[0] == 1 else law2) for cell in J}
    return DistributionArray.from_laws(laws, order, mode)


def word_is_valid(word) -> bool:
    if not word:
        return True
    if word[-1][0] != word[-1][1]:
        return False
    for k in range(len(word) - 1, 0, -1):
        if not can_prepend(word[k - 1], word[k:]):
            return False
    return True


def b_elements(B: UnitSeries, count: int) -> List[UnitElement]:
    """Inverse-series coefficients b_0..b_count as unit elements."""
    if count > B.order + 1:
        raise ValueError("B holds b_1..b_%d, requested b_%d"
                         % (B.order + 1, count))
    out = [UnitElement.identity()]
    for n in range(count):
        out.append(B.coefficient(n))
    return out


# -- series operations only the oracles use ----------------------------------


def shift(s: TruncatedSeries) -> TruncatedSeries:
    """Multiply by z, keeping the truncation order."""
    if s.order == 0:
        return TruncatedSeries([0], s.mode)
    return TruncatedSeries((as_scalar(0, s.mode),) + s.coeffs[:-1], s.mode)


def reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """1/s; requires a nonzero constant term."""
    if s.coeffs[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    c0 = s.coeffs[0]
    inv = [1 / c0 if s.mode == FLOAT else Fraction(1) / c0]
    for m in range(1, s.order + 1):
        acc = sum((s.coeffs[i] * inv[m - i] for i in range(1, m + 1)),
                  as_scalar(0, s.mode))
        inv.append(-acc / c0)
    return TruncatedSeries(inv, s.mode)


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(z)) truncated at the common order; g must have zero constant
    term."""
    f._check(g)
    if g.coeffs[0] != 0:
        raise ValueError("inner series has nonzero constant term")
    n = min(f.order, g.order)
    zero = as_scalar(0, f.mode)
    out = [zero] * (n + 1)
    power = TruncatedSeries.one(n, f.mode)
    gt = g.truncate(n)
    for k, fk in enumerate(f.coeffs[:n + 1]):
        if fk != 0:
            for t in range(n + 1):
                out[t] += fk * power.coeffs[t]
        if k < n:
            power = power * gt
    return TruncatedSeries(out, f.mode)


# -- nesting forests ----------------------------------------------------------


def forest(partition: NCPartition):
    """(parents, children per block, roots, parent-first order).

    Memoized on the partition object itself: enumerate_nc shares
    partition instances per m, so the nesting structure is computed once
    and later lookups avoid rehashing the block structure."""
    cached = getattr(partition, "_forest", None)
    if cached is not None:
        return cached
    parents = partition.parents()
    children = [[] for _ in partition.blocks]
    roots = []
    for k, p in enumerate(parents):
        if p is None:
            roots.append(k)
        else:
            children[p].append(k)
    order = []
    stack = list(reversed(roots))
    while stack:
        k = stack.pop()
        order.append(k)
        stack.extend(reversed(children[k]))
    result = (parents, tuple(tuple(c) for c in children), tuple(roots),
              tuple(order))
    object.__setattr__(partition, "_forest", result)
    return result


def forest_moments(array: DistributionArray, order: int) -> TruncatedSeries:
    """Moments m_0..m_order summed one non-crossing partition at a time.

    Each partition's coloring sum is evaluated blockwise along its nesting
    forest, children before parents, with three values per block (chain
    still monochromatic in color 1, in color 2, or already mixed):

        T_j(b) = r_{j,j}(|b|) prod T_j(ch) + r_{j',j}(|b|) prod X(ch)
        X(b)   = (r_{1,2} + r_{2,1})(|b|) prod X(ch)

    and each covering block contributes r_{1,1} prod T_1 + r_{2,2} prod T_2.
    """
    cmap = array.cumulant_map()
    zero = as_scalar(0, array.mode)

    def rvals(cell):
        return cmap.get(cell, (zero,) * array.order)

    r11, r12 = rvals((1, 1)), rvals((1, 2))
    r21, r22 = rvals((2, 1)), rvals((2, 2))
    rmix = tuple(a + b for a, b in zip(r12, r21))
    out = [as_scalar(1, array.mode)]
    for n in range(1, order + 1):
        total = zero
        for partition in enumerate_nc(n):
            _, children, roots, forder = forest(partition)
            blocks = partition.blocks
            t1, t2, mix, diag = ({} for _ in range(4))
            for k in reversed(forder):
                sz = len(blocks[k]) - 1
                p1 = p2 = px = 1
                for ch in children[k]:
                    p1 *= t1[ch]
                    p2 *= t2[ch]
                    px *= mix[ch]
                t1[k] = r11[sz] * p1 + r21[sz] * px
                t2[k] = r22[sz] * p2 + r12[sz] * px
                mix[k] = rmix[sz] * px
                diag[k] = r11[sz] * p1 + r22[sz] * p2
            term = 1
            for root in roots:
                term *= diag[root]
            total += term
        out.append(total)
    return TruncatedSeries(out, array.mode)


# -- literal coloring sums ---------------------------------------------------


@dataclass(frozen=True)
class ColoredNCPartition:
    partition: NCPartition
    colors: Tuple[int, ...]
    labels: Tuple[Label, ...]


def label_blocks(partition: NCPartition,
                 colors: Sequence[int]) -> Tuple[Label, ...]:
    """Labels induced by a block coloring, per the matricial rule."""
    if len(colors) != len(partition.blocks):
        raise ValueError("one color per block required")
    if any(c not in (1, 2) for c in colors):
        raise ValueError("colors must be 1 or 2")
    parents, _, _, order = forest(partition)
    labels: list[Label | None] = [None] * len(partition.blocks)
    mono: list[bool] = [False] * len(partition.blocks)
    for k in order:
        c, p = colors[k], parents[k]
        if p is None or (mono[p] and colors[p] == c):
            labels[k] = (c, c)
            mono[k] = True
        else:
            labels[k] = (c, 3 - c)
            mono[k] = False
    return tuple(labels)          # type: ignore[arg-type]


def label_and_admit(partition: NCPartition, colors: Sequence[int],
                    J) -> ColoredNCPartition | None:
    """Label a coloring; None when some label falls outside J."""
    labels = label_blocks(partition, colors)
    if any(lbl not in J for lbl in labels):
        return None
    return ColoredNCPartition(partition, tuple(colors), labels)


def _admissible_colorings(partition: NCPartition, J):
    parents, _, _, order = forest(partition)
    nblocks = len(partition.blocks)
    colors: list[int] = [0] * nblocks
    labels: list[Label] = [(0, 0)] * nblocks
    mono: list[bool] = [False] * nblocks

    def walk(i: int):
        if i == nblocks:
            yield ColoredNCPartition(partition, tuple(colors), tuple(labels))
            return
        k = order[i]
        p = parents[k]
        for c in (1, 2):
            if p is None or (mono[p] and colors[p] == c):
                lbl, m = (c, c), True
            else:
                lbl, m = (c, 3 - c), False
            if lbl not in J:
                continue
            colors[k], labels[k], mono[k] = c, lbl, m
            yield from walk(i + 1)

    yield from walk(0)


def enumerate_admissible(m: int, J) -> Iterator[ColoredNCPartition]:
    """All J-admissible colored non-crossing partitions of {1..m}."""
    J = frozenset(J)
    for partition in enumerate_nc(m):
        yield from _admissible_colorings(partition, J)


def partition_contribution(colored: ColoredNCPartition,
                           array: DistributionArray):
    """Product of r_label(|block|) over the blocks of an admitted coloring."""
    cmap = array.cumulant_map()
    term = as_scalar(1, array.mode)
    for block, label in zip(colored.partition.blocks, colored.labels):
        seq = cmap.get(label)
        if seq is None or len(block) > len(seq):
            return as_scalar(0, array.mode)
        term *= seq[len(block) - 1]
    return term


# -- single-law and binary convolution moments -------------------------------


def moments_from_cumulants(cumulants: Sequence, order: int,
                           mode: str = RATIONAL) -> TruncatedSeries:
    """Single-measure moments m_0..m_order from cumulants r(1..).

    m_n sums, over all non-crossing partitions of {1..n}, the product of
    r(|block|) over blocks; missing cumulant orders count as zero.
    """
    r = [as_scalar(v, mode) for v in cumulants]
    zero = as_scalar(0, mode)
    out = [as_scalar(1, mode)]
    for n in range(1, order + 1):
        total = zero
        for partition in enumerate_nc(n):
            term = as_scalar(1, mode)
            for block in partition.blocks:
                k = len(block)
                if k > len(r) or r[k - 1] == 0:
                    term = zero
                    break
                term *= r[k - 1]
            total += term
        out.append(total)
    return TruncatedSeries(out, mode)


def f_compose_moments(m1: TruncatedSeries,
                      m2: TruncatedSeries) -> TruncatedSeries:
    """Moment series of the monotone convolution via composition of
    reciprocal Cauchy transforms, F = F1 o F2.

    With N = 1/M, F(z) = z N(1/z) = 1/w + T(w) where T holds n_{k+1} at
    index k; then F1(F2(z)) = F2(z) + S1(G2(z)) with S1(u) = (N1(u)-1)/u
    and G2 = w M2(w), and the result converts back through M = 1/(1+wT).
    """
    order = min(m1.order, m2.order)
    if order == 0:
        return TruncatedSeries.one(0, m1.mode)
    m1, m2 = m1.truncate(order), m2.truncate(order)
    zero = (as_scalar(0, m1.mode),)
    n1 = reciprocal(m1)
    n2 = reciprocal(m2)
    s1 = TruncatedSeries(n1.coeffs[1:] + zero, m1.mode)
    t2 = TruncatedSeries(n2.coeffs[1:] + zero, m2.mode)
    total = t2 + compose(s1, shift(m2))
    den = TruncatedSeries.one(order, m1.mode) + shift(total)
    return reciprocal(den)


def binary_fixed_point_rhs(m: TruncatedSeries, law1: NamedLaw,
                           law2: NamedLaw, kind: str, order: int,
                           mode: str = RATIONAL) -> TruncatedSeries:
    """Right-hand side 1 / (1 - w [R_1(G_1) + R_2(G_2)]) of the closed-form
    fixed-point equation of a binary convolution kind, at the candidate
    moment series m; m solves the equation iff it equals the result.

    free: G_1 = G_2 = G_m.  monotone: G_1 = G_m, G_2 = G_law2.  boolean:
    G_1 = G_law1, G_2 = G_law2.  s_free and orthogonal drop the second
    summand and take G_1 from the free and monotone convolutions.  Law
    moments come from the free moment-cumulant formula and the monotone
    convolution from composition of reciprocal transforms, so no term
    goes through the subordination engine.
    """
    r1 = TruncatedSeries(law1.cumulants(order + 1, mode), mode)
    r2 = TruncatedSeries(law2.cumulants(order + 1, mode), mode)
    g1 = moments_from_cumulants(r1.coeffs, order, mode)
    g2 = moments_from_cumulants(r2.coeffs, order, mode)
    if kind == "free":
        terms = (compose(r1, shift(m)), compose(r2, shift(m)))
    elif kind == "monotone":
        terms = (compose(r1, shift(m)), compose(r2, shift(g2)))
    elif kind == "boolean":
        terms = (compose(r1, shift(g1)), compose(r2, shift(g2)))
    elif kind == "s_free":
        free = moments_from_cumulants(
            [a + b for a, b in zip(r1.coeffs, r2.coeffs)], order, mode)
        terms = (compose(r1, shift(free)),)
    elif kind == "orthogonal":
        terms = (compose(r1, shift(f_compose_moments(g1, g2))),)
    else:
        raise ValueError("unknown convolution kind %r" % (kind,))
    den = TruncatedSeries.one(order, mode) - shift(sum(terms[1:], terms[0]))
    return reciprocal(den)


# -- the pole product and the scalar lift ------------------------------------


def pole_product_is_one(reg: TruncatedSeries, tail: TruncatedSeries) -> bool:
    """Check (1/z + reg(z)) * (z + z^2 tail(z)) == 1 up to the common order."""
    reg._check(tail)
    n = min(reg.order, tail.order)
    b = (as_scalar(1, reg.mode),) + tail.coeffs     # b_0..b_{n+1}
    c = (as_scalar(1, reg.mode),) + reg.coeffs      # c_0..c_{n+1}
    for m in range(n + 2):
        s = sum((c[i] * b[m - i] for i in range(m + 1)),
                as_scalar(0, reg.mode))
        want = as_scalar(1 if m == 0 else 0, reg.mode)
        if not scalars_close(s, want):
            return False
    return True


def q_projection(qcell) -> UnitElement:
    """The q-basis projection of one q cell."""
    return UnitElement(tuple(1 if qc == tuple(qcell) else 0
                             for qc in QCELLS))


def is_projection(u: UnitElement) -> bool:
    """Every q component is 0 or 1."""
    return all(b in (0, 1) for b in u.beta)


def scalar_r_as_unit_series(r: TruncatedSeries) -> UnitSeries:
    """A scalar series as a multiple of the identity element."""
    return UnitSeries.from_map({qc: r for qc in QCELLS})


# -- Fock-model cell polynomials and alternating sums ------------------------


def to_vector(scalars: Dict) -> FockVector:
    """A {word: scalar} dict as a Fock vector: numerators over the lcm of
    the denominators."""
    values = {w: Fraction(v) for w, v in scalars.items()}
    den = math.lcm(*(v.denominator for v in values.values()))
    return FockVector({w: v.numerator * (den // v.denominator)
                       for w, v in values.items()}, den)


def to_scalars(vec: FockVector) -> Dict:
    """{word: coefficient} of a Fock vector, as Fractions."""
    return {w: Fraction(c, vec.den) for w, c in vec.entries.items()}


def apply_scalars(op, scalars: Dict) -> Dict:
    """A library operator applied to a {word: scalar} dict."""
    return to_scalars(op.apply(to_vector(scalars)))


def column_scalars(op, w) -> tuple:
    """Column w of a library LinearOp, its entries over its denominator."""
    return tuple((w2, Fraction(a, op.den)) for w2, a in op.column(w))


# The Fock operators as they acted on {word: scalar} dicts with Fraction
# coefficients before vectors carried one denominator.


class DictOp:
    """Operator given by a column table {word: ((word, coeff), ...)}."""

    def __init__(self, columns: Dict):
        self.columns = columns

    def apply(self, vec: Dict) -> Dict:
        out: Dict = {}
        for w, c in vec.items():
            for w2, a in self.columns.get(w, ()):
                out[w2] = out.get(w2, 0) + a * c
        return {w: c for w, c in out.items() if c != 0}


class DictUnit:
    """A unit element scaling each word by its q-class component."""

    def __init__(self, unit: UnitElement):
        self.unit = unit

    def apply(self, vec: Dict) -> Dict:
        out = {}
        for w, c in vec.items():
            f = self.unit.component(q_class(w))
            if f != 0:
                out[w] = f * c
        return out


class DictPoly:
    """c0 1_cell + c1 a + c2 a^2 + ..., one power of a at a time."""

    def __init__(self, unit: DictUnit, a_op: DictOp, coeffs: Sequence):
        self.unit, self.a_op, self.coeffs = unit, a_op, tuple(coeffs)

    def apply(self, vec: Dict) -> Dict:
        out = {w: self.coeffs[0] * v for w, v in self.unit.apply(vec).items()}
        for c in self.coeffs[1:]:
            vec = self.a_op.apply(vec)
            if c != 0:
                for w, v in vec.items():
                    out[w] = out.get(w, 0) + c * v
        return {w: v for w, v in out.items() if v != 0}


STATE_WORDS = {"phi": (), "phi1": ((1, 1),), "phi2": ((2, 2),)}


def dict_state_moment(state: str, factors: Sequence):
    """<(f_1 ... f_n) v, v> on dicts, factors listed left to right."""
    ref = STATE_WORDS[state]
    vec = {ref: Fraction(1)}
    for f in reversed(factors):
        vec = f.apply(vec)
    return vec.get(ref, Fraction(0))


def dict_power_moments(op, state: str, order: int) -> list:
    """<op^m v, v> for m = 0..order, with no pruning."""
    ref = STATE_WORDS[state]
    vec = {ref: Fraction(1)}
    out = [Fraction(1)]
    for _ in range(order):
        vec = op.apply(vec)
        out.append(vec.get(ref, Fraction(0)))
    return out


def dict_alternating_sums(b_ops: Sequence, mid, state: str,
                          top: int) -> list:
    """S_1..S_top of the alternating products b_{n1} M b_{n2} .. M b_{nk}
    by the recursion Y_d = b_{d-1} v + X_d, X_d = sum_n b_n M Y_{d-1-n},
    S_d = <Y_d, v>, with no pruning; b_ops are DictUnits."""
    zero = Fraction(0)
    ref = STATE_WORDS[state]
    base = {ref: Fraction(1)}
    X, MY, sums = [None], [None], []
    for level in range(1, top + 1):
        if level > 1:
            y = b_ops[level - 2].apply(base)
            for w, c in X[level - 1].items():
                y[w] = y.get(w, zero) + c
            MY.append(mid.apply({w: c for w, c in y.items() if c != 0}))
        acc: Dict = {}
        for n in range(level - 1):
            for w, c in b_ops[n].apply(MY[level - 1 - n]).items():
                acc[w] = acc.get(w, zero) + c
        X.append({w: c for w, c in acc.items() if c != 0})
        total = (b_ops[level - 1].apply(base).get(ref, zero)
                 if level - 1 < len(b_ops) else zero)
        sums.append(total + X[level].get(ref, zero))
    return sums


def poly_columns(model: FockModel, cell, coeffs: Sequence) -> DictOp:
    """coeffs[0]*1_cell + coeffs[1]*a_cell + coeffs[2]*a_cell^2 + ... as a
    column table: one column per basis word, each built by applying the
    powers of the cell operator to that word alone."""
    unit = UnitElement.internal_unit(*cell)
    a_op = model.toeplitz(cell)
    cols = {}
    for w in model.words:
        vec = {w: Fraction(1)}
        acc: Dict = {}
        f = unit.component(q_class(w))
        if coeffs[0] != 0 and f != 0:
            acc[w] = coeffs[0] * f
        for c in coeffs[1:]:
            vec = apply_scalars(a_op, vec)
            if c != 0:
                for w2, v in vec.items():
                    acc[w2] = acc.get(w2, 0) + c * v
        entries = tuple((w2, v) for w2, v in acc.items() if v != 0)
        if entries:
            cols[w] = entries
    return DictOp(cols)


def eager_tables(model: FockModel) -> Dict:
    """Column tables of the cell operators, the total A and its
    compressions, built over the whole word basis: creation and
    annihilation tables first, each cell column from them, A by merging
    the cell tables in sorted cell order, and each compression by
    filtering A to the words in its range.  Keys are ("a", cell), "A"
    and ("PAP", cell); a word with no column has no key."""
    words = model.words
    tables = {}
    for cell in sorted(model.J):
        cre = {w: (cell,) + w for w in words
               if len(w) < model.depth and can_prepend(cell, w)}
        ann = {w: w[1:] for w in words if w and w[0] == cell}
        ws = model.weights[cell]
        unit = UnitElement.internal_unit(*cell)
        cols: Dict = {}

        def add(w, w2, coeff):
            if coeff != 0:
                cols.setdefault(w, []).append((w2, coeff))

        for w in words:
            if w in cre:
                add(w, cre[w], Fraction(1))
            if ws:
                add(w, w, ws[0] * unit.component(q_class(w)))
            tail = w
            for r in ws[1:]:
                tail = ann.get(tail)
                if tail is None:
                    break
                add(w, tail, r)
        tables["a", cell] = {w: tuple(v) for w, v in cols.items()}
    merged: Dict = {}
    for cell in sorted(model.J):
        for w, entries in tables["a", cell].items():
            tgt = merged.setdefault(w, {})
            for w2, a in entries:
                tgt[w2] = tgt.get(w2, 0) + a
    tables["A"] = {w: tuple((w2, a) for w2, a in tgt.items() if a != 0)
                   for w, tgt in merged.items()}
    for cell in sorted(model.J):
        p = compression(*cell)
        kept = {w for w in words if p.component(q_class(w)) != 0}
        tables["PAP", cell] = {
            w: tuple(e for e in entries if e[0] in kept)
            for w, entries in tables["A"].items() if w in kept}
    return tables


def composition_sum(model: FockModel, b_ops: Sequence, mid_op, state: str,
                    m: int):
    """S_m = sum over compositions p_1 + .. + p_k = m of
    <b_{p_1 - 1} M b_{p_2 - 1} .. M b_{p_k - 1} v, v>, one product at a
    time; a b index past the end of b_ops counts as a zero b."""
    base = model.state_vector(state)
    ref = STATE_WORDS[state]
    total = Fraction(0)
    for cuts in itertools.product((False, True), repeat=m - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        if max(parts) > len(b_ops):
            continue
        vec = base
        for i, p in enumerate(reversed(parts)):
            if i:
                vec = mid_op.apply(vec)
            vec = b_ops[p - 1].apply(vec)
        total += vec.read(ref)
    return total


def reconstruct_from_scratch(model: FockModel, order: int) -> UnitSeries:
    """The matricial R-transform from moment data, each b_m solved from a
    fresh composition sum: S_{m+1} = 0, where b_m enters only as
    <b_m v, v>, so b_m's state component is minus S_{m+1} taken with b_m
    left out.  q22 follows from C22 = C21 + C12 - C11."""
    row = {i: next(c for c in ((i, i), (i, 3 - i)) if c in model.J)
           for i in (1, 2)}
    mids = {(1, 1): ("phi", model.total()),
            (2, 1): ("phi1", model.compressed_total(row[1])),
            (1, 2): ("phi2", model.compressed_total(row[2]))}
    b_ops = [UnitElement.identity()]
    tails = {qc: [] for qc in QCELLS}
    for m in range(1, order + 2):
        for qc, (state, mid) in mids.items():
            tails[qc].append(-composition_sum(model, b_ops, mid, state,
                                              m + 1))
        c = {qc: invert_pole_series(TruncatedSeries(tails[qc]))
             for qc in mids}
        c[(2, 2)] = c[(2, 1)] + c[(1, 2)] - c[(1, 1)]
        tails[(2, 2)].append(invert_pole_series(c[(2, 2)]).coeffs[-1])
        b_ops.append(UnitElement(tuple(tails[qc][-1] for qc in QCELLS)))
    return UnitSeries.from_map(c)


# -- alternating sums on the B side, as the library summed them before -------


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

    The tables prune by run count, as ``smfconv.fock.ResolventTable`` does.
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


def reinverting_reconstruct(model: FockModel, order: int) -> UnitSeries:
    """``reconstruct_unique`` solved on the B side, over the alternating
    tables: b_m is minus S_{m+1} read without it, at each step m every
    component's whole tail b_1..b_m is inverted anew with
    ``invert_pole_series``, and the q22 tail inverted back from
    C22 = C21 + C12 - C11 as a series.  The library must match it
    exactly."""
    row = {i: next(c for c in ((i, i), (i, 3 - i)) if c in model.J)
           for i in (1, 2)}
    b_ops = [UnitElement.identity()]
    top = order + 2
    tables = {
        (1, 1): _AlternatingTable(model, b_ops, model.total(), "phi", top),
        (2, 1): _AlternatingTable(
            model, b_ops, model.compressed_total(row[1]), "phi1", top),
        (1, 2): _AlternatingTable(
            model, b_ops, model.compressed_total(row[2]), "phi2", top),
    }
    b_tails = {qc: [] for qc in QCELLS}
    for m in range(1, order + 2):
        for qc, table in tables.items():
            b_tails[qc].append(-table.sum(m + 1))
        c = {qc: invert_pole_series(TruncatedSeries(b_tails[qc]))
             for qc in tables}
        c[(2, 2)] = c[(2, 1)] + c[(1, 2)] - c[(1, 1)]
        b_tails[(2, 2)].append(invert_pole_series(c[(2, 2)]).coeffs[-1])
        b_ops.append(UnitElement(tuple(b_tails[qc][-1] for qc in QCELLS)))
    return UnitSeries.from_map(c)


# -- the creation relation on the whole word basis ---------------------------


def full_relation_violations(model: FockModel, create=None) -> list:
    """l*_c l_c = 1_c checked on every basis word shorter than the depth,
    for every cell of J, in basis order, with an annihilation table built
    here and the creation rule *create* (cell, word, depth) -> word or
    None, by default one written here: prepend under ``can_prepend``
    below the depth.  The violation messages are those of
    ``FockModel.creation_relation_violations``."""
    if create is None:
        def create(cell, w, depth):
            ok = len(w) < depth and can_prepend(cell, w)
            return (cell,) + w if ok else None
    bad = []
    for cell in sorted(model.J):
        unit = UnitElement.internal_unit(*cell)
        for w in model.words:
            if len(w) >= model.depth:
                continue
            up = create(cell, w, model.depth)
            back = up[1:] if up and up[0] == cell else None
            if back != (w if unit.component(q_class(w)) == 1 else None):
                bad.append("relation fails on cell %r word %r" % (cell, w))
    return bad


class CountingOp:
    """Forwards ``apply`` to an operator and records, per call, the run
    count of each input word."""

    def __init__(self, op):
        self.op, self.inputs = op, []

    @property
    def calls(self):
        return len(self.inputs)

    def apply(self, vec):
        self.inputs.append([runs(w) for w in vec.entries])
        return self.op.apply(vec)

    def within_run_bound(self, top, ref_runs):
        # call L applies M to Y_L, which meets top - L more applications
        return all(max(r, default=0) <= top - level + ref_runs
                   for level, r in enumerate(self.inputs, start=1))


# -- subordination fixed point, one truncated pass per order -----------------


def cut_pass_fixed_point(array: DistributionArray, order: int):
    """Subordinate family and master series by order + 1 passes: pass t
    recomposes every K = R(w M*(w)) from scratch at order t, with
    ``compose``, the library's series products and ``reciprocal``, and pairs
    the K series as written out in the paper's master formula.
    O(order^4) products; the one-pass engine must match it exactly."""
    mode = array.mode
    zero = as_scalar(0, mode)
    long = padded(array, order + 1)
    r = {cell: long.r_series(cell).truncate(order) for cell in ALL_CELLS}

    def resolvent(a, b):
        s = a + b
        return reciprocal(TruncatedSeries.one(s.order, mode) - shift(s))

    m_star = {cell: TruncatedSeries.one(0, mode) for cell in r}
    for t in range(order + 1):
        k = {cell: compose(r[cell], TruncatedSeries(
            (zero,) + m_star[cell].coeffs[:t], mode)) for cell in r}
        m_star = {}
        for j, o in ((1, 2), (2, 1)):
            m_star[(j, j)] = resolvent(k[(j, j)], k[(o, j)])
            m_star[(j, o)] = resolvent(k[(j, o)], k[(o, j)])
        master = resolvent(k[(1, 1)], k[(2, 2)])
    return m_star, master


# -- subordination-engine wrappers -------------------------------------------


def law_moments(law: NamedLaw, order: int,
                mode: str = RATIONAL) -> TruncatedSeries:
    """Moment series of a single law, via the one-cell master formula."""
    array = DistributionArray.from_laws({(1, 1): law}, max(order, 1), mode)
    return master_cauchy(array, order)


def binary_convolutions(law1: NamedLaw, law2: NamedLaw, kind: str,
                        order: int, mode: str = RATIONAL) -> TruncatedSeries:
    """Moment series of a binary convolution realized as an array shape.

    kind is one of free, monotone, boolean, s_free, orthogonal; the result
    is master_cauchy on the row-identical array of that shape.
    """
    array = row_identical_array(kind, law1, law2, max(order, 2), mode)
    return master_cauchy(array, order)


def split_semicircle_cauchy(a11: float, a22: float, b12: float, b21: float,
                            z: complex) -> complex:
    """Closed-form G(z) of the square array with semicircle(a11) and
    semicircle(a22) diagonals and point-mass(b12), point-mass(b21)
    off-diagonals.  K is a g on a semicircle cell and b on a point-mass
    cell, so the off-diagonal members are both 1/(z - b12 - b21) and drop
    out; g11 = 1/(z - a11 g11 - b21) and g22 = 1/(z - a22 g22 - b12) are
    roots of quadratics, taken with Im g < 0 (the roots' product is real
    and positive, so exactly one lies in the lower half-plane), and
    G = 1/(z - a11 g11 - a22 g22)."""
    def member(a, b):
        s = cmath.sqrt((z - b) ** 2 - 4 * a)
        g = ((z - b) - s) / (2 * a)
        return g if g.imag < 0 else ((z - b) + s) / (2 * a)

    return 1 / (z - a11 * member(a11, b21) - a22 * member(a22, b12))


# -- numeric subordination, one unknown per cell ------------------------------

# member <- the two K values its resolvent pairs: member (j,j) pairs
# K_{j,j} with K_{j',j}, member (j,j') pairs K_{j,j'} with K_{j',j}, and
# the convolution itself (None) pairs K_{1,1} with K_{2,2}
CELL_PAIRING = (((1, 1), ((1, 1), (2, 1))), ((1, 2), ((1, 2), (2, 1))),
                ((2, 2), ((2, 2), (1, 2))), ((2, 1), ((2, 1), (1, 2))),
                (None, ((1, 1), (2, 2))))


def _four_unknown_map(array: DistributionArray, z: complex):
    """(family, damp): the damped fixed-point iteration with one unknown
    per cell on the array's full-length float tails.  family(g) maps the
    cell-keyed unknowns to every member of ``CELL_PAIRING``; damp(g, steps)
    runs at most *steps* steps from *g* and returns (g, settled, steps
    taken), settled when every unknown's step is below CAUCHY_TOL."""
    r = {cell: [float(v) for v in reversed(array.r_series(cell).coeffs)]
         for cell in ALL_CELLS}

    def family(g):
        k = {}
        for cell, u in g.items():
            total = 0.0
            for c in r[cell]:
                total = total * u + c
            k[cell] = total
        return {member: 1.0 / (z - k[a] - k[b])
                for member, (a, b) in CELL_PAIRING}

    def damp(g, steps):
        for step in range(1, steps + 1):
            new = family(g)
            stop = all(abs(new[c] - g[c]) < CAUCHY_TOL for c in ALL_CELLS)
            g = {c: 0.5 * g[c] + 0.5 * new[c] for c in ALL_CELLS}
            if stop:
                return g, True, step
        return g, False, steps

    return family, damp


def four_unknown_damped(array: DistributionArray, z: complex, max_iter: int):
    """(G(z), converged, steps): the damped fixed-point iteration with one
    unknown per cell, so the off-diagonal resolvent 1/(z - K12 - K21) is
    iterated twice, once per off-diagonal cell.  Same damping and
    tolerance as the damped map of ``cauchy_value``, which has one unknown
    per q-class that a cell reads, run to at most *max_iter* steps with no
    Newton polish; *steps* counts the steps taken."""
    family, damp = _four_unknown_map(array, z)
    g, converged, steps = damp({cell: 1.0 / z for cell in ALL_CELLS},
                               max_iter)
    return family(g)[None], converged, steps


def four_unknown_cauchy(array: DistributionArray, z: complex):
    """(G(z), converged, steps): ``cauchy_value`` in its three phases over
    ``four_unknown_damped``'s map.  It damps for CAUCHY_DAMPED_ITER steps,
    then polishes by ``full_tail_newton``, starting each class from the
    unknown of the cell that reads it (class (2,2) from cell (1,2), whose
    member pairs K12 with K21 in the order of ``Q_RESOLVENTS``).  A point
    Newton refuses keeps its damped value when it settled, and is damped
    on to CAUCHY_MAX_ITER steps when it did not.  *steps* counts the
    damped steps taken."""
    family, damp = _four_unknown_map(array, z)
    g, converged, steps = damp({cell: 1.0 / z for cell in ALL_CELLS},
                               CAUCHY_DAMPED_ITER)
    try:
        roots = full_tail_newton(array, z, {
            CELL_CLASS[cell]: g[cell] for cell in ((1, 1), (2, 2), (1, 2))})
    except (ZeroDivisionError, OverflowError):
        roots = None
    if roots is not None:
        g, converged = {c: roots[CELL_CLASS[c]] for c in ALL_CELLS}, True
    elif not converged:
        g, converged, more = damp(g, CAUCHY_MAX_ITER - CAUCHY_DAMPED_ITER)
        steps += more
    return family(g)[None], converged, steps


def full_tail_newton(array: DistributionArray, z: complex, g):
    """The Newton finish of ``cauchy_value`` on full-length tails: each
    cell's float tail keeps every coefficient, so the tails of a class's
    own cells have equal length and are summed column by column.  Same
    steps, tolerance and root test as the library's ``_newton``, which
    reads tails cut at their highest nonzero cumulant."""
    r = {cell: [float(v) for v in reversed(array.r_series(cell).coeffs)]
         for cell in ALL_CELLS}

    def horner(coeffs, u):
        k = dk = 0.0
        for c in coeffs:
            dk = dk * u + k
            k = k * u + c
        return k, dk

    roots = {}
    for q in NEWTON_ORDER:
        coeffs = [sum(col) for col in zip(*(
            r[cell] for cell in Q_RESOLVENTS[q] if CELL_CLASS[cell] == q))]
        c = sum(horner(r[cell], roots[CELL_CLASS[cell]])[0]
                for cell in Q_RESOLVENTS[q] if CELL_CLASS[cell] != q)
        u = g[q]
        for _ in range(NEWTON_MAX_ITER):
            k, dk = horner(coeffs, u)
            step = (u * (z - k - c) - 1) / (z - k - c - u * dk)
            u -= step
            if abs(step) < CAUCHY_TOL:
                break
        else:
            return None
        if not (u.imag <= 0 and abs(1 + horner(coeffs, u)[1] * u * u) < 2):
            return None
        roots[q] = u
    return roots


def dict_keyed_cauchy(array: DistributionArray, z: complex):
    """(G(z), converged) of ``_cauchy`` as the library computed it before
    its damped map moved to class slots: each step builds a dict of the
    four cell transforms and a dict of all four class resolvents, G_(1,1)
    included, keyed by cell and class.  Same float operations in the same
    order on the library's ``_tails``, the same three phases and the same
    polish, through ``full_tail_newton``; the damped map stops when every
    class's step is below CAUCHY_TOL."""
    if z.imag <= 0:
        raise ValueError("evaluation point must be in the upper half plane")
    tails = _tails(array)

    def resolvents(g):
        k = {}
        for cell, q in CELL_CLASS.items():
            total, u = 0.0, g[q]
            for c in tails[cell]:
                total = total * u + c
            k[cell] = total
        return {q: 1.0 / (z - k[a] - k[b])
                for q, (a, b) in Q_RESOLVENTS.items()}

    def damp(g, steps):
        for _ in range(steps):
            new = resolvents(g)
            stop = all(abs(new[q] - g[q]) < CAUCHY_TOL for q in g)
            g = {q: 0.5 * g[q] + 0.5 * new[q] for q in g}
            if stop:
                return g, True
        return g, False

    g, converged = damp({q: 1.0 / z for q in CELL_CLASS.values()},
                        CAUCHY_DAMPED_ITER)
    try:
        roots = full_tail_newton(array, z, g)
    except (ZeroDivisionError, OverflowError):
        roots = None
    if roots is not None:
        return resolvents(roots)[(1, 1)], True
    if not converged:
        g, converged = damp(g, CAUCHY_MAX_ITER - CAUCHY_DAMPED_ITER)
    return resolvents(g)[(1, 1)], converged


# -- the benchmark's job configs ---------------------------------------------


def perfbench_workloads():
    """perfbench/workloads.py, loaded from its path: the seeded job configs
    and the density arrays of the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- engine independence -----------------------------------------------------


def module_imports(module) -> set:
    """Every module and name a module's source imports, last dotted part
    only, read from its syntax tree."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1]
                            for alias in node.names)
    return imported
