"""Reference oracles that only the tests call.

Each oracle computes a quantity the library also computes, by a route
that shares no code with the engine under test: literal enumeration of
colored non-crossing partitions, the blockwise nesting-forest sum over
each non-crossing partition, the classical free moment-cumulant
formula, composition of reciprocal Cauchy transforms, the pole product
C(z) B(z) = 1 written out coefficientwise, the closed-form fixed-point
equations of the five binary convolution kinds, cell polynomials of the
Fock model as full column tables, and alternating sums written out one
product per composition.  Two thin wrappers at the end drive the
subordination engine on single laws and on the binary convolution
kinds.

Matricial labels: a block's label is (c, c) when every enclosing block
carries its own color c (or nothing encloses it), and (c, c') otherwise,
where c' is the color of the nearest differently-colored enclosing block.
With two colors c' is simply the opposite color.  A colored partition is
admitted for a shape set J iff every label lies in J; covering blocks
always get diagonal labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from smfconv import (QCELLS, RATIONAL, DistributionArray, FockModel,
                     NamedLaw, NCPartition, TruncatedSeries, UnitElement,
                     UnitSeries, as_scalar, compose, enumerate_nc,
                     invert_pole_series, master_cauchy, q_class,
                     row_identical_array)
from smfconv.fock import LinearOp
from smfconv.series import scalars_close

Label = Tuple[int, int]


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
    n1 = m1.reciprocal()
    n2 = m2.reciprocal()
    s1 = TruncatedSeries(n1.coeffs[1:] + zero, m1.mode)
    t2 = TruncatedSeries(n2.coeffs[1:] + zero, m2.mode)
    total = t2 + compose(s1, m2.shift())
    den = TruncatedSeries.one(order, m1.mode) + total.shift()
    return den.reciprocal()


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
        terms = (compose(r1, m.shift()), compose(r2, m.shift()))
    elif kind == "monotone":
        terms = (compose(r1, m.shift()), compose(r2, g2.shift()))
    elif kind == "boolean":
        terms = (compose(r1, g1.shift()), compose(r2, g2.shift()))
    elif kind == "s_free":
        free = moments_from_cumulants(
            [a + b for a, b in zip(r1.coeffs, r2.coeffs)], order, mode)
        terms = (compose(r1, free.shift()),)
    elif kind == "orthogonal":
        terms = (compose(r1, f_compose_moments(g1, g2).shift()),)
    else:
        raise ValueError("unknown convolution kind %r" % (kind,))
    den = TruncatedSeries.one(order, mode) - sum(terms[1:], terms[0]).shift()
    return den.reciprocal()


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


def scalar_r_as_unit_series(r: TruncatedSeries) -> UnitSeries:
    """A scalar series as a multiple of the identity element."""
    return UnitSeries.from_map({qc: r for qc in QCELLS})


# -- Fock-model cell polynomials and alternating sums ------------------------


def poly_columns(model: FockModel, cell, coeffs: Sequence) -> LinearOp:
    """coeffs[0]*1_cell + coeffs[1]*a_cell + coeffs[2]*a_cell^2 + ... as a
    column table: one column per basis word, each built by applying the
    powers of the cell operator to that word alone."""
    unit = UnitElement.internal_unit(*cell, model.mode)
    a_op = model.toeplitz(cell)
    cols = {}
    for w in model.words:
        vec = {w: as_scalar(1, model.mode)}
        acc: Dict = {}
        f = unit.component(q_class(w))
        if coeffs[0] != 0 and f != 0:
            acc[w] = coeffs[0] * f
        for c in coeffs[1:]:
            vec = a_op.apply(vec)
            if c != 0:
                for w2, v in vec.items():
                    acc[w2] = acc.get(w2, 0) + c * v
        entries = tuple((w2, v) for w2, v in acc.items() if v != 0)
        if entries:
            cols[w] = entries
    return LinearOp(cols)


def composition_sum(model: FockModel, b_ops: Sequence, mid_op, state: str,
                    m: int):
    """S_m = sum over compositions p_1 + .. + p_k = m of
    <b_{p_1 - 1} M b_{p_2 - 1} .. M b_{p_k - 1} v, v>, one product at a
    time; a b index past the end of b_ops counts as a zero b."""
    base = model.state_vector(state)
    ref = next(iter(base))
    total = as_scalar(0, model.mode)
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
        total += vec.get(ref, as_scalar(0, model.mode))
    return total


def reconstruct_from_scratch(model: FockModel, order: int) -> UnitSeries:
    """The matricial R-transform from moment data, each b_m solved from a
    fresh composition sum: S_{m+1} = 0, where b_m enters only as
    <b_m v, v>, so b_m's state component is minus S_{m+1} taken with b_m
    left out.  q22 follows from C22 = C21 + C12 - C11."""
    mode = model.mode
    row = {i: next(c for c in ((i, i), (i, 3 - i)) if c in model.J)
           for i in (1, 2)}
    mids = {(1, 1): ("phi", model.total()),
            (2, 1): ("phi1", model.compressed_total(row[1])),
            (1, 2): ("phi2", model.compressed_total(row[2]))}
    b_ops = [UnitElement.identity(mode)]
    tails = {qc: [] for qc in QCELLS}
    for m in range(1, order + 2):
        for qc, (state, mid) in mids.items():
            tails[qc].append(-composition_sum(model, b_ops, mid, state,
                                              m + 1))
        c = {qc: invert_pole_series(TruncatedSeries(tails[qc], mode))
             for qc in mids}
        c[(2, 2)] = c[(2, 1)] + c[(1, 2)] - c[(1, 1)]
        tails[(2, 2)].append(invert_pole_series(c[(2, 2)]).coeffs[-1])
        b_ops.append(UnitElement(
            tuple(tails[qc][-1] for qc in QCELLS), mode))
    return UnitSeries.from_map(c)


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
