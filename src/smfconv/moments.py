"""Moments of the strongly matricially free convolution via labelled
colored non-crossing partitions."""

from __future__ import annotations

from fractions import Fraction

from .arrays import DistributionArray
from .partitions import enumerate_nc, forest
from .series import TruncatedSeries


def smf_moments(array: DistributionArray, order: int) -> TruncatedSeries:
    """Moments m_0..m_order of the convolution of the array: the sum, over
    all J-admissible colored non-crossing partitions, of the product of
    r_label(|block|) over the blocks.

    The coloring sum factorizes along the nesting forest, so it is
    evaluated blockwise with three accumulators per block (chain still
    monochromatic in color 1, in color 2, or already mixed):

        T_j(b) = r_{j,j}(|b|) prod T_j(ch) + r_{j',j}(|b|) prod X(ch)
        X(b)   = (r_{1,2} + r_{2,1})(|b|) prod X(ch)

    and each covering block contributes its diagonal branches,
    r_{1,1} prod T_1 + r_{2,2} prod T_2.  Cells outside J are zero
    cumulants.  The equivalence with the literal coloring sum is pinned
    by tests against the enumeration oracle in tests/oracles.py.
    """
    if array.order < order:
        raise ValueError("cumulant order %d < requested moment order %d"
                         % (array.order, order))
    cmap = array.cumulant_map()

    def rvals(cell):
        seq = cmap.get(cell, (0,) * array.order)
        # integral rationals run exactly in machine ints
        return tuple(int(v) if isinstance(v, Fraction)
                     and v.denominator == 1 else v for v in seq)

    r11, r12 = rvals((1, 1)), rvals((1, 2))
    r21, r22 = rvals((2, 1)), rvals((2, 2))
    rmix = tuple(a + b for a, b in zip(r12, r21))
    out = [1]
    for n in range(1, order + 1):
        total = 0
        for partition in enumerate_nc(n):
            _, children, roots, forder = forest(partition)
            blocks = partition.blocks
            t1 = [0] * len(blocks)
            t2 = [0] * len(blocks)
            mix = [0] * len(blocks)
            diag = [0] * len(blocks)
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
