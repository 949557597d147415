"""Moments of the strongly matricially free convolution via labelled
colored non-crossing partitions.

The moments are homogeneous in the cumulants: m_t is a sum of products
r(k_1)...r(k_j) with k_1 + ... + k_j = t.  So the sums run over the
graded integers r(k) lam^k of ``DistributionArray.graded``, lam the lcm
of the exact cumulants' denominators: there m_t comes out as the integer
c = lam^t m_t, which turns rational once, as Fraction(c, lam^t).  No
product of the O(order^3) loop pays a gcd."""

from __future__ import annotations

from fractions import Fraction

from .arrays import ALL_CELLS, DistributionArray
from .series import TruncatedSeries, reported


def smf_moments(array: DistributionArray, order: int) -> TruncatedSeries:
    """Moments m_0..m_order of the convolution of the array: the sum, over
    all J-admissible colored non-crossing partitions, of the product of
    r_label(|block|) over the blocks.

    The coloring sum factorizes along the nesting forest, with three
    values per block (chain still monochromatic in color 1, in color 2,
    or already mixed):

        T_j(b) = r_{j,j}(|b|) prod T_j(ch) + r_{j',j}(|b|) prod X(ch)
        X(b)   = (r_{1,2} + r_{2,1})(|b|) prod X(ch)

    and each covering block contributes D(b) = r_{1,1} prod T_1 +
    r_{2,2} prod T_2.  Let F_c(m) sum, over the non-crossing partitions of
    m points, the product of c over the roots (F_c(0) = 1).  Splitting off
    the block of point 1, of size s, its s - 1 inner gaps hold its
    children and the gap after it holds the later roots, so

        F_T1(m) = sum_s sum_j [r_{1,1}(s) P_T1^{s-1}(j)
                               + r_{2,1}(s) P_X^{s-1}(j)] F_T1(m - s - j)

    with P_c^k(j) = [x^j] F_c(x)^k, likewise for T2, X and D, and the
    moments are F_D(0..order): O(order^3) products, no partition is built
    (Speicher, Math. Ann. 298, 1994).  Cells outside J are zero
    cumulants.  A float job's moments are rounded once.  The equivalence
    with the literal coloring sum is pinned by tests against the oracles in
    tests/oracles.py.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if array.order < order:
        raise ValueError("cumulant order %d < requested moment order %d"
                         % (array.order, order))
    lam, r = array.graded()
    r11, r12, r21, r22 = (r[cell] for cell in ALL_CELLS)
    rmix = [a + b for a, b in zip(r12, r21)]
    # context -> the (cumulants, child context) branches of a block in it
    branches = {"T1": ((r11, "T1"), (r21, "X")),
                "T2": ((r22, "T2"), (r12, "X")),
                "X": ((rmix, "X"),),
                "D": ((r11, "T1"), (r22, "T2"))}
    f = {c: [1] for c in branches}
    # powers[c][k][j] = [x^j] F_c(x)^k, grown one coefficient per order
    powers = {c: [[1] + [0] * order] for c in ("T1", "T2", "X")}
    for m in range(1, order + 1):
        for c, pw in powers.items():
            fc = f[c]
            pw.append([])
            for k in range(1, m):
                j, prev = m - 1 - k, pw[k - 1]
                pw[k].append(sum(fc[i] * prev[j - i] for i in range(j + 1)))
        for c, block_branches in branches.items():
            fc, total = f[c], 0
            for s in range(1, m + 1):
                for rc, child in block_branches:
                    if rc[s - 1]:
                        pw = powers[child][s - 1]
                        total += rc[s - 1] * sum(pw[j] * fc[m - s - j]
                                                 for j in range(m - s + 1))
            fc.append(total)
    moments = [Fraction(c, lam ** t) for t, c in enumerate(f["D"])]
    return TruncatedSeries(reported(moments, array.mode), array.mode)
