"""Cauchy-transform layer: the subordination recursion, the master formula
for the convolution moments, and density extraction.

Cauchy transforms are carried as moment generating functions: with
w = 1/z, G(z) = w M(w), so G-composition arguments like R(G(z)) become
ordinary compositions R(w M(w)) with zero inner constant term.  Give
r(k) degree k and w degree -1: then w M has degree -1, each K_c = R_c(g_c)
degree 1 and every series below degree 0, so its coefficient t is
homogeneous of degree t in the cumulants, like the moments of
:mod:`smfconv.moments`, and the series run exactly over the same graded
integers.  A float job's moments are rounded once.  The numeric
evaluation of G(z) and the closed form for density extraction run in
binary64.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .arrays import ALL_CELLS, DistributionArray
from .series import FLOAT, TruncatedSeries, as_scalar, \
    extend_pole_inverse, reported

# cauchy_value stops after CAUCHY_MAX_ITER steps or at a step below
# CAUCHY_TOL; meixner_atoms keeps the residues above ATOM_WEIGHT_FLOOR
CAUCHY_MAX_ITER = 500
CAUCHY_TOL = 1e-13
ATOM_WEIGHT_FLOOR = 1e-12

# member <- the two K values its resolvent pairs: member (j,j) pairs
# K_{j,j} with K_{j',j}, member (j,j') pairs K_{j,j'} with K_{j',j}, and
# the convolution itself (None) pairs K_{1,1} with K_{2,2}
PAIRING = (((1, 1), ((1, 1), (2, 1))), ((1, 2), ((1, 2), (2, 1))),
           ((2, 2), ((2, 2), (1, 2))), ((2, 1), ((2, 1), (1, 2))),
           (None, ((1, 1), (2, 2))))


def _product_coefficient(a, b, s):
    """[w^s] of a b, skipping the zero entries of *a*."""
    acc = 0
    for i in range(s + 1):
        if a[i] != 0:
            acc += a[i] * b[s - i]
    return acc


def _series_fixed_point(array: DistributionArray, order: int):
    """Subordinate family and master moment series, as truncated series.

    Transforms are moment generating functions in w = 1/z, so the
    resolvent is (1 - (a + b) w)^-1 and K_c = R_c(g_c), g_c = w M*_c(w).
    Coefficient t of each series depends only on lower coefficients of
    the family, so one pass fixes coefficient t at step t and keeps the
    earlier ones: g_c[t] = M*_c[t-1]; column t of the power table
    [w^s] g_c^k and its new row k = t; K_c[t]; then, for each member of
    ``PAIRING``, coefficient t of 1 - w (K_a + K_b) and of its
    reciprocal.  That is O(order^3) integer products per cell.  The
    series are exact and equal the oracle recomposition at full order,
    ``cut_pass_fixed_point`` in tests/oracles.py.
    """
    if array.order < order:
        raise ValueError("cumulant order %d < requested order %d"
                         % (array.order, order))
    lam, f = array.graded()
    g = {cell: [] for cell in ALL_CELLS}
    powers = {cell: [] for cell in ALL_CELLS}    # [k][s] = [w^s] g_c^k
    k = {cell: [] for cell in ALL_CELLS}
    den = {member: [1] for member, _ in PAIRING}   # 1 - w (K_a + K_b)
    out = {member: [1] for member, _ in PAIRING}   # its reciprocal
    for t in range(order + 1):
        for cell in ALL_CELLS:
            gc, p = g[cell], powers[cell]
            gc.append(out[cell][t - 1] if t else 0)
            if t == 0:
                p.append([1])
            else:
                p[0].append(0)
                for row in range(1, t):
                    p[row].append(_product_coefficient(p[row - 1], gc, t))
                p.append([_product_coefficient(p[t - 1], gc, s)
                          for s in range(t + 1)])
            acc = 0
            for power, fk in zip(p, f[cell]):
                if fk != 0:
                    acc += fk * power[t]
            k[cell].append(acc)
        if t:                   # both series start at 1
            for member, (a, b) in PAIRING:
                den[member].append(-(k[a][t - 1] + k[b][t - 1]))
                extend_pole_inverse(den[member], out[member])
    family = {member: TruncatedSeries([Fraction(c, lam ** t)
                                       for t, c in enumerate(coeffs)])
              for member, coeffs in out.items()}
    master = family.pop(None)
    return family, master


def master_cauchy(array: DistributionArray, order: int) -> TruncatedSeries:
    """Moment series of the convolution via the subordination family:
    M = 1 / (1 - w [K_{1,1} + K_{2,2}]) with K_{j,j} = R_{j,j}(w M*_{j,j}),
    in the array's precision."""
    exact = _series_fixed_point(array, order)[1]
    return TruncatedSeries(reported(exact.coeffs, array.mode), array.mode)


# -- density extraction ------------------------------------------------------


def meixner_parameters(array: DistributionArray):
    """(a, b) when the array is square with semicircle(a) diagonal cells and
    equal point-mass(b) off-diagonal cells (a shared rate, b = c); else None.
    """
    if array.J != frozenset(ALL_CELLS):
        return None
    p = array.order
    zero = as_scalar(0, array.mode)

    def matches(cell, pattern):
        return all(array.r(cell, k) == pattern.get(k, zero)
                   for k in range(1, p + 1))

    a = array.r((1, 1), 2) if p >= 2 else zero
    b = array.r((1, 2), 1)
    if a == 0:
        return None
    if not (matches((1, 1), {2: a}) and matches((2, 2), {2: a})
            and matches((1, 2), {1: b}) and matches((2, 1), {1: b})):
        return None
    return float(a), float(b)


def meixner_cauchy(a: float, b: float, z: complex) -> complex:
    """Closed-form transform G(z) = (b - s(z)) / (4a + 2bz - z^2) with the
    branch of s(z) = sqrt((z-b)^2 - 4a) asymptotic to z - b: the one with
    Im s > 0 in the upper half plane.  Only where Im s underflows to 0
    is the root nearest to z - b taken."""
    s = cmath.sqrt((z - b) ** 2 - 4 * a)
    if s.imag < 0 or (s.imag == 0
                      and abs(s - (z - b)) > abs(-s - (z - b))):
        s = -s
    den = 4 * a + 2 * b * z - z * z
    return (b - s) / den


def meixner_atoms(a: float, b: float) -> List[Tuple[float, float]]:
    """Atoms as residues of the closed form at the real zeros of the
    denominator z = b +- sqrt(b^2 + 4a); only one carries positive weight
    (none for b = 0)."""
    s = math.sqrt(b * b + 4 * a)
    out = []
    for z0, w in ((b + s, (b - abs(b)) / (-2 * s)),
                  (b - s, (b + abs(b)) / (2 * s))):
        if w > ATOM_WEIGHT_FLOOR:
            out.append((z0, w))
    return out


def cauchy_value(array: DistributionArray, z: complex) -> complex:
    """Numeric G(z) by damped iteration of the subordination fixed point.

    Works for any array with finitely many cumulants; Im z > 0 required.
    """
    if z.imag <= 0:
        raise ValueError("evaluation point must be in the upper half plane")
    # cumulant tails highest order first, for Horner evaluation
    r = {cell: [float(v) for v in reversed(array.r_series(cell).coeffs)]
         for cell in ALL_CELLS}

    def k_values(g):
        k = {}
        for cell, u in g.items():
            total = 0.0
            for c in r[cell]:
                total = total * u + c
            k[cell] = total
        return k

    def family(g):
        """One step of the fixed point: 1/(z - K_a - K_b) for each member
        of ``PAIRING``; member None is the master transform."""
        k = k_values(g)
        return {member: 1.0 / (z - k[a] - k[b]) for member, (a, b) in PAIRING}

    g = {cell: 1.0 / z for cell in ALL_CELLS}
    for _ in range(CAUCHY_MAX_ITER):
        new = family(g)
        delta = max(abs(new[c] - g[c]) for c in ALL_CELLS)
        g = {c: 0.5 * g[c] + 0.5 * new[c] for c in ALL_CELLS}
        if delta < CAUCHY_TOL:
            break
    return family(g)[None]


def stieltjes_density(array: DistributionArray, grid: Sequence[float],
                      eps: float):
    """Sampled density -Im G(x + i eps)/pi on the grid, plus the atom list.

    Uses the closed form when the array matches the semicircle/point-mass
    pattern (then atoms come from residues); otherwise evaluates the
    subordination fixed point numerically and reports no atoms.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if array.mode != FLOAT:
        raise ValueError("density extraction requires float mode")
    params = meixner_parameters(array)
    rows = []
    for x in grid:
        z = complex(x, eps)
        g = (meixner_cauchy(params[0], params[1], z) if params
             else cauchy_value(array, z))
        rows.append((float(x), -g.imag / math.pi))
    atoms = meixner_atoms(*params) if params else []
    return rows, atoms
