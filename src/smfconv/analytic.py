"""Cauchy-transform layer: the subordination recursion, the master formula
for the convolution moments, and density extraction.

The linearization formula writes the matricial R-transform as
R = sum_c R_c 1_c, so its q-component for class q is the sum of two cell
transforms, and the subordination system is those four components:
G_q = 1/(z - K_a - K_b), with K_c = R_c(g_c) and g_c the resolvent of the
class of the words that cell c starts.  Cell (1,1) reads class (2,1),
cell (2,2) reads (1,2), both off-diagonal cells read (2,2), and class
(1,1) is the transform of the convolution.

Cauchy transforms are carried as moment generating functions: with
w = 1/z, G(z) = w M(w), so G-composition arguments like R(G(z)) become
ordinary compositions R(w M(w)) with zero inner constant term.  Give
r(k) degree k and w degree -1: then w M has degree -1, each K_c = R_c(g_c)
degree 1 and every series below degree 0, so its coefficient t is
homogeneous of degree t in the cumulants, like the moments of
:mod:`smfconv.moments`, and the series run exactly over the same graded
integers, which this module computes for itself.  A float job's moments
are rounded once.  The numeric evaluation of G(z) and the closed form
for density extraction run in binary64.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import sub
from typing import List, Optional, Sequence, Tuple

from .arrays import ALL_CELLS, DistributionArray, NamedLaw
from .series import FLOAT, TruncatedSeries, extend_pole_inverse, reported

# cauchy_value damps the fixed point for at most CAUCHY_DAMPED_ITER steps,
# the halvings that take a unit step below CAUCHY_TOL: a point still moving
# then contracts by less than 1/2 per step, where a step below the
# tolerance no longer bounds the error.  Newton then polishes every point
# in at most NEWTON_MAX_ITER steps; a point it refuses that the damped map
# left moving is damped on to CAUCHY_MAX_ITER steps.  Each stops at a step
# below CAUCHY_TOL.  meixner_atoms keeps the residues above
# ATOM_WEIGHT_FLOOR
CAUCHY_TOL = 1e-13
CAUCHY_DAMPED_ITER = math.ceil(-math.log2(CAUCHY_TOL))
NEWTON_MAX_ITER = 50
CAUCHY_MAX_ITER = 500
ATOM_WEIGHT_FLOOR = 1e-12

# q-class <- the two cell transforms of its resolvent G_q = 1/(z - K_a - K_b),
# the q-components of the linearization formula R = sum_c R_c 1_c; class
# (1,1) is the convolution itself
Q_RESOLVENTS = {(1, 1): ((1, 1), (2, 2)), (2, 1): ((1, 1), (2, 1)),
                (1, 2): ((2, 2), (1, 2)), (2, 2): ((1, 2), (2, 1))}
# cell -> the class of the words it starts, whose resolvent g_c reads
CELL_CLASS = {(1, 1): (2, 1), (2, 2): (1, 2), (1, 2): (2, 2), (2, 1): (2, 2)}
# the classes that cells read, in an order where each reads only itself
# and the classes before it: class (2,2) resolves alone
NEWTON_ORDER = ((2, 2), (2, 1), (1, 2))
# the damped map's slots: slot i holds the resolvent of CLASSES[i], the
# classes that cells read in CELL_CLASS order; _CELL_PAIRS gives each
# class's two cells as indices into CELL_CLASS
CLASSES = tuple(dict.fromkeys(CELL_CLASS.values()))
_CELL_PAIRS = {q: tuple(map(list(CELL_CLASS).index, cells))
               for q, cells in Q_RESOLVENTS.items()}


def _product_coefficient(a, b, s):
    """[w^s] of a b, skipping the zero entries of *a*."""
    acc = 0
    for i in range(s + 1):
        if a[i] != 0:
            acc += a[i] * b[s - i]
    return acc


def _series_fixed_point(array: DistributionArray, order: int):
    """(lam, G): the four q-class resolvents' moment series over the
    graded integers, coefficient t being lam^t times the rational one.

    Transforms are moment generating functions in w = 1/z, so G_q =
    (1 - w (K_a + K_b))^-1 and K_c = R_c(g), g = w G_q for the class q
    that cell c reads.  Coefficient t of each series depends only on
    lower coefficients, so one pass fixes coefficient t at step t and
    keeps the earlier ones: for each class, coefficient t of
    1 - w (K_a + K_b) and of its reciprocal; g[t] = G_q[t-1] and column t
    of the power table [w^s] g^k of each class that a cell reads; K_c[t].
    That is O(order^3) integer products per class.  The series equal the
    oracle recomposition at full order, ``cut_pass_fixed_point`` in
    tests/oracles.py.
    """
    if array.order < order:
        raise ValueError("cumulant order %d < requested order %d"
                         % (array.order, order))
    # graded here, not by DistributionArray.graded as the partition engine
    # is, so that no defect there reaches both: f[c][k-1] = r_c(k) lam^k
    cums = array.exact().cumulant_map()
    lam = math.lcm(*(v.denominator for seq in cums.values() for v in seq))
    f = {cell: [v.numerator * lam ** k // v.denominator
                for k, v in enumerate(cums.get(cell, ()), 1)]
         for cell in CELL_CLASS}
    n = order + 1
    g = {q: [0] * n for q in CELL_CLASS.values()}
    # [k][s] = [w^s] g^k; g^k starts at w^k, so step t fills rows 1..t
    powers = {q: [[1] + [0] * order] + [[0] * n for _ in range(order)]
              for q in g}
    k = {cell: [] for cell in CELL_CLASS}
    den = {q: [1] for q in Q_RESOLVENTS}      # 1 - w (K_a + K_b)
    out = {q: [1] for q in Q_RESOLVENTS}      # its reciprocal
    for t in range(n):
        if t:                   # the series start at 1, each g at 0
            for q, (a, b) in Q_RESOLVENTS.items():
                den[q].append(-(k[a][t - 1] + k[b][t - 1]))
                extend_pole_inverse(den[q], out[q])
            for q, p in powers.items():
                g[q][t] = out[q][t - 1]
                for row in range(1, t + 1):
                    p[row][t] = _product_coefficient(p[row - 1], g[q], t)
        for cell, q in CELL_CLASS.items():
            acc = 0
            for power, fk in zip(powers[q], f[cell]):
                if fk != 0:
                    acc += fk * power[t]
            k[cell].append(acc)
    return lam, out


def master_cauchy(array: DistributionArray, order: int) -> TruncatedSeries:
    """Moment series of the convolution via the subordination family:
    M = 1 / (1 - w [K_{1,1} + K_{2,2}]) with K_{j,j} = R_{j,j}(w M*_{j,j}),
    in the array's precision."""
    lam, out = _series_fixed_point(array, order)
    exact = [Fraction(c, lam ** t) for t, c in enumerate(out[(1, 1)])]
    return TruncatedSeries(reported(exact, array.mode), array.mode)


# -- density extraction ------------------------------------------------------


def meixner_parameters(array: DistributionArray):
    """(a, b) when the array is square with semicircle(a) diagonal cells and
    equal point-mass(b) off-diagonal cells (a shared rate a != 0, b = c);
    else None."""
    a = array.r((1, 1), 2) if array.order > 1 else 0
    b = array.r((1, 2), 1)
    semicircle, point_mass = NamedLaw.semicircle(a), NamedLaw.point_mass(b)
    meixner = DistributionArray.from_laws(
        {(1, 1): semicircle, (2, 2): semicircle,
         (1, 2): point_mass, (2, 1): point_mass}, array.order, array.mode)
    if a == 0 or array.cumulant_map() != meixner.cumulant_map():
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
    (none for b = 0), and none when b^2 + 4a <= 0: a negative rate can
    leave the denominator no simple real zero."""
    if b * b + 4 * a <= 0:
        return []
    s = math.sqrt(b * b + 4 * a)
    out = []
    for z0, w in ((b + s, (b - abs(b)) / (-2 * s)),
                  (b - s, (b + abs(b)) / (2 * s))):
        if w > ATOM_WEIGHT_FLOOR:
            out.append((z0, w))
    return out


def _horner(coeffs, u):
    """(K(u), K'(u)) for the polynomial of *coeffs*, highest order first."""
    k = dk = 0.0
    for c in coeffs:
        dk = dk * u + k
        k = k * u + c
    return k, dk


def _newton(r, z: complex, g):
    """The resolvents of the classes that cells read, by Newton from *g*
    along ``NEWTON_ORDER``; None when a class finds no root it accepts.
    A zero derivative or an overflow raises ZeroDivisionError or
    OverflowError.  ``_cauchy`` calls it on every point: from a point the
    damped map settled, it polishes the last bits; from one still moving,
    it finishes the point.

    Class q solves f(u) = u (z - K(u) - c) - 1, with K the sum of the
    tails *r* (``_tails``) of its cells that read q and c the sum of the
    others, read at the classes already solved.  The tails are summed
    aligned at their constant terms, the shorter one padded with leading
    0.0.  A root is accepted when a step falls below CAUCHY_TOL within
    NEWTON_MAX_ITER steps, Im u <= 0 and the damped map attracts there:
    the Denjoy-Wolff point that it converges to.  With F_q(u) =
    1/(z - K(u) - c), F_q'(u) = K'(u) F_q(u)^2 = K'(u) u^2 at the root.
    Each class reads only itself and the classes before it, so the
    Jacobian J of the slot map is triangular in this order, with
    diagonal F_q', and the damped map's Jacobian 0.5 I + 0.5 J has the
    eigenvalues 0.5 (1 + F_q').  So it attracts when every
    |1 + K'(u) u^2| < 2, which holds wherever |K'(u) u^2| < 1 does.
    """
    roots = {}
    for q in NEWTON_ORDER:
        own = [r[cell] for cell in Q_RESOLVENTS[q] if CELL_CLASS[cell] == q]
        coeffs = [sum(col) for col in zip(*(
            [0.0] * (max(map(len, own)) - len(tail)) + tail for tail in own))]
        c = sum(_horner(r[cell], roots[CELL_CLASS[cell]])[0]
                for cell in Q_RESOLVENTS[q] if CELL_CLASS[cell] != q)
        u = g[q]
        for _ in range(NEWTON_MAX_ITER):
            k, dk = _horner(coeffs, u)
            step = (u * (z - k - c) - 1) / (z - k - c - u * dk)
            u -= step
            if abs(step) < CAUCHY_TOL:
                break
        else:
            return None
        if not (u.imag <= 0 and abs(1 + _horner(coeffs, u)[1] * u * u) < 2):
            return None
        roots[q] = u
    return roots


def _tails(array: DistributionArray):
    """Each cell's float R-transform tail, highest order first for Horner
    evaluation, starting at its highest nonzero cumulant and keeping at
    least one entry.  The steps this leaves out of Horner are
    0.0 * u + 0.0, so the value is the one of the full tail."""
    tails = {}
    for cell in ALL_CELLS:
        tail = [float(v) for v in reversed(array.r_series(cell).coeffs)]
        del tail[:next((i for i, c in enumerate(tail) if c), len(tail) - 1)]
        tails[cell] = tail
    return tails


def _cauchy(tails, z: complex):
    """(G(z), converged): ``cauchy_value`` of the array whose ``_tails``
    are *tails*, and whether its fixed point converged.

    The damped map runs at most CAUCHY_DAMPED_ITER steps, and ``_newton``
    then starts from its slots whether they settled or not.  An accepted
    root replaces the slots.  Where Newton refuses, a settled point keeps
    its damped value and counts as converged, and a point still moving is
    damped on to CAUCHY_MAX_ITER steps."""
    if z.imag <= 0:
        raise ValueError("evaluation point must be in the upper half plane")
    reads = [(tails[cell], CLASSES.index(q)) for cell, q in CELL_CLASS.items()]
    slot_pairs = [_CELL_PAIRS[q] for q in CLASSES]

    def resolvents(g, pairs=slot_pairs):
        """G_q = 1/(z - K_a - K_b) for each cell pair (a, b) of *pairs*,
        each K_c read at the slot of g of the class of cell c: by default
        one step of the fixed point over the slots."""
        k = []
        for tail, slot in reads:
            total, u = 0.0, g[slot]
            for c in tail:
                total = total * u + c
            k.append(total)
        return [1.0 / (z - k[a] - k[b]) for a, b in pairs]

    def damp(g, steps):
        for _ in range(steps):
            new = resolvents(g)
            # in slot order: max is NaN only when the first slot's step is,
            # so a stop checks that no slot's step is NaN
            delta = max(map(abs, map(sub, new, g)))
            stop = delta < CAUCHY_TOL and not any(map(
                cmath.isnan, map(sub, new, g)))
            g = [0.5 * o + 0.5 * n for o, n in zip(g, new)]
            if stop:
                return g, True
        return g, False

    g, converged = damp([1.0 / z] * len(CLASSES), CAUCHY_DAMPED_ITER)
    try:
        roots = _newton(tails, z, dict(zip(CLASSES, g)))
    except (ZeroDivisionError, OverflowError):
        roots = None
    if roots is not None:
        g, converged = [roots[q] for q in CLASSES], True
    elif not converged:
        g, converged = damp(g, CAUCHY_MAX_ITER - CAUCHY_DAMPED_ITER)
    # G_(1,1), which no cell reads, once from the final slots
    return resolvents(g, [_CELL_PAIRS[(1, 1)]])[0], converged


def cauchy_value(array: DistributionArray, z: complex) -> complex:
    """Numeric G(z) of the subordination fixed point.

    Works for any array with finitely many cumulants; Im z > 0 required.
    The damped iteration runs at most CAUCHY_DAMPED_ITER steps, enough to
    take a unit step below CAUCHY_TOL; its stop rule bounds the last step,
    not the error.  Newton on the classes in ``NEWTON_ORDER`` then
    polishes every point to the attracting root.  Where Newton finds none,
    a settled point keeps its damped value, and one still moving is damped
    on to CAUCHY_MAX_ITER steps, whose last iterate is returned.
    """
    return _cauchy(_tails(array), z)[0]


def stieltjes_density(array: DistributionArray, grid: Sequence[float],
                      eps: float, unconverged: Optional[list] = None):
    """Sampled density -Im G(x + i eps)/pi on the grid, plus the atom list.

    Uses the closed form when the array matches the semicircle/point-mass
    pattern (then atoms come from residues); otherwise evaluates the
    subordination fixed point numerically, from cell tails built once for
    the whole grid, and reports no atoms.  The x of each point whose fixed
    point did not converge is appended to *unconverged* when a list is
    given.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if array.mode != FLOAT:
        raise ValueError("density extraction requires float mode")
    params = meixner_parameters(array)
    tails = None if params else _tails(array)
    rows = []
    for x in grid:
        z = complex(x, eps)
        if params:
            g = meixner_cauchy(params[0], params[1], z)
        else:
            g, converged = _cauchy(tails, z)
            if not converged and unconverged is not None:
                unconverged.append(float(x))
        rows.append((float(x), -g.imag / math.pi))
    atoms = meixner_atoms(*params) if params else []
    return rows, atoms
