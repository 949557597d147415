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
import functools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arrays import ALL_CELLS, DistributionArray, NamedLaw
from .series import FLOAT, TruncatedSeries, extend_pole_inverse, reported

# the bound on every slot's move that settles the damped map, and on the
# Newton step that reaches a root
CAUCHY_TOL = 1e-13
# the damped steps before Newton: the halvings that take a unit step below
# CAUCHY_TOL, so a point still moving contracts by less than 1/2 per step,
# where a step below the tolerance no longer bounds the error
CAUCHY_DAMPED_ITER = math.ceil(-math.log2(CAUCHY_TOL))
# the damped map's handoff bound (``_damped_step``'s reach) before the first
# polish: Newton about squares the error, so the damped steps from there
# down to CAUCHY_TOL buy nothing
NEWTON_REACH = math.sqrt(CAUCHY_TOL)
# the Newton steps of one root, at most
NEWTON_MAX_ITER = 50
# the damped steps in all for a point Newton refuses and the damped map
# left moving
CAUCHY_MAX_ITER = 500
# meixner_atoms keeps the residues above it
ATOM_WEIGHT_FLOOR = 1e-12

# q-class <- the two cell transforms of its resolvent G_q = 1/(z - K_a - K_b),
# the q-components of the linearization formula R = sum_c R_c 1_c; class
# (1,1) is the convolution itself
Q_RESOLVENTS = {(1, 1): ((1, 1), (2, 2)), (2, 1): ((1, 1), (2, 1)),
                (1, 2): ((2, 2), (1, 2)), (2, 2): ((1, 2), (2, 1))}
# cell -> the class of the words it starts, whose resolvent g_c reads
CELL_CLASS = {(1, 1): (2, 1), (2, 2): (1, 2), (1, 2): (2, 2), (2, 1): (2, 2)}


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
    if len(array.cells[0][1]) < order:
        raise ValueError("cumulant order %d < requested order %d"
                         % (len(array.cells[0][1]), order))
    # the exact cells graded here, not by the DistributionArray methods the
    # partition engine calls, so that no defect there reaches both:
    # f[c][k-1] = r_c(k) lam^k
    cums = dict(array.exact().cells)
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
    if order < 0:
        raise ValueError("order must be >= 0")
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


def _root(poly, z: complex, c, u: complex) -> complex:
    """The root of f(u) = u (z - K(u) - c) - 1 that Newton reaches from
    *u*, K the polynomial *poly*: one class of ``_solver``.  Raises
    ArithmeticError unless a step falls below CAUCHY_TOL within
    NEWTON_MAX_ITER steps at a root with Im u <= 0 where the damped map
    attracts, |1 + K'(u) u^2| < 2; a zero derivative or an overflow
    raises ZeroDivisionError or OverflowError, both ArithmeticError."""
    steps = 0
    while True:
        # K(u) and K'(u): for the step from u, or, once a step fell below
        # CAUCHY_TOL, for the test of the root u that it reached
        k = dk = 0.0
        for a in poly:
            dk = dk * u + k
            k = k * u + a
        if steps and abs(step) < CAUCHY_TOL:
            if u.imag <= 0 and abs(1 + dk * u * u) < 2:
                return u
            break
        if steps == NEWTON_MAX_ITER:
            break
        step = (u * (z - k - c) - 1) / (z - k - c - u * dk)
        u -= step
        steps += 1
    raise ArithmeticError("no root that the damped map attracts")


def _tails(array: DistributionArray):
    """Each cell's float R-transform tail, highest order first for Horner
    evaluation, from its highest nonzero cumulant on and at least one
    entry long: the steps left out are 0.0 * u + 0.0, so the value is the
    one of the full tail."""
    tails = {}
    for cell in ALL_CELLS:
        tail = [float(v) for v in reversed(array.r_series(cell).coeffs)]
        del tail[:next((i for i, c in enumerate(tail) if c), len(tail) - 1)]
        tails[cell] = tail
    return tails


# the source of the two functions that _damped_step compiles per tail shape
_DAMPED_MAP = """\
def damp(z, g21, g12, g22, steps, reach, c):
    tol, {coefficients} = c
    for taken in range(1, steps + 1):
        {step}
        n21 = 1.0 / (z - k11 - k21)
        n12 = 1.0 / (z - k22 - k12)
        n22 = 1.0 / (z - k12 - k21)
        if ((d21 := abs(n21 - g21)) < reach
                and (d12 := abs(n12 - g12)) < reach
                and (d22 := abs(n22 - g22)) < reach):
            settled = d21 < tol and d12 < tol and d22 < tol
            if settled or (d21 < abs(reach * g21) and d12 < abs(reach * g12)
                           and d22 < abs(reach * g22)):
                return (0.5 * g21 + 0.5 * n21, 0.5 * g12 + 0.5 * n12,
                        0.5 * g22 + 0.5 * n22, settled, taken)
        g21, g12, g22 = (0.5 * g21 + 0.5 * n21, 0.5 * g12 + 0.5 * n12,
                         0.5 * g22 + 0.5 * n22)
    return g21, g12, g22, False, steps

def cells(g21, g12, g22, c):
    _, {coefficients} = c
    {point}
    return k11, k22, k12, k21
"""


@functools.lru_cache(maxsize=None)
def _damped_step(shape):
    """(damp, cells) for tails of *shape*, the pairs (cell, tail length)
    in the order of ``_tails``, compiled once per shape: ``cauchy_value``
    builds a solver per point, and a compile costs more than a point.

    damp(z, g21, g12, g22, steps, reach, c) -> (g21, g12, g22, settled,
    steps taken) runs at most *steps* steps of the damped map over the
    three class slots.  A step evaluates each cell's tail at the slot of
    the class CELL_CLASS gives it, the resolvents of Q_RESOLVENTS from
    those, and the average of old and new slots.  Before the average it
    tests the slots' moves against *reach* lazily, one abs at a time; a
    NaN move compares False, so a NaN slot never stops the map.  Once
    every move is below *reach*, it stops settled where every move is also
    below CAUCHY_TOL, and unsettled where every move is also below
    |reach g| for its slot g (reach < 1, so the product cannot overflow);
    at reach = CAUCHY_TOL it stops only settled.  It returns the averaged
    slots of its last step.
    cells(g21, g12, g22, c) -> (k11, k22, k12, k21) are the four cell
    transforms, each at the slot of the class CELL_CLASS gives it.

    c is (CAUCHY_TOL, *the tail coefficients in ``_tails`` order), built
    once per grid and unpacked once per call, so no float is written as
    text.  Each cell's Horner is unrolled over its tail as
    k = 0.0 * g + c_0, then k = k * g + c_n, the operations of a loop
    from k = 0.0."""
    names, horner = [], []
    for (i, j), length in shape:
        k, g = "k%d%d" % (i, j), "g%d%d" % CELL_CLASS[i, j]
        acc = "0.0"
        for n in range(length):
            names.append("%s_%d" % (k, n))
            horner.append("%s = %s * %s + %s" % (k, acc, g, names[-1]))
            acc = k
    namespace = {}
    exec(compile(_DAMPED_MAP.format(coefficients=", ".join(names),
                                    step="\n        ".join(horner),
                                    point="\n    ".join(horner)),
                 "<damped map>", "exec"), namespace)
    return namespace["damp"], namespace["cells"]


def _solver(tails):
    """z -> (G(z), converged) of the array whose ``_tails`` are *tails*,
    built once per grid; Im z > 0 required.  Each point runs these
    phases:

    1. The damped map (``_damped_step``'s damp at reach NEWTON_REACH)
       runs at most CAUCHY_DAMPED_ITER steps from 1/z.
    2. Newton (``_root``) polishes the three classes from its slots,
       settled or not; accepted roots replace them.
    3. Where Newton refuses a point handed over unsettled before
       CAUCHY_DAMPED_ITER steps, the damped map resumes from where it
       stopped at reach CAUCHY_TOL, up to CAUCHY_DAMPED_ITER steps in
       all, and Newton polishes again.
    4. Where Newton still refuses, a settled point keeps its damped value
       and counts as converged, and a point still moving is damped on to
       CAUCHY_MAX_ITER steps in all.

    Class q solves f(u) = u (z - K(u) - c) - 1, with K the sum of the
    tails of the cells that read q, built once per grid, and c the tail
    of its other cell, read at the class already solved: class (2,2)
    alone on K12 + K21, then (2,1) on K11 with K21 at the (2,2) root and
    (1,2) on K22 with K12 there.  The accepted root is meant to be the
    Denjoy-Wolff point that the damped map converges to; the test below
    admits only roots where that map attracts, but not every such root
    is its limit (the strict xfail
    ``test_polish_accepts_only_the_damped_limit`` pins two points).
    With F_q(u) = 1/(z - K(u) - c), F_q'(u) = K'(u) F_q(u)^2 = K'(u) u^2
    at the root.
    Each class reads only itself and the classes before it, so the
    Jacobian J of the undamped map is triangular in this order, with
    diagonal F_q', and the damped map's Jacobian 0.5 I + 0.5 J has the
    eigenvalues 0.5 (1 + F_q').  So it attracts when every
    |1 + K'(u) u^2| < 2, which holds wherever |K'(u) u^2| < 1 does.
    """
    def summed(*parts):
        # aligned at the constant term, the shorter padded with leading 0.0;
        # sum starts from int 0, so a -0.0 sums to 0.0, as 0 + K does for c
        width = max(map(len, parts))
        return [sum(col) for col in zip(
            *([0.0] * (width - len(tail)) + tail for tail in parts))]

    p21, p12 = summed(tails[1, 1]), summed(tails[2, 2])
    p22 = summed(tails[1, 2], tails[2, 1])

    damp, cells = _damped_step(tuple((cell, len(tail))
                                     for cell, tail in tails.items()))
    c = (CAUCHY_TOL, *(a for tail in tails.values() for a in tail))

    def solve(z):
        if z.imag <= 0:
            raise ValueError(
                "evaluation point must be in the upper half plane")
        g21 = g12 = g22 = 1.0 / z
        steps = 0
        for reach in (NEWTON_REACH, CAUCHY_TOL):
            g21, g12, g22, converged, taken = damp(
                z, g21, g12, g22, CAUCHY_DAMPED_ITER - steps, reach, c)
            steps += taken
            try:
                u22 = _root(p22, z, 0, g22)
                _, _, k12, k21 = cells(g21, g12, u22, c)
                g21, g12, converged = (_root(p21, z, 0 + k21, g21),
                                       _root(p12, z, 0 + k12, g12), True)
                break
            except ArithmeticError:
                if converged or steps == CAUCHY_DAMPED_ITER:
                    break
        if not converged:
            g21, g12, g22, converged, _ = damp(
                z, g21, g12, g22, CAUCHY_MAX_ITER - steps, CAUCHY_TOL, c)
        # G_(1,1), which no cell reads, once from the final slots
        k11, k22, _, _ = cells(g21, g12, g22, c)
        return 1.0 / (z - k11 - k22), converged

    return solve


def cauchy_value(array: DistributionArray, z: complex) -> complex:
    """Numeric G(z) of the subordination fixed point, for any array with
    finitely many cumulants; Im z > 0 required.  The damped map, Newton's
    polish and the damped fallback are those of ``_solver``; a point that
    converges in neither way raises ArithmeticError naming *z*."""
    g, converged = _solver(_tails(array))(z)
    if not converged:
        raise ArithmeticError("no converged G(z) at z = %r" % (z,))
    return g


def stieltjes_density(array: DistributionArray, grid: Sequence[float],
                      eps: float, unconverged: Optional[list] = None):
    """Sampled density -Im G(x + i eps)/pi on the grid, plus the atom list.

    Uses the closed form when the array matches the semicircle/point-mass
    pattern (then atoms come from residues); otherwise evaluates the
    subordination fixed point numerically, from cell tails built once for
    the whole grid, and reports no atoms.  The x of each point whose fixed
    point did not converge is appended to *unconverged* when a list is
    given.

    The closed form stays because the fixed point does not hold at small
    eps: on the README array, 801 points on [-4, 4], the general path
    leaves 1 point unconverged at eps 1e-8, 1.8e-4 off the closed form,
    and 399 at eps 1e-300, 0.318 off.  The closed form is exact there,
    and ``test_meixner_density_positive_for_tiny_eps`` pins it at eps
    1e-200, 5e-324 and 1e-12.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if array.mode != FLOAT:
        raise ValueError("density extraction requires float mode")
    params = meixner_parameters(array)
    solve = ((lambda z: (meixner_cauchy(*params, z), True)) if params
             else _solver(_tails(array)))
    rows = []
    for x in grid:
        g, converged = solve(complex(x, eps))
        if not converged and unconverged is not None:
            unconverged.append(float(x))
        rows.append((float(x), -g.imag / math.pi))
    atoms = meixner_atoms(*params) if params else []
    return rows, atoms
