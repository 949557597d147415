"""Exact finite model of the strongly matricially free Fock space.

Basis words are tuples of letters (i,j).  A valid word is a chain of runs
(i1,i2)^n1 (i2,i3)^n2 ... (ik,ik)^nk with consecutive first indices
distinct, so the final run (and only it) is diagonal.  A letter may be
prepended when it repeats the first letter of the word, or when it is
off-diagonal and its second index matches the first index of the word;
diagonal letters are the only ones that may start a word from the vacuum.

Creation prepends a letter, annihilation strips a matching first letter,
and the cell operator is

    a_{i,j} = l_{i,j} + sum_k r_{i,j}(k) (l*_{i,j})^(k-1)

where the zeroth annihilator power is the internal unit 1_{i,j}, so the
cell realizes the prescribed cumulants.  Truncation at depth d is exact
for any product of at most d factors applied to the vacuum.  The two
rules, ``created`` and ``stripped``, are written once: the cell
operators and the relation check both call them.

The model is built on the exact array (``DistributionArray.exact``), so
every vector, operator and check is exact in both precisions, and only
``moments`` rounds, once, for a float job.  A vector is a
:class:`~smfconv.units.FockVector`, integer numerators {word: num} over
one positive denominator.  An operator is anything with
``apply(vec) -> vec``: a :class:`LinearOp` given by a column rule (the
cell operators and the total A), a :class:`CellPolynomial`, a
:class:`~smfconv.units.UnitElement`, which scales each word by its
q-class component, or a :class:`Product` of operators.  Every operator
but a product has a denominator ``den`` fixed when it is built, the lcm
of the denominators of every entry it can produce, and supplies its
entries as numerators over it; the output denominator is the input
denominator times the operator's.  So no entry of a vector costs a gcd.
A scalar leaves the vector layer only where it is read
(``state_moment``, the resolvent tables,
``creation_relation_violations``), as one ``Fraction(num, den)`` per
read.

No operator enumerates the word basis.  A cell operator reads only the
head of a word, so its column at w is, in this entry order: the creation
entry ``created(cell, w, depth)`` with weight 1 when there is one; w
itself with weight r(1) times the cell unit's component at the q class
of w; and for k = 2, 3, ... while ``stripped`` finds the cell at the
head, w with k - 1 letters stripped, with weight r(k).  The column of A
merges the cell columns in sorted cell order over the lcm of the cell
denominators, summing repeated targets in that order.  A
:class:`LinearOp` computes a column the first time a vector reaches its
word and caches it in ``columns``.  A compression P A P is the product
of A with the cell's compression projection P on each side, so it keeps
the entries of A whose source and target lie in the range of P, in A's
order, and only A and the cell operators cache columns.

The relation l*_c l_c = 1_c is checked with the two rules the cell
operator applies, on words shorter than the depth, but not on all of
them.  ``created`` reads only the head letter of w (through
``can_prepend``) and whether w is shorter than the depth; ``stripped``
and the unit 1_c read only the head letter.  So on words below the depth
both sides take one value per head letter, and one for the vacuum.
``relation_words`` checks the vacuum and, per head letter, the shortest
word and one of length depth - 1, where a length cap that is off by one
shows: at most 9 words per cell, against 2^depth - 1 in the basis below
the depth.

The moments and every matricial check read one pruned recursion.  For M
(A or a compression), a state vector v with reference word ref and the
unit coefficients r_j = c_{j+1} of a matricial R-transform, a
:class:`ResolventTable` computes the coefficients S_d of
<(C - M)^{-1} v, v>, C = 1/z + R (see :mod:`smfconv.matricial`):

    Y_1 = v,   Y_{d+1} = M Y_d - sum_{j<d} r_j Y_{d-j},   S_d = <Y_d, v>.

With R = 0 this is z (1 - zM)^{-1}: S_{m+1} = <M^m v, v>, and ``moments``
is the table on A with no coefficients.  M removes at most one run, a
maximal block of equal letters, from the front of a word, and the r_j
keep every word.  So when S_d is read up to d = top, the words of Y_L
with more than top - L + runs(ref) runs never reach ref, and dropping
them leaves every S_d unchanged.
"""

from __future__ import annotations

import math
import random
from operator import ne
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .arrays import ALL_CELLS, Cell, DistributionArray
from .series import TruncatedSeries, common_denominator, reported
from .units import QCELLS, FockVector, UnitElement, compression, q_class

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]

VACUUM: Word = ()
STATE_WORDS: Dict[str, Word] = {"phi": VACUUM, "phi1": ((1, 1),),
                                "phi2": ((2, 2),)}


def can_prepend(letter: Letter, word: Word) -> bool:
    if not word:
        return letter[0] == letter[1]
    head = word[0]
    return letter == head or (letter[0] != letter[1]
                              and letter[1] == head[0])


def created(cell: Cell, w: Word, depth: int) -> Word | None:
    """l_cell on a basis word: cell prepended, or None when the letter may
    not be prepended or w is at the depth."""
    if len(w) < depth and can_prepend(cell, w):
        return (cell,) + w
    return None


def stripped(cell: Cell, w: Word) -> Word | None:
    """l*_cell on a basis word: w without its head letter, or None when
    the head is not cell."""
    return w[1:] if w and w[0] == cell else None


def enumerate_words(J: Iterable[Cell], depth: int) -> Tuple[Word, ...]:
    letters = sorted(J)
    level: List[Word] = [VACUUM]
    out: List[Word] = [VACUUM]
    for _ in range(depth):
        nxt = []
        for w in level:
            for letter in letters:
                if can_prepend(letter, w):
                    nxt.append((letter,) + w)
        out.extend(nxt)
        level = nxt
    return tuple(out)


def relation_words(depth: int) -> List[Word]:
    """Words on which ``creation_relation_violations`` checks the
    relation: the vacuum, then for each head letter the shortest valid
    word and one of length depth - 1 (one word when they coincide, none
    when no word with that head is shorter than the depth)."""
    out = [VACUUM]
    for head in ALL_CELLS:
        i, j = head
        tail = () if i == j else ((j, j),)
        shortest = 1 + len(tail)
        if shortest < depth:
            for n in sorted({shortest, depth - 1}):
                out.append((head,) * (n - len(tail)) + tail)
    return out


class LinearOp:
    """Sparse operator given by a column rule word -> ((word, entry), ...),
    the entries being numerators over ``den``; ``columns`` caches the
    columns computed so far."""

    __slots__ = ("rule", "den", "columns")

    def __init__(self, rule: Callable[[Word], tuple], den: int = 1):
        self.rule, self.den = rule, den
        self.columns: Dict[Word, tuple] = {}

    def column(self, w: Word) -> tuple:
        col = self.columns.get(w)
        if col is None:
            col = self.columns[w] = self.rule(w)
        return col

    def apply(self, vec: FockVector) -> FockVector:
        columns, out = self.columns, {}
        for w, c in vec.entries.items():
            col = columns.get(w)
            if col is None:
                col = self.column(w)
            for w2, a in col:
                out[w2] = out.get(w2, 0) + a * c
        return FockVector({w: c for w, c in out.items() if c != 0},
                          vec.den * self.den)


class Product(tuple):
    """The operator product of its factors, listed left to right as
    written, so ``apply`` runs them right to left."""

    __slots__ = ()

    def apply(self, vec: FockVector) -> FockVector:
        for f in reversed(self):
            vec = f.apply(vec)
        return vec


def runs(word: Word) -> int:
    """Number of maximal blocks of equal letters in the word."""
    return 1 + sum(map(ne, word, word[1:])) if word else 0


def _difference(v: FockVector, minus: Sequence[FockVector]) -> FockVector:
    """v less the sum of the vectors *minus*, over the lcm of their
    denominators, zero entries kept; v itself when *minus* is empty."""
    if not minus:
        return v
    den = math.lcm(v.den, *(u.den for u in minus))
    f = den // v.den
    out = dict(v.entries) if f == 1 else \
        {w: c * f for w, c in v.entries.items()}
    for u in minus:
        f = den // u.den
        for w, c in u.entries.items():
            out[w] = out.get(w, 0) - (c if f == 1 else c * f)
    return FockVector(out, den)


class ResolventTable:
    """S_1..S_top of the module docstring's recursion for one state.

    Level d + 1 applies M to Y_d and each nonzero r_j, j <= d - 2, to
    Y_{d-j}: Z_{d+1} is their difference, pruned at once, as the last
    term, r_{d-1} v, only adds a scalar at ref: to S_{d+1} and, once
    built, to Y_{d+1}.  Z_top is left unpruned, as only its entry at ref
    is read.  An r_{d-1} not yet in r_ops counts as zero in S_{d+1}:
    reconstruct_unique solves for it, then appends it before level d + 1
    is built.  Level L reads r_0..r_{L-2}, so an r_ops shorter than that
    is complete.  Y_1 = v is dropped at once, as r_{d-1} v enters only as
    that scalar at ref; Y_k is dropped once no nonzero or missing r_j
    reaches it at a level k + j yet to come, so with no coefficients a
    table keeps one level.
    """

    def __init__(self, model: FockModel, r_ops: Sequence[UnitElement],
                 mid_op, state: str, top: int):
        self.model, self.r_ops, self.mid, self.top = model, r_ops, mid_op, top
        self.ref = STATE_WORDS[state]
        self.qref, self.ref_runs = q_class(self.ref), runs(self.ref)
        self.Y: list = [None]             # Y_d at index d, or None
        self.Z = FockVector({self.ref: 1})    # Z_d for d = len(Y), pruned
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
        Y = self.Y
        while len(Y) < d:
            level, x = len(Y), self._scalar(len(Y))
            Y.append(_difference(self.Z, [FockVector(
                {self.ref: x.numerator}, x.denominator)] if x else []))
            Z = _difference(self.mid.apply(Y[level]), [
                r.apply(Y[level - j])
                for j, r in enumerate(self.r_ops[:level - 1]) if any(r.beta)])
            self.Z = Z if level + 1 == self.top else self.model.prune(
                Z, self.top - level - 1 + self.ref_runs)
            self.at_ref.append(self.Z.read(self.ref))
            n, Y[1] = len(self.r_ops), None
            for k in range(2, level + 1):
                if Y[k] is not None and not any(
                        n >= level - 1 if j >= n else any(self.r_ops[j].beta)
                        for j in range(level + 1 - k, self.top - k)):
                    Y[k] = None
        return self.at_ref[d] - self._scalar(d)

    def sums(self) -> list:
        """S_1..S_top."""
        return [self.sum(d) for d in range(1, self.top + 1)]


class CellPolynomial:
    """c0 1_cell + c1 a + c2 a^2 + ... for one cell operator a, applied to
    a vector one power of a at a time; the constant term sits on the
    internal unit 1_cell, never on the global identity.

    Term k reaches the input denominator times s_k = den(1_cell) for
    k = 0 and den(a)^k for k >= 1, so the terms are added with integer
    multipliers ``mults``, c_k / s_k over ``den``, the lcm of their
    denominators."""

    __slots__ = ("unit", "a_op", "mults", "den")

    def __init__(self, unit: UnitElement, a_op: LinearOp, coeffs: Sequence):
        self.unit, self.a_op = unit, a_op
        term_dens = [unit.den] + [a_op.den ** k
                                  for k in range(1, len(coeffs))]
        self.mults, self.den = common_denominator(coeffs, term_dens)

    def apply(self, vec: FockVector) -> FockVector:
        den = vec.den * self.den
        m0 = self.mults[0]
        out = {w: m0 * v for w, v in self.unit.apply(vec).entries.items()}
        for m in self.mults[1:]:
            vec = self.a_op.apply(vec)
            if m != 0:
                for w, v in vec.entries.items():
                    out[w] = out.get(w, 0) + m * v
        return FockVector({w: v for w, v in out.items() if v != 0}, den)


class FockModel:
    """Word basis plus weighted-shift operators for one distribution array;
    ``weights`` holds each cell's exact cumulants r(1), r(2), ..."""

    def __init__(self, array: DistributionArray, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.mode = array.mode          # the precision ``moments`` reports
        self.array = array = array.exact()
        self.depth = depth
        self.J = array.J
        self.weights = dict(array.cells)
        self.units = {cell: UnitElement.internal_unit(*cell)
                      for cell in ALL_CELLS}
        self._words = None
        self._ops: Dict = {}
        self._runs: Dict[Word, int] = {}    # word -> runs(word)

    @property
    def words(self) -> Tuple[Word, ...]:
        """The truncated word basis, enumerated on first use.  No operator
        and no check needs it, so no CLI path reads it; the tests and
        ``perfbench/traced_job.py`` do.  It ranges over all four letters:
        conjugate state vectors exist even when a diagonal cell is absent
        from J."""
        if self._words is None:
            self._words = enumerate_words(ALL_CELLS, self.depth)
        return self._words

    # -- operator constructors -------------------------------------------

    def toeplitz(self, cell: Cell) -> LinearOp:
        """a_cell = creation + sum_k r(k) annihilation^(k-1)."""
        key = ("a", cell)
        if key not in self._ops:
            if cell not in self.J:
                raise ValueError("cell %r not in the array" % (cell,))
            depth, ws, unit = self.depth, self.weights[cell], self.units[cell]
            # r(1) times the unit's component, per q class of the word
            diag = [ws[0] * unit.component(qc) for qc in QCELLS] \
                if ws else []
            # all entries as numerators over one denominator, creation's
            # weight 1 being den
            nums, den = common_denominator([*diag, *ws[1:]])
            diag, strips = dict(zip(QCELLS, nums[:len(diag)])), \
                nums[len(diag):]

            def rule(w):
                col = []
                up = created(cell, w, depth)
                if up is not None:
                    col.append((up, den))
                if diag:
                    d = diag[q_class(w)]
                    if d != 0:
                        col.append((w, d))
                tail = w
                for c in strips:
                    tail = stripped(cell, tail)
                    if tail is None:
                        break
                    if c != 0:
                        col.append((tail, c))
                return tuple(col)
            self._ops[key] = LinearOp(rule, den)
        return self._ops[key]

    def total(self) -> LinearOp:
        """A = sum of the cell operators, over the lcm of their
        denominators, built from the cell rules: A caches its own columns,
        so no cell column is cached a second time."""
        if "A" not in self._ops:
            cell_ops = [self.toeplitz(cell) for cell in sorted(self.J)]
            den = math.lcm(*(op.den for op in cell_ops))
            lifts = [(op, den // op.den) for op in cell_ops]

            def rule(w):
                tgt: Dict = {}
                for op, f in lifts:
                    for w2, a in op.rule(w):
                        if f != 1:
                            a *= f
                        tgt[w2] = tgt.get(w2, 0) + a
                return tuple((w2, a) for w2, a in tgt.items() if a != 0)
            self._ops["A"] = LinearOp(rule, den)
        return self._ops["A"]

    def compressed_total(self, cell: Cell) -> Product:
        """P_{i,j} A P_{i,j}, the product of A with the compression
        projection P of the cell on each side; it caches no columns of
        its own, as A caches them."""
        p = compression(*cell)
        return Product((p, self.total(), p))

    # -- states ------------------------------------------------------------

    def state_vector(self, state: str) -> FockVector:
        if state not in STATE_WORDS:
            raise ValueError("state must be phi, phi1 or phi2")
        return FockVector({STATE_WORDS[state]: 1})

    def state_moment(self, state: str, factors: Sequence):
        """<(f_1 ... f_n) v, v> for the given state vector v.

        Factors are operators listed left to right as written in the
        product; unit elements do not count against the depth budget, and
        any other operator (a LinearOp, a CellPolynomial, a Product)
        counts as one factor (callers building composite operators keep
        their own depth accounting).
        """
        heavy = sum(1 for f in factors if not isinstance(f, UnitElement))
        base = 0 if state == "phi" else 1
        if heavy + base > self.depth:
            raise ValueError("product needs depth %d > model depth %d"
                             % (heavy + base, self.depth))
        vec = Product(factors).apply(self.state_vector(state))
        return vec.read(STATE_WORDS[state])

    def prune(self, vec: FockVector, max_runs: int) -> FockVector:
        """The nonzero entries of vec on words of at most max_runs runs.
        The tables of one model meet the same words at every level, so
        each word's runs are counted once per model."""
        counted, kept = self._runs, {}
        for w, c in vec.entries.items():
            if c != 0:
                n = counted.get(w)
                if n is None:
                    n = counted[w] = runs(w)
                if n <= max_runs:
                    kept[w] = c
        return FockVector(kept, vec.den)

    def moments(self, order: int) -> TruncatedSeries:
        """phi(A^m) for m = 0..order, in the array's precision."""
        if order > self.depth:
            raise ValueError("order %d exceeds depth %d" % (order, self.depth))
        table = ResolventTable(self, (), self.total(), "phi", order + 1)
        return TruncatedSeries(reported(table.sums(), self.mode), self.mode)

    # -- verification -------------------------------------------------------

    def creation_relation_violations(self) -> List[str]:
        """Check l*_{c} l_{c} = 1_{c}, with the rules ``toeplitz`` applies,
        on words shorter than depth, one word per class of
        ``relation_words`` (see the module docstring for why that decides
        it): l*_c l_c keeps w where 1_c does, and kills it elsewhere."""
        bad = []
        for cell in sorted(self.J):
            unit = self.units[cell]
            for w in relation_words(self.depth):
                up = created(cell, w, self.depth)
                back = None if up is None else stripped(cell, up)
                if back != (w if unit.component(q_class(w)) else None):
                    bad.append("relation fails on cell %r word %r" % (cell, w))
        return bad

    def _poly_op(self, cell: Cell, coeffs: Sequence) -> CellPolynomial:
        """coeffs[0]*1_cell + coeffs[1]*a_cell + coeffs[2]*a_cell^2 + ...,
        an element of the non-unital cell subalgebra."""
        return CellPolynomial(self.units[cell], self.toeplitz(cell), coeffs)

    def _cell_state(self, cell: Cell) -> str:
        i, j = cell
        return "phi" if i == j else ("phi1" if j == 1 else "phi2")

    def _centered_poly(self, cell: Cell, coeffs: Sequence) -> CellPolynomial:
        """Polynomial in the cell recentred into the kernel of its state."""
        mean = self.state_moment(self._cell_state(cell),
                                 [self._poly_op(cell, coeffs)])
        return self._poly_op(cell, [coeffs[0] - mean, *coeffs[1:]])

    def axiom_check(self, trials: int = 50, max_length: int = 5,
                    seed: int = 0) -> List[str]:
        """Sample the defining moment conditions; returns violations.

        The sampled products keep their total polynomial degree within the
        truncation depth, so every reported value is exact.
        """
        rng = random.Random(seed)
        bad: List[str] = []
        cells = sorted(self.J)
        max_length = min(max_length, self.depth)
        # a sequence of one cell with no two neighbours equal has length 1
        alternating = max_length if len(cells) > 1 else 1

        bad.extend(self.creation_relation_violations())

        # unit normalizations under the diagonal and conjugate states
        for (i, j), u in self.units.items():
            if self.state_moment("phi", [u]) != (1 if i == j else 0):
                bad.append("phi(1_%r) != delta" % ((i, j),))
            for st, jj in (("phi1", 1), ("phi2", 2)):
                if self.state_moment(st, [u]) != (1 if j == jj else 0):
                    bad.append("%s(1_%r) != delta" % (st, (i, j)))

        def random_cells(n):
            seq = []
            while len(seq) < n:
                c = rng.choice(cells)
                if not seq or seq[-1] != c:
                    seq.append(c)
            return seq

        def random_coeffs(degree):
            out = [rng.randint(-2, 2) for _ in range(degree + 1)]
            if out[degree] == 0:
                out[degree] = 1
            return out

        def spread_degrees(n):
            degs = [1] * n
            while sum(degs) < self.depth and rng.random() < 0.5:
                degs[rng.randrange(n)] += 1
            while sum(degs) > self.depth:
                degs[degs.index(max(degs))] -= 1
            return degs

        # alternating kernel products vanish under phi
        for _ in range(trials):
            n = rng.randint(1, alternating)
            seq = random_cells(n)
            degs = spread_degrees(n)
            ops = [self._centered_poly(c, random_coeffs(d))
                   for c, d in zip(seq, degs)]
            val = self.state_moment("phi", ops)
            if val != 0:
                bad.append("kernel product %r has phi-moment %r" % (seq, val))

        # diagonal states vanish on off-diagonal cells and vice versa
        for cell in cells:
            i, j = cell
            if i != j:
                val = self.state_moment("phi", [self.toeplitz(cell)])
                if val != 0:
                    bad.append("phi(a_%r) = %r != 0" % (cell, val))
            else:
                st = "phi1" if i == 2 else "phi2"   # state with j != i
                val = self.state_moment(st, [self.toeplitz(cell)])
                if val != 0:
                    bad.append("%s(a_%r) = %r != 0" % (st, cell, val))

        # a diagonal factor followed by centered factors kills the moment
        diag_cells = [c for c in cells if c[0] == c[1]]
        for _ in range(trials // 2):
            if not diag_cells or alternating < 2:
                break
            n = rng.randint(2, alternating)
            seq = random_cells(n)
            seq[0] = rng.choice(diag_cells)
            if len(seq) > 1 and seq[1] == seq[0]:
                continue
            degs = spread_degrees(n)
            ops = [self._poly_op(seq[0], random_coeffs(degs[0]))]
            ops += [self._centered_poly(c, random_coeffs(d))
                    for c, d in zip(seq[1:], degs[1:])]
            val = self.state_moment("phi", ops)
            if val != 0:
                bad.append("diagonal-then-kernel product %r has moment %r"
                           % (seq, val))

        # phi(u1 a u2) = phi(u1) phi(a) phi(u2)
        for _ in range(trials // 2):
            u1 = UnitElement(tuple(rng.randint(-2, 2) for _ in QCELLS))
            u2 = UnitElement(tuple(rng.randint(-2, 2) for _ in QCELLS))
            word = [rng.choice(cells)
                    for _ in range(rng.randint(1, max(1, max_length - 1)))]
            ops = [self.toeplitz(c) for c in word]
            lhs = self.state_moment("phi", [u1] + ops + [u2])
            rhs = (u1.state_value("phi")
                   * self.state_moment("phi", ops)
                   * u2.state_value("phi"))
            if lhs != rhs:
                bad.append("unit factorization fails on %r" % (word,))
        return bad
