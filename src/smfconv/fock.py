"""Exact finite model of the strongly matricially free Fock space.

Basis words are tuples of letters (i,j).  A valid word is a chain of runs
(i1,i2)^n1 (i2,i3)^n2 ... (ik,ik)^nk with consecutive first indices
distinct, so the final run (and only it) is diagonal.  A letter may be
prepended when it repeats the first letter of the word, or when it is
off-diagonal and its second index matches the first index of the word;
diagonal letters are the only ones that may start a word from the vacuum.

Creation prepends (scaled by alpha), annihilation strips a matching first
letter (scaled by alpha), and the cell operator is

    a_{i,j} = l_{i,j} + sum_k s_{i,j}(k) (l*_{i,j})^(k-1)

where the zeroth annihilator power is the internal unit 1_{i,j} and the
weights satisfy s(k) alpha^(2(k-1)) = r(k), so the cell realizes the
prescribed cumulants.  Truncation at depth d is exact for any product of
at most d factors applied to the vacuum.

An operator is anything with ``apply(vec) -> vec`` on sparse vectors
{word: coefficient}: a :class:`LinearOp` given by its columns (creation,
annihilation, the cell operators, the total A and its compressions), a
:class:`CellPolynomial`, or a :class:`~smfconv.units.UnitElement`, which
scales each word by its q-class component.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Tuple

from .arrays import ALL_CELLS, Cell, DistributionArray
from .series import TruncatedSeries, as_scalar, r_from_moments, \
    scalars_close
from .units import QCELLS, UnitElement, compression, q_class

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]
Vector = Dict[Word, object]

VACUUM: Word = ()


def can_prepend(letter: Letter, word: Word) -> bool:
    if not word:
        return letter[0] == letter[1]
    head = word[0]
    return letter == head or (letter[0] != letter[1]
                              and letter[1] == head[0])


def word_is_valid(word: Word) -> bool:
    if not word:
        return True
    if word[-1][0] != word[-1][1]:
        return False
    for k in range(len(word) - 1, 0, -1):
        if not can_prepend(word[k - 1], word[k:]):
            return False
    return True


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


class LinearOp:
    """Sparse operator given by its columns over the word basis."""

    __slots__ = ("columns",)

    def __init__(self, columns: Dict[Word, tuple]):
        self.columns = columns

    def apply(self, vec: Vector) -> Vector:
        out: Vector = {}
        for w, c in vec.items():
            for w2, a in self.columns.get(w, ()):
                out[w2] = out.get(w2, 0) + a * c
        return {w: c for w, c in out.items() if c != 0}


class CellPolynomial:
    """c0 1_cell + c1 a + c2 a^2 + ... for one cell operator a, applied to
    a vector one power of a at a time; the constant term sits on the
    internal unit 1_cell, never on the global identity."""

    __slots__ = ("unit", "a_op", "coeffs")

    def __init__(self, unit: UnitElement, a_op: LinearOp, coeffs: Sequence):
        self.unit, self.a_op, self.coeffs = unit, a_op, tuple(coeffs)

    def apply(self, vec: Vector) -> Vector:
        out = {w: self.coeffs[0] * v for w, v in self.unit.apply(vec).items()}
        for c in self.coeffs[1:]:
            vec = self.a_op.apply(vec)
            if c != 0:
                for w, v in vec.items():
                    out[w] = out.get(w, 0) + c * v
        return {w: v for w, v in out.items() if v != 0}


class FockModel:
    """Word basis plus weighted-shift operators for one distribution array.

    alpha defaults to 1 on every cell; the cell distribution depends only
    on r(k), so alpha is a pure gauge knob retained to test invariance.
    """

    def __init__(self, array: DistributionArray, depth: int,
                 alpha: Dict[Cell, object] | None = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.array = array
        self.mode = array.mode
        self.depth = depth
        self.J = array.J
        one = as_scalar(1, self.mode)
        self.alpha = {cell: one for cell in self.J}
        if alpha:
            for cell, val in alpha.items():
                a = as_scalar(val, self.mode)
                if not a > 0:
                    raise ValueError("alpha must be positive")
                self.alpha[cell] = a
        # s(k) = r(k) / alpha^(2(k-1))
        self.weights = {}
        for cell, cums in array.cells:
            a2 = self.alpha[cell] * self.alpha[cell]
            scale = one
            ws = []
            for r in cums:
                ws.append(r / scale)
                scale *= a2
            self.weights[cell] = tuple(ws)
        # the word basis always ranges over all four letters: conjugate
        # state vectors exist even when a diagonal cell is absent from J
        self.words = enumerate_words(ALL_CELLS, depth)
        self._ops: Dict = {}

    # -- operator constructors -------------------------------------------

    def creation(self, cell: Cell) -> LinearOp:
        key = ("l", cell)
        if key not in self._ops:
            a = self.alpha[cell]
            cols = {}
            for w in self.words:
                if len(w) < self.depth and can_prepend(cell, w):
                    cols[w] = (((cell,) + w, a),)
            self._ops[key] = LinearOp(cols)
        return self._ops[key]

    def annihilation(self, cell: Cell) -> LinearOp:
        key = ("l*", cell)
        if key not in self._ops:
            a = self.alpha[cell]
            cols = {}
            for w in self.words:
                if w and w[0] == cell:
                    cols[w] = ((w[1:], a),)
            self._ops[key] = LinearOp(cols)
        return self._ops[key]

    def toeplitz(self, cell: Cell) -> LinearOp:
        """a_cell = creation + sum_k s(k) annihilation^(k-1)."""
        key = ("a", cell)
        if key not in self._ops:
            if cell not in self.J:
                raise ValueError("cell %r not in the array" % (cell,))
            ws = self.weights[cell]
            unit = UnitElement.internal_unit(*cell, self.mode)
            ann = self.annihilation(cell)
            cols: Dict[Word, list] = {}

            def add(w, w2, coeff):
                if coeff != 0:
                    cols.setdefault(w, []).append((w2, coeff))

            cre = self.creation(cell)
            for w in self.words:
                for w2, a in cre.columns.get(w, ()):
                    add(w, w2, a)
                if ws:
                    f = unit.component(q_class(w))
                    add(w, w, ws[0] * f)
                tail, amp = w, as_scalar(1, self.mode)
                for k in range(2, len(ws) + 1):
                    hit = ann.columns.get(tail)
                    if not hit:
                        break
                    tail, a = hit[0]
                    amp *= a
                    add(w, tail, ws[k - 1] * amp)
            self._ops[key] = LinearOp({w: tuple(v) for w, v in cols.items()})
        return self._ops[key]

    def total(self) -> LinearOp:
        """A = sum of the cell operators."""
        if "A" not in self._ops:
            cols: Dict[Word, dict] = {}
            for cell in sorted(self.J):
                for w, entries in self.toeplitz(cell).columns.items():
                    tgt = cols.setdefault(w, {})
                    for w2, a in entries:
                        tgt[w2] = tgt.get(w2, 0) + a
            self._ops["A"] = LinearOp(
                {w: tuple((w2, a) for w2, a in tgt.items() if a != 0)
                 for w, tgt in cols.items()})
        return self._ops["A"]

    def compressed_total(self, cell: Cell) -> LinearOp:
        """P_{i,j} A P_{i,j} with the compression projection of the cell:
        the entries of A whose source and target words both lie in the
        range of P (its components are all 0 or 1)."""
        key = ("PAP", cell)
        if key not in self._ops:
            p = compression(*cell, self.mode)
            kept = {w for w in self.words if p.component(q_class(w)) != 0}
            self._ops[key] = LinearOp(
                {w: tuple(e for e in entries if e[0] in kept)
                 for w, entries in self.total().columns.items() if w in kept})
        return self._ops[key]

    # -- states ------------------------------------------------------------

    def state_vector(self, state: str) -> Vector:
        one = as_scalar(1, self.mode)
        if state == "phi":
            return {VACUUM: one}
        if state == "phi1":
            return {((1, 1),): one}
        if state == "phi2":
            return {((2, 2),): one}
        raise ValueError("state must be phi, phi1 or phi2")

    def state_moment(self, state: str, factors: Sequence):
        """<(f_1 ... f_n) v, v> for the given state vector v.

        Factors are operators listed left to right as written in the
        product; unit elements do not count against the depth budget, and
        any other operator (a LinearOp, a CellPolynomial) counts as one
        factor (callers building composite operators keep their own depth
        accounting).
        """
        heavy = sum(1 for f in factors if not isinstance(f, UnitElement))
        base = 0 if state == "phi" else 1
        if heavy + base > self.depth:
            raise ValueError("product needs depth %d > model depth %d"
                             % (heavy + base, self.depth))
        vec = self.state_vector(state)
        for f in reversed(list(factors)):
            vec = f.apply(vec)
        ref = next(iter(self.state_vector(state)))
        return vec.get(ref, as_scalar(0, self.mode))

    def _power_moments(self, op, state: str, order: int) -> TruncatedSeries:
        """<op^m v, v> for m = 0..order and the state vector v."""
        vec = self.state_vector(state)
        ref = next(iter(vec))
        out = [as_scalar(1, self.mode)]
        for _ in range(order):
            vec = op.apply(vec)
            out.append(vec.get(ref, as_scalar(0, self.mode)))
        return TruncatedSeries(out, self.mode)

    def moments(self, order: int) -> TruncatedSeries:
        """phi(A^m) for m = 0..order."""
        if order > self.depth:
            raise ValueError("order %d exceeds depth %d" % (order, self.depth))
        return self._power_moments(self.total(), "phi", order)

    def single_cell_r(self, cell: Cell, order: int) -> TruncatedSeries:
        """Cumulants of one cell operator recovered from its own moments
        in the cell's state; must reproduce the input cumulants."""
        if order + 1 > self.depth:
            raise ValueError("need depth >= order + 1")
        return r_from_moments(self._power_moments(
            self.toeplitz(cell), self._cell_state(cell), order))

    # -- verification -------------------------------------------------------

    def creation_relation_violations(self) -> List[str]:
        """Check l*_{c} l_{c} = alpha^2 1_{c} on words shorter than depth."""
        bad = []
        for cell in sorted(self.J):
            a2 = self.alpha[cell] * self.alpha[cell]
            cre, ann = self.creation(cell), self.annihilation(cell)
            unit = UnitElement.internal_unit(*cell, self.mode)
            for w in self.words:
                if len(w) >= self.depth:
                    continue
                lhs = ann.apply(cre.apply({w: as_scalar(1, self.mode)}))
                want = a2 * unit.component(q_class(w))
                got = lhs.get(w, as_scalar(0, self.mode))
                if len(lhs) > 1 or not scalars_close(got, want):
                    bad.append("relation fails on cell %r word %r"
                               % (cell, w))
        return bad

    def _poly_op(self, cell: Cell, coeffs: Sequence) -> CellPolynomial:
        """coeffs[0]*1_cell + coeffs[1]*a_cell + coeffs[2]*a_cell^2 + ...,
        an element of the non-unital cell subalgebra."""
        return CellPolynomial(UnitElement.internal_unit(*cell, self.mode),
                              self.toeplitz(cell), coeffs)

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

        bad.extend(self.creation_relation_violations())

        # unit normalizations under the diagonal and conjugate states
        for i, j in ALL_CELLS:
            u = UnitElement.internal_unit(i, j, self.mode)
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
            out = [as_scalar(rng.randint(-2, 2), self.mode)
                   for _ in range(degree + 1)]
            if out[degree] == 0:
                out[degree] = as_scalar(1, self.mode)
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
            n = rng.randint(1, max_length)
            seq = random_cells(n)
            degs = spread_degrees(n)
            ops = [self._centered_poly(c, random_coeffs(d))
                   for c, d in zip(seq, degs)]
            val = self.state_moment("phi", ops)
            if not scalars_close(val, as_scalar(0, self.mode)):
                bad.append("kernel product %r has phi-moment %r" % (seq, val))

        # diagonal states vanish on off-diagonal cells and vice versa
        for cell in cells:
            i, j = cell
            if i != j:
                val = self.state_moment("phi", [self.toeplitz(cell)])
                if not scalars_close(val, as_scalar(0, self.mode)):
                    bad.append("phi(a_%r) = %r != 0" % (cell, val))
            else:
                st = "phi1" if i == 2 else "phi2"   # state with j != i
                val = self.state_moment(st, [self.toeplitz(cell)])
                if not scalars_close(val, as_scalar(0, self.mode)):
                    bad.append("%s(a_%r) = %r != 0" % (st, cell, val))

        # a diagonal factor followed by centered factors kills the moment
        diag_cells = [c for c in cells if c[0] == c[1]]
        for _ in range(trials // 2):
            if not diag_cells or max_length < 2:
                break
            n = rng.randint(2, max_length)
            seq = random_cells(n)
            seq[0] = rng.choice(diag_cells)
            if len(seq) > 1 and seq[1] == seq[0]:
                continue
            degs = spread_degrees(n)
            ops = [self._poly_op(seq[0], random_coeffs(degs[0]))]
            ops += [self._centered_poly(c, random_coeffs(d))
                    for c, d in zip(seq[1:], degs[1:])]
            val = self.state_moment("phi", ops)
            if not scalars_close(val, as_scalar(0, self.mode)):
                bad.append("diagonal-then-kernel product %r has moment %r"
                           % (seq, val))

        # phi(u1 a u2) = phi(u1) phi(a) phi(u2)
        for _ in range(trials // 2):
            u1 = UnitElement(tuple(rng.randint(-2, 2) for _ in QCELLS),
                             self.mode)
            u2 = UnitElement(tuple(rng.randint(-2, 2) for _ in QCELLS),
                             self.mode)
            word = [rng.choice(cells)
                    for _ in range(rng.randint(1, max(1, max_length - 1)))]
            ops = [self.toeplitz(c) for c in word]
            lhs = self.state_moment("phi", [u1] + ops + [u2])
            rhs = (u1.state_value("phi")
                   * self.state_moment("phi", ops)
                   * u2.state_value("phi"))
            if not scalars_close(lhs, rhs):
                bad.append("unit factorization fails on %r" % (word,))
        return bad

    # -- debug dump ----------------------------------------------------------

    def dump_basis(self) -> str:
        """One word per line, letters as (i,j)(i,j)...; vacuum is ()."""
        return "\n".join(self.format_word(w) for w in self.words)

    @staticmethod
    def format_word(word: Word) -> str:
        if not word:
            return "()"
        return "".join("(%d,%d)" % letter for letter in word)

    def dump_operator(self, cell: Cell) -> str:
        """Action table of the cell operator, one input word per line."""
        lines = []
        op = self.toeplitz(cell)
        for w in self.words:
            entries = op.columns.get(w, ())
            rhs = " + ".join("%s * %s" % (a, self.format_word(w2))
                             for w2, a in entries) or "0"
            lines.append("%s -> %s" % (self.format_word(w), rhs))
        return "\n".join(lines)
