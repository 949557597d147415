import random
from fractions import Fraction as F

import pytest

import smfconv.fock
from oracles import (DictOp, apply_scalars, column_scalars,
                     dict_state_moment, eager_tables, full_relation_violations,
                     module_imports, padded, poly_columns, q_projection,
                     single_cell_r, word_is_valid)
from smfconv import (ALL_CELLS, FLOAT, RATIONAL, DistributionArray,
                     FockModel, SHAPES, TruncatedSeries, UnitElement,
                     smf_moments)
from smfconv.fock import can_prepend, created, enumerate_words, stripped


def square_array(rng, order=6):
    cums = {cell: tuple(F(rng.randint(-3, 3)) for _ in range(order))
            for cell in SHAPES["square"]}
    return DistributionArray.from_cumulants(cums)


def test_word_chaining_rules():
    assert word_is_valid(())
    assert word_is_valid(((1, 1), (1, 1)))
    assert word_is_valid(((1, 2), (2, 2)))
    assert word_is_valid(((1, 2), (2, 1), (1, 1)))
    assert not word_is_valid(((1, 2),))                 # must end diagonal
    assert not word_is_valid(((1, 1), (2, 2)))          # broken chain
    assert not word_is_valid(((1, 2), (1, 1)))          # wrong link index


def test_prepend_rules():
    assert can_prepend((1, 1), ())
    assert not can_prepend((1, 2), ())                  # kills the vacuum
    assert not can_prepend((1, 2), ((1, 1),))
    assert can_prepend((2, 1), ((1, 1),))
    assert can_prepend((1, 2), ((2, 2),))


def test_basis_size_square_shape():
    # the square shape has exactly 2^n valid words of each length n
    words = enumerate_words(SHAPES["square"], 6)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {0: 1, **{n: 2 ** n for n in range(1, 7)}}
    assert all(word_is_valid(w) for w in words)


def test_creation_examples():
    assert created((1, 2), (), 4) is None               # vacuum killed
    assert created((1, 1), (), 4) == ((1, 1),)
    assert created((1, 2), ((1, 1),), 4) is None        # chaining
    assert created((1, 1), ((1, 1),) * 4, 4) is None    # depth cap
    assert stripped((1, 1), ((1, 1), (1, 1))) == ((1, 1),)
    assert stripped((1, 2), ((1, 1),)) is None
    assert stripped((1, 1), ()) is None


def test_unit_expectations():
    arr = square_array(random.Random(1))
    model = FockModel(arr, 3)
    for i in (1, 2):
        for j in (1, 2):
            u = UnitElement.internal_unit(i, j)
            assert model.state_moment("phi", [u]) == (1 if i == j else 0)
            for state, jj in (("phi1", 1), ("phi2", 2)):
                assert model.state_moment(state, [u]) == (1 if j == jj else 0)


def test_first_moment_formula():
    rng = random.Random(2)
    arr = square_array(rng)
    model = FockModel(arr, 3)
    want = arr.r((1, 1), 1) + arr.r((2, 2), 1)
    assert model.state_moment("phi", [model.total()]) == want


def test_moments_match_partition_engine():
    rng = random.Random(3)
    for J in SHAPES.values():
        cums = {cell: tuple(F(rng.randint(-3, 3)) for _ in range(6))
                for cell in J}
        arr = DistributionArray.from_cumulants(cums)
        model = FockModel(arr, 6)
        assert model.moments(6) == smf_moments(arr, 6)


def test_single_cell_r_reproduces_cumulants():
    rng = random.Random(4)
    arr = square_array(rng)
    model = FockModel(arr, 7)
    for cell in sorted(arr.J):
        got = single_cell_r(model, cell, 6)
        assert got == TruncatedSeries(arr.cumulant_map()[cell])
    # named degenerations
    semi = DistributionArray.from_cumulants({(1, 1): (F(0), F(1), F(0))})
    assert single_cell_r(FockModel(semi, 4), (1, 1), 3) == \
        TruncatedSeries([0, 1, 0])
    point = DistributionArray.from_cumulants({(1, 1): (F(5), F(0))})
    assert single_cell_r(FockModel(point, 4), (1, 1), 2) == \
        TruncatedSeries([5, 0])
    zero = DistributionArray.from_cumulants({(2, 2): (F(0), F(0))})
    assert single_cell_r(FockModel(zero, 4), (2, 2), 2) == \
        TruncatedSeries([0, 0])


def test_creation_annihilation_relation_below_boundary():
    rng = random.Random(6)
    for J in (SHAPES["square"], SHAPES["column"]):
        cums = {cell: tuple(F(rng.randint(-2, 2)) for _ in range(4))
                for cell in J}
        arr = DistributionArray.from_cumulants(cums)
        model = FockModel(arr, 5)
        assert model.creation_relation_violations() == []


def broken_creation(cell, cap=0, flip=None):
    """The creation rule with, on *cell* alone, the depth cap moved by
    *cap* and the prepend condition negated on words whose head (or
    vacuum) is *flip*."""

    def rule(c, w, depth):
        if c != cell:
            return created(c, w, depth)
        ok = can_prepend(c, w) != (flip is not None and w[:1] == flip)
        return (c,) + w if ok and len(w) < depth + cap else None
    return rule


def test_relation_check_matches_full_basis_walk(monkeypatch):
    # per head class the check decides the relation exactly as the walk
    # over every word below the depth does, on correct models and on
    # models whose creation rule is broken on one cell
    rng = random.Random(23)
    heads = [()] + [(letter,) for letter in ALL_CELLS]
    flagged = 0
    for mode in (RATIONAL, FLOAT):
        for J in SHAPES.values():
            cums = {cell: tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(2)) for cell in J}
            arr = DistributionArray.from_cumulants(cums, mode)
            for depth in range(1, 11):
                breaks = [{}, {"cap": -1}, {"cap": 1},
                          {"flip": rng.choice(heads)}]
                for brk in breaks:
                    model = FockModel(arr, depth)
                    rule = broken_creation(rng.choice(sorted(J)), **brk) \
                        if brk else created
                    monkeypatch.setattr(smfconv.fock, "created", rule)
                    got = model.creation_relation_violations()
                    want = full_relation_violations(model, rule)
                    assert bool(got) == bool(want)
                    assert set(got) <= set(want)
                    assert brk or not got
                    flagged += bool(got)
    assert flagged > 100


def test_relation_check_applies_creation_nine_times_per_cell(monkeypatch):
    # the vacuum and two words per head letter, not the 1,023 basis
    # words below depth 10
    model = FockModel(square_array(random.Random(24), 10), 10)
    calls = {}

    def counted(cell, w, depth):
        calls[cell] = calls.get(cell, 0) + 1
        return created(cell, w, depth)
    monkeypatch.setattr(smfconv.fock, "created", counted)
    assert model.creation_relation_violations() == []
    assert sorted(calls) == sorted(ALL_CELLS)
    assert all(n <= 9 for n in calls.values())
    assert sum(calls.values()) == 4 * 9


def test_q_projections_partition_unity():
    arr = square_array(random.Random(7))
    model = FockModel(arr, 4)
    qs = [q_projection(qc) for qc in
          ((1, 1), (1, 2), (2, 1), (2, 2))]
    for w in model.words:
        vec = {w: F(1)}
        images = [apply_scalars(q, vec) for q in qs]
        hits = [img for img in images if img]
        assert len(hits) == 1 and hits[0] == vec        # orthogonal, sum = id
        for q in qs:
            once = apply_scalars(q, vec)
            assert apply_scalars(q, once) == once  # idempotent


def test_unit_correspondences_as_matrix_identities():
    arr = square_array(random.Random(8))
    model = FockModel(arr, 4)
    q = {qc: q_projection(qc)
         for qc in ((1, 1), (1, 2), (2, 1), (2, 2))}
    pairs = {
        (1, 1): q[(1, 1)] + q[(2, 1)],
        (2, 2): q[(1, 1)] + q[(1, 2)],
        (1, 2): q[(1, 2)] + q[(2, 2)],
        (2, 1): q[(2, 1)] + q[(2, 2)],
    }
    total = sum(q.values(), UnitElement((0, 0, 0, 0)))
    assert total == UnitElement.identity()
    for (i, j), combo in pairs.items():
        unit = UnitElement.internal_unit(i, j)
        assert unit == combo
        for w in model.words:
            vec = {w: F(1)}
            assert apply_scalars(unit, vec) == \
                apply_scalars(combo, vec)


def test_state_values_on_unit_algebra():
    rng = random.Random(9)
    arr = square_array(rng)
    model = FockModel(arr, 3)
    beta = tuple(F(rng.randint(-5, 5)) for _ in range(4))
    u = UnitElement(beta)
    assert model.state_moment("phi", [u]) == u.component((1, 1))
    assert model.state_moment("phi1", [u]) == u.component((2, 1))
    assert model.state_moment("phi2", [u]) == u.component((1, 2))


def test_axiom_check_clean_on_random_arrays():
    rng = random.Random(10)
    for J in SHAPES.values():
        cums = {cell: tuple(F(rng.randint(-2, 2)) for _ in range(5))
                for cell in J}
        arr = DistributionArray.from_cumulants(cums)
        model = FockModel(arr, 5)
        assert model.axiom_check(trials=25, max_length=5, seed=3) == []


def test_cell_polynomials_match_column_oracle():
    # the polynomial applied to the live vector must equal the full column
    # table on every basis word, plain and recentred into its cell state
    rng = random.Random(14)
    for J in SHAPES.values():
        cums = {cell: tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(6)) for cell in J}
        model = FockModel(DistributionArray.from_cumulants(cums), 6)
        for cell in sorted(J):
            state = model._cell_state(cell)
            for degree in (0, 1, 3, 6):
                coeffs = [F(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(degree + 1)]
                cols = poly_columns(model, cell, coeffs)
                mean = dict_state_moment(state, [cols])
                centred = poly_columns(model, cell,
                                       [coeffs[0] - mean] + coeffs[1:])
                for op, table in ((model._poly_op(cell, coeffs), cols),
                                  (model._centered_poly(cell, coeffs),
                                   centred)):
                    for w in model.words:
                        assert apply_scalars(op, {w: F(1)}) == \
                            dict(table.columns.get(w, ()))


def test_compressed_total_is_compression_of_total():
    # the product P A P applied to random vectors must equal the eager
    # table that keeps the entries of A whose source and target lie in the
    # range of P, with P the cell's compression; a float array builds the
    # model on its exact binary values
    rng = random.Random(15)
    for mode in (RATIONAL, FLOAT):
        for J in SHAPES.values():
            cums = {cell: tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(5)) for cell in J}
            model = FockModel(DistributionArray.from_cumulants(cums, mode), 5)
            tables = eager_tables(model)
            for cell in sorted(J):
                pap = model.compressed_total(cell)
                table = DictOp(tables["PAP", cell])
                for _ in range(20):
                    vec = {w: F(rng.randint(-3, 3), rng.randint(1, 3))
                           for w in rng.sample(model.words, 6)}
                    assert apply_scalars(pap, vec) == table.apply(vec)


def test_on_demand_columns_match_eager_tables():
    # every column computed from the head of a word must equal the table
    # built over the whole basis, entries in the same order, for every
    # shape, in both modes; a compression, which caches no columns, must
    # give the same entries in the same order applied to the word alone
    rng = random.Random(16)
    for mode in (RATIONAL, FLOAT):
        for J in SHAPES.values():
            cums = {cell: tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(5)) for cell in J}
            arr = DistributionArray.from_cumulants(cums, mode)
            model = FockModel(arr, 5)
            tables = eager_tables(model)
            ops = {("a", cell): model.toeplitz(cell) for cell in J}
            ops["A"] = model.total()
            paps = {("PAP", cell): model.compressed_total(cell)
                    for cell in J}
            assert set(ops) | set(paps) == set(tables)
            for key, op in ops.items():
                for w in model.words:
                    assert column_scalars(op, w) == tables[key].get(w, ())
            for key, op in paps.items():
                for w in model.words:
                    assert tuple(apply_scalars(op, {w: F(1)}).items()) == \
                        tables[key].get(w, ())


def test_pruned_moments_equal_unpruned_products():
    # run-count pruning must not change a single bit: each moment equals
    # the plain product of total operators applied to the vacuum, exactly,
    # and in float mode rounded once
    rng = random.Random(17)
    for mode in (RATIONAL, FLOAT):
        for J in SHAPES.values():
            cums = {cell: tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(7)) for cell in J}
            arr = DistributionArray.from_cumulants(cums, mode)
            model = FockModel(arr, 7)
            got = model.moments(7).coeffs
            for m in range(1, 8):
                want = model.state_moment("phi", [model.total()] * m)
                assert type(want) is F
                if mode == FLOAT:
                    want = float(want)
                assert got[m] == want
                assert type(got[m]) is type(want)


def test_fock_imports_no_other_engine():
    assert module_imports(smfconv.fock).isdisjoint(
        {"analytic", "moments", "partitions"})


# Recorded while axiom_check still built each cell polynomial as a column
# table; pins the violation messages and the order of the random draws.
LEAKY_VIOLATIONS = [
    "kernel product [(1, 2)] has phi-moment Fraction(2, 1)",
    "kernel product [(1, 2)] has phi-moment Fraction(2, 1)",
    "phi(a_(1, 2)) = Fraction(1, 1) != 0",
    "diagonal-then-kernel product [(1, 1), (1, 2)] has moment "
    "Fraction(-4, 1)",
]


def test_axiom_check_flags_a_broken_model():
    # a_{1,2} gains a constant term on the global identity instead of on
    # its internal unit, so it no longer kills the vacuum
    model = FockModel(square_array(random.Random(12), 5), 5)
    a = model.toeplitz((1, 2))
    for w in model.words:
        a.columns[w] = a.column(w) + ((w, F(1)),)
    assert model.axiom_check(trials=20, max_length=4, seed=1) == \
        LEAKY_VIOLATIONS


def test_depth_guards():
    arr = square_array(random.Random(11))
    model = FockModel(arr, 3)
    with pytest.raises(ValueError):
        model.moments(4)
    with pytest.raises(ValueError, match="order must be >= 0"):
        model.moments(-1)
    with pytest.raises(ValueError):
        model.state_moment("phi", [model.total()] * 4)
    with pytest.raises(ValueError):
        single_cell_r(model, (1, 2), 3)
    with pytest.raises(ValueError):
        FockModel(arr, 0)


def test_float_mode_model():
    # the float model is the exact model on the binary values; only its
    # moments are rounded, once each
    arr = DistributionArray.from_cumulants(
        {(1, 1): (0.5, 1.0), (2, 2): (-1.0, 2.0)}, mode="float")
    model = FockModel(padded(arr, 4), 4)
    exact = padded(DistributionArray.from_cumulants(
        {(1, 1): (F(1, 2), F(1)), (2, 2): (F(-1), F(2))}), 4)
    assert model.array == exact and model.mode == FLOAT
    want = FockModel(exact, 4).moments(4)
    got = model.moments(4)
    assert got.mode == FLOAT
    assert list(got.coeffs) == [float(a) for a in want.coeffs]
