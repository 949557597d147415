import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (CountingOp, DictOp, DictPoly, DictUnit, b_elements,
                     composition_sum, dict_alternating_sums,
                     dict_power_moments,
                     dict_state_moment, eager_tables, is_projection,
                     module_imports, moments_from_cumulants,
                     pole_product_is_one, q_projection, r_from_moments,
                     reconstruct_from_scratch, reinverting_reconstruct,
                     scalar_r_as_unit_series)
from smfconv import (FLOAT, QCELLS, RATIONAL, DistributionArray, FockModel,
                     NamedLaw, SHAPES, TruncatedSeries, UnitElement,
                     UnitSeries, assemble_matricial_r, check_residuals, cli,
                     fock, matricial, reconstruct_unique, series, smf_moments)
from smfconv.fock import ResolventTable
from smfconv.matricial import (compressed_residuals, invert_C,
                               linearization_residuals)
from smfconv.series import as_scalar, reported


def random_array(rng, J, order=8):
    cums = {cell: tuple(F(rng.randint(-3, 3)) for _ in range(order))
            for cell in J}
    return DistributionArray.from_cumulants(cums)


def test_assemble_square_row_identical_is_scalar():
    r1 = tuple(F(v) for v in (1, 2, -1, 0, 3))
    r2 = tuple(F(v) for v in (0, 1, 2, -2, 1))
    arr = DistributionArray.from_cumulants(
        {(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
    R = assemble_matricial_r(arr, 3)
    added = TruncatedSeries([a + b for a, b in zip(r1, r2)]).truncate(3)
    for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert R.component(qc) == added


def test_assemble_diagonal_array():
    r1 = tuple(F(v) for v in (2, 1, 0, 0))
    r2 = tuple(F(v) for v in (-1, 3, 1, 0))
    arr = DistributionArray.from_cumulants({(1, 1): r1, (2, 2): r2})
    R = assemble_matricial_r(arr, 2)
    assert R.component((1, 1)) == TruncatedSeries(
        [a + b for a, b in zip(r1, r2)]).truncate(2)
    assert R.component((2, 1)) == TruncatedSeries(r1).truncate(2)
    assert R.component((1, 2)) == TruncatedSeries(r2).truncate(2)
    assert R.component((2, 2)) == TruncatedSeries([0, 0, 0])


def test_assemble_zero():
    arr = DistributionArray.from_cumulants(
        {(1, 1): (F(0),) * 4, (2, 2): (F(0),) * 4})
    R = assemble_matricial_r(arr, 2)
    for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert R.component(qc) == TruncatedSeries([0, 0, 0])


def test_components_are_free_convolution_transforms():
    # each q component must be the R-transform of the free convolution of
    # its two cells, recovered here through the moment route
    rng = random.Random(31)
    arr = random_array(rng, SHAPES["square"], 7)
    R = assemble_matricial_r(arr, 5)
    pairs = {(1, 1): ((1, 1), (2, 2)), (2, 1): ((1, 1), (2, 1)),
             (1, 2): ((2, 2), (1, 2)), (2, 2): ((1, 2), (2, 1))}
    cmap = arr.cumulant_map()
    for qc, (c1, c2) in pairs.items():
        added = [a + b for a, b in zip(cmap[c1], cmap[c2])]
        back = r_from_moments(moments_from_cumulants(added, 6))
        assert R.component(qc) == back.truncate(5)


def test_invert_c_trivial_and_first_coefficient():
    arr = DistributionArray.from_cumulants(
        {(1, 1): (F(0),) * 4, (2, 2): (F(0),) * 4})
    B = invert_C(assemble_matricial_r(arr, 2))
    for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert B.component(qc) == TruncatedSeries([0, 0, 0])

    rng = random.Random(37)
    arr = random_array(rng, SHAPES["square"], 6)
    model = FockModel(arr, 4)
    B = invert_C(assemble_matricial_r(arr, 4))
    b = b_elements(B, 2)
    assert b[0].state_value("phi") == 1
    # first inverse coefficient reproduces minus the first moment
    assert b[1].state_value("phi") == \
        -model.state_moment("phi", [model.total()])


def test_invert_c_row_identical_components_match_scalar_route():
    from smfconv.series import invert_pole_series
    r1 = tuple(F(v) for v in (1, -1, 2, 0, 1))
    r2 = tuple(F(v) for v in (2, 0, -1, 1, 0))
    arr = DistributionArray.from_cumulants(
        {(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
    B = invert_C(assemble_matricial_r(arr, 3))
    scalar = invert_pole_series(
        TruncatedSeries([a + b for a, b in zip(r1, r2)]).truncate(3))
    for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert B.component(qc) == scalar


def test_product_is_identity_componentwise():
    rng = random.Random(41)
    for J in SHAPES.values():
        arr = random_array(rng, J, 7)
        R = assemble_matricial_r(arr, 5)
        B = invert_C(R)
        for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert pole_product_is_one(R.component(qc), B.component(qc))


def test_linearization_residuals_all_shapes():
    rng = random.Random(43)
    for J in SHAPES.values():
        arr = random_array(rng, J, 8)
        model = FockModel(arr, 8)
        B = invert_C(assemble_matricial_r(arr, 7))
        res = linearization_residuals(model, B, 8)
        assert res[0] == 1
        assert all(v == 0 for v in res[1:])


def test_per_cell_residuals_all_shapes():
    rng = random.Random(47)
    for J in SHAPES.values():
        arr = random_array(rng, J, 6)
        model = FockModel(arr, 6)
        B = invert_C(assemble_matricial_r(arr, 5))
        table = compressed_residuals(model, B, 6)
        assert set(table) == set(J)
        for res in table.values():
            assert res[0] == 1
            assert all(v == 0 for v in res[1:])


def test_compression_projections():
    from smfconv.units import UnitElement, compression
    q = {qc: q_projection(qc)
         for qc in ((1, 1), (1, 2), (2, 1), (2, 2))}
    off_vacuum = q[(1, 2)] + q[(2, 1)] + q[(2, 2)]
    assert compression(1, 1) == off_vacuum
    assert compression(2, 2) == off_vacuum
    assert compression(1, 2) == q[(2, 1)] + q[(2, 2)]
    assert compression(2, 1) == q[(1, 2)] + q[(2, 2)]
    for c in (compression(1, 1), compression(1, 2), compression(2, 1)):
        assert is_projection(c)


def test_reconstruct_round_trip():
    rng = random.Random(53)
    for J in SHAPES.values():
        arr = random_array(rng, J, 8)
        model = FockModel(arr, 7)
        rebuilt = reconstruct_unique(model, 6)
        assert rebuilt == assemble_matricial_r(arr, 6)


def test_reconstruct_round_trip_float_mode():
    # a float array reconstructs exactly, over its binary values: the
    # series are those of the exact array, Fraction for Fraction
    rng = random.Random(59)
    for J in SHAPES.values():
        exact = random_array(rng, J, 7)
        arr = DistributionArray.from_cumulants(
            {cell: tuple(float(v) for v in seq) for cell, seq in exact.cells},
            mode="float")
        rebuilt = reconstruct_unique(FockModel(arr, 6), 5)
        assert rebuilt == assemble_matricial_r(arr, 5)
        assert rebuilt == assemble_matricial_r(exact, 5)
        want = reconstruct_unique(FockModel(exact, 6), 5)
        for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
            coeffs = rebuilt.component(qc).coeffs
            assert coeffs == want.component(qc).coeffs
            assert all(type(c) is F for c in coeffs)


def test_residual_tables_match_composition_oracle():
    # with a B that is not the inverse of C the sums are far from 1, 0, ...;
    # the float arrays hold thirds, which binary64 rounds, and their
    # residuals are the exact sums over those binary values rounded once
    for mode, rng in (("rational", random.Random(61)),
                      ("float", random.Random(62))):
        def close(got, want):
            if mode == "rational":
                return got == want
            return got == [float(w) for w in want]

        def draw(J):
            arr = random_array(rng, J, 6)
            if mode == "rational":
                return arr
            return DistributionArray.from_cumulants(
                {cell: tuple(float(v) / 3 for v in seq)
                 for cell, seq in arr.cells}, mode="float")

        for J in SHAPES.values():
            model = FockModel(draw(J), 6)
            B = invert_C(assemble_matricial_r(draw(J), 5))
            b_ops = b_elements(B, 6)
            assert close(linearization_residuals(model, B, 6), [
                composition_sum(model, b_ops, model.total(), "phi", m)
                for m in range(1, 7)])
            for cell, res in compressed_residuals(model, B, 6).items():
                state = "phi1" if cell[0] == 1 else "phi2"
                mid = model.compressed_total(cell)
                assert close(res, [
                    composition_sum(model, b_ops, mid, state, m)
                    for m in range(1, 7)])


def test_tables_apply_the_middle_operator_once_per_level():
    # a table summed to level m applies M m - 1 times, not once per
    # (parts, remainder) pair, and only to words that can still reach
    # the reference word
    rng = random.Random(71)
    arr = random_array(rng, SHAPES["square"], 8)
    model = FockModel(arr, 8)
    counters = []

    def counted(op):
        counters.append(CountingOp(op))
        return counters[-1]

    # built before the patch, so each compression holds the plain A
    total = model.total()
    compressed = {cell: model.compressed_total(cell) for cell in model.J}
    model.total = lambda: counted(total)
    model.compressed_total = lambda cell: counted(compressed[cell])
    B = invert_C(assemble_matricial_r(arr, 7))
    assert linearization_residuals(model, B, 8) == [1] + [0] * 7
    for res in compressed_residuals(model, B, 8).values():
        assert res == [1] + [0] * 7
    assert len(counters) == 5
    assert all(c.calls <= 7 for c in counters)
    # the first table reads the vacuum (no runs), the others a one-letter
    # conjugate-state word
    assert all(c.within_run_bound(8, ref_runs)
               for c, ref_runs in zip(counters, (0, 1, 1, 1, 1)))

    counters.clear()               # reconstruction to order 6 sums 8 levels
    assert reconstruct_unique(model, 6) == assemble_matricial_r(arr, 6)
    assert len(counters) == 3
    assert all(c.calls <= 7 for c in counters)
    assert all(c.within_run_bound(8, ref_runs)
               for c, ref_runs in zip(counters, (0, 1, 1)))

    R = assemble_matricial_r(arr, 7)
    table = ResolventTable([R.coefficient(j) for j in range(7)], total,
                           "phi", 8)
    assert table.sum(8) == 0
    for level in (9, 0, -1):
        with pytest.raises(ValueError, match="level %d is outside" % level):
            table.sum(level)


def test_tables_free_the_levels_no_coefficient_reaches():
    # with no coefficients a table holds only the level it applies M to;
    # fed one coefficient per level, as reconstruct_unique feeds it, it
    # keeps Y_2 and up, which the coefficients still to come reach
    rng = random.Random(73)
    arr = DistributionArray.from_cumulants(
        {cell: [F(rng.randint(1, 3)) for _ in range(8)]
         for cell in SHAPES["square"]})
    model = FockModel(arr, 8)
    R = assemble_matricial_r(arr, 7)
    assert all(any(R.coefficient(j).beta) for j in range(7))
    held = []

    class Watched:
        def apply(self, vec):
            held.append([k for k, y in enumerate(table.Y) if y is not None])
            return model.total().apply(vec)

    table = ResolventTable((), Watched(), "phi", 8)
    assert table.sums() == list(model.moments(7).coeffs)
    assert held == [[L] for L in range(1, 8)]

    held.clear()
    r_ops = []
    table = ResolventTable(r_ops, Watched(), "phi", 8)
    for m in range(7):
        assert table.sum(m + 2) == R.coefficient(m).component((1, 1))
        r_ops.append(R.coefficient(m))
    assert held == [[1]] + [list(range(2, L + 1)) for L in range(2, 8)]


def test_levels_apply_only_the_nonzero_transform_coefficients(monkeypatch):
    # R of the README Meixner array has two nonzero coefficients, the
    # summed means and variances, so a table level applies at most two
    # unit elements however deep it is; summed over the dense B
    # coefficients, level d applied d - 1
    arr = DistributionArray.from_laws(
        {(1, 1): NamedLaw.semicircle(1), (2, 2): NamedLaw.semicircle(1),
         (1, 2): NamedLaw.point_mass(F(1, 2)),
         (2, 1): NamedLaw.point_mass(F(1, 2))}, 12)
    R = assemble_matricial_r(arr, 11)
    assert sum(1 for j in range(12) if any(R.coefficient(j).beta)) == 2
    model = FockModel(arr, 12)
    units_between = [0]            # unit applications since the last M
    inside = [False]               # within M, whose projections don't count

    class Logged:
        def __init__(self, op):
            self.op = op

        def apply(self, vec):
            units_between.append(0)
            inside[0] = True
            try:
                return self.op.apply(vec)
            finally:
                inside[0] = False

    def logged_unit(self, vec, apply=UnitElement.apply):
        units_between[-1] += not inside[0]
        return apply(self, vec)

    total = model.total()
    compressed = {cell: model.compressed_total(cell) for cell in model.J}
    model.total = lambda: Logged(total)
    model.compressed_total = lambda cell: Logged(compressed[cell])
    monkeypatch.setattr(UnitElement, "apply", logged_unit)
    B = invert_C(R)
    assert linearization_residuals(model, B, 12) == [1] + [0] * 11
    for res in compressed_residuals(model, B, 12).values():
        assert res == [1] + [0] * 11
    assert reconstruct_unique(model, 10) == assemble_matricial_r(arr, 10)
    assert len(units_between) > 11 * 8
    assert max(units_between) <= 2


_VALUES = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3,
                                                max_denominator=97))


def _same(got, want):
    return type(got) is F and got == want


@settings(max_examples=30, deadline=None, database=None)
@given(shape=st.sampled_from(sorted(SHAPES)), depth=st.integers(2, 6),
       data=st.data())
def test_vectors_match_fraction_dict_reference(shape, depth, data):
    # the numerator-over-denominator vectors must read exactly what the
    # Fraction-dict operators give: state moments of random products,
    # moment sequences and every alternating sum, zero cumulants and
    # denominators up to 97 included; a float array and float
    # coefficients act through their binary values
    J = sorted(SHAPES[shape])
    cums = {cell: data.draw(st.lists(_VALUES, min_size=depth,
                                     max_size=depth)) for cell in J}
    state = data.draw(st.sampled_from(("phi", "phi1", "phi2")))
    heavy = depth - (state != "phi")
    plan = data.draw(st.lists(st.tuples(
        st.sampled_from(("a", "A", "PAP", "poly", "unit")),
        st.sampled_from(J), st.lists(_VALUES, min_size=1, max_size=4)),
        min_size=1, max_size=heavy + 2))
    plan = [step for k, step in enumerate(plan)
            if step[0] == "unit" or k < heavy]
    for mode in (RATIONAL, FLOAT):
        model = FockModel(DistributionArray.from_cumulants(cums, mode),
                          depth)
        ref = {key: DictOp(table)
               for key, table in eager_tables(model).items()}
        lib = {"A": model.total()}
        for cell in J:
            lib["a", cell] = model.toeplitz(cell)
            lib["PAP", cell] = model.compressed_total(cell)

        factors, dict_factors = [], []
        for kind, cell, values in plan:
            values = [F(as_scalar(v, mode)) for v in values]
            if kind == "unit":
                u = UnitElement(tuple((values * 4)[:4]))
                factors.append(u)
                dict_factors.append(DictUnit(u))
            elif kind == "poly":
                factors.append(model._poly_op(cell, values))
                dict_factors.append(DictPoly(
                    DictUnit(UnitElement.internal_unit(*cell)),
                    ref["a", cell], values))
            else:
                key = "A" if kind == "A" else (kind, cell)
                factors.append(lib[key])
                dict_factors.append(ref[key])
        assert _same(model.state_moment(state, factors),
                     dict_state_moment(state, dict_factors))
        for f, g in zip(factors, dict_factors):
            for st_ in ("phi", "phi1", "phi2"):
                assert _same(model.state_moment(st_, [f]),
                             dict_state_moment(st_, [g]))

        pairs = [("A", "phi", depth)] + [
            (("a", cell), model._cell_state(cell), depth - 1) for cell in J]
        for key, st_, order in pairs:
            table = ResolventTable((), lib[key], st_, order + 1)
            got = table.sums()
            want = dict_power_moments(ref[key], st_, order)
            assert all(_same(g, w) for g, w in zip(got, want))

        R = assemble_matricial_r(
            DistributionArray.from_cumulants(cums, mode), depth - 1)
        r_ops = [R.coefficient(j) for j in range(depth - 1)]
        dict_b = [DictUnit(b) for b in b_elements(invert_C(R), depth)]
        tables = [("A", "phi")] + [(("PAP", cell), "phi1" if cell[0] == 1
                                    else "phi2") for cell in J]
        for key, st_ in tables:
            table = ResolventTable(r_ops, lib[key], st_, depth)
            want = dict_alternating_sums(dict_b, ref[key], st_, depth)
            assert all(_same(table.sum(d), w)
                       for d, w in zip(range(1, depth + 1), want))


def test_reconstruct_matches_from_scratch_solve():
    rng = random.Random(67)
    for J in SHAPES.values():
        exact = random_array(rng, J, 7)
        model = FockModel(exact, 6)
        rebuilt = reconstruct_unique(model, 5)
        oracle = reconstruct_from_scratch(model, 5)
        for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert rebuilt.component(qc).coeffs == \
                oracle.component(qc).coeffs
        arr = DistributionArray.from_cumulants(
            {cell: tuple(float(v) for v in seq) for cell, seq in exact.cells},
            mode="float")
        model = FockModel(arr, 6)
        assert reconstruct_unique(model, 5) == \
            reconstruct_from_scratch(model, 5)


def test_grown_inverses_match_reinverting_loop():
    # reading R off the resolvent tables gives the B-side solve, with its
    # tails re-inverted at every step, exactly, for rational arrays and
    # for float arrays with denominators up to 9, which binary64 rounds
    rng = random.Random(73)
    for J in SHAPES.values():
        for mode, top in ((RATIONAL, 3), (FLOAT, 9)):
            cums = {cell: tuple(F(rng.randint(-top, top), rng.randint(1, top))
                                for _ in range(13)) for cell in J}
            model = FockModel(DistributionArray.from_cumulants(cums, mode),
                              13)
            for order in range(1, 13):
                got = reconstruct_unique(model, order).components
                want = reinverting_reconstruct(model, order).components
                for (qc, a), (qc2, b) in zip(got, want):
                    assert qc == qc2 and len(a.coeffs) == order + 1
                    assert repr(a) == repr(b)
                    assert a.coeffs == b.coeffs


def test_reconstruct_zero_array():
    arr = DistributionArray.from_cumulants(
        {(1, 1): (F(0),) * 5, (2, 2): (F(0),) * 5})
    model = FockModel(arr, 4)
    rebuilt = reconstruct_unique(model, 3)
    for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert rebuilt.component(qc) == TruncatedSeries([0] * 4)


def test_reconstruct_square_row_identical_is_scalar_sum():
    r1 = tuple(F(v) for v in (1, 2, 0, -1, 1, 0, 2))
    r2 = tuple(F(v) for v in (0, 1, 1, 0, -2, 1, 0))
    arr = DistributionArray.from_cumulants(
        {(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
    model = FockModel(arr, 6)
    rebuilt = reconstruct_unique(model, 5)
    added = TruncatedSeries([a + b for a, b in zip(r1, r2)]).truncate(5)
    for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert rebuilt.component(qc) == added


def test_reconstruct_requires_both_rows():
    arr = DistributionArray.from_cumulants({(1, 1): (F(1), F(1), F(0))})
    model = FockModel(arr, 3)
    with pytest.raises(ValueError):
        reconstruct_unique(model, 2)


def test_scalar_transform_is_another_solution_but_differs():
    # the scalar transform of the convolution also satisfies the vacuum
    # identity, yet its unit-valued lift differs from the assembled
    # transform on a non-row-identical array: the transform in the single
    # state is not unique
    arr = DistributionArray.from_laws(
        {(1, 1): NamedLaw.semicircle(1), (2, 2): NamedLaw.point_mass(1)},
        8)
    model = FockModel(arr, 8)
    scalar_r = r_from_moments(smf_moments(arr, 8)).truncate(7)
    lifted = scalar_r_as_unit_series(scalar_r)
    res = linearization_residuals(model, invert_C(lifted), 8)
    assert res[0] == 1 and all(v == 0 for v in res[1:])
    assembled = assemble_matricial_r(arr, 7)
    assert lifted != assembled


def test_depth_guards():
    arr = DistributionArray.from_cumulants(
        {(1, 1): (F(1),) * 6, (2, 2): (F(1),) * 6})
    model = FockModel(arr, 3)
    B = invert_C(assemble_matricial_r(arr, 5))
    with pytest.raises(ValueError):
        linearization_residuals(model, B, 5)
    with pytest.raises(ValueError):
        compressed_residuals(model, B, 5)
    with pytest.raises(ValueError):
        reconstruct_unique(model, 4)
    # a negative order is named as such, not as a series without c_0
    with pytest.raises(ValueError, match="order must be >= 0"):
        reconstruct_unique(model, -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        assemble_matricial_r(arr, -1)
    with pytest.raises(ValueError):
        check_residuals(model, assemble_matricial_r(arr, 4), 5, ("eq56",))
    with pytest.raises(ValueError):
        b_elements(B, 9)
    # B holds b_1..b_6: a deep enough model still cannot sum 7 levels
    deep = FockModel(arr, 7)
    with pytest.raises(ValueError):
        linearization_residuals(deep, B, 7)
    with pytest.raises(ValueError):
        compressed_residuals(deep, B, 7)
    # R holds r_0..r_2: no table reaches level 7
    with pytest.raises(ValueError, match=r"R holds r_0\.\.r_2"):
        check_residuals(deep, assemble_matricial_r(arr, 2), 7, ("eq56",))
    # checks are a collection of the three table checks, and m_max >= 1
    R = assemble_matricial_r(arr, 2)
    for checks in (("eq65",), ("axioms",), "eq56,eq611", "eq56"):
        with pytest.raises(ValueError, match="checks must be"):
            check_residuals(model, R, 3, checks)
    with pytest.raises(ValueError, match="m_max must be"):
        check_residuals(model, R, 0, ("eq56",))


def test_unit_series_validation():
    s = TruncatedSeries([1, 2])
    with pytest.raises(ValueError):
        UnitSeries((((1, 1), s), ((1, 2), s), ((2, 1), s)))


def test_matricial_imports_no_engine():
    assert module_imports(matricial).isdisjoint(
        {"analytic", "moments", "partitions"})


def _perturbed(R: UnitSeries, j: int, deltas: dict) -> UnitSeries:
    """R with deltas[qc] added to coefficient j of component qc."""
    comp = {}
    for qc in QCELLS:
        coeffs = list(R.component(qc).coeffs)
        coeffs[j] += deltas.get(qc, 0)
        comp[qc] = TruncatedSeries(coeffs)
    return UnitSeries.from_map(comp)


CHECKS = ("eq56", "eq611", "uniqueness")


def _reference_verdicts(model, ref, R, m_max):
    """The verdicts of the Fraction-dict oracles: the alternating sums of
    B = invert_C(R) over the eager column tables *ref*, each reported in
    the model's precision, and the reconstruction from moments."""
    def passed(res):
        return res[0] == 1 and not any(res[1:])

    b_ops = [DictUnit(b) for b in b_elements(invert_C(R), m_max)]

    def residuals(key, state):
        return reported(dict_alternating_sums(b_ops, ref[key], state, m_max),
                        model.mode)

    res = residuals("A", "phi")
    rows = {cell: residuals(("PAP", cell), "phi%d" % cell[0])
            for cell in sorted(model.J)}
    return {"eq56": (passed(res), res),
            "eq611": (all(map(passed, rows.values())), rows),
            "uniqueness": (reconstruct_unique(model, m_max - 1) == R, None)}


def test_check_residuals_match_the_separate_checks():
    # one set of tables gives the residuals of the oracles' B-side
    # alternating sums and the verdict of the reconstruction, on the
    # assembled R and on R with one coefficient perturbed: of q22, of the
    # last order, or any other; and on R with its last q21 and q22
    # coefficients moved together, which keeps R22 = R21 + R12 - R11, so
    # only level m_max + 1 sees it.  Each check requested alone reads the
    # same
    rng = random.Random(79)
    failed = set()
    for shape in sorted(SHAPES):
        for m_max in range(1, 8):
            for mode in (RATIONAL, FLOAT):
                exact = random_array(rng, SHAPES[shape], m_max + 1)
                arr = exact if mode == RATIONAL else \
                    DistributionArray.from_cumulants(
                        {cell: tuple(float(v) / 3 for v in seq)
                         for cell, seq in exact.cells}, mode)
                model = FockModel(arr, m_max)
                ref = {key: DictOp(table)
                       for key, table in eager_tables(model).items()}
                assembled = assemble_matricial_r(arr, m_max - 1)
                delta = F(rng.choice((-1, 1)), rng.randint(1, 5))
                last = m_max - 1
                runs = [(None, assembled), ("kept", _perturbed(
                    assembled, last, {(2, 1): delta, (2, 2): delta}))] + [
                    (qc, _perturbed(assembled, j, {qc: delta}))
                    for qc, j in (((2, 2), rng.randrange(m_max)),
                                  (rng.choice(QCELLS), last),
                                  (rng.choice(QCELLS), rng.randrange(m_max)))]
                for qc, R in runs:
                    got = check_residuals(model, R, m_max, CHECKS)
                    assert got == _reference_verdicts(model, ref, R, m_max)
                    for check in CHECKS:
                        assert check_residuals(model, R, m_max, (check,)) \
                            == {check: got[check]}
                        if not got[check][0]:
                            failed.add(check)
                    # the moments determine R: every perturbation fails
                    # uniqueness
                    assert all(ok for ok, _ in got.values()) == (qc is None)
                    assert got["uniqueness"][0] == (qc is None)
    assert failed == set(CHECKS)


SQUARE_ORDER6 = {"shape": "square", "order": 6, "engines": ["partition"],
                 "cells": {"1,1": ["1/2", 1, "1/3"], "1,2": [1, "1/2"],
                           "2,1": ["1/3", "2/3"], "2,2": [0, 1, "1/5"]}}


@pytest.mark.parametrize("checks, tables", [
    (["eq56", "eq611", "uniqueness"], 1 + 4), (["eq56"], 1),
    (["eq611"], 4), (["uniqueness"], 3)])
def test_the_checks_share_their_tables_and_invert_nothing(
        checks, tables, monkeypatch):
    # a job builds one vacuum table and one table per cell of J, and
    # reads R off its assembled coefficients without inverting it
    built, inverted = [], []
    init = ResolventTable.__init__
    invert = series.invert_pole_series

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_invert(reg):
        inverted.append(reg)
        return invert(reg)

    monkeypatch.setattr(fock.ResolventTable, "__init__", counted_init)
    for module in (series, matricial):
        monkeypatch.setattr(module, "invert_pole_series", counted_invert)
    config = cli.parse_config(dict(SQUARE_ORDER6, checks=checks))
    report, code = cli.run(config)
    assert code == 0 and all(c["pass"] for c in report["checks"].values())
    assert len(built) == tables
    assert len(inverted) == 0


def test_compressions_cache_no_columns_of_their_own():
    # each compression is the product P A P: once eq611 has run a table on
    # every cell's compression, A's operator is the only one the model
    # holds: no cell operator is built
    arr = random_array(random.Random(83), SHAPES["square"], 8)
    model = FockModel(arr, 8)
    R = assemble_matricial_r(arr, 7)
    assert check_residuals(model, R, 8, ("eq611",))["eq611"][0]
    assert list(model._ops.values()) == [model.total()]
    assert model.total().columns
