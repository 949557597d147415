import random
from fractions import Fraction as F

import pytest

from oracles import (composition_sum, moments_from_cumulants,
                     pole_product_is_one, reconstruct_from_scratch,
                     scalar_r_as_unit_series)
from smfconv import (DistributionArray, FockModel, NamedLaw, SHAPES,
                     TruncatedSeries, UnitSeries, assemble_matricial_r,
                     b_elements, compressed_residuals, invert_C,
                     linearization_residuals, r_from_moments,
                     reconstruct_unique, smf_moments)
from smfconv.cli import FLOAT_TOL


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
    from smfconv import invert_pole_series
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
    from smfconv import UnitElement, compression
    q = {qc: UnitElement.q_projection(qc)
         for qc in ((1, 1), (1, 2), (2, 1), (2, 2))}
    off_vacuum = q[(1, 2)] + q[(2, 1)] + q[(2, 2)]
    assert compression(1, 1) == off_vacuum
    assert compression(2, 2) == off_vacuum
    assert compression(1, 2) == q[(2, 1)] + q[(2, 2)]
    assert compression(2, 1) == q[(1, 2)] + q[(2, 2)]
    for c in (compression(1, 1), compression(1, 2), compression(2, 1)):
        assert c.is_projection()


def test_reconstruct_round_trip():
    rng = random.Random(53)
    for J in SHAPES.values():
        arr = random_array(rng, J, 8)
        model = FockModel(arr, 7)
        rebuilt = reconstruct_unique(model, 6)
        assert rebuilt == assemble_matricial_r(arr, 6)


def test_reconstruct_round_trip_float_mode():
    rng = random.Random(59)
    for J in SHAPES.values():
        exact = random_array(rng, J, 7)
        arr = DistributionArray.from_cumulants(
            {cell: tuple(float(v) for v in seq) for cell, seq in exact.cells},
            mode="float")
        rebuilt = reconstruct_unique(FockModel(arr, 6), 5)
        assert rebuilt.mode == "float"
        assert rebuilt.agrees(assemble_matricial_r(arr, 5), 1e-9)
        want = reconstruct_unique(FockModel(exact, 6), 5)
        for qc in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for a, b in zip(want.component(qc).coeffs,
                            rebuilt.component(qc).coeffs):
                assert abs(float(a) - b) <= 1e-9 * max(1.0, abs(float(a)))


def test_residual_tables_match_composition_oracle():
    # with a B that is not the inverse of C the sums are far from 1, 0, ...
    rng = random.Random(61)
    for J in SHAPES.values():
        arr = random_array(rng, J, 6)
        model = FockModel(arr, 6)
        wrong = random_array(rng, J, 6)
        B = invert_C(assemble_matricial_r(wrong, 5))
        b_ops = b_elements(B, 6)
        assert linearization_residuals(model, B, 6) == [
            composition_sum(model, b_ops, model.total(), "phi", m)
            for m in range(1, 7)]
        for cell, res in compressed_residuals(model, B, 6).items():
            state = "phi1" if cell[0] == 1 else "phi2"
            mid = model.compressed_total(cell)
            assert res == [composition_sum(model, b_ops, mid, state, m)
                           for m in range(1, 7)]


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
        assert reconstruct_unique(model, 5).agrees(
            reconstruct_from_scratch(model, 5), FLOAT_TOL)


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
    with pytest.raises(ValueError):
        b_elements(B, 9)


def test_unit_series_validation():
    s = TruncatedSeries([1, 2])
    with pytest.raises(ValueError):
        UnitSeries((((1, 1), s), ((1, 2), s), ((2, 1), s)))
