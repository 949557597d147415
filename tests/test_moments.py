import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smfconv.moments
from oracles import (enumerate_admissible, f_compose_moments,
                     forest_moments, label_and_admit, module_imports,
                     moments_from_cumulants, padded, partition_contribution,
                     reciprocal)
from smfconv import (DistributionArray, FLOAT, SHAPES, TruncatedSeries,
                     smf_moments)
from smfconv.partitions import NCPartition, enumerate_nc


def array_of(cums, order=None):
    arr = DistributionArray.from_cumulants(cums)
    return padded(arr, order) if order else arr


def test_semicircle_moments_are_catalan():
    m = moments_from_cumulants([0, 1], 8)
    assert [str(c) for c in m.coeffs] == \
        ["1", "0", "1", "0", "2", "0", "5", "0", "14"]


def test_point_mass_moments():
    b = F(7, 2)
    m = moments_from_cumulants([b], 5)
    assert list(m.coeffs) == [b ** n for n in range(6)]
    # only the all-singletons partition survives: verify by enumeration
    for n in range(1, 5):
        surviving = [p for p in enumerate_nc(n)
                     if all(len(blk) == 1 for blk in p.blocks)]
        assert len(surviving) == 1


def test_zero_cumulants_give_delta_zero():
    m = moments_from_cumulants([], 4)
    assert [str(c) for c in m.coeffs] == ["1", "0", "0", "0", "0"]


def test_lowest_convolution_moments():
    rng = random.Random(2)
    for _ in range(5):
        cums = {cell: tuple(F(rng.randint(-4, 4)) for _ in range(3))
                for cell in SHAPES["square"]}
        arr = array_of(cums)
        m = smf_moments(arr, 2)
        r = {cell: cums[cell] for cell in cums}
        m1 = r[(1, 1)][0] + r[(2, 2)][0]
        m2 = r[(1, 1)][1] + r[(2, 2)][1] + m1 * m1
        assert m.coeffs[1] == m1
        assert m.coeffs[2] == m2


def test_single_cell_degenerates_to_plain_moments():
    cums = (F(1), F(-2), F(3), F(0), F(1))
    arr = DistributionArray.from_cumulants({(1, 1): cums})
    assert smf_moments(arr, 5) == moments_from_cumulants(cums, 5)


def test_square_row_identical_matches_free_convolution():
    rng = random.Random(13)
    for _ in range(6):
        r1 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        r2 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        arr = array_of({(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
        added = [a + b for a, b in zip(r1, r2)]
        assert smf_moments(arr, 8) == moments_from_cumulants(added, 8)


def _boolean_oracle(m1, m2):
    """Self-energy additivity: (1 - 1/M)/w adds under the convolution."""
    n1 = reciprocal(m1)
    n2 = reciprocal(m2)
    nb = TruncatedSeries(
        [a + b - (1 if k == 0 else 0)
         for k, (a, b) in enumerate(zip(n1.coeffs, n2.coeffs))], m1.mode)
    return reciprocal(nb)


def test_diagonal_matches_boolean_oracle():
    rng = random.Random(17)
    for _ in range(6):
        r1 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        r2 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        arr = array_of({(1, 1): r1, (2, 2): r2})
        m1 = moments_from_cumulants(r1, 8)
        m2 = moments_from_cumulants(r2, 8)
        assert smf_moments(arr, 8) == _boolean_oracle(m1, m2)


def test_lower_triangular_matches_monotone_composition():
    rng = random.Random(19)
    for _ in range(6):
        r1 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        r2 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        arr = array_of({(1, 1): r1, (2, 1): r2, (2, 2): r2})
        m1 = moments_from_cumulants(r1, 8)
        m2 = moments_from_cumulants(r2, 8)
        assert smf_moments(arr, 8) == f_compose_moments(m1, m2)


FIXED_ARRAYS = [
    ({(1, 1): (1, 2), (1, 2): (-1, 1), (2, 1): (2, -1), (2, 2): (0, 1)},
     ["1", "1", "4", "12", "52", "202", "912"]),
    ({(1, 1): (1, 2), (2, 1): (2, -1), (2, 2): (2, -1)},
     ["1", "3", "10", "37", "150", "650", "2940"]),
    ({(1, 1): (1, 2), (2, 1): (2, -1)},
     ["1", "1", "3", "11", "43", "177", "763"]),
    ({(1, 1): (1, 2), (1, 2): (1, 2), (2, 1): (2, -1)},
     ["1", "1", "3", "11", "43", "175", "733"]),
]


@pytest.mark.parametrize("cums,expected", FIXED_ARRAYS)
def test_frozen_arrays(cums, expected):
    arr = array_of(cums, order=6)
    assert [str(c) for c in smf_moments(arr, 6).coeffs] == expected


def test_contribution_monochromatic_is_diagonal_product():
    arr = array_of({(1, 1): (F(2), F(3), F(5))})
    partition = NCPartition(3, ((1, 3), (2,)))
    colored = label_and_admit(partition, (1, 1), {(1, 1)})
    assert partition_contribution(colored, arr) == F(3) * F(2)


def test_contribution_sum_over_colorings_depth_two():
    # pair partition {{1,4},{2,3}}: summed over all colorings the value is
    # r11(r11 + r21) + r22(r22 + r12), all cumulants of order two
    rng = random.Random(23)
    partition = NCPartition(4, ((1, 4), (2, 3)))
    for _ in range(5):
        r = {cell: F(rng.randint(-9, 9), rng.randint(1, 4))
             for cell in SHAPES["square"]}
        arr = array_of({cell: (F(0), r[cell]) for cell in r})
        total = sum(partition_contribution(c, arr)
                    for c in enumerate_admissible(4, arr.J)
                    if c.partition == partition)
        want = (r[(1, 1)] * (r[(1, 1)] + r[(2, 1)])
                + r[(2, 2)] * (r[(2, 2)] + r[(1, 2)]))
        assert total == want


def test_smf_equals_literal_admissible_sum():
    rng = random.Random(29)
    for J in SHAPES.values():
        cums = {cell: tuple(F(rng.randint(-3, 3), rng.randint(1, 2))
                            for _ in range(5)) for cell in J}
        arr = array_of(cums)
        for n in range(1, 6):
            literal = sum((partition_contribution(c, arr)
                           for c in enumerate_admissible(n, arr.J)), F(0))
            assert smf_moments(arr, n).coeffs[n] == literal


def test_order_guard():
    arr = array_of({(1, 1): (F(1),)})
    with pytest.raises(ValueError):
        smf_moments(arr, 2)
    with pytest.raises(ValueError):
        smf_moments(arr, -1)
    assert smf_moments(arr, 0).coeffs == (1,)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_engine_equals_forest_oracle(shape):
    rng = random.Random(31)
    for n in (1, 4, 7, 9):
        cums = {cell: tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(n)) for cell in SHAPES[shape]}
        arr = array_of(cums)
        assert smf_moments(arr, n) == forest_moments(arr, n)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), order=st.integers(1, 7),
       data=st.data())
def test_engine_equals_forest_oracle_property(shape, order, data):
    cums = {cell: tuple(data.draw(st.lists(_RATIONALS, min_size=order,
                                           max_size=order)))
            for cell in SHAPES[shape]}
    arr = array_of(cums)
    assert smf_moments(arr, order) == forest_moments(arr, order)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_float_moments_are_correctly_rounded(shape):
    rng = random.Random(37)
    for _ in range(3):
        cums = {cell: tuple(rng.uniform(-2.5, 2.5) for _ in range(8))
                for cell in SHAPES[shape]}
        arr = DistributionArray.from_cumulants(cums, FLOAT)
        exact = forest_moments(array_of(
            {cell: tuple(F(v) for v in seq) for cell, seq in cums.items()}),
            8)
        got = smf_moments(arr, 8)
        assert got.mode == FLOAT
        assert list(got.coeffs) == [float(v) for v in exact.coeffs]


def test_float_moments_past_the_float_range_are_infinite():
    arr = DistributionArray.from_cumulants({(1, 1): (-1e308, 0.0, 0.0)},
                                           FLOAT)
    inf = float("inf")
    assert smf_moments(arr, 3).coeffs == (1.0, -1e308, inf, -inf)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_float_cumulants_rejected(bad):
    arr = DistributionArray.from_cumulants({(1, 1): (1.0, bad)}, FLOAT)
    with pytest.raises(ValueError, match="not finite"):
        smf_moments(arr, 2)


def test_engine_imports_no_other_engine():
    assert module_imports(smfconv.moments).isdisjoint(
        {"analytic", "fock", "partitions"})
