"""The partition and analytic engines sum over graded integers
(``DistributionArray.graded``).  Whatever the cumulant denominators, they
must agree exactly with the oracles, and no product in their inner loops
may go through ``Fraction``."""

import fractions
import random
import sys
from fractions import Fraction as F

import pytest

from oracles import cut_pass_fixed_point, forest_moments
from smfconv import (FLOAT, RATIONAL, SHAPES, DistributionArray,
                     master_cauchy, smf_moments)
from smfconv.arrays import ALL_CELLS
from smfconv.series import reported

TOP = 12
# the forest oracle sums one non-crossing partition at a time, so it runs
# to a lower order than the engines (order 12 takes about a minute)
FOREST_TOP = 6


def assert_engines_match_oracles(arr):
    """Both engines, at every order 1..TOP, equal the subordination series
    recomposed from scratch and, up to FOREST_TOP, the forest sum, all
    taken over the exact array and reported in the array's precision."""
    exact = arr.exact()
    want = reported(cut_pass_fixed_point(exact, TOP)[1].coeffs, arr.mode)
    forest = reported(forest_moments(exact, FOREST_TOP).coeffs, arr.mode)
    assert forest == want[:FOREST_TOP + 1]
    for order in range(1, TOP + 1):
        for engine in (smf_moments, master_cauchy):
            got = engine(arr, order)
            assert got.mode == arr.mode
            assert list(got.coeffs) == want[:order + 1], (engine, order)


def random_array(J, pick, mode, seed):
    rng = random.Random(seed)
    return DistributionArray.from_cumulants(
        {cell: [rng.choice(pick) for _ in range(TOP)] for cell in J}, mode)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_integral_arrays_grade_by_one(shape):
    arr = random_array(SHAPES[shape], [0, 1, -1, 2, -3], RATIONAL, 3)
    lam, ints = arr.graded()
    assert lam == 1
    for cell in ALL_CELLS:
        want = [int(arr.r(cell, k)) for k in range(1, TOP + 1)]
        assert ints[cell] == want
    assert_engines_match_oracles(arr)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_grades_the_cells_outside_j_to_zero(shape):
    J = SHAPES[shape]
    arr = random_array(J, [F(1, 2), F(-2, 3), F(3, 4), 0, 1], RATIONAL, 5)
    lam, ints = arr.graded()
    assert lam == 12
    assert sorted(ints) == sorted(ALL_CELLS)
    for cell in ALL_CELLS:
        assert ints[cell] == [arr.r(cell, k) * lam ** k
                              for k in range(1, TOP + 1)]
        if cell not in J:
            assert ints[cell] == [0] * TOP
    assert_engines_match_oracles(arr)


def test_large_prime_denominators():
    pick = [F(n, d) for n in (-2, 1, 5) for d in (97, 101, 7919)]
    arr = random_array(ALL_CELLS, pick, RATIONAL, 7)
    assert arr.graded()[0] == 97 * 101 * 7919
    assert_engines_match_oracles(arr)


@pytest.mark.parametrize("pick", [
    [0.0, -0.0],
    [5e-324, -5e-324, 0.0],
    [1e300, -1e300, 0.0],
    [0.0, -0.0, 5e-324, 1e300, 0.1, -1.5],
], ids=["zeros", "denormal", "huge", "mixed"])
def test_float_extremes(pick):
    arr = random_array(ALL_CELLS, pick, FLOAT, 11)
    assert arr.graded()[0] == max(F(v).denominator for v in pick)
    assert_engines_match_oracles(arr)


def fraction_constructions(fn):
    """Fractions constructed while fn runs, counted from the calls of
    their constructors in the fractions module."""
    names = ("__new__", "_from_coprime_ints")
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_name in names \
                and code.co_filename == fractions.__file__:
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("engine", [smf_moments, master_cauchy])
def test_no_fraction_per_product(engine, mode):
    # a Fraction per product would cost thousands at this order; the
    # engines build a few per output coefficient and per cumulant
    pick = ([F(1, 97), F(-2, 101), F(3, 7919), F(5, 2)] if mode == RATIONAL
            else [0.1, -1.7, 5e-324, 3.0])
    arr = random_array(ALL_CELLS, pick, mode, 13)
    assert fraction_constructions(lambda: engine(arr, TOP)) <= 20 * TOP
