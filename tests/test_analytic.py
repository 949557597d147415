import cmath
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

import smfconv.analytic
import smfconv.arrays
from oracles import (NEWTON_ORDER, binary_convolutions,
                     binary_fixed_point_rhs, compose, continued_cauchy,
                     cut_pass_fixed_point,
                     dict_keyed_cauchy, f_compose_moments,
                     four_unknown_cauchy, four_unknown_damped,
                     full_tail_newton, law_moments, meixner_density,
                     module_imports, moments_from_cumulants,
                     perfbench_workloads, reciprocal, shift,
                     solve_subordination, split_semicircle_cauchy)
from smfconv import (DistributionArray, FLOAT, FockModel, NamedLaw, SHAPES,
                     TruncatedSeries, cauchy_value, master_cauchy,
                     smf_moments, stieltjes_density)
from smfconv.analytic import CAUCHY_DAMPED_ITER, CAUCHY_MAX_ITER, \
    CAUCHY_TOL, _series_fixed_point, _solver, _tails, meixner_atoms, \
    meixner_cauchy, meixner_parameters

SEMI = NamedLaw.semicircle(1)


def random_array(rng, J, order=8):
    return DistributionArray.from_cumulants(
        {cell: tuple(F(rng.randint(-3, 3)) for _ in range(order))
         for cell in J})


def test_subordinate_family_square_row_identical():
    r1 = tuple(F(v) for v in (1, 2, -1, 0, 1, 0))
    r2 = tuple(F(v) for v in (0, 1, 2, 1, 0, -1))
    arr = DistributionArray.from_cumulants(
        {(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
    fam = solve_subordination(arr, 6)
    free = moments_from_cumulants([a + b for a, b in zip(r1, r2)], 6)
    for cell in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert fam[cell] == free


def test_subordinate_family_lower_triangular():
    r1 = tuple(F(v) for v in (1, -1, 2, 0, 1, 1))
    r2 = tuple(F(v) for v in (2, 1, 0, -1, 0, 2))
    arr = DistributionArray.from_cumulants(
        {(1, 1): r1, (2, 1): r2, (2, 2): r2})
    fam = solve_subordination(arr, 6)
    m2 = moments_from_cumulants(r2, 6)
    assert fam[(2, 2)] == m2
    mono = f_compose_moments(moments_from_cumulants(r1, 6), m2)
    assert fam[(1, 1)] == mono
    # the two off-diagonal members coincide by construction
    assert fam[(1, 2)] == fam[(2, 1)]


def test_subordinate_family_zero():
    arr = DistributionArray.from_cumulants(
        {(1, 1): (F(0),) * 4, (2, 2): (F(0),) * 4})
    fam = solve_subordination(arr, 4)
    for series in fam.values():
        assert [str(c) for c in series.coeffs] == ["1", "0", "0", "0", "0"]


# cell -> the q-class whose resolvent its subordinate transform is, as the
# linearization formula gives it: the class of the words the cell starts
READS = {(1, 1): (2, 1), (2, 2): (1, 2), (1, 2): (2, 2), (2, 1): (2, 2)}


@pytest.mark.parametrize("mode", ["rational", FLOAT])
def test_one_pass_matches_cut_pass_oracle(mode):
    # the series are exact over the array's binary values, and a float
    # job's moments are those values rounded once: a signed zero of
    # binary64 arithmetic, such as -(+0), never reaches them
    def reprs(series):
        return [repr(c) for c in series.coeffs]

    def resolvent(lam, coeffs):
        return [repr(F(c, lam ** t)) for t, c in enumerate(coeffs)]

    pick = [0, 0, 1, -1, F(1, 2), -2, 3]
    if mode == FLOAT:
        pick += [-0.0, 0.25, -1.5, 0.1]
    rng = random.Random(83)
    for J in SHAPES.values():
        for order in range(1, 13):
            arr = DistributionArray.from_cumulants(
                {cell: tuple(rng.choice(pick) for _ in range(order))
                 for cell in J}, mode=mode)
            want_family, want_master = cut_pass_fixed_point(arr.exact(),
                                                            order)
            lam, classes = _series_fixed_point(arr, order)
            assert sorted(classes) == sorted({(1, 1), *READS.values()})
            # both off-diagonal members are checked against class (2,2)
            assert sorted(want_family) == sorted(READS)
            for cell, series in want_family.items():
                assert resolvent(lam, classes[READS[cell]]) == reprs(series)
            assert resolvent(lam, classes[(1, 1)]) == reprs(want_master)
            master = master_cauchy(arr, order)
            assert master.mode == mode
            if mode == FLOAT:
                assert reprs(master) == [repr(float(c))
                                         for c in want_master.coeffs]
                assert all(math.copysign(1, c) > 0 for c in master.coeffs
                           if c == 0)
            else:
                assert reprs(master) == reprs(want_master)


def test_analytic_imports_no_other_engine():
    assert module_imports(smfconv.analytic).isdisjoint(
        {"moments", "fock", "partitions", "matricial", "units"})


def test_master_matches_partition_engine_all_shapes():
    rng = random.Random(61)
    for J in SHAPES.values():
        arr = random_array(rng, J)
        assert master_cauchy(arr, 8) == smf_moments(arr, 8)


def test_engines_agree_in_float_mode():
    rng = random.Random(79)
    for J in (SHAPES["square"], SHAPES["column"]):
        exact = random_array(rng, J, 6)
        arr = DistributionArray.from_cumulants(
            {cell: tuple(float(v) for v in seq)
             for cell, seq in exact.cells}, mode=FLOAT)
        mp = smf_moments(arr, 6)
        mf = FockModel(arr, 6).moments(6)
        ma = master_cauchy(arr, 6)
        # three exact engines, each rounded once: the same floats
        assert mp.coeffs == mf.coeffs == ma.coeffs
        want = smf_moments(exact, 6)
        assert list(mp.coeffs) == [float(a) for a in want.coeffs]


def test_master_single_cell():
    cums = (F(1), F(1), F(0), F(2), F(0))
    arr = DistributionArray.from_cumulants({(1, 1): cums})
    assert master_cauchy(arr, 5) == moments_from_cumulants(cums, 5)
    # order 0 is the one-term series; a negative order has no series
    assert master_cauchy(arr, 0).coeffs == (1,)
    with pytest.raises(ValueError):
        master_cauchy(arr, -1)


def test_free_kind_semicircle_sum():
    m = binary_convolutions(SEMI, SEMI, "free", 6)
    assert [str(c) for c in m.coeffs] == ["1", "0", "2", "0", "8", "0", "40"]


def test_free_kind_matches_cumulant_addition():
    rng = random.Random(67)
    for _ in range(4):
        c1 = [F(rng.randint(-3, 3)) for _ in range(8)]
        c2 = [F(rng.randint(-3, 3)) for _ in range(8)]
        m = binary_convolutions(NamedLaw.custom(c1), NamedLaw.custom(c2),
                                "free", 8)
        assert m == moments_from_cumulants(
            [a + b for a, b in zip(c1, c2)], 8)


def test_monotone_kind_point_mass_shifts():
    # delta_b monotonically convolved from the left only shifts: the
    # reciprocal transform composition gives F(z) = F2(z) - b
    b = F(3, 2)
    m = binary_convolutions(NamedLaw.point_mass(b), SEMI, "monotone", 6)
    shifted = f_compose_moments(
        moments_from_cumulants([b], 6),
        moments_from_cumulants([0, 1], 6))
    assert m == shifted
    arr = DistributionArray.from_cumulants(
        {(1, 1): (b,) + (F(0),) * 5,
         (2, 1): (F(0), F(1), F(0), F(0), F(0), F(0)),
         (2, 2): (F(0), F(1), F(0), F(0), F(0), F(0))})
    assert m == smf_moments(arr, 6)


def test_boolean_kind_identity_law():
    rng = random.Random(71)
    cums = [F(rng.randint(-2, 2)) for _ in range(7)]
    law = NamedLaw.custom(cums)
    m = binary_convolutions(law, NamedLaw.point_mass(0), "boolean", 7)
    assert m == moments_from_cumulants(cums, 7)


def test_s_free_and_orthogonal_fixed_points():
    # the defining series identities, with the inner transforms taken
    # from binary_convolutions itself
    rng = random.Random(73)
    for _ in range(3):
        c1 = [F(rng.randint(-2, 2)) for _ in range(9)]
        c2 = [F(rng.randint(-2, 2)) for _ in range(9)]
        law1, law2 = NamedLaw.custom(c1), NamedLaw.custom(c2)
        r1 = TruncatedSeries(c1[:9])

        sfree = binary_convolutions(law1, law2, "s_free", 8)
        free = binary_convolutions(law1, law2, "free", 8)
        den = TruncatedSeries.one(8) - shift(compose(
            r1.truncate(8), shift(free)))
        assert sfree == reciprocal(den)

        orth = binary_convolutions(law1, law2, "orthogonal", 8)
        mono = binary_convolutions(law1, law2, "monotone", 8)
        den = TruncatedSeries.one(8) - shift(compose(
            r1.truncate(8), shift(mono)))
        assert orth == reciprocal(den)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("kind", ["free", "monotone", "boolean", "s_free",
                                  "orthogonal"])
def test_binary_kinds_solve_their_closed_forms(kind, mode):
    rng = random.Random("%s/%s" % (kind, mode))
    for _ in range(3):
        laws = [NamedLaw.custom([F(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(rng.randint(1, 7))])
                for _ in range(2)]
        if mode == FLOAT:
            laws = [NamedLaw.custom([float(v) for v in law.params])
                    for law in laws]
        m = binary_convolutions(laws[0], laws[1], kind, 7, mode)
        rhs = binary_fixed_point_rhs(m, laws[0], laws[1], kind, 7, mode)
        assert m.agrees(rhs, 1e-10)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        binary_convolutions(SEMI, SEMI, "classical", 4)


def test_law_moments_named():
    assert [str(c) for c in law_moments(SEMI, 6).coeffs] == \
        ["1", "0", "1", "0", "2", "0", "5"]
    b = F(2, 3)
    pm = law_moments(NamedLaw.point_mass(b), 4)
    assert list(pm.coeffs) == [b ** n for n in range(5)]


MEIXNER = {(1, 1): NamedLaw.semicircle(1), (2, 2): NamedLaw.semicircle(1),
           (1, 2): NamedLaw.point_mass("1/2"),
           (2, 1): NamedLaw.point_mass("1/2")}


def meixner_array(mode="float", order=6):
    return DistributionArray.from_laws(MEIXNER, order, mode)


def meixner_variant(laws, mode="rational"):
    """The README Meixner array with the laws of some cells replaced."""
    return DistributionArray.from_laws({**MEIXNER, **laws}, 6, mode)


# custom float cells of the README array, padded with 0.0 and -0.0
SIGNED_ZERO_MEIXNER = {(1, 1): (0.0, 1.0, 0.0, -0.0),
                       (2, 2): (-0.0, 1.0, -0.0, 0.0),
                       (1, 2): (0.5, 0.0, -0.0, 0.0),
                       (2, 1): (0.5, -0.0, 0.0, -0.0)}
NEGATIVE_RATE = NamedLaw.semicircle("-1/4")

# (case, array, parameters): the README array in both modes and its
# near misses
MEIXNER_CASES = [
    ("readme", meixner_array("rational"), (1.0, 0.5)),
    ("float", meixner_array("float"), (1.0, 0.5)),
    ("order_1", meixner_array("rational", order=1), None),
    ("zero_rate", meixner_variant({(1, 1): NamedLaw.semicircle(0),
                                   (2, 2): NamedLaw.semicircle(0)}), None),
    ("negative_rate", meixner_variant({(1, 1): NEGATIVE_RATE,
                                       (2, 2): NEGATIVE_RATE}, FLOAT),
     (-0.25, 0.5)),
    ("b12_ne_b21", meixner_variant({(2, 1): NamedLaw.point_mass("1/3")}),
     None),
    ("a11_ne_a22", meixner_variant({(2, 2): NamedLaw.semicircle(2)}), None),
    ("extra_r3", meixner_variant({(1, 1): NamedLaw.custom((0, 1, "1/10"))}),
     None),
    ("missing_cell", DistributionArray.from_laws(
        {cell: law for cell, law in MEIXNER.items() if cell != (2, 1)}, 6),
     None),
    ("one_cell", DistributionArray.from_laws({(1, 1): SEMI}, 6), None),
    ("signed_zero_tails",
     DistributionArray.from_cumulants(SIGNED_ZERO_MEIXNER, FLOAT),
     (1.0, 0.5)),
    ("signed_zero_tails_extra_r3", DistributionArray.from_cumulants(
        {**SIGNED_ZERO_MEIXNER, (1, 1): (0.0, 1.0, 0.1, -0.0)}, FLOAT), None),
    ("unsorted", DistributionArray(tuple(reversed(meixner_array().cells)),
                                   FLOAT), (1.0, 0.5)),
    ("unsorted_b12_ne_b21", DistributionArray(tuple(reversed(meixner_variant(
        {(1, 2): NamedLaw.point_mass(1)}).cells))), None),
]


def test_meixner_pattern_recognized():
    # one comparison with the Meixner array of the array's own r11(2) and
    # r12(1); the answer is floats in either mode, and the order in which
    # the cells are given does not matter
    for case, arr, want in MEIXNER_CASES:
        got = meixner_parameters(arr)
        assert got == want, case
        if want is not None:
            assert all(type(v) is float for v in got), case
        in_order = DistributionArray(tuple(sorted(arr.cells)), arr.mode)
        assert meixner_parameters(in_order) == got, case


@pytest.mark.parametrize("a,b", [(-1.0, 0.5), (-0.0625, 0.5), (-0.25, 1.0),
                                 (-2.5e-7, 0.0)])
def test_no_atom_without_a_simple_real_pole(a, b):
    # b^2 + 4a < 0 leaves the denominator 4a + 2bz - z^2 no real zero and
    # b^2 + 4a = 0 a double one: the closed form carries no atom
    assert meixner_atoms(a, b) == []


def test_closed_form_mass_and_moments():
    a, b = 1.0, 0.5
    atoms = meixner_atoms(a, b)
    assert len(atoms) == 1
    pos, weight = atoms[0]
    assert pos == pytest.approx(b - math.sqrt(b * b + 4 * a))
    assert weight == pytest.approx(b / math.sqrt(b * b + 4 * a))
    mass = quad(lambda x: meixner_density(a, b, x), b - 2, b + 2,
                limit=200)[0] + weight
    assert mass == pytest.approx(1.0, abs=1e-9)
    want = smf_moments(meixner_array("rational"), 6)
    for k in range(1, 7):
        mk = quad(lambda x: x ** k * meixner_density(a, b, x), b - 2, b + 2,
                  limit=200)[0] + weight * pos ** k
        assert mk == pytest.approx(float(want.coeffs[k]), abs=1e-8)


def test_zero_shift_case_is_arcsine():
    # with no off-diagonal shift the closed form reduces to the arcsine
    # law on [-2, 2]: symmetric, atom-free, fourth moment 6
    assert meixner_atoms(1.0, 0.0) == []
    assert meixner_density(1.0, 0.0, 0.0) == pytest.approx(1 / (2 * math.pi))
    assert meixner_density(1.0, 0.0, 2.1) == 0.0
    for x in (0.3, 0.9, 1.5):
        assert meixner_density(1.0, 0.0, x) == \
            pytest.approx(meixner_density(1.0, 0.0, -x))
    m4 = quad(lambda x: x ** 4 * meixner_density(1.0, 0.0, x), -2, 2,
              limit=200)[0]
    assert m4 == pytest.approx(6.0, abs=1e-8)


def test_density_support_endpoints():
    a, b = 1.0, 0.5
    lo, hi = b - 2 * math.sqrt(a), b + 2 * math.sqrt(a)
    assert meixner_density(a, b, lo - 1e-9) == 0.0
    assert meixner_density(a, b, hi + 1e-9) == 0.0
    assert meixner_density(a, b, lo + 1e-3) > 0.0
    assert meixner_density(a, b, hi - 1e-3) > 0.0


def test_fixed_point_evaluation_matches_closed_form():
    arr = meixner_array()
    for z in (complex(0.4, 0.3), complex(-1.2, 0.05), complex(2.5, 0.01)):
        assert abs(cauchy_value(arr, z) - meixner_cauchy(1.0, 0.5, z)) < 1e-9


# density_f10 array (a11, a22, b12, b21): semicircle diagonals, point-mass
# off-diagonals, so the subordination fixed point has a closed form
SPLIT_ARRAY = (0.983, 1.348, 0.182, -0.214)


def split_array(a11, a22, b12, b21):
    return DistributionArray.from_laws(
        {(1, 1): NamedLaw.semicircle(repr(a11)),
         (2, 2): NamedLaw.semicircle(repr(a22)),
         (1, 2): NamedLaw.point_mass(repr(b12)),
         (2, 1): NamedLaw.point_mass(repr(b21))}, 10, FLOAT)


def test_fixed_point_matches_split_closed_form_where_it_converges():
    arr = split_array(*SPLIT_ARRAY)
    for x in (-3.0, -1.0, 0.0, 1.0, 2.0):
        z = complex(x, 1e-3)
        assert abs(cauchy_value(arr, z)
                   - split_semicircle_cauchy(*SPLIT_ARRAY, z)) < 1e-9


def test_fixed_point_matches_split_closed_form_near_the_edge():
    # the damped map does not converge here within CAUCHY_MAX_ITER steps;
    # Newton finishes these points
    arr = split_array(*SPLIT_ARRAY)
    for x in (-2.1268717817679397, -2.1357708268799396, -2.189165097551938):
        z = complex(x, 1e-3)
        assert abs(cauchy_value(arr, z)
                   - split_semicircle_cauchy(*SPLIT_ARRAY, z)) < 1e-9


def test_three_unknowns_match_the_four_unknown_iteration():
    # with point-mass off-diagonals K12 and K21 are constants, so the two
    # off-diagonal unknowns of the reference iterate the same resolvent
    # and the one class (2,2) replaces them bit for bit while the damped
    # map runs; the reference polishes on full-length tails, which
    # gives the same roots, so every point is the same float
    workloads = perfbench_workloads()
    rng = random.Random(29)
    for a11, a22, b12, b21 in workloads.DENSITY_ARRAYS:
        arr = split_array(a11, a22, b12, b21)
        edge = 2 * math.sqrt(max(a11, a22)) + abs(b12) + abs(b21)
        for _ in range(4):
            z = complex(rng.uniform(-edge, edge), workloads.DENSITY_EPS)
            want, converged, _ = four_unknown_cauchy(arr, z)
            got = cauchy_value(arr, z)
            assert converged and repr(got) == repr(want)
    # off-diagonal R-transforms that depend on g: the two unknowns of the
    # reference round z - K12 - K21 in two orders, so the values agree
    # to rounding wherever the reference converged
    compared = 0
    for _ in range(3):
        arr = DistributionArray.from_cumulants(
            {cell: tuple(rng.uniform(-0.5, 0.5) for _ in range(4))
             for cell in SHAPES["square"]}, mode=FLOAT)
        for _ in range(12):
            z = complex(rng.uniform(-3, 3), rng.choice((1e-3, 0.1, 1.0)))
            want, converged, _ = four_unknown_cauchy(arr, z)
            if converged:
                compared += 1
                assert abs(cauchy_value(arr, z) - want) \
                    <= 1e-12 * max(1.0, abs(want))
    assert compared >= 24


def test_every_density_array_converges_to_the_split_closed_form():
    # a sixteenth of each density_f10 grid, at an offset that moves with
    # the array: 3,002 points, every one polished by Newton.  The damped
    # map's stop rule alone left points up to 7.5e-13 from the closed form
    workloads = perfbench_workloads()
    points = workloads.DENSITY_POINTS
    for index, params in enumerate(workloads.DENSITY_ARRAYS):
        solve = _solver(_tails(split_array(*params)))
        a11, a22, b12, b21 = params
        half = 4.0 * (a11 + a22) ** 0.5 + 2.0 * (abs(b12) + abs(b21)) + 2.0
        for k in range(index % 16, points, 16):
            z = complex(-half + 2 * half * k / (points - 1),
                        workloads.DENSITY_EPS)
            got, converged = solve(z)
            assert converged
            assert abs(got - split_semicircle_cauchy(*params, z)) \
                <= 2e-14 * max(1.0, abs(got))


def test_newton_finds_the_attracting_root_of_custom_arrays():
    # arrays that are no distribution: the maps of their classes need not
    # keep the lower half-plane, and Newton can reach a repelling root,
    # which the damped map never converges to.  The reference is the
    # damped map run to 20,000 steps; where it converges slowly its own
    # error nears 1e-12, so the bound is 1e-9.  Without the attracting-
    # root check, the first array at z = -0.6818 + 0.1i is off by 0.96
    rng = random.Random(8)
    compared = finished = 0
    for _ in range(8):
        arr = DistributionArray.from_cumulants(
            {cell: tuple(rng.uniform(-0.5, 0.5) for _ in range(4))
             for cell in SHAPES["square"]}, mode=FLOAT)
        for _ in range(12):
            z = complex(rng.uniform(-3, 3), rng.choice((1e-3, 0.1, 1.0)))
            got, settled = _solver(_tails(arr))(z)
            want, converged, steps = four_unknown_damped(arr, z, 20_000)
            if converged and settled:
                compared += 1
                finished += steps > CAUCHY_DAMPED_ITER
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    assert compared >= 80 and finished >= 4


def test_newton_accepts_roots_where_the_damped_map_attracts():
    # the README array with r(3) = 0.1 on cell (1,1): at these points the
    # root of class (2,1) has |K'(u) u^2| = 1.001 and 1.002, so it repels
    # the undamped map, but |1 + K'(u) u^2| < 2, so it attracts the damped
    # one.  The damped map alone needs more than CAUCHY_MAX_ITER steps;
    # run long it settles within 1e-12 of Newton's value
    arr = DistributionArray.from_cumulants(
        {**SIGNED_ZERO_MEIXNER, (1, 1): (0.0, 1.0, 0.1, -0.0)}, FLOAT)
    for x in (-1.30, -1.28):
        z = complex(x, 1e-3)
        got, settled = _solver(_tails(arr))(z)
        want, converged, steps = four_unknown_damped(arr, z, 20_000)
        assert settled and converged and steps > CAUCHY_MAX_ITER
        assert abs(got - want) <= 1e-12


def root_selection_sample(seed):
    """(array, points) of the root-selection guard: 40 custom square float
    arrays of order 2 to 6, each cell kept with probability 0.8 and its
    cumulants uniform in [-1, 1], one eps per array from 1e-8, 1e-5,
    1e-3, 0.1 and 1, and 25 points per array with x uniform in [-3, 3]."""
    rng = random.Random(seed)
    for _ in range(40):
        order = rng.randint(2, 6)
        cells = {}
        while not cells:
            cells = {cell: tuple(rng.uniform(-1, 1) for _ in range(order))
                     for cell in sorted(SHAPES["square"])
                     if rng.random() < 0.8}
        eps = rng.choice((1e-8, 1e-5, 1e-3, 0.1, 1.0))
        yield (DistributionArray.from_cumulants(cells, mode=FLOAT),
               [complex(rng.uniform(-3, 3), eps) for _ in range(25)])


def test_the_early_handoff_keeps_every_root_and_flag():
    # arrays that are no distribution, where Newton from an early start
    # can reach another root than from a late one.  Against the phases
    # with the CAUCHY_TOL stop alone (damped to CAUCHY_TOL, one polish,
    # then the fallback), every point converges or not as there, and
    # every converged value lies within 1e-12.  A handoff once the steps'
    # total exceeds half the one before flips 4 flags and moves 12 values
    # here (7 flags where a refused point is damped on without a second
    # polish), by 0.078 to 5.1
    compared = 0
    for arr, zs in root_selection_sample(35):
        solve = _solver(_tails(arr))
        for z in zs:
            got, converged = solve(z)
            want, today = dict_keyed_cauchy(arr, z, CAUCHY_TOL)
            assert converged == today
            if converged:
                compared += 1
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert compared >= 900


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Newton's acceptance test admits a root where the damped map "
    "attracts that is not the damped map's limit"))
def test_polish_accepts_only_the_damped_limit():
    # two points drawn by the guard's generator at seeds 36 and 37, where
    # the damped map alone converges, in 246 and 283 steps, and the
    # polish accepts another root: G = 0.4949 - 0.1771i where the damped
    # map gives 0.6860 - 0.5906i, and
    # 0.429228706814909 - 0.0013211258198588822i where it gives
    # 0.4292287068535106 + 0.0013211214111959915i.  The solver with the
    # CAUCHY_TOL stop alone returns the same roots there
    missed = []
    for seed, z, steps in ((36, complex(0.2443839390558047, 1e-5), 246),
                           (37, complex(1.4801430805010165, 1e-8), 283)):
        arr = next(arr for arr, zs in root_selection_sample(seed)
                   if z in zs)
        want, converged, taken = four_unknown_damped(arr, z, 20_000)
        if not (converged and taken == steps):
            pytest.fail("the damped map no longer converges at %r in %d "
                        "steps" % (z, steps))
        if abs(cauchy_value(arr, z) - want) > 1e-9 * max(1.0, abs(want)):
            missed.append(seed)
    assert missed == []


def test_the_continued_branch_is_the_split_closed_form():
    # every 40th point of each density_f10 grid, 1,224 points, within the
    # bound of test_every_density_array_converges_to_the_split_closed_form
    workloads = perfbench_workloads()
    points = workloads.DENSITY_POINTS
    for params in workloads.DENSITY_ARRAYS:
        arr = split_array(*params)
        a11, a22, b12, b21 = params
        half = 4.0 * (a11 + a22) ** 0.5 + 2.0 * (abs(b12) + abs(b21)) + 2.0
        for k in range(0, points, 40):
            z = complex(-half + 2 * half * k / (points - 1),
                        workloads.DENSITY_EPS)
            got = continued_cauchy(arr, z)
            assert abs(got - split_semicircle_cauchy(*params, z)) \
                <= 2e-14 * max(1.0, abs(got))


def test_the_continued_branch_is_the_meixner_closed_form():
    # the README array, atoms and support edges inside the window
    arr = meixner_array()
    for k in range(81):
        z = complex(-4 + k / 10, 1e-3)
        want = meixner_cauchy(1.0, 0.5, z)
        assert abs(continued_cauchy(arr, z) - want) \
            <= 1e-13 * max(1.0, abs(want))


def test_the_continued_branch_is_the_solver_root_the_damped_map_misses():
    # the two points of test_polish_accepts_only_the_damped_limit: the
    # solver's value, not the damped map's limit, is the branch continued
    # from x + 64i
    for seed, z in ((36, complex(0.2443839390558047, 1e-5)),
                    (37, complex(1.4801430805010165, 1e-8))):
        arr = next(arr for arr, zs in root_selection_sample(seed)
                   if z in zs)
        want = cauchy_value(arr, z)
        assert abs(continued_cauchy(arr, z) - want) <= 1e-12 * abs(want)


def refuse(poly, z, c, u):
    # _root finding no root that it accepts
    raise ArithmeticError


def refuse_the_last_class(monkeypatch):
    # _root refusing class (1,2), the third of a point, after accepting
    # the roots of (2,2) and (2,1)
    root, seen = smfconv.analytic._root, []

    def last_refused(poly, z, c, u):
        seen.append(z)
        if seen[-3:] == [z] * 3:
            raise ArithmeticError
        return root(poly, z, c, u)

    monkeypatch.setattr(smfconv.analytic, "_root", last_refused)


def test_refused_newton_keeps_the_damped_value(monkeypatch):
    # Newton polishes every point; where it refuses a point handed over
    # early, the damped map resumes to CAUCHY_TOL and Newton polishes
    # again, and where it still refuses, a point the damped map settled
    # within CAUCHY_DAMPED_ITER steps keeps its damped value and counts
    # as converged, and a point still moving then is damped on to
    # CAUCHY_MAX_ITER steps.  So a refused point takes the damped map's
    # path without the handoff.  A refusal at the last class discards the
    # roots accepted before it.  The split array's off-diagonal tails are
    # constants, so the damped reference gives the same floats
    arr = split_array(*SPLIT_ARRAY)
    for refusal in (lambda m: m.setattr(smfconv.analytic, "_root", refuse),
                    refuse_the_last_class):
        refusal(monkeypatch)
        solve = _solver(_tails(arr))
        phases = []
        for k in range(121):
            z = complex(-3.0 + 0.05 * k, 1e-3)
            want, converged, steps = four_unknown_damped(arr, z,
                                                         CAUCHY_MAX_ITER)
            assert repr(solve(z)) == repr((want, converged))
            phases.append((steps <= CAUCHY_DAMPED_ITER, converged))
        assert phases.count((True, True)) >= 20
        assert phases.count((False, True)) >= 80
        assert phases.count((False, False)) >= 5
        monkeypatch.undo()


# arrays whose float tails start with zeros, or with a denormal: absent
# cells (all-zero tails), top cumulants 0.0 and -0.0, and 5e-324 on top.
# The off-diagonal tails of the square arrays are constants, so the
# reference's two off-diagonal unknowns iterate the same resolvent
TRIMMED_TAIL_ARRAYS = [
    {(1, 1): (0.2, 1.0, 0.1, 0.05), (2, 1): (0.3, 0.2, -0.1, 0.0),
     (2, 2): (-0.1, 0.7, 0.0, -0.0)},
    {(1, 1): (0.1, 0.9, -0.2, 0.1), (2, 1): (-0.2, 0.4, 0.1, -0.0)},
    {(1, 1): (0.2, 1.0, 0.1, 0.0), (2, 2): (-0.1, 0.8, -0.05, -0.0),
     (1, 2): (0.3, 0.0, 0.0, -0.0), (2, 1): (-0.25, -0.0, 0.0, 0.0)},
    {(1, 1): (0.1, 1.0, 0.0, 5e-324), (2, 2): (0.0, 0.6, 0.2, 5e-324),
     (1, 2): (0.2, 0.0, 0.0, 0.0), (2, 1): (-0.3, 0.0, 0.0, 5e-324)},
]


@pytest.mark.parametrize("cumulants", TRIMMED_TAIL_ARRAYS)
def test_trimmed_tails_leave_the_damped_map_bit_identical(cumulants):
    # the damped map reads each tail from its highest nonzero cumulant;
    # the reference reads the full tails, and the steps it has more are
    # 0.0 * u + 0.0, so wherever it converges, in the damped map or by
    # the Newton polish on full tails, the two values are the same
    # floats, down to the sign of zero
    arr = DistributionArray.from_cumulants(cumulants, mode=FLOAT)
    compared = 0
    for eps in (1e-3, 0.1, 1.0):
        for k in range(25):
            z = complex(-3.0 + 0.25 * k, eps)
            want, converged, _ = four_unknown_cauchy(arr, z)
            if converged:
                compared += 1
                got = cauchy_value(arr, z)
                assert got == want and repr(got) == repr(want)
    assert compared >= 30


NEWTON_GUARD_ARRAYS = [
    pytest.param(index, id="density_%d" % index)
    for index in (0, 8, 16)] + [
    pytest.param(cumulants, id=name) for name, cumulants in zip(
        ("lower_triangular", "column", "signed_zero_top", "denormal_top"),
        TRIMMED_TAIL_ARRAYS)]


@pytest.mark.parametrize("case", NEWTON_GUARD_ARRAYS)
def test_newton_on_trimmed_tails_matches_full_tails(case, monkeypatch):
    # Newton reads the tails of a class's own cells summed aligned at
    # their constant terms, the shorter one padded with leading 0.0; the
    # reference sums full-length tails column by column.  At every point,
    # from the slots the damped map hands to Newton, the roots are the
    # same floats, and a class refuses where the reference's refuses
    if isinstance(case, int):
        arr = split_array(*perfbench_workloads().DENSITY_ARRAYS[case])
    else:
        arr = DistributionArray.from_cumulants(case, mode=FLOAT)
    root = smfconv.analytic._root
    calls = []

    def recorded(poly, z, c, u):
        calls[-1].append([u, None])     # the start, then the root
        calls[-1][-1][1] = root(poly, z, c, u)
        return calls[-1][-1][1]

    monkeypatch.setattr(smfconv.analytic, "_root", recorded)
    solve = _solver(_tails(arr))
    finished = 0
    for k in range(121):
        z = complex(-3.0 + 0.05 * k, 1e-3)
        calls.append([])
        solve(z)
        # the classes in the reference's order, up to the one refused
        handed = dict(zip(NEWTON_ORDER, calls[-1]))
        got = {q: u for q, (_, u) in handed.items()}
        got = None if None in got.values() else got
        assert repr(got) == repr(full_tail_newton(
            arr, z, {q: g for q, (g, _) in handed.items()}))
        finished += got is not None
    assert finished >= 7


# a square array whose four tails are distinct and all depend on g, r(2)
# and r(3) nonzero on both off-diagonal cells: without it, a damped map
# that reads K12 at the slot of class (1,2), or forms G_(2,2) as
# 1/(z - K21 - K12), passes the bit-identity test below
WIRING_ARRAY = {(1, 1): (0.1, 0.9, 0.2, 0.05), (2, 2): (-0.2, 0.7, -0.1, 0.03),
                (1, 2): (0.3, 0.25, 0.1, 0.02),
                (2, 1): (-0.25, 0.15, -0.08, -0.01)}


def slotted_map_cases():
    """(array, points) on which the straight-line damped map is compared
    with the dict-keyed one: the whole density_f10 grid of every 8th
    density array, the trimmed-tail arrays and the wiring array on three
    eps, the imaginary-axis array of the config fuzz at x = 0, the
    subnormal-eps point whose damped map starts from 1/z = -inf i and
    yields NaN, and an array whose cell (1,1) overflows near 0, so that
    only the slot of class (2,1) turns NaN: a NaN in one slot must not
    let the map stop on the others."""
    workloads = perfbench_workloads()
    n = workloads.DENSITY_POINTS
    for a11, a22, b12, b21 in workloads.DENSITY_ARRAYS[::8]:
        half = 4.0 * (a11 + a22) ** 0.5 + 2.0 * (abs(b12) + abs(b21)) + 2.0
        yield split_array(a11, a22, b12, b21), [
            complex(-half + 2 * half * k / (n - 1), workloads.DENSITY_EPS)
            for k in range(n)]
    for cumulants in TRIMMED_TAIL_ARRAYS + [WIRING_ARRAY]:
        yield DistributionArray.from_cumulants(cumulants, mode=FLOAT), [
            complex(-3.0 + 0.25 * k, eps)
            for eps in (1e-3, 0.1, 1.0) for k in range(25)]
    yield DistributionArray.from_cumulants(
        {(1, 1): (0.0, 0.0), (1, 2): (0.0, -1.0)}, mode=FLOAT), [1e-3j]
    yield DistributionArray.from_laws(
        {(1, 1): NamedLaw.semicircle("0.9"), (2, 2): NamedLaw.semicircle("1.1"),
         (1, 2): NamedLaw.point_mass("0.2"),
         (2, 1): NamedLaw.point_mass("-0.3")}, 4, FLOAT), [5e-324j]
    yield split_array(1e308, 1.0, 0.2, -0.3), [
        complex(x, 0.1) for x in (-0.2, 0.1, 0.2, 1.0, 3.0)]


def test_straight_line_loop_leaves_the_damped_map_bit_identical(
        monkeypatch):
    # the damped map steps three class slots as local variables, built
    # once per grid, and forms G_(1,1) once; the reference steps over
    # dicts and forms it at every step.
    # Every (G, converged) is the same floats, NaN included, in each of
    # the phases: polished by Newton after the handoff at NEWTON_REACH,
    # and where Newton refuses, damped on to CAUCHY_MAX_ITER steps,
    # settling there or not; two points are refused after an early
    # handoff and resume to CAUCHY_TOL first.  None of these points
    # settles within CAUCHY_DAMPED_ITER steps and is refused;
    # test_refused_newton_keeps_the_damped_value covers that phase
    root = smfconv.analytic._root
    finishes = []                   # per point, the classes Newton solved

    def recorded(poly, z, c, u):
        u = root(poly, z, c, u)
        finishes[-1] += 1
        return u

    monkeypatch.setattr(smfconv.analytic, "_root", recorded)
    points = nan = damped_on = 0
    for arr, zs in slotted_map_cases():
        solve = _solver(_tails(arr))
        for z in zs:
            finishes.append(0)
            got = solve(z)
            assert repr(got) == repr(dict_keyed_cauchy(arr, z))
            points += 1
            nan += cmath.isnan(got[0])
            damped_on += finishes[-1] < 3 and got[1]
    polished = finishes.count(3)
    assert len(finishes) == points and polished > 6000
    assert damped_on >= 5 and points - polished - damped_on >= 5
    assert nan == 4


def test_a_nan_in_a_later_slot_is_not_converged():
    # cell (2,2) overflows near 0, so the slot of class (1,2), the second,
    # is NaN at every step while the others settle; max skips a NaN after
    # the first slot, and the damped map must still not stop on it
    unconverged = []
    rows, _ = stieltjes_density(split_array(1.0, 1e308, 0.2, -0.3), [0.01],
                                1e-3, unconverged)
    assert math.isnan(rows[0][1])
    assert unconverged == [0.01]


def test_density_builds_each_cell_tail_once():
    # one float tail per cell for the whole grid, not four per point
    arr = split_array(*SPLIT_ARRAY)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "r_series" \
                and code.co_filename == smfconv.arrays.__file__:
            calls += 1

    grid = [-4.0 + 0.08 * k for k in range(101)]
    sys.setprofile(profile)
    try:
        stieltjes_density(arr, grid, 1e-3)
    finally:
        sys.setprofile(None)
    assert 1 <= calls <= 4


def test_density_builds_the_damped_step_once():
    # one straight-line damped step per tail shape, shared by arrays of
    # that shape with their own coefficients, one solver per grid, and
    # the step run at every point, not one built per point
    arrays = [split_array(*SPLIT_ARRAY), split_array(0.9, 1.1, 0.2, -0.3)]
    built = runs = 0

    def profile(frame, event, arg):
        nonlocal built, runs
        code = frame.f_code
        if event == "call" and code.co_name == "_solver" \
                and code.co_filename == smfconv.analytic.__file__:
            built += 1
        elif event == "call" and code.co_name == "damp" \
                and code.co_filename == "<damped map>":
            runs += 1

    grid = [-4.0 + 0.08 * k for k in range(101)]
    smfconv.analytic._damped_step.cache_clear()
    sys.setprofile(profile)
    try:
        densities = [stieltjes_density(arr, grid, 1e-3)[0] for arr in arrays]
    finally:
        sys.setprofile(None)
    compiled = smfconv.analytic._damped_step.cache_info()
    assert compiled.misses == 1 and compiled.hits == 1
    assert densities[0] != densities[1]
    assert built == len(arrays) and runs >= len(arrays) * len(grid)


def test_fixed_point_requires_upper_half_plane():
    with pytest.raises(ValueError):
        cauchy_value(meixner_array(), complex(0.0, -1.0))


def test_an_unconverged_point_raises():
    # at z = -1.2 + 0.01i this array's fixed point converges neither in
    # the damped map nor by Newton: cauchy_value raises, naming z, where
    # it once returned the last iterate
    arr = DistributionArray.from_cumulants(
        {(1, 1): (-0.28, 0.38, 0.68), (1, 2): (-0.94, -0.07, 0.89),
         (2, 1): (-0.77, 0, 0), (2, 2): (-0.24, 0, 0)}, mode=FLOAT)
    z = complex(-1.2, 0.01)
    assert _solver(_tails(arr))(z)[1] is False
    with pytest.raises(ArithmeticError, match=re.escape(repr(z))):
        cauchy_value(arr, z)


def test_stieltjes_grid_and_guards():
    arr = meixner_array()
    rows, atoms = stieltjes_density(arr, [-1.0, 0.5, 3.0], 1e-6)
    assert [x for x, _ in rows] == [-1.0, 0.5, 3.0]
    assert rows[0][1] == pytest.approx(meixner_density(1.0, 0.5, -1.0),
                                       abs=1e-4)
    assert rows[2][1] == pytest.approx(0.0, abs=1e-4)
    assert len(atoms) == 1
    with pytest.raises(ValueError):
        stieltjes_density(arr, [0.0], 0.0)
    with pytest.raises(ValueError):
        stieltjes_density(arr, [0.0], float("nan"))
    with pytest.raises(ValueError):
        stieltjes_density(meixner_array("rational"), [0.0], 1e-6)


def test_stieltjes_generic_array_uses_fixed_point():
    arr = DistributionArray.from_cumulants(
        {(1, 1): (0.0, 1.0, 0.5), (2, 2): (1.0, 2.0, 0.0)}, mode=FLOAT)
    rows, atoms = stieltjes_density(arr, [0.0, 1.0], 1e-3)
    assert atoms == []
    assert all(y >= -1e-12 for _, y in rows)


def test_density_grid_matches_smeared_closed_form():
    arr = meixner_array()
    eps = 1e-3
    rows, _ = stieltjes_density(arr, [0.1, 0.7], eps)
    for x, y in rows:
        want = -meixner_cauchy(1.0, 0.5, complex(x, eps)).imag / math.pi
        assert y == pytest.approx(want, rel=1e-9)
