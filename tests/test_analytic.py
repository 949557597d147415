import math
import random
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

import smfconv.analytic
from oracles import (binary_convolutions, binary_fixed_point_rhs, compose,
                     cut_pass_fixed_point, f_compose_moments,
                     four_unknown_cauchy, law_moments, meixner_density,
                     module_imports, moments_from_cumulants,
                     perfbench_workloads, reciprocal, shift,
                     solve_subordination, split_semicircle_cauchy)
from smfconv import (DistributionArray, FLOAT, FockModel, NamedLaw, SHAPES,
                     TruncatedSeries, cauchy_value, master_cauchy,
                     meixner_atoms, meixner_cauchy, meixner_parameters,
                     smf_moments, stieltjes_density)
from smfconv.analytic import _series_fixed_point

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


def test_meixner_pattern_recognized():
    arr = meixner_array("rational")
    assert meixner_parameters(arr) == (1.0, 0.5)
    skew = DistributionArray.from_laws(
        {**MEIXNER, (2, 1): NamedLaw.point_mass("1/3")}, 6, "rational")
    assert meixner_parameters(skew) is None
    assert meixner_parameters(
        DistributionArray.from_laws({(1, 1): SEMI}, 6)) is None


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


@pytest.mark.xfail(
    strict=True,
    reason="the damped iteration of cauchy_value stops at CAUCHY_MAX_ITER "
           "steps without converging near the left spectral edge; its last "
           "iterate is off by up to 4.6e-3 in density")
def test_fixed_point_matches_split_closed_form_near_the_edge():
    arr = split_array(*SPLIT_ARRAY)
    for x in (-2.1268717817679397, -2.1357708268799396, -2.189165097551938):
        z = complex(x, 1e-3)
        assert abs(cauchy_value(arr, z)
                   - split_semicircle_cauchy(*SPLIT_ARRAY, z)) < 1e-9


def test_three_unknowns_match_the_four_unknown_iteration():
    # with point-mass off-diagonals K12 and K21 are constants, so the two
    # off-diagonal unknowns of the reference iterate the same resolvent
    # and the one class (2,2) replaces them bit for bit
    workloads = perfbench_workloads()
    rng = random.Random(29)
    for a11, a22, b12, b21 in workloads.DENSITY_ARRAYS:
        arr = split_array(a11, a22, b12, b21)
        edge = 2 * math.sqrt(max(a11, a22)) + abs(b12) + abs(b21)
        for _ in range(4):
            z = complex(rng.uniform(-edge, edge), workloads.DENSITY_EPS)
            assert cauchy_value(arr, z) == four_unknown_cauchy(arr, z)[0]
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
            want, converged = four_unknown_cauchy(arr, z)
            if converged:
                compared += 1
                assert abs(cauchy_value(arr, z) - want) \
                    <= 1e-12 * max(1.0, abs(want))
    assert compared >= 24


def test_three_unknowns_match_the_four_unknown_iteration():
    # with point-mass off-diagonals K12 and K21 are constants, so the two
    # off-diagonal unknowns of the reference iterate the same resolvent
    # and the one class (2,2) replaces them bit for bit
    workloads = perfbench_workloads()
    rng = random.Random(29)
    for a11, a22, b12, b21 in workloads.DENSITY_ARRAYS:
        arr = split_array(a11, a22, b12, b21)
        edge = 2 * math.sqrt(max(a11, a22)) + abs(b12) + abs(b21)
        for _ in range(4):
            z = complex(rng.uniform(-edge, edge), workloads.DENSITY_EPS)
            assert cauchy_value(arr, z) == four_unknown_cauchy(arr, z)[0]
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
            want, converged = four_unknown_cauchy(arr, z)
            if converged:
                compared += 1
                assert abs(cauchy_value(arr, z) - want) \
                    <= 1e-12 * max(1.0, abs(want))
    assert compared >= 24


def test_fixed_point_requires_upper_half_plane():
    with pytest.raises(ValueError):
        cauchy_value(meixner_array(), complex(0.0, -1.0))


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
