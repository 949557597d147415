"""Acceptance suite: one test per criterion, one pass/fail line printed.

Exact-arithmetic criteria assert equality of Fractions; only the
quadrature criterion carries a numeric tolerance.  Criterion 5 is split:
the depth-2 worked-example coloring sums hold as displayed, while an
alternative closed form for the depth-3 sums - obtained by excluding
same-colored nested blocks under mixed chains instead of labelling them
off-diagonally - is kept as a strict xfail: it contradicts the operator
model and the free/monotone specializations.  Passing companions pin the
operator-validated values.
"""

import math
import random
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest
from scipy.integrate import quad

from oracles import (compose, enumerate_admissible, f_compose_moments,
                     meixner_density, moments_from_cumulants, padded,
                     partition_contribution, r_from_moments, reciprocal,
                     scalar_r_as_unit_series, shift)
from smfconv import (DistributionArray, FockModel, NamedLaw, SHAPES,
                     TruncatedSeries, assemble_matricial_r, master_cauchy,
                     reconstruct_unique, smf_moments)
from smfconv.analytic import meixner_atoms
from smfconv.matricial import (compressed_residuals, invert_C,
                               linearization_residuals)
from smfconv.partitions import NCPartition, enumerate_nc

SEED = 20260809


class criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("criterion %2d %s: %s" % (self.number, status,
                                        self.description))
        return False


@lru_cache(maxsize=None)
def randomized_arrays():
    """20 arrays per shape, integer cumulants in [-3,3] up to order 6,
    zero-padded to order 8 for order-8 moment queries."""
    rng = random.Random(SEED)
    out = []
    for name in sorted(SHAPES):
        J = SHAPES[name]
        for _ in range(20):
            cums = {cell: tuple(F(rng.randint(-3, 3)) for _ in range(6))
                    for cell in sorted(J)}
            out.append((name,
                        padded(DistributionArray.from_cumulants(cums), 8)))
    return tuple(out)


def test_criterion_01_three_engine_agreement():
    with criterion(1, "partition, Fock and analytic engines agree exactly "
                      "to order 8 on 100 randomized arrays in under 30 s"):
        start = time.monotonic()
        for name, arr in randomized_arrays():
            mp = smf_moments(arr, 8)
            mf = FockModel(arr, 8).moments(8)
            ma = master_cauchy(arr, 8)
            assert mp == mf == ma, name
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, "took %.1f s" % elapsed


def test_criterion_02_free_specialization():
    with criterion(2, "square row-identical arrays reproduce cumulant "
                      "addition; semicircle+semicircle = 1,0,2,0,8,0,40"):
        rng = random.Random(SEED + 1)
        for _ in range(10):
            r1 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
            r2 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
            arr = DistributionArray.from_cumulants(
                {(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
            added = [a + b for a, b in zip(r1, r2)]
            assert smf_moments(arr, 8) == moments_from_cumulants(added, 8)
        semi = NamedLaw.semicircle(1)
        laws = {cell: semi for cell in SHAPES["square"]}
        arr = DistributionArray.from_laws(laws, 8)
        assert [str(c) for c in smf_moments(arr, 6).coeffs] == \
            ["1", "0", "2", "0", "8", "0", "40"]


def test_criterion_03_monotone_specialization():
    with criterion(3, "lower-triangular row-identical arrays match the "
                      "reciprocal-transform composition oracle to order 8"):
        rng = random.Random(SEED + 2)
        for _ in range(10):
            r1 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
            r2 = tuple(F(rng.randint(-3, 3)) for _ in range(8))
            arr = DistributionArray.from_cumulants(
                {(1, 1): r1, (2, 1): r2, (2, 2): r2})
            oracle = f_compose_moments(moments_from_cumulants(r1, 8),
                                       moments_from_cumulants(r2, 8))
            assert smf_moments(arr, 8) == oracle


def _one_cell_moments(cums, order):
    arr = DistributionArray.from_cumulants({(1, 1): tuple(cums)})
    return master_cauchy(arr, order)


def _rhs(order, *k_terms):
    den = TruncatedSeries.one(order) - shift(sum(k_terms[1:], k_terms[0]))
    return reciprocal(den)


def test_criterion_04_boolean_s_free_orthogonal():
    with criterion(4, "diagonal arrays satisfy the boolean formula; s-free "
                      "and orthogonal shapes satisfy their fixed-point "
                      "identities to order 8"):
        rng = random.Random(SEED + 3)
        for _ in range(10):
            r1 = tuple(F(rng.randint(-3, 3)) for _ in range(9))
            r2 = tuple(F(rng.randint(-3, 3)) for _ in range(9))
            t1 = TruncatedSeries(r1).truncate(8)
            t2 = TruncatedSeries(r2).truncate(8)
            m1 = _one_cell_moments(r1, 8)
            m2 = _one_cell_moments(r2, 8)

            diag = DistributionArray.from_cumulants(
                {(1, 1): r1, (2, 2): r2})
            assert smf_moments(diag, 8) == _rhs(
                8, compose(t1, shift(m1)), compose(t2, shift(m2)))

            sfree = DistributionArray.from_cumulants(
                {(1, 1): r1, (1, 2): r1, (2, 1): r2})
            free = DistributionArray.from_cumulants(
                {(1, 1): r1, (1, 2): r1, (2, 1): r2, (2, 2): r2})
            g_free = smf_moments(free, 8)
            assert smf_moments(sfree, 8) == _rhs(
                8, compose(t1, shift(g_free)))

            orth = DistributionArray.from_cumulants(
                {(1, 1): r1, (2, 1): r2})
            mono = DistributionArray.from_cumulants(
                {(1, 1): r1, (2, 1): r2, (2, 2): r2})
            g_mono = smf_moments(mono, 8)
            assert smf_moments(orth, 8) == _rhs(
                8, compose(t1, shift(g_mono)))


PI = NCPartition(4, ((1, 4), (2, 3)))
CHI = NCPartition(6, ((1, 6), (2, 3), (4, 5)))
ZETA = NCPartition(8, ((1, 8), (2, 7), (3, 4), (5, 6)))


def _coloring_sum(partition, r, J=frozenset(SHAPES["square"])):
    """Sum of partition_contribution over all admitted colorings, with
    order-two cumulants r[cell]."""
    arr = DistributionArray.from_cumulants(
        {cell: (F(0), r[cell]) for cell in J})
    m = partition.m
    return sum((partition_contribution(c, arr)
                for c in enumerate_admissible(m, J)
                if c.partition == partition), F(0))


def _rational_instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield {cell: F(rng.randint(-9, 9), rng.randint(1, 5))
               for cell in SHAPES["square"]}


def _specialize(r, kind):
    r11, r12 = r[(1, 1)], r[(1, 2)]
    r21, r22 = r[(2, 1)], r[(2, 2)]
    if kind == "square":        # row-identical: r1 along row 1, r2 row 2
        return {(1, 1): r11, (1, 2): r11, (2, 1): r21, (2, 2): r21}
    if kind == "lower":         # row-identical with the (1,2) cell removed
        return {(1, 1): r11, (1, 2): F(0), (2, 1): r21, (2, 2): r21}
    return r


def test_criterion_05_worked_example_depth_two_displays():
    with criterion(5, "worked-example coloring sums for the depth-2 pair "
                      "partitions match all printed polynomials"):
        for r in _rational_instances(5, SEED + 4):
            r11, r12 = r[(1, 1)], r[(1, 2)]
            r21, r22 = r[(2, 1)], r[(2, 2)]
            assert _coloring_sum(PI, r) == \
                r11 * (r11 + r21) + r22 * (r22 + r12)
            assert _coloring_sum(CHI, r) == \
                r11 * (r11 + r21) ** 2 + r22 * (r22 + r12) ** 2

            sq = _specialize(r, "square")
            r1, r2 = sq[(1, 1)], sq[(2, 1)]
            assert _coloring_sum(PI, sq) == r1 ** 2 + 2 * r1 * r2 + r2 ** 2
            assert _coloring_sum(CHI, sq) == \
                r1 ** 3 + 3 * r1 ** 2 * r2 + 3 * r1 * r2 ** 2 + r2 ** 3

            lo = _specialize(r, "lower")
            r1, r2 = lo[(1, 1)], lo[(2, 1)]
            assert _coloring_sum(PI, lo) == r1 ** 2 + r1 * r2 + r2 ** 2


@pytest.mark.xfail(
    strict=True,
    reason="the rejection-style closed form for the depth-3 sums (and its "
           "lower-triangular chi specialization) contradicts the "
           "Fock-operator ground truth and the free/monotone "
           "specializations; the companion test pins the correct values")
def test_criterion_05_printed_depth_three_displays():
    with criterion(5, "rejection-style depth-3 polynomials (refuted by the "
                      "operator model, expected to fail)"):
        for r in _rational_instances(5, SEED + 5):
            r11, r12 = r[(1, 1)], r[(1, 2)]
            r21, r22 = r[(2, 1)], r[(2, 2)]
            zeta_printed = (r11 ** 2 * (r11 + r21) ** 2
                            + r11 * r21 * r12 ** 2
                            + r22 ** 2 * (r22 + r12) ** 2
                            + r22 * r12 * r21 ** 2)
            assert _coloring_sum(ZETA, r) == zeta_printed

            sq = _specialize(r, "square")
            r1, r2 = sq[(1, 1)], sq[(2, 1)]
            assert _coloring_sum(ZETA, sq) == \
                (r1 ** 4 + 3 * r1 ** 3 * r2 + 2 * r1 ** 2 * r2 ** 2
                 + 3 * r1 * r2 ** 3 + r2 ** 4)

            lo = _specialize(r, "lower")
            r1, r2 = lo[(1, 1)], lo[(2, 1)]
            assert _coloring_sum(CHI, lo) == \
                r1 ** 3 + r1 ** 2 * r2 + r1 * r2 ** 2 + r2 ** 3
            assert _coloring_sum(ZETA, lo) == \
                r1 ** 4 + 2 * r1 ** 3 * r2 + r1 ** 2 * r2 ** 2 + r2 ** 4


def test_criterion_05_depth_three_ground_truth():
    with criterion(5, "depth-3 coloring sums match the operator-validated "
                      "polynomials"):
        for r in _rational_instances(5, SEED + 6):
            r11, r12 = r[(1, 1)], r[(1, 2)]
            r21, r22 = r[(2, 1)], r[(2, 2)]
            assert _coloring_sum(ZETA, r) == (
                r11 ** 2 * (r11 + r21) ** 2
                + r11 * r21 * (r21 + r12) ** 2
                + r22 ** 2 * (r22 + r12) ** 2
                + r22 * r12 * (r12 + r21) ** 2)

            sq = _specialize(r, "square")
            r1, r2 = sq[(1, 1)], sq[(2, 1)]
            assert _coloring_sum(ZETA, sq) == (r1 + r2) ** 4

            lo = _specialize(r, "lower")
            r1, r2 = lo[(1, 1)], lo[(2, 1)]
            assert _coloring_sum(CHI, lo) == \
                r1 ** 3 + 2 * r1 ** 2 * r2 + r1 * r2 ** 2 + r2 ** 3
            assert _coloring_sum(ZETA, lo) == (
                r1 ** 4 + 2 * r1 ** 3 * r2 + r1 ** 2 * r2 ** 2
                + r1 * r2 ** 3 + r2 ** 4)


def test_criterion_06_lowest_moments():
    with criterion(6, "the printed formulas for the first three "
                      "convolution moments hold on rational instances"):
        rng = random.Random(SEED + 7)
        for _ in range(5):
            cums = {cell: tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                                for _ in range(3))
                    for cell in SHAPES["square"]}
            arr = DistributionArray.from_cumulants(cums)
            m = smf_moments(arr, 3)
            r = {cell: cums[cell] for cell in cums}
            m1 = r[(1, 1)][0] + r[(2, 2)][0]
            m2 = r[(1, 1)][1] + r[(2, 2)][1] + m1 ** 2
            m3 = (r[(1, 1)][2] + r[(2, 2)][2]
                  + 2 * (r[(1, 1)][1] + r[(2, 2)][1]) * m1
                  + r[(1, 1)][1] * (r[(1, 1)][0] + r[(2, 1)][0])
                  + r[(2, 2)][1] * (r[(2, 2)][0] + r[(1, 2)][0])
                  + m1 ** 3)
            assert (m.coeffs[1], m.coeffs[2], m.coeffs[3]) == (m1, m2, m3)


def test_criterion_07_linearization_residuals():
    with criterion(7, "vacuum residuals are 1,0,...,0 to order 8 and "
                      "per-cell residuals vanish to order 6 on every "
                      "randomized array"):
        for name, arr in randomized_arrays():
            model = FockModel(arr, 8)
            B = invert_C(assemble_matricial_r(arr, 7))
            res = linearization_residuals(model, B, 8)
            assert res[0] == 1 and all(v == 0 for v in res[1:]), name
            table = compressed_residuals(model, B, 6)
            for cell, row in table.items():
                assert row[0] == 1 and all(v == 0 for v in row[1:]), \
                    (name, cell)


def test_criterion_08_uniqueness_and_witness():
    with criterion(8, "the transform reconstructs uniquely from moment "
                      "data to order 6, and the scalar transform is a "
                      "second solution that differs"):
        arrays = randomized_arrays()
        picked = [arrays[i] for i in range(0, len(arrays), 10)]
        for name, arr in picked:
            model = FockModel(arr, 7)
            assert reconstruct_unique(model, 6) == \
                assemble_matricial_r(arr, 6), name

        arr = DistributionArray.from_laws(
            {(1, 1): NamedLaw.semicircle(1),
             (2, 2): NamedLaw.point_mass(1)}, 8)
        model = FockModel(arr, 8)
        scalar = scalar_r_as_unit_series(
            r_from_moments(smf_moments(arr, 8)).truncate(7))
        res = linearization_residuals(model, invert_C(scalar), 8)
        assert res[0] == 1 and all(v == 0 for v in res[1:])
        assert scalar != assemble_matricial_r(arr, 7)


def test_criterion_09_fock_axioms():
    with criterion(9, "unit normalizations, the annihilator relation below "
                      "the boundary, and 50 alternating kernel products "
                      "with vanishing vacuum moment"):
        rng = random.Random(SEED + 8)
        cums = {cell: tuple(F(rng.randint(-3, 3)) for _ in range(5))
                for cell in SHAPES["square"]}
        arr = DistributionArray.from_cumulants(cums)
        model = FockModel(arr, 5)
        from smfconv import UnitElement
        for i in (1, 2):
            for j in (1, 2):
                u = UnitElement.internal_unit(i, j)
                assert model.state_moment("phi", [u]) == (1 if i == j else 0)
                for state, jj in (("phi1", 1), ("phi2", 2)):
                    assert model.state_moment(state, [u]) == \
                        (1 if j == jj else 0)
        assert model.creation_relation_violations() == []
        assert model.axiom_check(trials=50, max_length=5, seed=9) == []


def test_criterion_10_density_mass_and_moments():
    with criterion(10, "quadrature over the closed-form density plus the "
                       "residue atom reproduces mass 1 and the first six "
                       "moments within 1e-6, in under 5 s"):
        start = time.monotonic()
        a, b = 1.0, 0.5
        atoms = meixner_atoms(a, b)
        atom_mass = sum(w for _, w in atoms)
        mass = quad(lambda x: meixner_density(a, b, x), b - 2, b + 2,
                    limit=200)[0] + atom_mass
        assert abs(mass - 1.0) <= 1e-6
        laws = {(1, 1): NamedLaw.semicircle(1),
                (2, 2): NamedLaw.semicircle(1),
                (1, 2): NamedLaw.point_mass(F(1, 2)),
                (2, 1): NamedLaw.point_mass(F(1, 2))}
        arr = DistributionArray.from_laws(laws, 6)
        want = smf_moments(arr, 6)
        for k in range(1, 7):
            mk = quad(lambda x: x ** k * meixner_density(a, b, x),
                      b - 2, b + 2, limit=200)[0]
            mk += sum(w * p ** k for p, w in atoms)
            assert abs(mk - float(want.coeffs[k])) <= 1e-6, k
        assert time.monotonic() - start < 5.0


def test_criterion_11_catalan_sanity():
    with criterion(11, "single-cell semicircle moments are the aerated "
                       "Catalan numbers and partition counts are Catalan "
                       "up to ten points"):
        arr = DistributionArray.from_laws(
            {(1, 1): NamedLaw.semicircle(1)}, 8)
        got = [str(c) for c in smf_moments(arr, 8).coeffs]
        assert got == ["1", "0", "1", "0", "2", "0", "5", "0", "14"]
        for m in range(1, 11):
            assert len(enumerate_nc(m)) == math.comb(2 * m, m) // (m + 1)
