import random
from fractions import Fraction as F

import pytest

from oracles import (compose, moments_from_cumulants, pole_product_is_one,
                     r_from_moments, reciprocal, shift)
from smfconv import FLOAT, RATIONAL, TruncatedSeries
from smfconv.series import invert_pole_series


def S(*coeffs, mode=RATIONAL):
    return TruncatedSeries(coeffs, mode)


def test_add_identities():
    assert S(1, 1) + S(0, 0) == S(1, 1)
    assert S(0, 1) + S(0, 1) == S(0, 2)


def test_add_r_transforms_gives_variance_two_semicircle():
    # R = z plus R = z is the transform with second cumulant 2; its moment
    # sequence 1,0,2,0,8 is pinned by the reversion oracle below
    two_z = S(0, 1, 0, 0, 0) + S(0, 1, 0, 0, 0)
    assert two_z == S(0, 2, 0, 0, 0)
    moments = moments_from_cumulants([0, 2], 4)
    assert [str(c) for c in moments.coeffs] == ["1", "0", "2", "0", "8"]
    assert r_from_moments(moments) == S(0, 2, 0, 0)


def test_mul_identities():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)
    assert S(0, 1, 0) * S(0, 1, 0) == S(0, 0, 1)
    assert S(1, 1, 1) * S(1, 0, 0) == S(1, 1, 1)


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        S(1, 1) + S(1.0, 1.0, mode=FLOAT)
    with pytest.raises(ValueError):
        S(1, 1) * S(1.0, 1.0, mode=FLOAT)
    with pytest.raises(ValueError):
        compose(S(1, 1), S(0.0, 1.0, mode=FLOAT))


def test_result_order_is_min_of_operands():
    assert (S(1, 2, 3) + S(1, 1)).order == 1
    assert (S(1, 2, 3) * S(1, 1)).order == 1


def test_invert_pole_trivial_and_constant():
    # R = 0: the inverse of 1/z is z, so the tail vanishes
    assert invert_pole_series(S(0, 0, 0)) == S(0, 0, 0)
    # R = r: b_0 = 1 implicit, b_1 = -r, b_2 = r^2 (hand expansion of C*B=1)
    r = F(3, 2)
    tail = invert_pole_series(S(r, 0))
    assert tail == S(-r, r * r)


def test_invert_pole_is_involution_and_inverse():
    rng = random.Random(4)
    for _ in range(25):
        reg = S(*[F(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(7)])
        tail = invert_pole_series(reg)
        assert invert_pole_series(tail) == reg
        assert pole_product_is_one(reg, tail)


def test_compose_examples():
    f = S(0, 0, 1, 0, 0)
    g = S(0, 1, 1, 0, 0)
    assert compose(f, g) == S(0, 0, 1, 2, 1)
    arbitrary = S(2, -1, 3, 5, 0)
    ident = S(0, 1, 0, 0, 0)
    assert compose(arbitrary, ident) == arbitrary
    assert compose(ident, g) == g


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        compose(S(1, 1, 1), S(1, 1, 1))


def _nc_pair_count(n):
    """Brute-force count of non-crossing pairings of {1..n} via stack scan."""
    if n % 2:
        return 0

    def rec(points):
        if not points:
            return 1
        first = points[0]
        total = 0
        for k in range(1, len(points), 2):
            partner = points[k]
            inside = points[1:k]
            outside = points[k + 1:]
            total += rec(inside) * rec(outside)
        return total

    return rec(list(range(n)))


def test_r_from_moments_semicircle_against_pairing_oracle():
    counts = [_nc_pair_count(n) for n in range(9)]
    assert counts == [1, 0, 1, 0, 2, 0, 5, 0, 14]
    moments = TruncatedSeries(counts)
    r = r_from_moments(moments)
    assert r == S(0, 1, 0, 0, 0, 0, 0, 0)


def test_r_from_moments_point_mass():
    b = F(5, 3)
    moments = TruncatedSeries([b ** n for n in range(6)])
    assert r_from_moments(moments) == S(b, 0, 0, 0, 0, 0)


def test_r_from_moments_degenerate_and_errors():
    assert r_from_moments(S(1, 0, 0, 0)) == S(0, 0, 0)
    with pytest.raises(ValueError):
        r_from_moments(S(2, 0, 0))
    with pytest.raises(ValueError):
        r_from_moments(S(1))


def test_moment_cumulant_round_trip_random():
    rng = random.Random(11)
    for _ in range(20):
        cums = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(7)]
        moments = moments_from_cumulants(cums, 7)
        assert r_from_moments(moments) == TruncatedSeries(cums)


def test_float_mode_tracks_rational():
    rng = random.Random(7)
    for _ in range(10):
        vals = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(6)]
        exact = invert_pole_series(TruncatedSeries(vals))
        approx = invert_pole_series(
            TruncatedSeries([float(v) for v in vals], FLOAT))
        for a, b in zip(exact.coeffs, approx.coeffs):
            assert abs(float(a) - b) <= 1e-10 * max(1.0, abs(float(a)))


def test_reciprocal_and_shift():
    s = S(1, 2, 3)
    assert s * reciprocal(s) == S(1, 0, 0)
    assert shift(S(1, 2, 3)) == S(0, 1, 2)
    with pytest.raises(ZeroDivisionError):
        reciprocal(S(0, 1))
