import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwalk.ring import RationalSeries, Sqrt2Scalar, random_rational_series

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=7)
scalars_st = st.builds(Sqrt2Scalar, fractions_st, st.integers(-3, 3))


class TestSqrt2Scalar:
    def test_normalization_absorbs_two(self):
        assert Sqrt2Scalar(1, 2) == Sqrt2Scalar(2, 0)
        assert Sqrt2Scalar(1, 3) == Sqrt2Scalar(2, 1)
        assert Sqrt2Scalar(1, -1) == Sqrt2Scalar(Fraction(1, 2), 1)
        assert Sqrt2Scalar(0, 1).k == 0

    def test_sqrt2_squared_is_two(self):
        root2 = Sqrt2Scalar(1, 1)
        sq = root2 * root2
        assert sq.q == 2 and sq.k == 0

    @given(scalars_st, scalars_st)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(scalars_st, scalars_st, scalars_st)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars_st)
    def test_inverse_roundtrip(self, a):
        if not a.is_zero:
            assert a * a.inverse() == Sqrt2Scalar.one()

    def test_mixed_grade_addition_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            Sqrt2Scalar(1, 0) + Sqrt2Scalar(1, 1)

    def test_zero_additions_cross_grades(self):
        assert Sqrt2Scalar(0) + Sqrt2Scalar(3, 1) == Sqrt2Scalar(3, 1)

    @pytest.mark.parametrize("value, root", [
        (Sqrt2Scalar(4), Sqrt2Scalar(2)),
        (Sqrt2Scalar(2), Sqrt2Scalar(1, 1)),
        (Sqrt2Scalar(Fraction(9, 2)), Sqrt2Scalar(Fraction(3, 2), 1)),
        (Sqrt2Scalar(Fraction(1, 4)), Sqrt2Scalar(Fraction(1, 2))),
    ])
    def test_sqrt_exact(self, value, root):
        assert value.sqrt() == root
        assert root * root == value

    @pytest.mark.parametrize("bad", [Sqrt2Scalar(3), Sqrt2Scalar(-1),
                                     Sqrt2Scalar(1, 1)])
    def test_sqrt_rejects_non_squares(self, bad):
        with pytest.raises(ValueError):
            bad.sqrt()

    def test_immutability(self):
        a = Sqrt2Scalar(1)
        with pytest.raises(AttributeError):
            a.q = Fraction(2)


def poly(coeffs, order):
    return RationalSeries.polynomial(coeffs, order)


class TestRationalSeries:
    def test_sqrt_of_one_plus_z_squared(self):
        s = poly([1, 0, 1], 4)
        r = s.sqrt()
        assert r == poly([1, 0, Fraction(1, 2), 0, Fraction(-1, 8)], 4)
        assert r * r == s

    def test_sqrt_identity_and_constant(self):
        assert RationalSeries.one(6).sqrt() == RationalSeries.one(6)
        assert poly([4], 3).sqrt() == poly([2], 3)

    def test_sqrt_rejects_nonsquare_constant(self):
        with pytest.raises(ValueError, match="no square root"):
            poly([3, 1], 4).sqrt()
        with pytest.raises(ValueError, match="no square root"):
            poly([0, 1], 4).sqrt()

    def test_reciprocal_geometric(self):
        assert poly([1, -1], 3).reciprocal() == poly([1, 1, 1, 1], 3)
        assert poly([2], 2).reciprocal() == poly([Fraction(1, 2)], 2)
        assert poly([1, 0, 1], 4).reciprocal() == poly([1, 0, -1, 0, 1], 4)

    def test_reciprocal_rejects_zero_constant(self):
        with pytest.raises(ValueError, match="not invertible"):
            poly([0, 1], 3).reciprocal()

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            poly([1], 3) * poly([1], 4)
        with pytest.raises(ValueError, match="orders"):
            poly([1], 3) + poly([1], 4)

    def test_mixed_grade_addition_rejected(self):
        a = poly([1, 1], 3)
        b = RationalSeries.polynomial([1], 3, Sqrt2Scalar(1, 1))
        with pytest.raises(ValueError, match="grade"):
            a + b

    def test_scaled_addition_merges_parity(self):
        a = RationalSeries.polynomial([1], 3, Sqrt2Scalar(1, 1))      # sqrt2
        b = RationalSeries.polynomial([1], 3, Sqrt2Scalar(3, 1))      # 3 sqrt2
        assert (a + b).coefficient(0) == Sqrt2Scalar(4, 1)

    @given(st.integers(0, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, order, seed):
        rng = random.Random(seed)
        a = random_rational_series(rng, order)
        b = random_rational_series(rng, order)
        c = random_rational_series(rng, order)
        assert (a + b) * c == a * c + b * c

    def test_sqrt_square_roundtrip_thousand_cases(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            s = random_rational_series(rng, 6, constant=1)
            r = s.sqrt()
            assert r * r == s

    def test_pow_rational_square_root_branch(self):
        s = poly([1, 1], 6)
        half = s.pow_rational(Fraction(1, 2))
        assert half * half == s
        assert s.pow_rational(-1) == s.reciprocal()
        assert s.pow_rational(3) == s.pow_int(3)

    def test_pow_rational_with_nontrivial_scale(self):
        # unit constant term carried jointly by scale and raw coefficient
        s = RationalSeries.polynomial([2, 3], 6, Sqrt2Scalar(Fraction(1, 2)))
        assert s.constant_term == Sqrt2Scalar(1)
        half = s.pow_rational(Fraction(1, 2))
        assert half * half == s

    def test_pow_rational_rejects_nonunit_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            poly([2, 1], 4).pow_rational(Fraction(1, 2))

    def test_pow_int_negative(self):
        s = poly([1, -1], 5)
        assert s.pow_int(-2) == s.reciprocal() * s.reciprocal()

    def test_compose_geometric(self):
        geo = poly([1, 1, 1, 1, 1], 4)        # 1/(1-z)
        double = poly([0, 2], 4)
        assert geo.compose(double) == poly([1, 2, 4, 8, 16], 4)

    def test_compose_requires_zero_constant(self):
        with pytest.raises(ValueError, match="zero constant"):
            poly([1, 1], 3).compose(poly([1, 1], 3))

    @given(st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_compose_distributes_over_products(self, order, seed):
        rng = random.Random(seed)
        f = random_rational_series(rng, order)
        g = random_rational_series(rng, order)
        h = random_rational_series(rng, order, constant=0)
        assert (f * g).compose(h) == f.compose(h) * g.compose(h)

    def test_differentiate(self):
        s = poly([5, 3, 2, 7], 3)
        assert s.differentiate() == poly([3, 4, 21, 0], 3)

    def test_coefficient_accessor_carries_scale(self):
        s = RationalSeries.polynomial([1, 2], 4, Sqrt2Scalar(Fraction(1, 2), 1))
        assert s.coefficient(1) == Sqrt2Scalar(1, 1)
        with pytest.raises(IndexError):
            s.coefficient(5)
