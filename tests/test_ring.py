import math
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

    @given(fractions_st, st.integers(-9, 9))
    def test_normalization_matches_power_of_two(self, q, k):
        s = Sqrt2Scalar(q, k)
        if q == 0:
            assert (s.q, s.k) == (0, 0)
        else:
            assert (s.q, s.k) == (q * Fraction(2) ** ((k - k % 2) // 2), k % 2)

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

    @pytest.mark.parametrize("grade", [2, -1])
    def test_grade_outside_0_1_rejected(self, grade):
        with pytest.raises(ValueError, match="grade must be 0 or 1"):
            RationalSeries([1], 0, grade)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            poly([1], 3) * poly([1], 4)
        with pytest.raises(ValueError, match="orders"):
            poly([1], 3) + poly([1], 4)

    def test_mixed_grade_addition_rejected(self):
        a = poly([1, 1], 3)
        b = RationalSeries.polynomial([1], 3, grade=1)
        with pytest.raises(ValueError, match="grade"):
            a + b

    def test_scaled_addition_merges_parity(self):
        a = RationalSeries.polynomial([1], 3, grade=1)      # sqrt2
        b = RationalSeries.polynomial([3], 3, grade=1)      # 3 sqrt2
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
        # unit constant term carried jointly by numerator and denominator
        s = RationalSeries.polynomial([1, Fraction(3, 2)], 6)
        assert s.nums[0] == s.den == 2
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
        s = RationalSeries.polynomial([Fraction(1, 2), 1], 4, grade=1)
        assert s.coefficient(0) == Sqrt2Scalar(Fraction(1, 2), 1)
        assert s.coefficient(1) == Sqrt2Scalar(1, 1)
        with pytest.raises(IndexError):
            s.coefficient(5)


# -- Fraction reference ---------------------------------------------------------
# Copies of the coefficient loops of the Fraction-per-coefficient series, run on
# plain lists of Fractions: an independent evaluation to pin the integer one.


def reference_mul(a, b):
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def reference_reciprocal(a):
    n = len(a) - 1
    inv = [Fraction(0)] * (n + 1)
    inv[0] = 1 / a[0]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            if a[i]:
                acc += a[i] * inv[m - i]
        inv[m] = -acc / a[0]
    return inv


def reference_sqrt(a):
    """Root of a / a[0]; the caller supplies the root of the constant term."""
    n = len(a) - 1
    base = [c / a[0] for c in a]
    r = [Fraction(0)] * (n + 1)
    r[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m):
            acc += r[i] * r[m - i]
        r[m] = (base[m] - acc) / 2
    return r


def reference_pow_rational(a, c):
    """(a / a[0]) ** c."""
    n = len(a) - 1
    s = [x / a[0] for x in a]
    h = [Fraction(0)] * (n + 1)
    h[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if s[j]:
                acc += (c * j - (m - j)) * s[j] * h[m - j]
        h[m] = acc / m
    return h


def fractions_of(series):
    return [Fraction(a, series.den) for a in series.nums]


def scaled(scalar, coeffs):
    return [scalar * c for c in coeffs]


def assert_canonical(series):
    assert all(type(a) is int for a in series.nums)
    assert len(series.nums) == series.order + 1
    assert type(series.den) is int and series.den > 0
    assert math.gcd(series.den, *series.nums) == 1
    assert series.grade in (0, 1)
    assert series.grade == 0 or any(series.nums)


REFERENCE_ORDERS = [0, 1, 2, 40]
# constant terms: zero, negative and non-unit where the operation allows them
CONSTANTS = [0, 1, -1, Fraction(-3, 7), Fraction(9, 2)]


def random_factor(rng):
    return Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 6))


def random_cases(seed, order, constants=CONSTANTS):
    """Series over every constant term, times a random rational, in both grades."""
    rng = random.Random(seed)
    for constant in constants:
        for grade in (0, 1):
            raw = random_rational_series(rng, order, constant=constant)
            factor = random_factor(rng)
            yield RationalSeries([factor * c for c in fractions_of(raw)], order, grade)


class TestIntegerRepresentation:
    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_mul_matches_reference(self, order):
        cases = list(random_cases(1000 + order, order))
        for a in cases:
            for b in cases[::3]:
                product = a * b
                assert_canonical(product)
                want = reference_mul(fractions_of(a), fractions_of(b))
                assert product.coefficients() == scaled(Sqrt2Scalar(1, a.grade + b.grade),
                                                        want)

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_reciprocal_matches_reference(self, order):
        for s in random_cases(2000 + order, order, CONSTANTS[1:]):
            inverse = s.reciprocal()
            assert_canonical(inverse)
            want = reference_reciprocal(fractions_of(s))
            # the inverse of sqrt(2)**grade * x is sqrt(2)**(-grade) / x
            assert inverse.coefficients() == scaled(Sqrt2Scalar(1, -s.grade), want)

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_sqrt_matches_reference(self, order):
        rng = random.Random(3000 + order)
        # ring squares as constant term, times sqrt(2) in grade 1
        for value in [1, 4, 2, Fraction(9, 2), Fraction(1, 8), Fraction(25, 49)]:
            for grade in (0, 1):
                factor = random_factor(rng)
                raw = random_rational_series(rng, order, constant=1)
                coeffs = fractions_of(raw)
                coeffs[0] = value / factor
                s = RationalSeries([factor * c for c in coeffs], order, grade)
                if grade:
                    with pytest.raises(ValueError, match="no square root"):
                        s.sqrt()
                    continue
                root = s.sqrt()
                assert_canonical(root)
                want = reference_sqrt(coeffs)
                assert root.coefficients() == scaled(Sqrt2Scalar(value).sqrt(), want)

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_pow_rational_matches_reference(self, order):
        rng = random.Random(4000 + order)
        for c in [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), 3, -1, 0]:
            factor = random_factor(rng)
            coeffs = fractions_of(random_rational_series(rng, order))
            coeffs[0] = 1 / factor
            s = RationalSeries([factor * c for c in coeffs], order)
            power = s.pow_rational(c)
            assert_canonical(power)
            assert power.coefficients() == scaled(Sqrt2Scalar(1),
                                                  reference_pow_rational(coeffs, c))

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_every_operation_is_canonical(self, order):
        cases = list(random_cases(5000 + order, order))
        rng = random.Random(order)
        rational = [s for s in cases if s.grade == 0]
        for a, b in zip(cases, cases[1:] + cases[:1]):
            same_grade = RationalSeries([3 * c for c in fractions_of(b)], order, a.grade)
            results = [a * b, -a, a * 0, a * -4, a * Fraction(-6, 35),
                       a * Sqrt2Scalar(2, 1), a * Sqrt2Scalar(0), a / -6,
                       a / Fraction(-10, 21), a / Sqrt2Scalar(Fraction(1, 3), 1),
                       a.pow_int(3), a.differentiate(), a + same_grade,
                       a - same_grade, a - a]
            want_sum = [x + y for x, y in zip(a.coefficients(), same_grade.coefficients())]
            assert (a + same_grade).coefficients() == want_sum
            assert (a - a).is_zero() and (a - a).den == 1
            for m in range(order + 2):
                results.append(a.shift(m))
                want = ([Sqrt2Scalar(0)] * m + a.coefficients())[: order + 1]
                assert a.shift(m).coefficients() == want
            if not b.is_zero() and b.nums[0]:
                results += [b.reciprocal(), a / b, b.pow_int(-2)]
            inner = rng.choice(rational)
            inner = inner - RationalSeries.polynomial([inner.coefficient(0).q], order)
            results.append(a.compose(inner))
            for series in results:
                assert_canonical(series)

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_equality_matches_coefficients(self, order):
        cases = list(random_cases(6000 + order, order))
        cases += [a * 0 for a in cases[:2]] + [-a for a in cases[:4]]
        cases += [RationalSeries([0] * (order + 1), order, grade=1)]
        for a in cases:
            for b in cases:
                equal = a.coefficients() == b.coefficients()
                assert (a == b) == equal
                if equal:
                    assert hash(a) == hash(b)
