import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwalk.ring import RationalSeries, random_rational_series

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=7)


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
        # the root is taken of constant term 1 only, even where it exists
        with pytest.raises(ValueError, match="constant term"):
            poly([4], 3).sqrt()

    @pytest.mark.parametrize("value, root", [
        (4, 2),
        (2, None),
        (Fraction(9, 2), None),
        (Fraction(1, 4), Fraction(1, 2)),
    ], ids=["4", "2", "9_2", "1_4"])
    def test_sqrt_exact_constant(self, value, root):
        # sqrt refuses the constant term c0, but the root of s / c0 squares
        # back to s / c0; where c0 is a rational square (root not None), the
        # root of c0 times that root is the root of s
        s = poly([value, 1, -3], 4)
        with pytest.raises(ValueError, match="constant term"):
            s.sqrt()
        unit = s.scaled(1 / Fraction(value)).sqrt()
        assert unit.coefficient(0) == 1 and unit * unit * value == s
        if root is not None:
            got = unit.scaled(root)
            assert got.coefficient(0) == root and got * got == s

    # the root of the constant term 2 would be sqrt(2), which is not in Q
    @pytest.mark.parametrize("bad", [
        poly([3, 1], 4), poly([-1, 1], 4), poly([2, 1], 4),
    ], ids=["3", "-1", "sqrt2"])
    def test_sqrt_rejects_non_squares(self, bad):
        with pytest.raises(ValueError, match="constant term"):
            bad.sqrt()

    def test_sqrt_rejects_nonsquare_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            poly([3, 1], 4).sqrt()
        with pytest.raises(ValueError, match="constant term"):
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

    @given(fractions_st, st.integers(-9, 9))
    @settings(deadline=None)
    def test_scaled_matches_power_of_two(self, q, k):
        s = poly([3, Fraction(-1, 2)], 2)
        factor = q * Fraction(2) ** k
        assert fractions_of(s.scaled(factor)) == [factor * c for c in fractions_of(s)]

    @given(fractions_st, fractions_st)
    @settings(deadline=None)
    def test_scaling_commutes(self, a, b):
        s = poly([2, Fraction(-3, 4)], 2)
        assert s.scaled(a).scaled(b) == s.scaled(b).scaled(a)

    @given(fractions_st, fractions_st)
    @settings(deadline=None)
    def test_scaling_composes(self, a, b):
        s = poly([2, Fraction(-3, 4)], 2)
        assert s.scaled(a).scaled(b) == s.scaled(a * b)

    def test_immutability(self):
        # a plain series over Q: nums, den and order, and nothing else
        s = poly([1, 2], 3)
        assert RationalSeries.__slots__ == ("nums", "den", "order")
        assert not hasattr(s, "grade")
        with pytest.raises(AttributeError):
            s.nums = (3, 4, 0, 0)
        with pytest.raises(AttributeError):
            s.den = 2

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
        assert s.coefficient(0) == 1
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
        # the coefficient is a Fraction of the numerator over the denominator
        s = poly([Fraction(1, 2), 1], 4)
        assert (s.nums[:2], s.den) == ((1, 2), 2)
        assert s.coefficient(0) == Fraction(1, 2) and type(s.coefficient(0)) is Fraction
        assert s.coefficient(1) == 1 and type(s.coefficient(1)) is Fraction
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


def assert_canonical(series):
    assert all(type(a) is int for a in series.nums)
    assert len(series.nums) == series.order + 1
    assert type(series.den) is int and series.den > 0
    assert math.gcd(series.den, *series.nums) == 1


REFERENCE_ORDERS = [0, 1, 2, 40]
# constant terms: zero, negative and non-unit where the operation allows them
CONSTANTS = [0, 1, -1, Fraction(-3, 7), Fraction(9, 2)]


def random_factor(rng):
    return Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 6))


def random_cases(seed, order, constants=CONSTANTS):
    """Two series over every constant term, each times a random rational."""
    rng = random.Random(seed)
    for constant in constants:
        for _ in range(2):
            raw = random_rational_series(rng, order, constant=constant)
            factor = random_factor(rng)
            yield RationalSeries([factor * c for c in fractions_of(raw)], order)


class TestIntegerRepresentation:
    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_mul_matches_reference(self, order):
        cases = list(random_cases(1000 + order, order))
        for a in cases:
            for b in cases[::3]:
                product = a * b
                assert_canonical(product)
                want = reference_mul(fractions_of(a), fractions_of(b))
                assert fractions_of(product) == want

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_reciprocal_matches_reference(self, order):
        for s in random_cases(2000 + order, order, CONSTANTS[1:]):
            inverse = s.reciprocal()
            assert_canonical(inverse)
            want = reference_reciprocal(fractions_of(s))
            assert fractions_of(inverse) == want

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_sqrt_matches_reference(self, order):
        rng = random.Random(3000 + order)
        # constant term 1 over the series' common denominator
        for _ in range(6):
            factor = random_factor(rng)
            coeffs = fractions_of(random_rational_series(rng, order))
            coeffs[0] = 1 / factor
            s = RationalSeries([factor * c for c in coeffs], order)
            root_series = s.sqrt()
            assert_canonical(root_series)
            assert fractions_of(root_series) == reference_sqrt(coeffs)

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
            assert fractions_of(power) == reference_pow_rational(coeffs, c)

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_every_operation_is_canonical(self, order):
        cases = list(random_cases(5000 + order, order))
        rng = random.Random(order)
        for a, b in zip(cases, cases[1:] + cases[:1]):
            results = [a * b, -a, a * 0, a * -4, a * Fraction(-6, 35),
                       a.scaled(2), a.scaled(Fraction(-3, 40)), a.scaled(0), a / -6,
                       a / Fraction(-10, 21),
                       a.pow_int(3), a.differentiate(), a + b, a - b, a - a]
            want_sum = [x + y for x, y in zip(fractions_of(a), fractions_of(b))]
            assert fractions_of(a + b) == want_sum
            assert (a - a).nums == (0,) * (order + 1) and (a - a).den == 1
            for m in range(order + 2):
                results.append(a.shift(m))
                want = ([0] * m + fractions_of(a))[: order + 1]
                assert fractions_of(a.shift(m)) == want
            if b.nums[0]:
                results += [b.reciprocal(), a * b.reciprocal(), b.pow_int(-2)]
            inner = rng.choice(cases)
            inner = inner - RationalSeries.polynomial([inner.coefficient(0)], order)
            results.append(a.compose(inner))
            for series in results:
                assert_canonical(series)

    @pytest.mark.parametrize("order", REFERENCE_ORDERS)
    def test_equality_matches_coefficients(self, order):
        cases = list(random_cases(6000 + order, order))
        cases += [a * 0 for a in cases[:2]] + [-a for a in cases[:4]]
        cases += [RationalSeries([0] * (order + 1), order)]
        for a in cases:
            for b in cases:
                equal = fractions_of(a) == fractions_of(b)
                assert (a == b) == equal
                if equal:
                    assert hash(a) == hash(b)


# -- kernels at large sizes and at the packing width ----------------------------
# A product packs each factor's numerators into one int, in digits of
# bits(a) + bits(b) + ceil(log2 L) + 1 bits rounded up to whole bytes, where
# bits is the bit length of a factor's largest numerator and L the shorter
# factor's length without trailing zeros.  Every case below is also multiplied
# by its edge partner, whose product needs every bit of that width.


def edge_partner(series):
    """The constant 2^e - 1 whose product with ``series`` needs every bit of
    the packing width, or None when no constant does.

    With x the largest numerator, the width is bits(x) + e + 1 bits; e makes
    it 8j + 1, so one bit less is a whole byte less, and
    |x| (2^e - 1) >= 2^(bits(x) + e - 1) puts the product in the top bit.
    A power of two |x| never gets there.
    """
    top = max(map(abs, series.nums))
    if top & (top - 1) == 0:
        return None
    bits = top.bit_length()
    e = -bits % 8 or 8
    while top * ((1 << e) - 1) < 1 << (bits + e - 1):
        e += 8
    return RationalSeries.polynomial([(1 << e) - 1], series.order)


def assert_kernels_match_reference(cases):
    """Products of every pair of cases, of each case with its edge partner,
    and the reciprocal of each invertible case equal the Fraction reference."""
    for a in cases:
        partner = edge_partner(a)
        for b in cases + ([partner] if partner else []):
            product = a * b
            assert_canonical(product)
            want = reference_mul(fractions_of(a), fractions_of(b))
            assert fractions_of(product) == want
        if a.nums[0]:
            inverse = a.reciprocal()
            assert_canonical(inverse)
            assert fractions_of(inverse) == reference_reciprocal(fractions_of(a))


def random_ints(rng, count, low_bits, high_bits):
    """Nonzero ints of low_bits..high_bits bits, with random signs."""
    out = []
    for _ in range(count):
        bits = rng.randint(low_bits, high_bits)
        out.append(rng.choice([-1, 1]) * rng.randint(1 << (bits - 1), (1 << bits) - 1))
    return out


class TestKernelsAtSize:
    @pytest.mark.parametrize("order", [1, 5, 16])
    def test_large_numerators(self, order):
        rng = random.Random(7000 + order)
        cases = []
        for _ in range(3):
            nums = random_ints(rng, order + 1, 200, 2000)
            den = rng.choice([1, 3, 2**64 + 1, 6**90])
            cases.append(RationalSeries([Fraction(x, den) for x in nums], order))
        assert all(200 <= abs(x).bit_length() <= 2000 for s in cases for x in s.nums)
        assert_kernels_match_reference(cases)

    @pytest.mark.parametrize("order", [2, 12, 40])
    def test_constant_terms(self, order):
        # powers of two, odd constants and constants sharing factors with den
        rng = random.Random(8000 + order)
        cases = []
        for constant, den in [(2**40, 3), (-2**7, 1), (1, 5), (-1, 2**9), (2**61 - 1, 1),
                              (-45, 7), (12, 2**5 * 9), (-2**10 * 15, 2**6 * 3 * 5**4)]:
            nums = [constant] + random_ints(rng, order, 1, 50)
            series = RationalSeries([Fraction(x, den) for x in nums], order)
            assert series.coefficient(0) == Fraction(constant, den)
            cases.append(series)
        assert any(math.gcd(s.nums[0], s.den) > 1 for s in cases)
        assert_kernels_match_reference(cases)

    @pytest.mark.parametrize("order", [0, 1, 6, 40])
    def test_short_factors_and_zeros(self, order):
        # degree 0 and 1, nonzero prefixes followed by zeros, and zero series
        rng = random.Random(9000 + order)
        cases = [RationalSeries.polynomial([0], order)]
        for length in (1, 2, order // 2 + 1, order + 1):
            low = [Fraction(x, rng.randint(1, 9)) for x in random_ints(rng, length, 1, 90)]
            cases.append(RationalSeries.polynomial(low[: order + 1], order))
        if order >= 2:
            cases.append(RationalSeries.polynomial([0, 0, -3], order))
        assert_kernels_match_reference(cases)

    @pytest.mark.parametrize("shift", [(0, 1), (100, 101), (997, 1004)],
                             ids=["s0-t1", "s100-t101", "s997-t1004"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_coefficient_at_width_edge(self, shift, sign):
        # bits 3 + s and 3 + t, L = 2: the width is w = s + t + 8 = 8j + 1, and
        # the z coefficient 7*7 + 5*3 = 2^6 times 2^(s+t) is sign * 2^(w - 2),
        # which a digit one bit narrower cannot hold with the positive sign
        s, t = shift
        for order in (1, 40):
            a = RationalSeries.polynomial([sign * 7 << s, sign * 5 << s], order)
            b = RationalSeries.polynomial([3 << t, 7 << t], order)
            product = a * b
            assert product.nums[1] == sign << (s + t + 6) and product.den == 1
            assert_kernels_match_reference([a, b])

    def test_ledger_basis(self):
        # R D^k for k <= 21 at order 40 with R = sqrt(1+z^2), D = 1 - z + R:
        # the products that build them and the reciprocals the ledger takes
        order = 40
        root = RationalSeries.polynomial([1, 0, 1], order).sqrt()
        big_d = RationalSeries.polynomial([1, -1], order) + root
        power, cases = RationalSeries.one(order), []
        for _ in range(22):
            product = root * power
            want = reference_mul(fractions_of(root), fractions_of(power))
            assert fractions_of(product) == want
            cases.append(product)
            want = reference_mul(fractions_of(power), fractions_of(big_d))
            power = power * big_d
            assert fractions_of(power) == want
        assert all(s.nums[0] for s in cases)
        for s in cases:
            assert_kernels_match_reference([s])
