"""Exact scalar and truncated-power-series arithmetic over rationals scaled by sqrt(2).

Every amplitude of the walk and every generating-function coefficient lives in
Q union sqrt(2)*Q, so a two-component scalar (q, k) representing q * sqrt(2)**k
with k in {0, 1} is enough; no general computer algebra is required.

A series is a tuple of integer numerators over one positive integer
denominator, and a grade bit in {0, 1}: the power of sqrt(2) that every
coefficient carries.  Its arithmetic runs on Python ints alone: a product is
an integer convolution over the product of the denominators (a grade of 2 is
absorbed by doubling the numerators), a sum cross-multiplies, and the
reciprocal, square root and rational power run their recurrences on integers
over a running denominator made of powers of the constant term's numerator.
Each operation ends with one gcd pass, which keeps gcd(den, *nums) == 1, so
equal series have equal parts.

Series keep an explicit truncation order.  Binary operations on series of
different orders raise instead of silently truncating, because silent
truncation is the classic source of false "exact equivalence" results.

All values are immutable after construction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "Sqrt2Scalar",
    "RationalSeries",
    "random_rational_series",
]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Sqrt2Scalar:
    """Exact value q * sqrt(2)**k with q rational and k normalized into {0, 1}."""

    __slots__ = ("q", "k")

    def __init__(self, q: RationalLike, k: int = 0):
        q = _as_fraction(q)
        if q == 0:
            k = 0
        elif k not in (0, 1):
            # absorb (sqrt 2)^(k - r) = 2^e into the rational part by a shift
            r = k % 2
            e = (k - r) // 2
            if e > 0:
                q = Fraction(q.numerator << e, q.denominator)
            else:
                q = Fraction(q.numerator, q.denominator << -e)
            k = r
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt2Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "Sqrt2Scalar":
        return cls(1, 0)

    @classmethod
    def zero(cls) -> "Sqrt2Scalar":
        return cls(0, 0)

    @classmethod
    def from_mantissa(cls, mantissa: int, halftime: int) -> "Sqrt2Scalar":
        """Value mantissa * sqrt(2)**(-halftime), the walk's amplitude encoding."""
        return cls(Fraction(mantissa), -halftime)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    @property
    def is_rational(self) -> bool:
        return self.k == 0

    def to_fraction(self) -> Fraction:
        if self.k != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.q

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Sqrt2Scalar") -> "Sqrt2Scalar":
        if not isinstance(other, Sqrt2Scalar):
            return NotImplemented
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if self.k != other.k:
            raise ValueError("cannot add scalars of mixed sqrt(2) grade")
        return Sqrt2Scalar(self.q + other.q, self.k)

    def __neg__(self) -> "Sqrt2Scalar":
        return Sqrt2Scalar(-self.q, self.k)

    def __sub__(self, other: "Sqrt2Scalar") -> "Sqrt2Scalar":
        return self + (-other)

    def __mul__(self, other) -> "Sqrt2Scalar":
        if isinstance(other, Sqrt2Scalar):
            return Sqrt2Scalar(self.q * other.q, self.k + other.k)
        if isinstance(other, (int, Fraction)):
            return Sqrt2Scalar(self.q * other, self.k)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Sqrt2Scalar":
        if self.q == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        # 1/(q*sqrt2) = (1/(2q)) * sqrt2
        if self.k == 0:
            return Sqrt2Scalar(1 / self.q, 0)
        return Sqrt2Scalar(1 / (2 * self.q), 1)

    def __truediv__(self, other) -> "Sqrt2Scalar":
        if isinstance(other, Sqrt2Scalar):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return Sqrt2Scalar(self.q / other, self.k)
        return NotImplemented

    def sqrt(self) -> "Sqrt2Scalar":
        """Exact square root when one exists in the ring, else ValueError.

        A value has a ring square root iff it is rational, nonnegative, and of
        the form (a/b)**2 * 2**j; the root is then (a/b) * sqrt(2)**j.
        """
        if self.q == 0:
            return Sqrt2Scalar.zero()
        if self.k != 0 or self.q < 0:
            raise ValueError("scalar has no square root in ring")
        num, den = self.q.numerator, self.q.denominator
        tn = (num & -num).bit_length() - 1
        td = (den & -den).bit_length() - 1
        num >>= tn
        den >>= td
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError("scalar has no square root in ring")
        return Sqrt2Scalar(Fraction(rn, rd), tn - td)

    # -- comparisons / conversions ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Sqrt2Scalar):
            return self.q == other.q and self.k == other.k
        if isinstance(other, (int, Fraction)):
            return self.k == 0 and self.q == other
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.k))

    def __float__(self) -> float:
        val = float(self.q)
        return val * math.sqrt(2.0) if self.k else val

    def __repr__(self) -> str:
        if self.k == 0:
            return f"Sqrt2Scalar({self.q})"
        return f"Sqrt2Scalar({self.q}*sqrt2)"


def _canonical(nums, den: int, order: int, grade: int) -> "RationalSeries":
    """Series sqrt(2)**grade * sum nums[i]/den z^i for a nonzero den and a
    grade in {0, 1, 2}, in canonical form: a grade of 2 doubles the
    numerators, then one gcd pass."""
    if grade == 2:
        nums, grade = [2 * a for a in nums], 0
    if den < 0:
        nums, den = [-a for a in nums], -den
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [a // g for a in nums], den // g
    series = object.__new__(RationalSeries)
    series._set(nums, den, order, grade)
    return series


def _scaled(series: "RationalSeries", value) -> "RationalSeries":
    """series * value for an int, Fraction or Sqrt2Scalar value."""
    q, k = (value.q, value.k) if isinstance(value, Sqrt2Scalar) else (value, 0)
    return _canonical([a * q.numerator for a in series.nums],
                      series.den * q.denominator, series.order, series.grade + k)


def _powers(base: int, top: int) -> list:
    """[base**0, ..., base**top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _convolve(a: tuple, b: tuple, n: int) -> list:
    """Coefficients 0..n of the product of two integer polynomials given to
    order n; each one is a C-level sum over the nonzero range of the factor
    of lower degree."""
    deg_a = max((i for i, x in enumerate(a) if x), default=-1)
    deg_b = max((i for i, x in enumerate(b) if x), default=-1)
    if deg_b < deg_a:
        a, b, deg_a = b, a, deg_b
    a = a[: deg_a + 1]
    rb = b[::-1]  # rb[n - j] == b[j]
    return [sum(map(operator.mul, a[: k + 1], rb[n - k:])) for k in range(n + 1)]


class RationalSeries:
    """Truncated formal power series sqrt(2)**grade * sum (nums[i] / den) z^i.

    ``nums`` is a tuple of ints, ``den`` one positive int and ``grade`` 0 or
    1, so the coefficient of z^i as a ring element is
    ``coefficient(i) = Sqrt2Scalar(Fraction(nums[i], den), grade)``.  The form
    is canonical: ``gcd(den, *nums) == 1`` and the zero series has
    ``den == 1`` and grade 0, so two series are equal exactly when their
    ``(order, grade, den, nums)`` are.  The constructor takes ints and
    Fractions.
    """

    __slots__ = ("nums", "den", "order", "grade")

    def __init__(self, coeffs: Iterable[RationalLike], order: int, grade: int = 0):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(c).__name__}")
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        if grade not in (0, 1):
            raise ValueError(f"grade must be 0 or 1, got {grade}")
        # over the lcm of lowest-terms denominators the numerators share no
        # factor with it, so this is already canonical
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den, order, grade)

    def _set(self, nums, den: int, order: int, grade: int) -> None:
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "grade", grade if any(nums) else 0)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls.polynomial([1], order)

    @classmethod
    def z(cls, order: int) -> "RationalSeries":
        return cls.polynomial([0, 1], order)

    @classmethod
    def polynomial(cls, low_coeffs: Sequence[RationalLike], order: int,
                   grade: int = 0) -> "RationalSeries":
        if len(low_coeffs) > order + 1:
            raise ValueError("polynomial degree exceeds series order")
        coeffs = list(low_coeffs) + [0] * (order + 1 - len(low_coeffs))
        return cls(coeffs, order, grade)

    # -- accessors ----------------------------------------------------------

    def coefficient(self, i: int) -> Sqrt2Scalar:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return Sqrt2Scalar(Fraction(self.nums[i], self.den), self.grade)

    def coefficients(self) -> list:
        return [self.coefficient(i) for i in range(self.order + 1)]

    @property
    def constant_term(self) -> Sqrt2Scalar:
        return self.coefficient(0)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- helpers -------------------------------------------------------------

    def _require_same_order(self, other: "RationalSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed truncation orders {self.order} and {other.order}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        self._require_same_order(other)
        if self.grade != other.grade:
            # the zero series has grade 0 and adds to either grade
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot combine series of mixed sqrt(2) grade")
        den_a, den_b = self.den, other.den
        g = math.gcd(den_a, den_b)
        mul_a, mul_b = den_b // g, den_a // g
        nums = [x * mul_a + y * mul_b for x, y in zip(self.nums, other.nums)]
        return _canonical(nums, den_a // g * den_b, self.order, self.grade)

    def __neg__(self) -> "RationalSeries":
        return _canonical([-a for a in self.nums], self.den, self.order, self.grade)

    def __sub__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction, Sqrt2Scalar)):
            return _scaled(self, other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        return _canonical(_convolve(self.nums, other.nums, n), self.den * other.den,
                          n, self.grade + other.grade)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With a = nums, 1/a = sum b_m z^m / a0^(m+1) where b_0 = 1 and
        b_m = -sum_{i=1..m} a_i a0^(i-1) b_(m-i), all in integers.  A grade
        of 1 stays 1 and puts a factor 2 in the denominator, because
        1/(x sqrt2) = sqrt2 / (2x).
        """
        a = self.nums
        a0 = a[0]
        if a0 == 0:
            raise ValueError("series not invertible")
        n = self.order
        pw = _powers(a0, n + 1)
        c = [a[i] * pw[i - 1] for i in range(1, n + 1)]  # c[i-1] = a_i a0^(i-1)
        b = [1]
        for m in range(1, n + 1):
            b.append(-sum(map(operator.mul, c[:m], reversed(b))))
        nums = [b[m] * pw[n - m] * self.den for m in range(n + 1)]
        return _canonical(nums, pw[n + 1] * (1 + self.grade), n, self.grade)

    def __truediv__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            other = Sqrt2Scalar(other)
        if isinstance(other, Sqrt2Scalar):
            return _scaled(self, other.inverse())
        if isinstance(other, RationalSeries):
            return self * other.reciprocal()
        return NotImplemented

    def sqrt(self) -> "RationalSeries":
        """Series square root; the constant term must be a square in the ring.

        self = c0 * (1 + u) with u_m = a_m / a0 (a = nums), and the root is
        root(c0) * sum r_m z^m with r_0 = 1 and r_m = 2 t_m / (4 a0)^m, where
        t_m = a_m (4 a0)^(m-1) - sum_{i=1..m-1} t_i t_(m-i), all in integers.
        """
        c0 = self.constant_term
        if c0.is_zero:
            raise ValueError("series has no square root in ring")
        try:
            root0 = c0.sqrt()
        except ValueError:
            raise ValueError("series has no square root in ring") from None
        a = self.nums
        n = self.order
        pw = _powers(4 * a[0], n)
        t = [0]
        for m in range(1, n + 1):
            t.append(a[m] * pw[m - 1] - sum(map(operator.mul, t[1:m], t[m - 1:0:-1])))
        p, q = root0.q.numerator, root0.q.denominator
        nums = [pw[n] * p] + [2 * t[m] * pw[n - m] * p for m in range(1, n + 1)]
        return _canonical(nums, pw[n] * q, n, root0.k)

    def pow_int(self, n: int) -> "RationalSeries":
        """Integer power; negative exponents go through the reciprocal."""
        if n < 0:
            return self.reciprocal().pow_int(-n)
        result = RationalSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def pow_rational(self, c: RationalLike) -> "RationalSeries":
        """Binomial power (1 + u)**c for rational c; requires constant term 1.

        With c = p/q, u_j = a_j / a0 (a = nums) and h = (1 + u)**c, the
        relation (1+u) h' = c u' h gives h_m = g_m / ((q a0)^m m!) with g_0 = 1
        and g_m = sum_{j=1..m} (p j - q (m-j)) a_j (q a0)^(j-1)
        (m-1)!/(m-j)! g_(m-j), all in integers.
        """
        c = _as_fraction(c)
        if self.grade or self.nums[0] != self.den:
            raise ValueError("rational powers need constant term exactly 1")
        p, q = c.numerator, c.denominator
        a = self.nums
        n = self.order
        pw = _powers(q * a[0], n)
        e = [0] + [a[j] * pw[j - 1] for j in range(1, n + 1)]
        g = [1]
        for m in range(1, n + 1):
            acc = 0
            falling = 1  # (m-1)!/(m-j)!
            for j in range(1, m + 1):
                if e[j]:
                    acc += (p * j - q * (m - j)) * e[j] * falling * g[m - j]
                falling *= m - j
            g.append(acc)
        fact = math.factorial(n)  # over the common denominator (q a0)^n n!
        nums = [g[m] * pw[n - m] * (fact // math.factorial(m)) for m in range(n + 1)]
        return _canonical(nums, pw[n] * fact, n, 0)

    def differentiate(self) -> "RationalSeries":
        """Formal derivative, truncated at the same order (top coefficient 0)."""
        n = self.order
        nums = [self.nums[i + 1] * (i + 1) for i in range(n)] + [0]
        return _canonical(nums, self.den, n, self.grade)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """Substitution self(inner(z)); inner must have zero constant term."""
        self._require_same_order(inner)
        if inner.nums[0] != 0:
            raise ValueError("substitution needs zero constant term")
        if inner.grade:
            raise ValueError("substitution argument must be rational-graded")
        n = self.order
        # sum nums[k] inner^k, divided by den at the end
        out = RationalSeries.polynomial([self.nums[0]], n)
        power = RationalSeries.one(n)
        for k in range(1, n + 1):
            power = power * inner
            if self.nums[k]:
                out = out + power * self.nums[k]
        return _canonical(out.nums, out.den * self.den, n, self.grade)

    def shift(self, m: int) -> "RationalSeries":
        """Multiply by z**m, truncating at the order."""
        if m < 0:
            raise ValueError("negative shift")
        nums = ((0,) * m + self.nums)[: self.order + 1]
        return _canonical(nums, self.den, self.order, self.grade)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return ((self.order, self.grade, self.den, self.nums)
                == (other.order, other.grade, other.den, other.nums))

    def __hash__(self):
        return hash((self.order, self.grade, self.den, self.nums))

    def __repr__(self) -> str:
        head = ", ".join(str(a) for a in self.nums[: min(5, self.order + 1)])
        tail = ", ..." if self.order >= 5 else ""
        return (f"RationalSeries(nums=[{head}{tail}], den={self.den}, "
                f"order={self.order}, grade={self.grade})")


def random_rational_series(rng, order: int, max_num: int = 9,
                           max_den: int = 9, constant: RationalLike | None = None
                           ) -> RationalSeries:
    """Deterministic (given rng) random series, for property checks."""
    coeffs = [Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
              for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = _as_fraction(constant)
    return RationalSeries(coeffs, order)
