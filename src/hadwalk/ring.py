"""Exact truncated-power-series arithmetic over the rationals.

Every generating-function coefficient of the walk is rational once the
odd-time families carry their one factor sqrt(2) in their definition (see
``genfun``), so no general computer algebra is required.  A series is a
tuple of integer numerators over one positive integer denominator, and its
arithmetic runs on Python ints alone.  A product is one big-integer multiply
(Kronecker substitution): each factor's numerators are packed into one int as
signed digits wide enough for every coefficient of the product, and the
product's digits are read back, over the product of the denominators.  A sum
cross-multiplies, and scaling by a rational multiplies through.  The
reciprocal runs its recurrence over one common denominator that each step
extends only by the factor its new term needs, so the integers stay near the
size of the reduced result.  The rational power of a series whose constant
term is 1 runs its recurrence over powers of that term's numerator, and the
square root is its power 1/2.  Each operation ends with one gcd pass, which
keeps gcd(den, *nums) == 1, so equal series have equal parts.

Series keep an explicit truncation order.  Binary operations on series of
different orders raise instead of silently truncating, because silent
truncation is the classic source of false "exact equivalence" results.

All values are immutable after construction.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

RationalLike = int | Fraction

__all__ = [
    "RationalSeries",
    "random_rational_series",
]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _canonical(nums, den: int, order: int) -> "RationalSeries":
    """Series sum nums[i]/den z^i for a nonzero den, in canonical form: a
    positive denominator, then one gcd pass."""
    if den < 0:
        nums, den = [-a for a in nums], -den
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [a // g for a in nums], den // g
    series = object.__new__(RationalSeries)
    series._set(nums, den, order)
    return series


def _powers(base, top: int, first=1) -> list:
    """[first, first base, ..., first base**top], each one product from the
    last; base and first are ints or series."""
    out = [first]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _length(p: tuple) -> int:
    """len(p) without its trailing zeros."""
    k = len(p)
    while k and not p[k - 1]:
        k -= 1
    return k


def _sign_bits(count: int, size: int) -> int:
    """The int whose count digits of size bytes each hold only their top bit."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(p: tuple, size: int) -> int:
    """sum p[i] 2^(8 size i) for ints |p[i]| < 2^(8 size - 1)."""
    signs = _sign_bits(len(p), size)
    # a two's-complement digit with its top bit flipped is p[i] + 2^(8 size - 1)
    digits = b"".join([x.to_bytes(size, "little", signed=True) for x in p])
    return (int.from_bytes(digits, "little") ^ signs) - signs


def _convolve(a: tuple, b: tuple, n: int) -> list:
    """Coefficients 0..n of the product of two integer polynomials, from one
    big-integer multiply (Kronecker substitution; Harvey, J. Symb. Comput. 44,
    2009).

    Without trailing zeros, each product coefficient is a sum of at most
    L = min(len a, len b) terms, so |c_k| < L 2^(bits(a) + bits(b)), where
    bits is the bit length of a factor's largest numerator.  A digit of that
    many bits plus a sign bit, in whole bytes, holds every c_k: each factor
    is packed at that spacing into one int, the two ints are multiplied once,
    and digits 0..n of the product are read back as signed ints.
    """
    la, lb = _length(a), _length(b)
    if not (la and lb):
        return [0] * (n + 1)
    a, b = a[:la], b[:lb]
    bits = (max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
            + (min(la, lb) - 1).bit_length() + 1)
    size = (bits + 7) // 8
    m = n + 1
    signs = _sign_bits(m, size)
    # adding the sign bits makes digits 0..n nonnegative, so no borrow crosses
    # them; flipping the bits back leaves each digit in two's complement
    low = ((_pack(a, size) * _pack(b, size) + signs) ^ signs) & ((1 << (8 * size * m)) - 1)
    buf = low.to_bytes(size * m, "little")
    return [int.from_bytes(buf[i:i + size], "little", signed=True)
            for i in range(0, size * m, size)]


class RationalSeries:
    """Truncated formal power series sum (nums[i] / den) z^i.

    ``nums`` is a tuple of ints and ``den`` one positive int, so the
    coefficient of z^i is ``coefficient(i) = Fraction(nums[i], den)``.  The
    form is canonical: ``gcd(den, *nums) == 1``, so the zero series has
    ``den == 1`` and two series are equal exactly when their
    ``(order, den, nums)`` are.  The constructor takes ints and Fractions.
    """

    __slots__ = ("nums", "den", "order")

    def __init__(self, coeffs: Iterable[RationalLike], order: int):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(c).__name__}")
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        # over the lcm of lowest-terms denominators the numerators share no
        # factor with it, so this is already canonical
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den, order)

    def _set(self, nums, den: int, order: int) -> None:
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "order", order)

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
    def polynomial(cls, low_coeffs: Sequence[RationalLike], order: int) -> "RationalSeries":
        if len(low_coeffs) > order + 1:
            raise ValueError("polynomial degree exceeds series order")
        coeffs = list(low_coeffs) + [0] * (order + 1 - len(low_coeffs))
        return cls(coeffs, order)

    # -- accessors ----------------------------------------------------------

    def coefficient(self, i: int) -> Fraction:
        """The coefficient of z^i."""
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return Fraction(self.nums[i], self.den)

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
        den_a, den_b = self.den, other.den
        g = math.gcd(den_a, den_b)
        mul_a, mul_b = den_b // g, den_a // g
        nums = [x * mul_a + y * mul_b for x, y in zip(self.nums, other.nums)]
        return _canonical(nums, den_a // g * den_b, self.order)

    def __neg__(self) -> "RationalSeries":
        return _canonical([-a for a in self.nums], self.den, self.order)

    def __sub__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def scaled(self, q: RationalLike) -> "RationalSeries":
        """self * q for a rational q."""
        q = _as_fraction(q)
        num = q.numerator  # a Python-level property: read once, not per coefficient
        return _canonical([a * num for a in self.nums], self.den * q.denominator, self.order)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        return _canonical(_convolve(self.nums, other.nums, n), self.den * other.den, n)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With a = nums, 1/a = sum b_m z^m where b_0 = 1/a0 and
        b_m = -(1/a0) sum_{i=1..m} a_i b_(m-i).  The b_m are held as integers
        over one common denominator d.  The new term is t / (d a0) with t an
        integer, so d grows only by a0 / gcd(t, a0), the part of a0 that t
        does not cancel, and stays near the reduced result's denominator
        instead of a0^(m+1).
        """
        a = self.nums
        a0 = a[0]
        if a0 == 0:
            raise ValueError("series not invertible")
        n = self.order
        b, d = [1], a0  # b_j = b[j] / d
        for m in range(1, n + 1):
            t = -sum(map(operator.mul, a[1:m + 1], reversed(b)))
            g = math.gcd(t, a0)
            f = a0 // g
            if f != 1:
                b = [x * f for x in b]
                d *= f
            b.append(t // g)
        return _canonical([x * self.den for x in b], d, n)

    def __truediv__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(1 / Fraction(other))
        return NotImplemented

    def sqrt(self) -> "RationalSeries":
        """Series square root (1 + u)^(1/2), the binomial power of
        ``pow_rational``; requires constant term 1."""
        return self.pow_rational(Fraction(1, 2))

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
        if self.nums[0] != self.den:
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
        return _canonical(nums, pw[n] * fact, n)

    def differentiate(self) -> "RationalSeries":
        """Formal derivative, truncated at the same order (top coefficient 0)."""
        n = self.order
        nums = [self.nums[i + 1] * (i + 1) for i in range(n)] + [0]
        return _canonical(nums, self.den, n)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """Substitution self(inner(z)); inner must have zero constant term."""
        self._require_same_order(inner)
        if inner.nums[0] != 0:
            raise ValueError("substitution needs zero constant term")
        n = self.order
        # sum nums[k] inner^k, divided by den at the end
        out = RationalSeries.polynomial([self.nums[0]], n)
        power = RationalSeries.one(n)
        for k in range(1, n + 1):
            power = power * inner
            if self.nums[k]:
                out = out + power * self.nums[k]
        return _canonical(out.nums, out.den * self.den, n)

    def shift(self, m: int) -> "RationalSeries":
        """Multiply by z**m, truncating at the order."""
        if m < 0:
            raise ValueError("negative shift")
        nums = ((0,) * m + self.nums)[: self.order + 1]
        return _canonical(nums, self.den, self.order)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return (self.order, self.den, self.nums) == (other.order, other.den, other.nums)

    def __hash__(self):
        return hash((self.order, self.den, self.nums))

    def __repr__(self) -> str:
        head = ", ".join(str(a) for a in self.nums[: min(5, self.order + 1)])
        tail = ", ..." if self.order >= 5 else ""
        return f"RationalSeries(nums=[{head}{tail}], den={self.den}, order={self.order})"


def random_rational_series(rng, order: int, constant: RationalLike | None = None
                           ) -> RationalSeries:
    """Deterministic (given rng) random series with coefficients a/b,
    |a| <= 9 and 1 <= b <= 9, for property checks; ``constant`` replaces the
    constant term."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = _as_fraction(constant)
    return RationalSeries(coeffs, order)
