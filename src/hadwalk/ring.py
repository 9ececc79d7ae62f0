"""Exact truncated-power-series arithmetic over rationals scaled by sqrt(2).

Every amplitude of the walk and every generating-function coefficient lives in
Q union sqrt(2)*Q, so no general computer algebra is required.  A series is a
tuple of integer numerators over one positive integer denominator, and a grade
bit in {0, 1}: the power of sqrt(2) that every coefficient carries.  Its
arithmetic runs on Python ints alone.  A product is one big-integer multiply
(Kronecker substitution): each factor's numerators are packed into one int as
signed digits wide enough for every coefficient of the product, and the
product's digits are read back, over the product of the denominators.  A sum
cross-multiplies, and scaling by q sqrt(2)^k multiplies through.  The
reciprocal runs its recurrence over one common denominator that each step
extends only by the factor its new term needs, so the integers stay near the
size of the reduced result.  The rational power runs its recurrence over
powers of the constant term's numerator, and the square root is the power 1/2
of the series over its constant term.  Each operation ends with one pass that
absorbs any power of 2 out of sqrt(2)^grade, (sqrt 2)^(2e + b) = 2^e
(sqrt 2)^b, and one gcd pass, which keeps gcd(den, *nums) == 1, so equal
series have equal parts.

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


def _canonical(nums, den: int, order: int, grade: int) -> "RationalSeries":
    """Series sqrt(2)**grade * sum nums[i]/den z^i for a nonzero den and any
    integer grade, in canonical form: with grade = 2e + b, b in {0, 1}, the
    factor 2**|e| goes into the numerators or the denominator, then one gcd
    pass."""
    e, grade = divmod(grade, 2)
    if e > 0:
        nums = [a << e for a in nums]
    elif e < 0:
        den <<= -e
    if den < 0:
        nums, den = [-a for a in nums], -den
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [a // g for a in nums], den // g
    series = object.__new__(RationalSeries)
    series._set(nums, den, order, grade)
    return series


def _constant_root(c0: Fraction, grade: int) -> tuple:
    """(r, k) with r rational and (r sqrt(2)**k)**2 == c0 sqrt(2)**grade.

    A nonzero value has a root in the ring iff it is rational, positive and
    of the form (a/b)**2 * 2**j; the root is then (a/b) * sqrt(2)**j.  Zero and
    every other value raise ValueError.
    """
    if c0 == 0:
        raise ValueError("series has no square root in ring")
    if not grade and c0 > 0:
        num, den = c0.numerator, c0.denominator
        tn = (num & -num).bit_length() - 1
        td = (den & -den).bit_length() - 1
        num >>= tn
        den >>= td
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd), tn - td
    raise ValueError("series has no square root in ring")


def _powers(base: int, top: int) -> list:
    """[base**0, ..., base**top]."""
    out = [1]
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
    """Truncated formal power series sqrt(2)**grade * sum (nums[i] / den) z^i.

    ``nums`` is a tuple of ints, ``den`` one positive int and ``grade`` 0 or
    1, so the coefficient of z^i is ``coefficient(i) = Fraction(nums[i], den)``
    times sqrt(2)**grade.  The form is canonical: ``gcd(den, *nums) == 1`` and the zero series has
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

    def coefficient(self, i: int) -> Fraction:
        """The rational part of the coefficient of z^i; it carries sqrt(2)**grade."""
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return Fraction(self.nums[i], self.den)

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

    def scaled(self, q: RationalLike = 1, k: int = 0) -> "RationalSeries":
        """self * q * sqrt(2)**k for a rational q and any integer k."""
        q = _as_fraction(q)
        return _canonical([a * q.numerator for a in self.nums], self.den * q.denominator,
                          self.order, self.grade + k)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        return _canonical(_convolve(self.nums, other.nums, n), self.den * other.den,
                          n, self.grade + other.grade)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With a = nums, 1/a = sum b_m z^m where b_0 = 1/a0 and
        b_m = -(1/a0) sum_{i=1..m} a_i b_(m-i).  The b_m are held as integers
        over one common denominator d.  The new term is t / (d a0) with t an
        integer, so d grows only by a0 / gcd(t, a0), the part of a0 that t
        does not cancel, and stays near the reduced result's denominator
        instead of a0^(m+1).  The grade is negated: 1/(x sqrt2) =
        sqrt2^(-1) / x = sqrt2 / (2x).
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
        return _canonical([x * self.den for x in b], d, n, -self.grade)

    def __truediv__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(1 / Fraction(other))
        if isinstance(other, RationalSeries):
            return self * other.reciprocal()
        return NotImplemented

    def sqrt(self) -> "RationalSeries":
        """Series square root; the constant term must be a square in the ring.

        self = c0 (1 + u) with c0 rational, and the root is
        root(c0) (1 + u)^(1/2), the binomial power of ``pow_rational``.
        """
        c0 = self.coefficient(0)
        root0, k = _constant_root(c0, self.grade)
        return self.scaled(1 / c0).pow_rational(Fraction(1, 2)).scaled(root0, k)

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
