"""Exact scalar and truncated-power-series arithmetic over rationals scaled by sqrt(2).

Every amplitude of the walk and every generating-function coefficient lives in
Q union sqrt(2)*Q, so a two-component scalar (q, k) representing q * sqrt(2)**k
with k in {0, 1} is enough; no general computer algebra is required.

Series keep an explicit truncation order.  Binary operations on series of
different orders raise instead of silently truncating, because silent
truncation is the classic source of false "exact equivalence" results.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
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
        else:
            r = k % 2
            # absorb (sqrt 2)^2 = 2 into the rational part
            q = q * Fraction(2) ** ((k - r) // 2)
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

    def __pow__(self, n: int) -> "Sqrt2Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return Sqrt2Scalar(self.q**n, self.k * n)

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


_ONE = Sqrt2Scalar.one()


class RationalSeries:
    """Truncated formal power series: (global sqrt(2)-scalar) * sum coeffs[i] z^i.

    Coefficients are plain Fractions; the optional global scalar carries the
    sqrt(2) grading so each stored coefficient stays in Q.  The coefficient of
    z^i as a ring element is ``coefficient(i) = scale * coeffs[i]``.
    """

    __slots__ = ("coeffs", "order", "scale")

    def __init__(self, coeffs: Iterable[RationalLike], order: int,
                 scale: Sqrt2Scalar = _ONE):
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        if scale.is_zero:
            raise ValueError("scale must be nonzero; encode zero in coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "RationalSeries":
        return cls([Fraction(0)] * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls.polynomial([1], order)

    @classmethod
    def z(cls, order: int) -> "RationalSeries":
        return cls.polynomial([0, 1], order)

    @classmethod
    def polynomial(cls, low_coeffs: Sequence[RationalLike], order: int,
                   scale: Sqrt2Scalar = _ONE) -> "RationalSeries":
        if len(low_coeffs) > order + 1:
            raise ValueError("polynomial degree exceeds series order")
        coeffs = list(low_coeffs) + [0] * (order + 1 - len(low_coeffs))
        return cls(coeffs, order, scale)

    # -- accessors ----------------------------------------------------------

    def coefficient(self, i: int) -> Sqrt2Scalar:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return self.scale * self.coeffs[i]

    def coefficients(self) -> list:
        return [self.coefficient(i) for i in range(self.order + 1)]

    @property
    def constant_term(self) -> Sqrt2Scalar:
        return self.coefficient(0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- helpers -------------------------------------------------------------

    def _require_same_order(self, other: "RationalSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed truncation orders {self.order} and {other.order}")

    def _rescaled_to(self, scale: Sqrt2Scalar) -> tuple:
        """Coefficients of self expressed against the given scale."""
        ratio = self.scale / scale
        if not ratio.is_rational:
            raise ValueError("cannot combine series of mixed sqrt(2) grade")
        r = ratio.to_fraction()
        return tuple(c * r for c in self.coeffs)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        self._require_same_order(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        mine = self.coeffs
        theirs = other._rescaled_to(self.scale)
        return RationalSeries([a + b for a, b in zip(mine, theirs)],
                              self.order, self.scale)

    def __neg__(self) -> "RationalSeries":
        return RationalSeries([-c for c in self.coeffs], self.order, self.scale)

    def __sub__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return RationalSeries([c * other for c in self.coeffs],
                                  self.order, self.scale)
        if isinstance(other, Sqrt2Scalar):
            if other.is_zero:
                return RationalSeries.zero(self.order)
            return RationalSeries(self.coeffs, self.order, self.scale * other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(out, n, self.scale * other.scale)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series not invertible")
        n = self.order
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / c0
        for m in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, m + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * inv[m - i]
            inv[m] = -acc / c0
        return RationalSeries(inv, n, self.scale.inverse())

    def __truediv__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return RationalSeries([c / other for c in self.coeffs],
                                  self.order, self.scale)
        if isinstance(other, Sqrt2Scalar):
            return RationalSeries(self.coeffs, self.order, self.scale / other)
        if isinstance(other, RationalSeries):
            return self * other.reciprocal()
        return NotImplemented

    def sqrt(self) -> "RationalSeries":
        """Series square root; the constant term must be a square in the ring."""
        c0 = self.constant_term
        if c0.is_zero:
            raise ValueError("series has no square root in ring")
        try:
            root0 = c0.sqrt()
        except ValueError:
            raise ValueError("series has no square root in ring") from None
        n = self.order
        # self = c0 * (1 + u), take sqrt(1+u) with rational recurrence
        base = [c / self.coeffs[0] for c in self.coeffs]
        r = [Fraction(0)] * (n + 1)
        r[0] = Fraction(1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, m):
                acc += r[i] * r[m - i]
            r[m] = (base[m] - acc) / 2
        return RationalSeries(r, n, root0)

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
        """Binomial power (1 + u)**c for rational c; requires constant term 1."""
        c = _as_fraction(c)
        if self.constant_term != _ONE:
            raise ValueError("rational powers need constant term exactly 1")
        # normalize away the scale: value series = coeffs / coeffs[0]
        s = [cc / self.coeffs[0] for cc in self.coeffs]
        n = self.order
        h = [Fraction(0)] * (n + 1)
        h[0] = Fraction(1)
        # from s*h' = c*s'*h:  m*h_m = sum_{j>=1} (c*j - (m - j)) s_j h_{m-j}
        for m in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, m + 1):
                if s[j]:
                    acc += (c * j - (m - j)) * s[j] * h[m - j]
            h[m] = acc / m
        return RationalSeries(h, n)

    def differentiate(self) -> "RationalSeries":
        """Formal derivative, truncated at the same order (top coefficient 0)."""
        n = self.order
        out = [self.coeffs[i + 1] * (i + 1) for i in range(n)] + [Fraction(0)]
        return RationalSeries(out, n, self.scale)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """Substitution self(inner(z)); inner must have zero constant term."""
        self._require_same_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("substitution needs zero constant term")
        if not inner.scale.is_rational:
            raise ValueError("substitution argument must be rational-graded")
        n = self.order
        g = [c * inner.scale.q for c in inner.coeffs]
        inner_q = RationalSeries(g, n)
        out = RationalSeries.polynomial([self.coeffs[0]], n)
        power = RationalSeries.one(n)
        for k in range(1, n + 1):
            power = power * inner_q
            if self.coeffs[k]:
                out = out + power * self.coeffs[k]
        return RationalSeries(out.coeffs, n, self.scale)

    def shift(self, m: int) -> "RationalSeries":
        """Multiply by z**m, truncating at the order."""
        if m < 0:
            raise ValueError("negative shift")
        out = [Fraction(0)] * m + list(self.coeffs[: self.order + 1 - m])
        return RationalSeries(out, self.order, self.scale)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(self.coefficient(i) == other.coefficient(i)
                   for i in range(self.order + 1))

    def __hash__(self):
        return hash(tuple(self.coefficients()))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[: min(5, self.order + 1)])
        tail = ", ..." if self.order >= 5 else ""
        return f"RationalSeries([{head}{tail}], order={self.order}, scale={self.scale!r})"


def random_rational_series(rng, order: int, max_num: int = 9,
                           max_den: int = 9, constant: RationalLike | None = None
                           ) -> RationalSeries:
    """Deterministic (given rng) random series, for property checks."""
    coeffs = [Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
              for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = _as_fraction(constant)
    return RationalSeries(coeffs, order)
