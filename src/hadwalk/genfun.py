"""Generating-function engine for the walk amplitudes.

Four families of series in the time variable are handled, both as closed
forms built from sqrt(1+z^2) and as definitional series whose coefficients
come from the exact simulator:

    F_m: psi_R(2m+1, 2t+1)      G_m: psi_R(2m, 2t)
    H_m: psiTilde_L(2m+1, 2t+1) I_m: psiTilde_L(2m, 2t)

where psiTilde_L(n, t) = t/(t-n) * psi_L(n, t) for n < t; at the n = t
boundary the inversion is singular and the value is taken from the Jacobi
forms instead (see ``_h_boundary`` / ``_i_boundary``).

Closed forms, with R = sqrt(1+z^2) and D = 1 - z + R:

    F_m = 2^(m-1/2) z^m / (R D^(2m))
    G_m = -2^(m-1) z^m / (R D^(2m-1)),  m >= 1;   G_0 = z / (R D)
    H_m = -2^(m-1/2) (1+z) z^m / (R D^(2m+1))
    I_m = 2^(m-1) (1+z) z^m / (R D^(2m)),  m >= 1;   I_0 = 1/2 + (1+z)/(2R)

Also here: the Jacobi generating function with exact coefficient extraction,
Lagrange inversion, and the implicit-series (Srivastava-Singhal style)
generating function that ties the two together.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Literal

from .jacobi import _sign, jacobi_at, psi_closed_l, psi_closed_r
from .ledger import Ledger
from .ring import RationalSeries, Sqrt2Scalar, random_rational_series
from .walk import WalkCache

__all__ = [
    "closed_form_series",
    "definitional_series",
    "check_intermediate_relations",
    "jacobi_generating",
    "check_jacobi_generating",
    "equivalence_ledger",
    "lagrange_invert",
    "srivastava_singhal_series",
    "check_lagrange",
]

Family = Literal["F", "G", "H", "I"]


def _check_series(family: Family, m: int, order: int) -> None:
    if family not in ("F", "G", "H", "I"):
        raise ValueError(f"unknown family {family!r}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < m:
        raise ValueError("order must be at least m")


def _sqrt_one_plus_z2(order: int) -> RationalSeries:
    return RationalSeries.polynomial([1, 0, 1], order).sqrt()


def closed_form_series(family: Family, m: int, order: int) -> RationalSeries:
    """Exact truncated series of the closed form of ``family``'s m-th series."""
    _check_series(family, m, order)
    root = _sqrt_one_plus_z2(order)
    big_d = RationalSeries.polynomial([1, -1], order) + root
    one_plus_z = RationalSeries.polynomial([1, 1], order)

    if family == "F":
        body = (root * big_d.pow_int(2 * m)).reciprocal().shift(m)
        return body * Sqrt2Scalar(Fraction(2) ** (m - 1), 1)
    if family == "G":
        if m == 0:
            return (root * big_d).reciprocal().shift(1)
        body = (root * big_d.pow_int(2 * m - 1)).reciprocal().shift(m)
        return body * Sqrt2Scalar(-(Fraction(2) ** (m - 1)))
    if family == "H":
        body = one_plus_z * (root * big_d.pow_int(2 * m + 1)).reciprocal()
        return body.shift(m) * Sqrt2Scalar(-(Fraction(2) ** (m - 1)), 1)
    # family I
    if m == 0:
        half = RationalSeries.polynomial([Fraction(1, 2)], order)
        return half + one_plus_z * root.reciprocal() / 2
    body = one_plus_z * (root * big_d.pow_int(2 * m)).reciprocal()
    return body.shift(m) * Sqrt2Scalar(Fraction(2) ** (m - 1))


def _h_boundary(m: int) -> Fraction:
    """psiTilde_L(2m+1, 2m+1) / sqrt(2): -2^(-m-2) [J_0 + J_{-1}]."""
    j = jacobi_at(0, 2 * m + 1, 0) + jacobi_at(-1, 2 * m + 1, 0)
    return -Fraction(1, 2 ** (m + 2)) * j


def _i_boundary(m: int) -> Fraction:
    """psiTilde_L(2m, 2m): 1 at m=0, else 2^(-m-1) [J_0 + J_{-1}]."""
    if m == 0:
        return Fraction(1)
    j = jacobi_at(0, 2 * m, 0) + jacobi_at(-1, 2 * m, 0)
    return Fraction(1, 2 ** (m + 1)) * j


def definitional_series(family: Family, m: int, order: int,
                        walk: WalkCache) -> RationalSeries:
    """Series whose coefficient t is the exact simulator amplitude."""
    _check_series(family, m, order)
    coeffs = [Fraction(0)] * m  # t < m: position 2m (or 2m+1) is outside the light cone
    if family == "F":
        for t in range(m, order + 1):
            # amplitude mantissa * sqrt(2)^(-(2t+1)) == (mantissa/2^(t+1)) * sqrt2
            mantissa = walk.state(2 * t + 1).mantissa_r(2 * m + 1)
            coeffs.append(Fraction(mantissa, 2 ** (t + 1)))
        return RationalSeries(coeffs, order, grade=1)
    if family == "G":
        for t in range(m, order + 1):
            coeffs.append(Fraction(walk.state(2 * t).mantissa_r(2 * m), 2**t))
        return RationalSeries(coeffs, order)
    if family == "H":
        coeffs.append(_h_boundary(m))
        for t in range(m + 1, order + 1):
            frac = Fraction(2 * t + 1, 2 * (t - m))
            coeffs.append(frac * walk.state(2 * t + 1).mantissa_l(2 * m + 1)
                          / 2 ** (t + 1))
        return RationalSeries(coeffs, order, grade=1)
    coeffs.append(_i_boundary(m))
    for t in range(m + 1, order + 1):
        frac = Fraction(t, t - m)
        coeffs.append(frac * walk.state(2 * t).mantissa_l(2 * m) / 2**t)
    return RationalSeries(coeffs, order)


def _first_mismatch(a: RationalSeries, b: RationalSeries) -> int | None:
    for i in range(a.order + 1):
        if a.coefficient(i) != b.coefficient(i):
            return i
    return None


def check_intermediate_relations(walk: WalkCache, m_max: int, order: int) -> Ledger:
    """Exact checks, on definitional series, of the two bridge relations

        H_m == (1+z)/(2(1-z)) * (F_{m+1} - F_m)
        I_m == sqrt(2)/(4(1-z)) * (2(2-z) F_m - z F_{|m-1|} - z F_{m+1})

    for every m <= m_max.  Witnesses are (m, first mismatching coefficient).
    """
    if order < m_max + 1:
        raise ValueError("order must be at least m_max+1")
    ledger = Ledger("bridge relations")
    one_minus_z = RationalSeries.polynomial([1, -1], order)
    one_plus_z = RationalSeries.polynomial([1, 1], order)
    two_minus_z = RationalSeries.polynomial([2, -1], order)
    for m in range(m_max + 1):
        f_m = definitional_series("F", m, order, walk)
        f_m1 = definitional_series("F", m + 1, order, walk)
        f_mm1 = definitional_series("F", abs(m - 1), order, walk)
        h_m = definitional_series("H", m, order, walk)
        i_m = definitional_series("I", m, order, walk)

        rhs_h = one_plus_z * one_minus_z.reciprocal() * (f_m1 - f_m) / 2
        ledger.record("H bridge", (m, _first_mismatch(rhs_h, h_m)), rhs_h == h_m)

        bracket = two_minus_z * f_m * 2 - (f_mm1 + f_m1).shift(1)
        rhs_i = (one_minus_z.reciprocal() * bracket / 4) * Sqrt2Scalar(1, 1)
        ledger.record("I bridge", (m, _first_mismatch(rhs_i, i_m)), rhs_i == i_m)
    return ledger


def jacobi_generating(x, r: int, s: int, order: int) -> RationalSeries:
    """Exact series of 2^(r+s) / (R (1-z+R)^r (1+z+R)^s), R = sqrt(1-2xz+z^2).

    Coefficient k equals jacobi_at(k, r, s, x); negative r or s go through
    reciprocal powers.
    """
    x = Fraction(x)
    root = RationalSeries.polynomial([1, -2 * x, 1], order).sqrt()
    d_minus = RationalSeries.polynomial([1, -1], order) + root
    d_plus = RationalSeries.polynomial([1, 1], order) + root
    series = (root.reciprocal() * d_minus.pow_int(-r) * d_plus.pow_int(-s))
    return series * (Fraction(2) ** (r + s))


def check_jacobi_generating(k_max: int, rs_max: int) -> Ledger:
    """Coefficient k of ``jacobi_generating(0, r, s, k_max)`` == jacobi_at(k, r, s)
    for k <= k_max and 0 <= r, s <= rs_max.  Witnesses are (k, r, s).
    """
    ledger = Ledger("Jacobi generating coefficients")
    for r in range(rs_max + 1):
        for s in range(rs_max + 1):
            series = jacobi_generating(0, r, s, k_max)
            for k in range(k_max + 1):
                ledger.record("generating coefficient", (k, r, s),
                              series.coefficient(k) == Sqrt2Scalar(jacobi_at(k, r, s)))
    return ledger


def equivalence_ledger(walk: WalkCache, m_max: int = 10, order: int = 40
                       ) -> Ledger:
    """Machine check of the full equivalence chain at desk scale.

    For every family and m <= m_max: definitional series == closed form,
    and the coefficients equal the Jacobi-polynomial expressions for the
    amplitudes (both the raw generating-function extraction and the
    reduced single-J forms), which in turn equal the closed-form amplitude
    routines used elsewhere.
    """
    rep = Ledger("equivalence chain")
    one_plus_z = RationalSeries.polynomial([1, 1], order)
    for m in range(m_max + 1):
        for fam in "FGHI":
            closed = closed_form_series(fam, m, order)
            rep.record(f"{fam}: definitional == closed", (fam, m),
                       definitional_series(fam, m, order, walk) == closed)
            # reassemble the closed form from the Jacobi generating function
            if fam == "F":
                alt = (jacobi_generating(0, 2 * m, 0, order).shift(m)
                       * Sqrt2Scalar(Fraction(1, 2 ** (m + 1)), 1))
            elif fam == "G":
                if m == 0:
                    alt = (jacobi_generating(0, 1, 0, order).shift(1)
                           * Sqrt2Scalar(Fraction(1, 2)))
                else:
                    alt = (jacobi_generating(0, 2 * m - 1, 0, order).shift(m)
                           * Sqrt2Scalar(-Fraction(1, 2 ** m)))
            elif fam == "H":
                alt = (one_plus_z * jacobi_generating(0, 2 * m + 1, 0, order)
                       ).shift(m) * Sqrt2Scalar(-Fraction(1, 2 ** (m + 2)), 1)
            else:
                if m == 0:
                    half_series = RationalSeries.polynomial([Fraction(1, 2)], order)
                    alt = half_series + (one_plus_z
                                         * jacobi_generating(0, 0, 0, order)) / 2
                else:
                    alt = (one_plus_z * jacobi_generating(0, 2 * m, 0, order)
                           ).shift(m) * Sqrt2Scalar(Fraction(1, 2 ** (m + 1)))
            rep.record(f"{fam}: closed == Jacobi generating reassembly",
                       (fam, m), closed == alt)

    half = Fraction(1, 2)
    for m in range(m_max + 1):
        for t in range(m, order + 1):
            odd, even = walk.state(2 * t + 1), walk.state(2 * t)
            # odd right amplitudes: two equivalent Jacobi extractions
            amp = odd.amp_r(2 * m + 1)
            ja = Sqrt2Scalar(jacobi_at(t - m, 2 * m, 0) * half ** (m + 1), 1)
            jb = Sqrt2Scalar(_sign(t - m) * jacobi_at(t - m, 0, 2 * m)
                             * half ** (m + 1), 1)
            rep.record("psi_R odd == 2^(-m-1/2) J_(t-m)^(2m,0)(0)",
                       (m, t), amp == ja)
            rep.record("psi_R odd reflected-parameter form", (m, t), amp == jb)

            # even right amplitudes
            amp = even.amp_r(2 * m)
            if m == 0:
                je = Sqrt2Scalar(half * jacobi_at(t - 1, 1, 0))
            else:
                je = Sqrt2Scalar(-(half**m) * jacobi_at(t - m, 2 * m - 1, 0))
            rep.record("psi_R even == Jacobi form", (m, t), amp == je)

            # left amplitudes via the reduced single-J forms
            amp = odd.amp_l(2 * m + 1)
            jl = Sqrt2Scalar(_sign(t - m) * half ** (m + 2)
                             * jacobi_at(t - m - 1, 1, 2 * m + 1), 1)
            rep.record("psi_L odd == Jacobi form", (m, t), amp == jl)

            if m >= 1:
                amp = even.amp_l(2 * m)
                jl = Sqrt2Scalar(_sign(t - m - 1) * half ** (m + 1)
                                 * jacobi_at(t - m - 1, 1, 2 * m))
                rep.record("psi_L even == Jacobi form", (m, t), amp == jl)

            # tie the chain back to the closed-form amplitude routines
            rep.record("psi_R odd == closed amplitude", (m, t),
                       odd.amp_r(2 * m + 1) == psi_closed_r(2 * m + 1, 2 * t + 1))
            rep.record("psi_L even == closed amplitude", (m, t),
                       even.amp_l(2 * m) == psi_closed_l(2 * m, 2 * t))

    rep.record("psi_R(0,0) == 0", (0, 0), walk.state(0).amp_r(0).is_zero)
    return rep


def lagrange_invert(phi: RationalSeries, f: RationalSeries) -> RationalSeries:
    """Series of f(w(z)) where w = z phi(w), via the coefficient formula

        [z^n] f(w) = (1/n) [lambda^(n-1)] f'(lambda) phi(lambda)^n,  n >= 1

    with the constant term f(0), at the common order of phi and f.
    """
    order = phi.order
    if f.order != order:
        raise ValueError(f"phi and f have mixed truncation orders {order} and {f.order}")
    if phi.nums[0] == 0:
        raise ValueError("not a valid inversion problem")
    if phi.grade or f.grade:
        raise ValueError("inversion needs rational-graded series")
    fprime = f.differentiate()
    out = [Fraction(0)] * (order + 1)
    out[0] = f.coefficient(0).to_fraction()
    power = RationalSeries.one(order)
    for n in range(1, order + 1):
        power = power * phi
        term = fprime * power
        out[n] = term.coefficient(n - 1).to_fraction() / n
    return RationalSeries(out, order)


def _binomial_power(c: Fraction, sign: int, order: int) -> RationalSeries:
    """(1 + sign*u)^c as a series in u, rational exponent allowed."""
    base = RationalSeries.polynomial([1, sign], order)
    return base.pow_rational(c)


def srivastava_singhal_series(a, b, gamma, beta, order: int) -> RationalSeries:
    """Implicit generating function for exact rationals a, b, gamma and beta:

        sum_j J_j^{(gamma + a j, beta + b j)}(0) z^j
          = (1+v)^(gamma+1) (1+u)^(beta+1) / (1 - a v - b u - (1+a+b) u v)

    with v = -u and u(z) solving -u = (z/2) (1-u)^(1+a) (1+u)^(1+b), by
    Lagrange inversion.

    The coupling (gamma with v, beta with u) is forced by re-deriving the sum
    through the coefficient identity J_n^{(r,s)}(0) = [mu^n] 2^(-n)
    (1+mu)^(n+r) (1-mu)^(n+s) and Lagrange-Buermann with w = -u; sources that
    print the couplings interchanged only agree on the a = b, gamma = beta
    diagonal.  The slope-1 test pins this orientation.
    """
    for name, value in (("a", a), ("b", b), ("gamma", gamma), ("beta", beta)):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"parameter {name} must be an exact rational")
    a, b = Fraction(a), Fraction(b)
    gamma, beta = Fraction(gamma), Fraction(beta)

    # u = z * phihat(u) with phihat(u) = -(1/2)(1-u)^(1+a) (1+u)^(1+b)
    phihat = (_binomial_power(1 + a, -1, order)
              * _binomial_power(1 + b, +1, order) / (-2))
    ident = RationalSeries.z(order)
    u = lagrange_invert(phihat, ident)

    numer = (_binomial_power(gamma + 1, -1, order)
             * _binomial_power(beta + 1, +1, order))
    # 1 - a v - b u - (1+a+b) u v  with  v = -u
    denom = RationalSeries.polynomial([1, a - b, 1 + a + b], order)
    target = numer * denom.reciprocal()
    return target.compose(u)


def check_lagrange(order: int, implicit_order: int, seed: int = 0) -> Ledger:
    """Lagrange inversion against answers known in closed form, exactly.

    - tree function T = z e^T: [z^n] T == n^(n-1)/n! and
      [z^n] T^2 == 2 n^(n-3)/(n-2)!, for n <= order;
    - w == z phi(w) for five random phi drawn from ``random.Random(seed)``;
    - the implicit series at a = b = gamma = beta = 0 equals
      1/sqrt(1+z^2) at ``implicit_order``.

    Witnesses are the coefficient index n, the trial number, or the case.
    """
    ledger = Ledger("Lagrange inversion")
    phi = RationalSeries([Fraction(1, math.factorial(k)) for k in range(order + 1)],
                         order)
    ident = RationalSeries.z(order)
    tree = lagrange_invert(phi, ident)
    for n in range(1, order + 1):
        want = Fraction(n ** (n - 1), math.factorial(n))
        ledger.record("tree function", n, tree.coefficient(n) == Sqrt2Scalar(want))
    square = RationalSeries.polynomial([0, 0, 1], order)
    tree_sq = lagrange_invert(phi, square)
    for n in range(2, order + 1):
        want = 2 * Fraction(n) ** (n - 3) / math.factorial(n - 2)
        ledger.record("tree function squared", n,
                      tree_sq.coefficient(n) == Sqrt2Scalar(want))
    rng = random.Random(seed)
    for trial in range(5):
        phi_rand = random_rational_series(rng, order, constant=1)
        w = lagrange_invert(phi_rand, ident)
        ledger.record("w == z phi(w)", trial, phi_rand.compose(w).shift(1) == w)
    implicit = srivastava_singhal_series(0, 0, 0, 0, implicit_order)
    ledger.record("implicit series", "a=b=gamma=beta=0",
                  implicit == jacobi_generating(0, 0, 0, implicit_order))
    return ledger
