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

The equivalence ledger builds one basis per call: R, D, 1/R and 1/D once,
and the powers D^k and D^(-k) stepped by one product each as m grows.  Its
closed side inverts R D^k once per k (I_0 reads k = 0, 1/R); its Jacobi
side reassembles R^(-1) (D^(-1))^r 2^r.  The two routes share only R and D,
never each other's results.  ``closed_form_series`` and ``jacobi_generating``
are one-shot wrappers around the same cores (``_closed_core``,
``_jacobi_core``) that raise D with ``pow_int``.  The ledger compares
amplitudes as integers: each simulator mantissa against an explicit-sum
numerator N(k, r, s) = 2^k J_k^{(r,s)}(0) of ``jacobi``, e.g. psi_R(2m+1, 2t+1)
= 2^(-m-1/2) N(t-m, 2m, 0) / 2^(t-m) = N(t-m, 2m, 0) sqrt(2)^(-(2t+1)), so
the mantissa is N(t-m, 2m, 0); the closed-form amplitudes ``psi_closed_r/l``
return mantissas too.  Nothing is kept between calls.

Also here: the Jacobi generating function with exact coefficient extraction,
Lagrange inversion, and the implicit-series (Srivastava-Singhal style)
generating function that ties the two together.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from .jacobi import _numerator_table, _sign, jacobi_at, psi_closed_l, psi_closed_r
from .ledger import Ledger
from .ring import RationalSeries, _as_fraction, _canonical, random_rational_series
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

Family = str  # one of "F", "G", "H", "I"; _check_series rejects any other


def _check_series(family: Family, m: int, order: int) -> None:
    if family not in ("F", "G", "H", "I"):
        raise ValueError(f"unknown family {family!r}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < m:
        raise ValueError("order must be at least m")


def _sqrt_one_plus_z2(order: int) -> RationalSeries:
    return RationalSeries.polynomial([1, 0, 1], order).sqrt()


def _d_exponent(family: Family, m: int) -> int:
    """k in the D^k of the closed form of ``family``'s m-th series, which is
    also the r of its Jacobi reassembly; 0 for I_0, whose closed form has no D."""
    if family == "G":
        return max(2 * m - 1, 1)
    if family == "H":
        return 2 * m + 1
    return 2 * m


def _closed_core(family: Family, m: int, body: RationalSeries,
                 one_plus_z: RationalSeries) -> RationalSeries:
    """Closed form of ``family``'s m-th series from body = 1/(R D^k) with
    k = ``_d_exponent(family, m)``, and 1+z."""
    if family == "I" and m == 0:
        half = RationalSeries.polynomial([Fraction(1, 2)], body.order)
        return half + one_plus_z * body / 2
    # 2^(m-1/2) = sqrt(2)^(2m-1) and 2^(m-1) = sqrt(2)^(2m-2)
    if family == "F":
        return body.shift(m).scaled(1, 2 * m - 1)
    if family == "G":
        if m == 0:
            return body.shift(1)
        return body.shift(m).scaled(-1, 2 * m - 2)
    if family == "H":
        return (one_plus_z * body).shift(m).scaled(-1, 2 * m - 1)
    return (one_plus_z * body).shift(m).scaled(1, 2 * m - 2)


def closed_form_series(family: Family, m: int, order: int) -> RationalSeries:
    """Exact truncated series of the closed form of ``family``'s m-th series."""
    _check_series(family, m, order)
    root = _sqrt_one_plus_z2(order)
    big_d = RationalSeries.polynomial([1, -1], order) + root
    body = (root * big_d.pow_int(_d_exponent(family, m))).reciprocal()
    return _closed_core(family, m, body, RationalSeries.polynomial([1, 1], order))


def _stepped_powers(base: RationalSeries, top: int) -> list:
    """[base^0, ..., base^top], each power one product from the last."""
    powers = [RationalSeries.one(base.order)]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


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
    """Series whose coefficient t is the exact simulator amplitude.

    The numerators are ints over one denominator: 2^(order+1) for F and G,
    and for H and I 2^(order+2) times lcm(1..order-m), which clears every
    t/(t-m) of psiTilde_L, with the boundary value scaled in.  The series is
    canonicalised once.
    """
    _check_series(family, m, order)
    nums = [0] * m  # t < m: position 2m (or 2m+1) is outside the light cone
    top = order + 1
    if family == "F":
        # amplitude mantissa * sqrt(2)^(-(2t+1)) == (mantissa/2^(t+1)) * sqrt2
        nums += [walk.state(2 * t + 1).mantissa_r(2 * m + 1) << (order - t)
                 for t in range(m, top)]
        return _canonical(nums, 1 << top, order, 1)
    if family == "G":
        nums += [walk.state(2 * t).mantissa_r(2 * m) << (top - t) for t in range(m, top)]
        return _canonical(nums, 1 << top, order, 0)
    boundary = _h_boundary(m) if family == "H" else _i_boundary(m)
    den = math.lcm(math.lcm(*range(1, order - m + 1)) << (order + 2), boundary.denominator)
    nums.append(boundary.numerator * (den // boundary.denominator))
    if family == "H":
        # psiTilde_L / sqrt2 == (2t+1) mantissa / ((t-m) 2^(t+2))
        nums += [(2 * t + 1) * walk.state(2 * t + 1).mantissa_l(2 * m + 1)
                 * (den // ((t - m) << (t + 2))) for t in range(m + 1, top)]
        return _canonical(nums, den, order, 1)
    # psiTilde_L == t mantissa / ((t-m) 2^t)
    nums += [t * walk.state(2 * t).mantissa_l(2 * m) * (den // ((t - m) << t))
             for t in range(m + 1, top)]
    return _canonical(nums, den, order, 0)


def _record_bridge(ledger: Ledger, item: str, m: int, rhs: RationalSeries,
                   lhs: RationalSeries) -> None:
    """Record rhs == lhs with the witness (m, first index whose coefficient
    differs); the index is searched only when the two series differ."""
    equal = rhs == lhs
    index = None if equal else next(
        i for i, (x, y) in enumerate(zip(rhs.nums, lhs.nums))
        if x * lhs.den != y * rhs.den or (x and rhs.grade != lhs.grade))
    ledger.record(item, (m, index), equal)


def check_intermediate_relations(walk: WalkCache, m_max: int, order: int) -> Ledger:
    """Exact checks, on definitional series, of the two bridge relations

        H_m == (1+z)/(2(1-z)) * (F_{m+1} - F_m)
        I_m == sqrt(2)/(4(1-z)) * (2(2-z) F_m - z F_{|m-1|} - z F_{m+1})

    for every m <= m_max.  Each F_m and 1/(1-z) is built once per call.
    Witnesses are (m, first mismatching coefficient), searched for only on a
    failure.
    """
    if order < m_max + 1:
        raise ValueError("order must be at least m_max+1")
    ledger = Ledger("bridge relations")
    inv_one_minus_z = RationalSeries.polynomial([1, -1], order).reciprocal()
    one_plus_z = RationalSeries.polynomial([1, 1], order)
    two_minus_z = RationalSeries.polynomial([2, -1], order)
    f = [definitional_series("F", m, order, walk) for m in range(m_max + 2)]
    for m in range(m_max + 1):
        h_m = definitional_series("H", m, order, walk)
        i_m = definitional_series("I", m, order, walk)

        rhs_h = one_plus_z * inv_one_minus_z * (f[m + 1] - f[m]) / 2
        _record_bridge(ledger, "H bridge", m, rhs_h, h_m)

        bracket = two_minus_z * f[m] * 2 - (f[abs(m - 1)] + f[m + 1]).shift(1)
        rhs_i = (inv_one_minus_z * bracket).scaled(Fraction(1, 4), 1)
        _record_bridge(ledger, "I bridge", m, rhs_i, i_m)
    return ledger


def _jacobi_core(inv_root: RationalSeries, minus_power: RationalSeries | None,
                 plus_power: RationalSeries | None, r: int, s: int) -> RationalSeries:
    """2^(r+s) / (R (1-z+R)^r (1+z+R)^s) from 1/R and the powers (1-z+R)^(-r)
    and (1+z+R)^(-s); a power whose exponent is 0 is not read."""
    series = inv_root
    if r:
        series = series * minus_power
    if s:
        series = series * plus_power
    return series * (Fraction(2) ** (r + s))


def jacobi_generating(x, r: int, s: int, order: int) -> RationalSeries:
    """Exact series of 2^(r+s) / (R (1-z+R)^r (1+z+R)^s), R = sqrt(1-2xz+z^2).

    Coefficient k equals jacobi_at(k, r, s, x); negative r or s go through
    reciprocal powers.
    """
    x = _as_fraction(x)
    root = RationalSeries.polynomial([1, -2 * x, 1], order).sqrt()
    d_minus = RationalSeries.polynomial([1, -1], order) + root
    d_plus = RationalSeries.polynomial([1, 1], order) + root
    return _jacobi_core(root.reciprocal(), d_minus.pow_int(-r), d_plus.pow_int(-s), r, s)


def check_jacobi_generating(k_max: int, rs_max: int) -> Ledger:
    """Coefficient k of ``jacobi_generating(0, r, s, k_max)`` == J_k^{(r,s)}(0)
    for k <= k_max and 0 <= r, s <= rs_max.  R = sqrt(1+z^2), 1/R and the
    reciprocals of 1-z+R and 1+z+R are built once per call, and their powers
    are stepped by one product each.

    The comparison is in integers: with N(k, r, s) = 2^k J_k^{(r,s)}(0), the
    explicit sum of ``jacobi`` over weighted binomial rows built once per
    call, each coefficient must have nums[k] 2^k == N(k, r, s) den, and be 0
    unless the series has grade 0.  Witnesses are (k, r, s).
    """
    ledger = Ledger("Jacobi generating coefficients")
    root = _sqrt_one_plus_z2(k_max)
    inv_root = root.reciprocal()
    minus = _stepped_powers((RationalSeries.polynomial([1, -1], k_max) + root).reciprocal(),
                            rs_max)
    plus = _stepped_powers((RationalSeries.polynomial([1, 1], k_max) + root).reciprocal(),
                           rs_max)
    numerator = _numerator_table(k_max + rs_max, k_max, 0, 1)
    for r in range(rs_max + 1):
        for s in range(rs_max + 1):
            series = _jacobi_core(inv_root, minus[r], plus[s], r, s)
            rational, nums, den = series.grade == 0, series.nums, series.den
            for k in range(k_max + 1):
                ledger.record("generating coefficient", (k, r, s),
                              (rational or not nums[k])
                              and nums[k] * 2**k == numerator(k, r, s) * den)
    return ledger


def _reassembly(family: Family, m: int, generating: RationalSeries,
                one_plus_z: RationalSeries) -> RationalSeries:
    """Closed form of ``family``'s m-th series rebuilt from the x = 0 Jacobi
    generating series with r = ``_d_exponent(family, m)`` and s = 0."""
    # the factors as powers of sqrt(2), e.g. 2^(-m-1) sqrt(2) = sqrt(2)^(-2m-1)
    if family == "F":
        return generating.shift(m).scaled(1, -2 * m - 1)
    if family == "G":
        if m == 0:
            return generating.shift(1).scaled(1, -2)
        return generating.shift(m).scaled(-1, -2 * m)
    if family == "H":
        return (one_plus_z * generating).shift(m).scaled(-1, -2 * m - 3)
    if m == 0:
        half = RationalSeries.polynomial([Fraction(1, 2)], generating.order)
        return half + (one_plus_z * generating) / 2
    return (one_plus_z * generating).shift(m).scaled(1, -2 * m - 2)


def equivalence_ledger(walk: WalkCache, m_max: int = 10, order: int = 40
                       ) -> Ledger:
    """Machine check of the full equivalence chain at desk scale.

    For every family and m <= m_max: definitional series == closed form,
    and the closed form == its reassembly from the Jacobi generating series.
    For every m <= m_max and m <= t <= order the simulator mantissas equal
    the Jacobi-polynomial expressions for the amplitudes (both the raw
    generating-function extraction and the reduced single-J forms), and equal
    the ints that the closed-form amplitude routines ``psi_closed_r/l``
    return, each summing its own N per call.

    One basis per call: R, D, 1/R and 1/D are built once, and D^k, D^(-k)
    for k <= 2 m_max + 1 are stepped by one product each.  The closed side
    inverts R D^k once per k, and the families with the same k read the same
    1/(R D^k); the Jacobi side is R^(-1) (D^(-1))^r 2^r with its own 1/R.
    The two share only R and D.

    The amplitude checks are integer comparisons of each mantissa with
    N(k, r, s) = 2^k J_k^{(r,s)}(0), the explicit sum of ``jacobi`` as one dot
    product of weighted binomial rows built once per call (0 for k < 0).  For
    example psi_R(2m+1, 2t+1) = 2^(-m-1/2) J_(t-m)^(2m,0)(0)
    = 2^(-m-1/2) N(t-m, 2m, 0) / 2^(t-m) = N(t-m, 2m, 0) sqrt(2)^(-(2t+1)),
    and the simulator holds it as mantissa * sqrt(2)^(-(2t+1)), so the
    mantissa must equal N(t-m, 2m, 0).  Nothing is kept between calls.

    Needs order >= max(2, m_max); raises ValueError otherwise.
    """
    if order < max(2, m_max):
        raise ValueError(f"equivalence_ledger needs order >= max(2, m_max), "
                         f"got order={order} and m_max={m_max}")
    rep = Ledger("equivalence chain")
    one_plus_z = RationalSeries.polynomial([1, 1], order)
    root = _sqrt_one_plus_z2(order)
    big_d = RationalSeries.polynomial([1, -1], order) + root
    inv_root = root.reciprocal()
    bodies = [(root * d).reciprocal() for d in _stepped_powers(big_d, 2 * m_max + 1)]
    d_down = _stepped_powers(big_d.reciprocal(), 2 * m_max + 1)
    for m in range(m_max + 1):
        for fam in "FGHI":
            k = _d_exponent(fam, m)
            closed = _closed_core(fam, m, bodies[k], one_plus_z)
            rep.record(f"{fam}: definitional == closed", (fam, m),
                       definitional_series(fam, m, order, walk) == closed)
            alt = _reassembly(fam, m, _jacobi_core(inv_root, d_down[k], None, k, 0),
                              one_plus_z)
            rep.record(f"{fam}: closed == Jacobi generating reassembly",
                       (fam, m), closed == alt)

    numerator = _numerator_table(order + m_max, order, 0, 1)
    for m in range(m_max + 1):
        for t in range(m, order + 1):
            odd, even = walk.state(2 * t + 1), walk.state(2 * t)
            k = t - m
            # odd right amplitudes: two equivalent Jacobi extractions
            mantissa = odd.mantissa_r(2 * m + 1)
            rep.record("psi_R odd == 2^(-m-1/2) J_(t-m)^(2m,0)(0)", (m, t),
                       mantissa == numerator(k, 2 * m, 0))
            rep.record("psi_R odd reflected-parameter form", (m, t),
                       mantissa == _sign(k) * numerator(k, 0, 2 * m))

            # even right amplitudes
            if m == 0:
                want = numerator(t - 1, 1, 0)
            else:
                want = -numerator(k, 2 * m - 1, 0)
            rep.record("psi_R even == Jacobi form", (m, t), even.mantissa_r(2 * m) == want)

            # left amplitudes via the reduced single-J forms
            want = _sign(k) * numerator(k - 1, 1, 2 * m + 1)
            rep.record("psi_L odd == Jacobi form", (m, t),
                       odd.mantissa_l(2 * m + 1) == want)
            if m >= 1:
                want = _sign(k - 1) * numerator(k - 1, 1, 2 * m)
                rep.record("psi_L even == Jacobi form", (m, t),
                           even.mantissa_l(2 * m) == want)

            # tie the chain back to the closed-form amplitude routines
            rep.record("psi_R odd == closed amplitude", (m, t),
                       mantissa == psi_closed_r(2 * m + 1, 2 * t + 1))
            rep.record("psi_L even == closed amplitude", (m, t),
                       even.mantissa_l(2 * m) == psi_closed_l(2 * m, 2 * t))

    rep.record("psi_R(0,0) == 0", (0, 0), walk.state(0).mantissa_r(0) == 0)
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
    out = [f.coefficient(0)]
    power = RationalSeries.one(order)
    for n in range(1, order + 1):
        power = power * phi
        # [lambda^(n-1)] f' phi^n, one integer dot product over both denominators
        dot = sum(map(operator.mul, fprime.nums[:n], power.nums[n - 1::-1]))
        out.append(Fraction(dot, n * fprime.den * power.den))
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
        ledger.record("tree function", n, tree.coefficient(n) == want)
    square = RationalSeries.polynomial([0, 0, 1], order)
    tree_sq = lagrange_invert(phi, square)
    for n in range(2, order + 1):
        want = 2 * Fraction(n) ** (n - 3) / math.factorial(n - 2)
        ledger.record("tree function squared", n, tree_sq.coefficient(n) == want)
    rng = random.Random(seed)
    for trial in range(5):
        phi_rand = random_rational_series(rng, order, constant=1)
        w = lagrange_invert(phi_rand, ident)
        ledger.record("w == z phi(w)", trial, phi_rand.compose(w).shift(1) == w)
    implicit = srivastava_singhal_series(0, 0, 0, 0, implicit_order)
    ledger.record("implicit series", "a=b=gamma=beta=0",
                  implicit == jacobi_generating(0, 0, 0, implicit_order))
    return ledger
