"""Exact Jacobi polynomial values and the closed-form walk amplitudes.

The evaluation oracle is the explicit finite sum

    J_k^{(r,s)}(x) = 2^{-k} sum_j C(k+r, j) C(k+s, k-j) (x-1)^{k-j} (x+1)^j

with generalized binomial coefficients, so negative integer parameters are
covered by the same formula and the three-term relations can be *tested*
against it rather than used as definitions.  J with negative degree is 0.

The sum is evaluated in integers: with x = p/q in lowest terms, each term is
C(k+r, j) C(k+s, k-j) (p-q)^{k-j} (p+q)^j / (2q)^k.  Both binomial rows are
built as ints by c_{i+1} = c_i (a-i) // (i+1), a division that is exact for
every integer a.  The integer numerator N = (2q)^k J_k^{(r,s)}(p/q) is summed
in Horner order, N <- N (p-q) + C(k+r, j) C(k+s, k-j) (p+q)^j for j = 0..k,
carrying the power of (p+q) along; one core, ``_horner_numerator``, does this
for every caller.  ``jacobi_at`` divides N by (2q)^k once;
``check_jacobi_identities`` never divides, but compares each identity
multiplied through by (2q)^k as integers.  The sweep builds each binomial row
once per call and each N of its (k, u, v) box once per point; nothing
persists between calls.  ``genfun.equivalence_ledger`` reads its x = 0
numerators from the same kind of per-call row table, ``_numerator_table``.

The closed forms here are written for the canonical walk orientation (the one
matching the momentum-integral representations).  They return the walk's own
encoding, the integer mantissa m with psi = m sqrt(2)^(-t).  At x = 0 the
Jacobi denominator 2^k cancels the time scaling exactly: with
N(k, r, s) = 2^k J_k^{(r,s)}(0), the explicit sum above (0 for k < 0),

    psi_R, n >= 0:  (-1)^(k+n+1) N(k, 0, n-1),            k = (t-n)/2
    psi_R, n < 0:   (-1)^k N(k, 0, 1-n),                  k = (t+n)/2 - 1
    psi_L, n >= 0:  (-1)^(k+n+2) N(k, 1, n),              k = (t-n)/2 - 1
    psi_L, n < 0:   (-1)^k (t-n) N(k, 1, -n) / (t+n),     k = (t+n)/2 - 1
    psi_L(-t, t) = 1,  psi_R(n, 0) = 0,

and at n = 0, even t, psi_R = N(t/2-1, 1, 0) and psi_L = N(t/2, 0, 0) +
N(t/2-1, 1, 0).  The one division, (t-n)/(t+n), is exact on ints and is
checked to leave no remainder.  Note the left-amplitude sign convention: both
chirality branches carry the factor (-1)^(n+1), and the left edge value is
psi_L(-t, t) = +2^(-t/2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ledger import Ledger
from .ring import _as_fraction
from .walk import WalkCache

__all__ = [
    "binomial",
    "jacobi_at",
    "psi_closed_r",
    "psi_closed_l",
    "psi_center_r",
    "psi_center_l",
    "check_closed_forms",
    "check_reflections",
    "check_jacobi_identities",
]


def binomial(a, k: int) -> Fraction:
    """Generalized binomial C(a, k) for integer or rational a; 0 for k < 0."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / math.factorial(k)


def _binomial_row(a: int, k: int) -> list:
    """[C(a, 0), ..., C(a, k)] as ints for integer a (negative a too)."""
    row = [1]
    for i in range(k):
        row.append(row[-1] * (a - i) // (i + 1))
    return row


def _horner_numerator(k: int, left: list, right: list, p: int, q: int) -> int:
    """sum_j left[j] right[k-j] (p-q)^(k-j) (p+q)^j over j = 0..k, in Horner
    order; 0 for k < 0 (empty sum).  With rows starting C(k+r, .) and
    C(k+s, .) this is (2q)^k J_k^{(r,s)}(p/q); longer rows are read as prefixes.
    """
    minus, plus = p - q, p + q
    total, power = 0, 1
    for j in range(k + 1):
        total = total * minus + left[j] * right[k - j] * power
        power *= plus
    return total


def _numerator_table(a_max: int, length: int):
    """N(k, r, s; p, q) = (2q)^k J_k^{(r,s)}(p/q) as a function reading the rows
    C(a, 0..length), -1 <= a <= a_max, each built once here; valid for
    k <= length and -1 <= k+r, k+s <= a_max.  The caller drops it with its call.
    """
    rows = {a: _binomial_row(a, length) for a in range(-1, a_max + 1)}

    def numerator(k, r, s, p=0, q=1):
        return _horner_numerator(k, rows[k + r], rows[k + s], p, q)

    return numerator


def _numerator(k: int, r: int, s: int, p: int = 0, q: int = 1) -> int:
    """N(k, r, s; p, q) = (2q)^k J_k^{(r,s)}(p/q), the explicit sum over rows
    built for this call; 0 for k < 0."""
    return _horner_numerator(k, _binomial_row(k + r, k), _binomial_row(k + s, k), p, q)


def jacobi_at(k: int, r: int, s: int, x=Fraction(0)) -> Fraction:
    """Degree-k Jacobi polynomial with integer parameters at an exact rational
    x (int or Fraction); a float raises TypeError."""
    x = _as_fraction(x)
    if k < 0:
        return Fraction(0)
    q = x.denominator
    return Fraction(_numerator(k, r, s, x.numerator, q), (2 * q) ** k)


def _sign(exponent: int) -> int:
    """(-1)**exponent as an exact int, valid for negative exponents too."""
    return -1 if exponent % 2 else 1


def _require_valid(n: int, t: int) -> None:
    if abs(n) > t:
        raise ValueError(f"position {n} outside [-{t}, {t}]")
    if (n - t) % 2:
        raise ValueError(f"parity violation: n={n}, t={t}")


def psi_closed_r(n: int, t: int) -> int:
    """Mantissa of the right-chirality amplitude at (n, t), from the Jacobi
    closed forms: the int m with psi_R(n, t) = m sqrt(2)^(-t)."""
    _require_valid(n, t)
    if t == 0:
        return 0
    if n >= 0:
        k = (t - n) // 2
        return _sign(k + n + 1) * _numerator(k, 0, n - 1)
    k = (t + n) // 2 - 1
    return _sign(k) * _numerator(k, 0, 1 - n)


def psi_closed_l(n: int, t: int) -> int:
    """Mantissa of the left-chirality amplitude at (n, t), from the Jacobi
    closed forms: the int m with psi_L(n, t) = m sqrt(2)^(-t)."""
    _require_valid(n, t)
    if n == -t:
        return 1
    if n >= 0:
        k = (t - n) // 2 - 1
        return _sign(k + n + 2) * _numerator(k, 1, n)
    k = (t + n) // 2 - 1
    mantissa, remainder = divmod((t - n) * _numerator(k, 1, -n), t + n)
    if remainder:
        raise ArithmeticError(f"(t-n)/(t+n) left a remainder at n={n}, t={t}")
    return _sign(k) * mantissa


def psi_center_r(t: int) -> int:
    """Mantissa of psi_R(0, t) for even t, from the degree-(t/2 - 1) J^(1,0) value."""
    if t % 2:
        raise ValueError("center amplitudes need even t")
    return _numerator(t // 2 - 1, 1, 0)


def psi_center_l(t: int) -> int:
    """Mantissa of psi_L(0, t) for even t, a Legendre-plus-Jacobi combination."""
    if t % 2:
        raise ValueError("center amplitudes need even t")
    return _numerator(t // 2, 0, 0) + _numerator(t // 2 - 1, 1, 0)


def check_closed_forms(walk: WalkCache, t_max: int) -> Ledger:
    """Exact check of the closed forms against simulator values: both
    chiralities at every reachable (n, t) with t <= t_max, and the center
    forms at every even t > 0.  Witnesses are (n, t).
    """
    ledger = Ledger("closed forms == simulator")
    for t in range(t_max + 1):
        st = walk.state(t)
        for n in range(-t, t + 1, 2):
            ledger.record("closed form", (n, t),
                          st.mantissa_r(n) == psi_closed_r(n, t)
                          and st.mantissa_l(n) == psi_closed_l(n, t))
        if t and t % 2 == 0:
            ledger.record("center closed form", (0, t),
                          st.mantissa_r(0) == psi_center_r(t)
                          and st.mantissa_l(0) == psi_center_l(t))
    return ledger


def check_reflections(states) -> Ledger:
    """Exact check of both reflection relations on simulator values,

        psi_R(-n, t) == (-1)^(n+1) psi_R(n+2, t)
        (t-n) psi_L(-n, t) == (-1)^n (t+n) psi_L(n, t),

    at every reachable position n of each given WalkState.  Taking states
    rather than a cache lets a caller check a tampered state.  Witnesses are
    (n, t).
    """
    ledger = Ledger("reflection relations")
    for st in states:
        t = st.t
        for n in range(-t, t + 1, 2):
            ok_r = (abs(n + 2) > t
                    or st.mantissa_r(-n) == _sign(n + 1) * st.mantissa_r(n + 2))
            ok_l = ((t - n) * st.mantissa_l(-n)
                    == _sign(n) * (t + n) * st.mantissa_l(n))
            ledger.record("reflection relation", (n, t), ok_r and ok_l)
    return ledger


_DEFAULT_XS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2))


def check_jacobi_identities(m_max: int = 20, uv_max: int = 6,
                            xs=_DEFAULT_XS) -> Ledger:
    """Exact verification of three Jacobi-polynomial relations.

    parameter-lowering:  C(m,l) J_m^{(u,-l)}(x)
                           == C(m+u,l) ((1+x)/2)^l J_{m-l}^{(u,l)}(x)
    reflection:          J_n^{(r,s)}(-x) == (-1)^n J_n^{(s,r)}(x)
    contiguous:          (u+v+2k) J_k^{(u,v-1)}(x)
                           == (u+v+k) J_k^{(u,v)}(x) + (u+k) J_{k-1}^{(u,v)}(x)

    With x = p/q and N(k,r,s; p) = (2q)^k J_k^{(r,s)}(p/q), the Horner-order
    integer sum (0 for k < 0), each is compared times (2q)^(top degree):

        C(m,l) N(m,u,-l; p) == C(m+u,l) (p+q)^l N(m-l,u,l; p)
        N(n,r,s; -p) == (-1)^n N(n,s,r; p)
        (u+v+2k) N(k,u,v-1; p) == (u+v+k) N(k,u,v; p) + (u+k) 2q N(k-1,u,v; p)

    Each binomial row C(a, 0..m_max), -1 <= a <= m_max + uv_max, is built
    once per call.  Per point, the box N(k,u,v; p) for 0 <= k <= m_max,
    0 <= u <= uv_max, -1 <= v <= uv_max (with zeros at k = -1) is summed once
    and dropped when the point is done; the contiguous relation, the
    reflection right side and the parameter-lowering right side for
    l <= uv_max read it.  The reflection left side N(n,r,s; -p), the
    parameter-lowering left side N(m,u,-l; p) and its right side for
    l > uv_max are summed directly.  Nothing persists between calls.
    Witnesses keep x as a Fraction.
    """
    report = Ledger("Jacobi identities")
    xs = tuple(_as_fraction(x) for x in xs)
    numerator = _numerator_table(m_max + uv_max, m_max)
    for x in xs:
        p, q = x.numerator, x.denominator
        # k = -1 (zeros) and v = -1 sit last in their lists, where index -1 finds them
        box = [[[numerator(k, u, v, p, q) for v in (*range(uv_max + 1), -1)]
                for u in range(uv_max + 1)] for k in range(m_max + 1)]
        box.append([[0] * (uv_max + 2) for _ in range(uv_max + 1)])
        for m in range(m_max + 1):
            for u in range(uv_max + 1):
                for ell in range(m + 1):
                    lhs = math.comb(m, ell) * numerator(m, u, -ell, p, q)
                    lowered = (box[m - ell][u][ell] if ell <= uv_max
                               else numerator(m - ell, u, ell, p, q))
                    rhs = math.comb(m + u, ell) * (p + q) ** ell * lowered
                    report.record("parameter-lowering", (m, u, ell, x), lhs == rhs)
        for n in range(m_max + 1):
            for r in range(uv_max + 1):
                for s in range(uv_max + 1):
                    lhs = numerator(n, r, s, -p, q)
                    rhs = _sign(n) * box[n][s][r]
                    report.record("reflection", (n, r, s, x), lhs == rhs)
        for k in range(m_max + 1):
            for u in range(uv_max + 1):
                for v in range(uv_max + 1):
                    lhs = (u + v + 2 * k) * box[k][u][v - 1]
                    rhs = ((u + v + k) * box[k][u][v]
                           + (u + k) * 2 * q * box[k - 1][u][v])
                    report.record("contiguous", (k, u, v, x), lhs == rhs)
        del box
    return report
