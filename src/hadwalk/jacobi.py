"""Exact Jacobi polynomial values and the closed-form walk amplitudes.

The evaluation oracle is the explicit finite sum

    J_k^{(r,s)}(x) = 2^{-k} sum_j C(k+r, j) C(k+s, k-j) (x-1)^{k-j} (x+1)^j

with generalized binomial coefficients, so negative integer parameters are
covered by the same formula and the three-term relations can be *tested*
against it rather than used as definitions.  J with negative degree is 0.

The sum is evaluated in integers: with x = p/q in lowest terms, each term is
C(k+r, j) (p+q)^j C(k+s, k-j) (p-q)^(k-j) / (2q)^k.  Each factor is an entry
of a weighted binomial row [C(a, i) w^i], built as ints by
c_{i+1} = c_i (a-i) w // (i+1), a division that is exact for every integer a
and w.  The integer numerator N = (2q)^k J_k^{(r,s)}(p/q) is then one C-level
dot product, the plus row of a = k+r (w = p+q) against the reversed minus row
of a = k+s (w = p-q); one kernel, ``_explicit_sum``, does this for every
caller.  ``jacobi_at`` divides N by (2q)^k once; ``check_jacobi_identities``
never divides, but compares each identity multiplied through by (2q)^k as
integers.  A table, ``_numerator_table``, builds the rows of every a it
serves once for its point; ``_numerator``, behind ``jacobi_at`` and the
public closed forms, builds the two rows of its one sum per call.  The
identity sweep, ``check_closed_forms`` and ``genfun``'s generating-coefficient
sweep and equivalence ledger read their numerators from tables.  Nothing
persists between calls.

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
psi_L(-t, t) = +2^(-t/2).  These forms are written once, in ``_closed_r``,
``_closed_l``, ``_center_r`` and ``_center_l``, which read N from a source
numerator(k, r, s): ``_numerator`` for the public functions, a table for the
checks.  The public center amplitudes are ``psi_closed_r/l(0, t)``; the
center forms are ``check_closed_forms``' second route at n = 0.  The
polynomials' generating series build their basis in ``genfun._basis``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .ledger import Ledger
from .ring import _as_fraction
from .walk import WalkCache, _require_position

__all__ = [
    "binomial",
    "jacobi_at",
    "psi_closed_r",
    "psi_closed_l",
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


def _binomial_row(a: int, k: int, w: int) -> list:
    """[C(a, 0), C(a, 1) w, ..., C(a, k) w^k] as ints for integer a (negative a
    too) and any integer weight w."""
    c, row = 1, [1]
    for i in range(k):
        c = c * ((a - i) * w) // (i + 1)
        row.append(c)
    return row


def _explicit_sum(k: int, plus: list, minus: list) -> int:
    """sum_j plus[j] minus[k-j] over j = 0..k as one C-level dot product; 0 for
    k < 0 (empty sum).  With the weighted rows C(k+r, .) (p+q)^. and
    C(k+s, .) (p-q)^. this is (2q)^k J_k^{(r,s)}(p/q); longer rows are read as
    prefixes.
    """
    if k < 0:
        return 0
    return sum(map(mul, plus, minus[k::-1]))


def _numerator_table(plus_max: int, minus_max: int, length: int, p: int, q: int):
    """N(k, r, s) = (2q)^k J_k^{(r,s)}(p/q) at one point p/q, as a function
    reading the weighted rows C(a, 0..length) (p+q)^. for -1 <= a <= plus_max
    and C(a, 0..length) (p-q)^. for -1 <= a <= minus_max, each built once
    here; valid for k <= length, -1 <= k+r <= plus_max and
    -1 <= k+s <= minus_max.  The caller drops it with its point.
    """
    plus = {a: _binomial_row(a, length, p + q) for a in range(-1, plus_max + 1)}
    minus = {a: _binomial_row(a, length, p - q) for a in range(-1, minus_max + 1)}

    def numerator(k, r, s):
        return _explicit_sum(k, plus[k + r], minus[k + s])

    return numerator


def _numerator(k: int, r: int, s: int, p: int = 0, q: int = 1) -> int:
    """N(k, r, s; p, q) = (2q)^k J_k^{(r,s)}(p/q), the explicit sum over the two
    weighted rows built for this call; 0 for k < 0."""
    return _explicit_sum(k, _binomial_row(k + r, k, p + q),
                         _binomial_row(k + s, k, p - q))


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


def _closed_r(numerator, n: int, t: int) -> int:
    """psi_R mantissa at a valid (n, t) from a source numerator(k, r, s) of
    N(k, r, s) = 2^k J_k^{(r,s)}(0)."""
    if t == 0:
        return 0
    if n >= 0:
        k = (t - n) // 2
        return _sign(k + n + 1) * numerator(k, 0, n - 1)
    k = (t + n) // 2 - 1
    return _sign(k) * numerator(k, 0, 1 - n)


def _closed_l(numerator, n: int, t: int) -> int:
    """psi_L mantissa at a valid (n, t) from a numerator source, as ``_closed_r``."""
    if n == -t:
        return 1
    if n >= 0:
        k = (t - n) // 2 - 1
        return _sign(k + n + 2) * numerator(k, 1, n)
    k = (t + n) // 2 - 1
    mantissa, remainder = divmod((t - n) * numerator(k, 1, -n), t + n)
    if remainder:
        raise ArithmeticError(f"(t-n)/(t+n) left a remainder at n={n}, t={t}")
    return _sign(k) * mantissa


def _center_r(numerator, t: int) -> int:
    """psi_R(0, t) mantissa at even t from a numerator source."""
    return numerator(t // 2 - 1, 1, 0)


def _center_l(numerator, t: int) -> int:
    """psi_L(0, t) mantissa at even t from a numerator source."""
    return numerator(t // 2, 0, 0) + numerator(t // 2 - 1, 1, 0)


def psi_closed_r(n: int, t: int) -> int:
    """Mantissa of the right-chirality amplitude at (n, t), from the Jacobi
    closed forms: the int m with psi_R(n, t) = m sqrt(2)^(-t)."""
    _require_position(n, t)
    return _closed_r(_numerator, n, t)


def psi_closed_l(n: int, t: int) -> int:
    """Mantissa of the left-chirality amplitude at (n, t), from the Jacobi
    closed forms: the int m with psi_L(n, t) = m sqrt(2)^(-t)."""
    _require_position(n, t)
    return _closed_l(_numerator, n, t)


def check_closed_forms(walk: WalkCache, t_max: int) -> Ledger:
    """Exact check of the closed forms against simulator values: both
    chiralities at every reachable (n, t) with t <= t_max, and the center
    forms at every even t > 0.  Witnesses are (n, t).

    The closed forms read one numerator table at x = 0, built for this call
    over the exact reach of t <= t_max: rows C(a, 0..t_max/2), plus rows for
    -1 <= a <= t_max/2 (every plus index k + r is at most t/2) and minus rows
    for -1 <= a <= t_max.  It is dropped when the call returns.
    """
    ledger = Ledger("closed forms == simulator")
    numerator = _numerator_table(t_max // 2, t_max, t_max // 2, 0, 1)
    for t in range(t_max + 1):
        st = walk.state(t)
        for n in range(-t, t + 1, 2):
            ledger.record("closed form", (n, t),
                          st.mantissa_r(n) == _closed_r(numerator, n, t)
                          and st.mantissa_l(n) == _closed_l(numerator, n, t))
        if t and t % 2 == 0:
            ledger.record("center closed form", (0, t),
                          st.mantissa_r(0) == _center_r(numerator, t)
                          and st.mantissa_l(0) == _center_l(numerator, t))
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

    With x = p/q and N(k,r,s; p) = (2q)^k J_k^{(r,s)}(p/q), the explicit sum
    as one dot product of weighted rows (0 for k < 0), each is compared times
    (2q)^(top degree):

        C(m,l) N(m,u,-l; p) == C(m+u,l) (p+q)^l N(m-l,u,l; p)
        N(n,r,s; -p) == (-1)^n N(n,s,r; p)
        (u+v+2k) N(k,u,v-1; p) == (u+v+k) N(k,u,v; p) + (u+k) 2q N(k-1,u,v; p)

    Per point, one table builds each weighted row C(a, 0..m_max) (p±q)^.,
    -1 <= a <= m_max + uv_max, once.  The box N(k,u,v; p) for
    0 <= k <= m_max, 0 <= u <= uv_max, -1 <= v <= uv_max (with zeros at
    k = -1) is summed once from it; the contiguous relation, the reflection
    right side and the parameter-lowering right side for l <= uv_max read it.
    The parameter-lowering left side N(m,u,-l; p) and its right side for
    l > uv_max are summed directly on the table.  The reflection left side
    N(n,r,s; -p) is read from the box at x = 0, where -x = x, and elsewhere
    summed on a second table built for -x, never derived from the first.
    Tables and box are dropped when the point is done; nothing persists
    between calls.  Witnesses keep x as a Fraction.
    """
    report = Ledger("Jacobi identities")
    xs = tuple(_as_fraction(x) for x in xs)
    a_max = m_max + uv_max
    for x in xs:
        p, q = x.numerator, x.denominator
        numerator = _numerator_table(a_max, a_max, m_max, p, q)
        # k = -1 (zeros) and v = -1 sit last in their lists, where index -1 finds them
        box = [[[numerator(k, u, v) for v in (*range(uv_max + 1), -1)]
                for u in range(uv_max + 1)] for k in range(m_max + 1)]
        box.append([[0] * (uv_max + 2) for _ in range(uv_max + 1)])
        for m in range(m_max + 1):
            for u in range(uv_max + 1):
                for ell in range(m + 1):
                    lhs = math.comb(m, ell) * numerator(m, u, -ell)
                    lowered = (box[m - ell][u][ell] if ell <= uv_max
                               else numerator(m - ell, u, ell))
                    rhs = math.comb(m + u, ell) * (p + q) ** ell * lowered
                    report.record("parameter-lowering", (m, u, ell, x), lhs == rhs)
        # the x table is done; off zero the -x table takes its place
        numerator = _numerator_table(a_max, a_max, m_max, -p, q) if p else None
        for n in range(m_max + 1):
            for r in range(uv_max + 1):
                for s in range(uv_max + 1):
                    lhs = numerator(n, r, s) if p else box[n][r][s]
                    rhs = _sign(n) * box[n][s][r]
                    report.record("reflection", (n, r, s, x), lhs == rhs)
        for k in range(m_max + 1):
            for u in range(uv_max + 1):
                for v in range(uv_max + 1):
                    lhs = (u + v + 2 * k) * box[k][u][v - 1]
                    rhs = ((u + v + k) * box[k][u][v]
                           + (u + k) * 2 * q * box[k - 1][u][v])
                    report.record("contiguous", (k, u, v, x), lhs == rhs)
        del numerator, box
    return report
