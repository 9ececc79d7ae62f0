"""Exact Jacobi polynomial values and the closed-form walk amplitudes.

The evaluation oracle is the explicit finite sum

    J_k^{(r,s)}(x) = 2^{-k} sum_j C(k+r, j) C(k+s, k-j) (x-1)^{k-j} (x+1)^j

with generalized binomial coefficients, so negative integer parameters are
covered by the same formula and the three-term relations can be *tested*
against it rather than used as definitions.  J with negative degree is 0.

The closed forms here are written for the canonical walk orientation (the one
matching the momentum-integral representations).  Note the left-amplitude sign
convention: both chirality branches carry the factor (-1)^(n+1), and the
left edge value is psi_L(-t, t) = +2^(-t/2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ledger import Ledger
from .ring import Sqrt2Scalar
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


def jacobi_at(k: int, r: int, s: int, x=Fraction(0)) -> Fraction:
    """Degree-k Jacobi polynomial with integer parameters at rational x."""
    if k < 0:
        return Fraction(0)
    x = Fraction(x)
    xm = x - 1
    xp = x + 1
    total = Fraction(0)
    for j in range(k + 1):
        c = binomial(k + r, j) * binomial(k + s, k - j)
        if c:
            total += c * xm ** (k - j) * xp**j
    return total / 2**k


def _sign(exponent: int) -> int:
    """(-1)**exponent as an exact int, valid for negative exponents too."""
    return -1 if exponent % 2 else 1


def _require_valid(n: int, t: int) -> None:
    if abs(n) > t:
        raise ValueError(f"position {n} outside [-{t}, {t}]")
    if (n - t) % 2:
        raise ValueError(f"parity violation: n={n}, t={t}")


def psi_closed_r(n: int, t: int) -> Sqrt2Scalar:
    """Right-chirality amplitude at (n, t) from the Jacobi closed forms."""
    _require_valid(n, t)
    if t == 0:
        return Sqrt2Scalar.zero()
    if n >= 0:
        val = _sign((t - n) // 2 + n + 1) * jacobi_at((t - n) // 2, 0, n - 1)
        return Sqrt2Scalar(val, -n)
    val = _sign((t + n) // 2 - 1) * jacobi_at((t + n) // 2 - 1, 0, 1 - n)
    return Sqrt2Scalar(val, n - 2)


def psi_closed_l(n: int, t: int) -> Sqrt2Scalar:
    """Left-chirality amplitude at (n, t) from the Jacobi closed forms."""
    _require_valid(n, t)
    if n == -t:
        return Sqrt2Scalar(1, -t)
    if n >= 0:
        val = _sign((t - n) // 2 + n + 1) * jacobi_at((t - n) // 2 - 1, 1, n)
        return Sqrt2Scalar(val, -n - 2)
    val = (_sign((t + n) // 2 + 1) * Fraction(t - n, t + n)
           * jacobi_at((t + n) // 2 - 1, 1, -n))
    return Sqrt2Scalar(val, n - 2)


def psi_center_r(t: int) -> Sqrt2Scalar:
    """psi_R(0, t) for even t via the degree-(t/2 - 1) J^(1,0) value."""
    if t % 2:
        raise ValueError("center amplitudes need even t")
    if t == 0:
        return Sqrt2Scalar.zero()
    return Sqrt2Scalar(Fraction(1, 2) * jacobi_at(t // 2 - 1, 1, 0))


def psi_center_l(t: int) -> Sqrt2Scalar:
    """psi_L(0, t) for even t as a Legendre-plus-Jacobi combination."""
    if t % 2:
        raise ValueError("center amplitudes need even t")
    if t == 0:
        return Sqrt2Scalar.one()
    val = jacobi_at(t // 2, 0, 0) + Fraction(1, 2) * jacobi_at(t // 2 - 1, 1, 0)
    return Sqrt2Scalar(val)


def check_closed_forms(walk: WalkCache, t_max: int) -> Ledger:
    """Exact check of the closed forms against simulator values: both
    chiralities at every reachable (n, t) with t <= t_max, and the center
    forms at every even t > 0.  Witnesses are (n, t).
    """
    ledger = Ledger("closed forms == simulator")
    for t in range(t_max + 1):
        for n in range(-t, t + 1, 2):
            ledger.record("closed form", (n, t),
                          walk.amp_r(n, t) == psi_closed_r(n, t)
                          and walk.amp_l(n, t) == psi_closed_l(n, t))
        if t and t % 2 == 0:
            ledger.record("center closed form", (0, t),
                          walk.amp_r(0, t) == psi_center_r(t)
                          and walk.amp_l(0, t) == psi_center_l(t))
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
    """
    report = Ledger("Jacobi identities")
    xs = tuple(Fraction(x) for x in xs)
    for x in xs:
        for m in range(m_max + 1):
            for u in range(uv_max + 1):
                for ell in range(m + 1):
                    lhs = binomial(m, ell) * jacobi_at(m, u, -ell, x)
                    rhs = (binomial(m + u, ell) * ((1 + x) / 2) ** ell
                           * jacobi_at(m - ell, u, ell, x))
                    report.record("parameter-lowering", (m, u, ell, x), lhs == rhs)
        for n in range(m_max + 1):
            for r in range(uv_max + 1):
                for s in range(uv_max + 1):
                    lhs = jacobi_at(n, r, s, -x)
                    rhs = (-1) ** n * jacobi_at(n, s, r, x)
                    report.record("reflection", (n, r, s, x), lhs == rhs)
        for k in range(m_max + 1):
            for u in range(uv_max + 1):
                for v in range(uv_max + 1):
                    lhs = (u + v + 2 * k) * jacobi_at(k, u, v - 1, x)
                    rhs = ((u + v + k) * jacobi_at(k, u, v, x)
                           + (u + k) * jacobi_at(k - 1, u, v, x))
                    report.record("contiguous", (k, u, v, x), lhs == rhs)
    return report
