"""Complex phase function, saddle points, decay asymptotics, and quadrature oracles.

The phase omega(theta) = arcsin(sin(theta)/sqrt(2)) is taken on the principal
sheet: the strip -pi <= Re theta <= pi minus four branch cuts on the vertical
half-lines Re theta = +-pi/2, |Im theta| >= arcsinh(1).  The principal complex
arcsin realizes exactly this branch: it is real and odd on [-pi, pi], equals
 i*arcsinh(sinh v / sqrt 2) on the positive imaginary axis,
-i*arcsinh(sinh v / sqrt 2) on the verticals Re theta = +-pi, and takes the
values pi/2 +- i*ln(cosh v / sqrt 2 + sqrt(cosh^2 v / 2 - 1)) on the two sides
of the right-hand cut.  Points within ``_CUT_TOLERANCE`` (1e-12) of a cut are
rejected instead of being silently assigned a side.

In the exponential-decay region 1/sqrt2 < alpha < 1 the saddle sits on the
positive imaginary axis and the per-step decay base is

    Btilde(alpha) = (sqrt(1-a^2)/(a+s))^a * (1+s) / (sqrt2 sqrt(1-a^2)),
    s = sqrt(2 a^2 - 1),

the sqrt(2)-denominator form: it is the unique choice with Btilde -> 1 at the
oscillatory boundary, it matches the exact simulator, and it is the form for
which the path-integral base b_pathintegral is provably identical.
``_decay_row`` is the one comparison of this law with an exact amplitude.

The quadrature oracle reads every position at time t from one FFT of the
momentum integrands sampled at N equispaced nodes: the periodic trapezoid
rule converges geometrically for integrands analytic in a strip, here
|Im theta| < arcsinh 1 (Trefethen & Weideman, SIAM Review 56, 2014).  The
FFT is the module's own radix-2 transform (Cooley & Tukey, Math. Comp. 19,
1965) on lists of complex numbers; when N doubles it transforms only the new
midpoint samples and merges them with the previous level's transform.  The
contour shift integrates the real line and each straight leg of the shifted
path with one composite 16-point Gauss-Legendre rule, which takes real or
complex endpoints alike; its table is computed at import by Newton's method,
so the module needs nothing beyond the standard library.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .ledger import Ledger
from .walk import WalkCache, _require_position, mantissa_to_float

__all__ = [
    "ARCSINH1",
    "omega",
    "BranchCutError",
    "ValidityError",
    "QuadratureBudgetError",
    "GrowthBoundError",
    "growth_check",
    "saddle",
    "btilde",
    "b_pathintegral",
    "psi_asymptotic",
    "QuadratureResult",
    "quadrature_psi",
    "check_quadrature",
    "check_contour_shift",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
ARCSINH1 = math.asinh(1.0)
_CUT_TOLERANCE = 1e-12


class BranchCutError(ValueError):
    """theta lies on a branch cut of the principal sheet."""


class ValidityError(ValueError):
    """alpha outside the region where the requested expansion is valid."""


class GrowthBoundError(AssertionError):
    """Measured growth violates the large-|Im theta| bounds."""


class QuadratureBudgetError(RuntimeError):
    """Refinement budget exhausted before reaching the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def omega(theta: complex) -> complex:
    """Principal-branch phase value; raises BranchCutError on the cuts.

    theta is first shifted by a multiple of 2 pi so that -pi <= Re theta <= pi.
    """
    theta = complex(theta)
    u, v = theta.real, theta.imag
    if not -math.pi <= u <= math.pi:
        u -= 2.0 * math.pi * math.floor((u + math.pi) / (2.0 * math.pi))
        theta = complex(u, v)
    if (abs(v) >= ARCSINH1 - _CUT_TOLERANCE
            and abs(abs(u) - math.pi / 2) <= _CUT_TOLERANCE):
        raise BranchCutError(f"theta={theta} lies on a branch cut")
    return cmath.asin(cmath.sin(theta) * _INV_SQRT2)


def growth_check(u: float, v: float, t: int) -> float:
    """Measured |exp(-i omega(u+iv) t)| for large v, with its growth asserted.

    Inside |u| < pi/2 the modulus must track (e^v / sqrt2)^t, in the outer
    strips (sqrt2 e^-v)^t, within a factor 4^t of those forms.
    """
    if v <= 0:
        raise ValueError("growth bounds are stated for v > 0")
    if abs(abs(u) - math.pi / 2) < 1e-6:
        raise ValueError("u too close to +-pi/2: ill-conditioned")
    om = omega(complex(u, v))
    measured = abs(cmath.exp(-1j * om * t))
    if abs(u) < math.pi / 2:
        reference = (math.exp(v) * _INV_SQRT2) ** t
    else:
        reference = (_SQRT2 * math.exp(-v)) ** t
    bound = 4.0**t
    if not (reference / bound <= measured <= reference * bound):
        raise GrowthBoundError(
            f"|e^(-i omega t)| = {measured:g} vs reference {reference:g} at u={u}, v={v}")
    return measured


def _check_alpha(alpha: float, eps: float) -> None:
    if abs(alpha) >= 1.0 - eps:
        raise ValidityError(f"|alpha| = {abs(alpha)} too close to 1")
    if abs(abs(alpha) - _INV_SQRT2) <= eps:
        raise ValidityError(
            f"alpha = {alpha} inside the excluded transition zone of width {eps}")


def saddle(alpha: float) -> complex:
    """Stationary point theta_alpha of omega(theta) - theta*alpha.

    For |alpha| < 1/sqrt2 the two stationary points are real (+-theta_alpha;
    the positive representative is returned).  Beyond, the returned saddle is
    the one with positive imaginary part, the one the shifted contour crosses.
    """
    _check_alpha(alpha, 1e-3)
    x = alpha / math.sqrt(1.0 - alpha * alpha)
    if abs(alpha) < _INV_SQRT2:
        return complex(math.acos(x), 0.0)
    if alpha > 0:
        return complex(0.0, math.acosh(x))
    return complex(math.pi, math.acosh(-x))


def _require_decay(alpha: float, eps: float = 0.0) -> None:
    """Raise ValidityError unless 1/sqrt2 + eps < alpha < 1 - eps."""
    if not (alpha - _INV_SQRT2 > eps and alpha < 1.0 - eps):
        raise ValidityError(f"alpha = {alpha} outside (1/sqrt2 + {eps:g}, 1 - {eps:g})")


def btilde(alpha: float) -> float:
    """Wave-mechanics per-step decay base on (1/sqrt2, 1)."""
    _require_decay(alpha)
    s = math.sqrt(2.0 * alpha * alpha - 1.0)
    root = math.sqrt(1.0 - alpha * alpha)
    return (root / (alpha + s)) ** alpha * (1.0 + s) / (_SQRT2 * root)


def b_pathintegral(alpha: float) -> float:
    """Path-integral per-step decay base; provably equal to btilde."""
    _require_decay(alpha)
    s = math.sqrt(2.0 * alpha * alpha - 1.0)
    return (2.0 ** (-alpha / 2.0)
            * ((1.0 + 2.0 * alpha - s) / (1.0 + alpha)) ** alpha
            * ((alpha * alpha + s) / (1.0 - alpha * alpha)) ** ((1.0 - alpha) / 2.0))


def _asym_pair(n: int, t: int) -> tuple:
    """Steepest-descent values for 0 < n < t in the decay region."""
    a = n / t
    s = math.sqrt(2.0 * a * a - 1.0)
    base = btilde(a)
    scale = math.exp(t * math.log(base)) / math.sqrt(
        2.0 * math.pi * (1.0 - a * a) * s * t)
    psi_r = (-1.0) ** (n + 1) * (a + s) * scale
    psi_l = (-1.0) ** n * (1.0 - a) * scale
    return psi_r, psi_l


def psi_asymptotic(n: int, t: int, eps: float = 1e-3) -> tuple:
    """Decay-region amplitudes (psi_R, psi_L) at position n, time t.

    Valid for 1/sqrt2 + eps < |n|/t < 1 - eps with n = t (mod 2); negative n
    is mapped through the exact reflection relations, which shift the right
    amplitude to position |n|+2.
    """
    if (n - t) % 2:
        raise ValidityError(f"parity violation: n={n}, t={t}")
    if n >= 0:
        _require_decay(n / t, eps)
        return _asym_pair(n, t)
    p = -n
    _require_decay(p / t, eps)
    _require_decay((p + 2) / t, eps)
    psi_r_pos, _ = _asym_pair(p + 2, t)
    _, psi_l_pos = _asym_pair(p, t)
    psi_r = (-1.0) ** (p + 1) * psi_r_pos
    psi_l = (-1.0) ** p * (t + p) / (t - p) * psi_l_pos
    return psi_r, psi_l


def _decay_row(n: int, t: int, mantissa: int, eps: float) -> tuple:
    """(exact, asymptotic, rel_error, btilde, b, status) of the right amplitude
    at (n, t), exact = mantissa * 2^(-t/2) from the caller's oracle (0 outside
    the light cone); None where the row has no value.  status is ``excluded``
    where psi_asymptotic does not hold, ``underflow`` where either amplitude
    is below the normal floats and so has lost its digits, else ``ok``."""
    exact = mantissa_to_float(mantissa, t)
    try:
        asym, _ = psi_asymptotic(n, t, eps=eps)
    except ValidityError:
        return exact, None, None, None, None, "excluded"
    a = abs(n) / t
    if min(abs(exact), abs(asym)) < sys.float_info.min:
        return exact, asym, None, btilde(a), b_pathintegral(a), "underflow"
    return exact, asym, abs(asym / exact - 1.0), btilde(a), b_pathintegral(a), "ok"


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def _gauss_legendre(n: int) -> tuple:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from x = cos(pi (i + 3/4) / (n + 1/2)), with P_n
    and P_n' from the three-term recurrence; w = 2 / ((1 - x^2) P_n'(x)^2).
    """
    def legendre(x):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    rule = []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):
            p, dp = legendre(x)
            x -= p / dp
        dp = legendre(x)[1]
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    rule.sort()
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)


def _panel_integrate(f, a: complex, b: complex, panels: int) -> complex:
    """Composite 16-point Gauss-Legendre along the straight segment a -> b,
    real or complex, for a scalar integrand."""
    half = 0.5 * (b - a) / panels
    total = 0j
    for p in range(panels):
        mid = a + (2 * p + 1) * half
        total += sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))
    return half * total


def _refine(f, a: complex, b: complex, tol: float, panels0: int,
            max_nodes: int = 1 << 22) -> complex:
    """Panel-doubling until two refinements agree; returns the last value."""
    panels = panels0
    prev = _panel_integrate(f, a, b, panels)
    nodes = panels * 16
    while True:
        panels *= 2
        cur = _panel_integrate(f, a, b, panels)
        nodes += panels * 16
        delta = abs(cur - prev)
        if delta <= tol:
            return cur
        if nodes > max_nodes:
            raise QuadratureBudgetError(
                f"node budget exhausted at estimate {delta:g} (tol {tol:g})", delta)
        prev = cur


class QuadratureResult(namedtuple("QuadratureResult", "value node_count")):
    __slots__ = ()

    @property
    def real(self) -> float:
        return self.value.real


def _sample_integrands(thetas, t: int) -> tuple:
    """Lists e^{i theta}/q e^{-i omega t} and (1 + cos theta/q) e^{-i omega t}
    over ``thetas``: the psi_R, psi_L integrands without e^{-i theta n},
    q = sqrt(1 + cos^2 theta); omega is real on the real line."""
    right, left = [], []
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        q = math.sqrt(1.0 + c * c)
        om_t = math.asin(s * _INV_SQRT2) * t
        phase = complex(math.cos(om_t), -math.sin(om_t))
        right.append(complex(c, s) / q * phase)
        left.append((1.0 + c / q) * phase)
    return right, left


def _twiddles(n: int) -> list:
    """e^{-2 pi i k/n} for k < n/2."""
    return [complex(math.cos(2.0 * math.pi * k / n), -math.sin(2.0 * math.pi * k / n))
            for k in range(n // 2)]


def _merge(even: list, odd: list, twiddles: list) -> list:
    """Length-2m DFTs from length-m DFTs of the even- and odd-indexed samples.

    ``even`` and ``odd`` each hold rows of m entries and row r of the result
    is X[k] = E_r[k mod m] + e^{-i pi k/m} O_r[k mod m]; ``twiddles`` is
    _twiddles(2m).  The rows are interleaved by whichever of rows and columns
    is shorter.
    """
    m = len(twiddles)
    rows = len(even) // m
    odd = [w * o for w, o in zip(twiddles * rows, odd)]
    low = [e + o for e, o in zip(even, odd)]
    high = [e - o for e, o in zip(even, odd)]
    out = [0j] * (2 * len(low))
    if m <= rows:
        for k in range(m):
            out[k::2 * m] = low[k::m]
            out[m + k::2 * m] = high[k::m]
    else:
        for r in range(0, len(low), m):
            out[2 * r:2 * r + m] = low[r:r + m]
            out[2 * r + m:2 * r + 2 * m] = high[r:r + m]
    return out


def _fft(x: list, twiddles: list) -> list:
    """DFT X[k] = sum_j x[j] e^{-2 pi i jk/n}, n = len(x) a power of two and
    ``twiddles`` = _twiddles(n): iterative radix-2 decimation in time.

    Before the stage that builds length-2m DFTs, row r of ``x`` is the DFT of
    the samples j = r (mod n/m), so the rows for the even and odd samples of
    residue r mod n/(2m) are row r of the first and of the second half.
    """
    n = len(x)
    m = 1
    while m < n:
        x = _merge(x[:n // 2], x[n // 2:], twiddles[::n // (2 * m)])
        m *= 2
    return x


def _quadrature_row(t: int, tol: float, max_nodes: int = 1 << 22) -> list:
    """(psi_R, psi_L) QuadratureResult pairs for n = -t, -t+2, ..., t.

    At theta_j = -pi + 2 pi j/N the N-node trapezoid sum at n is (-1)^n/N times
    DFT entry n mod N; no |n| <= t aliases once N >= 2t+2.  Doubling keeps the
    old nodes and stops once no position of either integral changes by more
    than tol/4 before its 1/(2 pi).  The DFT is an in-package radix-2 FFT; a
    doubling transforms only the N new midpoint samples and merges them with
    the previous level's transform, so all levels together cost about one
    FFT of the final size.  node_count is the final N; QuadratureBudgetError
    carries the largest change once N reaches ``max_nodes``.
    """
    if tol < 1e-14:
        raise ValueError("tolerance below attainable double precision")
    index = range(-t, t + 1, 2)
    nodes = 1 << (2 * t + 1).bit_length()
    step = 2.0 * math.pi / nodes
    twiddles = _twiddles(nodes)
    spectra = [_fft(x, twiddles)
               for x in _sample_integrands([-math.pi + j * step for j in range(nodes)], t)]
    prev = [[x[n % nodes] / nodes for n in index] for x in spectra]
    while True:
        mids = _sample_integrands([-math.pi + (j + 0.5) * step for j in range(nodes)], t)
        twiddles = _twiddles(2 * nodes)
        spectra = [_merge(x, _fft(m, twiddles[::2]), twiddles)
                   for x, m in zip(spectra, mids)]
        nodes *= 2
        step = 2.0 * math.pi / nodes
        cur = [[x[n % nodes] / nodes for n in index] for x in spectra]
        delta = 2.0 * math.pi * max(abs(c - p) for pair in zip(cur, prev)
                                    for c, p in zip(*pair))
        if delta <= tol * 0.25:
            break
        if nodes >= max_nodes:
            raise QuadratureBudgetError(
                f"node budget exhausted at estimate {delta:g} (tol {tol * 0.25:g})", delta)
        prev = cur
    sign = -1.0 if t % 2 else 1.0
    parts = [[QuadratureResult(sign * v, nodes) for v in values] for values in cur]
    return list(zip(*parts))


def quadrature_psi(n: int, t: int, tol: float = 1e-10) -> tuple:
    """Momentum-integral amplitudes (psi_R, psi_L) as QuadratureResult pair.

    Numeric oracle for the exact simulator: the two periodic integrals over
    [-pi, pi], divided by 2 pi, by the periodic trapezoid rule (Trefethen &
    Weideman, SIAM Review 56, 2014) and read at n from one FFT that serves
    every position at time t.  Nodes double from the smallest power of two
    >= 2t+2 until no position changes by more than tol/4 before the 1/(2 pi)
    (``_quadrature_row``).  The imaginary part is pure noise.  If the node
    budget runs out first, QuadratureBudgetError carries the achieved
    estimate.
    """
    _require_position(n, t)
    return _quadrature_row(t, tol)[(n + t) // 2]


def check_quadrature(walk: WalkCache, t_max: int, tol: float = 1e-9) -> Ledger:
    """Momentum integrals == exact simulator amplitudes within ``tol``.

    Both chiralities at every reachable (n, t) with t <= t_max.  Each t takes
    all its positions from one FFT of the periodic trapezoid rule (Trefethen
    & Weideman, SIAM Review 56, 2014) at tolerance tol/10: the node count
    doubles from the smallest power of two >= 2t+2 until no position changes
    by more than tol/40 before the 1/(2 pi) (``_quadrature_row``).  Witnesses
    are (n, t, deviation).
    """
    ledger = Ledger("momentum integrals == simulator", worst=0.0, tol=tol)
    for t in range(t_max + 1):
        st = walk.state(t)
        row = _quadrature_row(t, tol * 0.1)
        for n, (qr, ql) in zip(range(-t, t + 1, 2), row):
            dev = max(abs(qr.real - mantissa_to_float(st.mantissa_r(n), t)),
                      abs(ql.real - mantissa_to_float(st.mantissa_l(n), t)))
            ledger.worst = max(ledger.worst, dev)
            ledger.record("momentum integral", (n, t, dev), dev <= tol)
    return ledger


# ---------------------------------------------------------------------------
# contour shift
# ---------------------------------------------------------------------------

# the shifted path's waypoints at Re theta = +-pi/2 sit below the branch
# points at height arcsinh 1, so the path passes between the cuts
_WAYPOINT_HEIGHT = 0.8 * ARCSINH1


def _reflected_kernel(theta, alpha: float, t: int):
    """Integrand of the reflected right-amplitude representation.

    psi_R(n,t) = (-1)^(n+1)/(2 pi) * Int e^{-i theta} / sqrt(1+cos^2 theta)
                 * e^{-i (omega - theta alpha) t} d theta,
    analytic on the cut strip; usable on complex paths.
    """
    q = cmath.sqrt(1.0 + cmath.cos(theta) ** 2)
    return cmath.exp(-1j * theta) / q * cmath.exp(-1j * (omega(theta) - theta * alpha) * t)


def check_contour_shift(walk: WalkCache, points, tol: float = 1e-8) -> Ledger:
    """The right amplitude by the shifted contour == real line == simulator.

    For each decay-region (n, t) in ``points``, the reflected representation
    (``_reflected_kernel``) is integrated once along [-pi, pi] and once along
    the shifted path (-pi + iV) -> (-pi/2 + ih) -> theta_alpha -> (pi/2 + ih)
    -> (pi + iV), h = ``_WAYPOINT_HEIGHT``, which threads between the cuts and
    through the imaginary-axis saddle.  The closing vertical legs at
    Re theta = +-pi cancel exactly by 2pi-periodicity of the integrand (alpha
    t = n is an integer), so the path integral equals the [-pi, pi] integral
    exactly; V only anchors the slant and its tail contribution is bounded by
    exp(-(1-alpha) V t).  Three records per point, each with the witness
    (n, t, deviation): shifted contour == real line, the momentum integral at
    the reflected position 2 - n == real line, and shifted contour == the
    simulator's amplitude.  Raises ValidityError outside the decay region.
    """
    ledger = Ledger("contour shift", worst=0.0, tol=tol)
    for n, t in points:
        alpha = n / t
        _require_decay(alpha, 1e-3)
        theta_alpha = saddle(alpha)
        v_top = max(1.0, theta_alpha.imag + 0.5)
        # grow V until the analytic tail bound is inside the error budget
        while math.exp(-(1.0 - alpha) * v_top * t) > tol * 1e-3 and v_top < 60.0:
            v_top += 1.0

        sign = (-1.0) ** (n + 1)

        def f(theta):
            return _reflected_kernel(theta, alpha, t)

        real_line = sign * _refine(f, -math.pi, math.pi, tol * 0.05,
                                   max(64, 2 * t)).real / (2.0 * math.pi)
        h = _WAYPOINT_HEIGHT
        waypoints = [complex(-math.pi, v_top), complex(-math.pi / 2, h), theta_alpha,
                     complex(math.pi / 2, h), complex(math.pi, v_top)]
        total = sum(_refine(f, za, zb, tol * 0.05, 16)
                    for za, zb in zip(waypoints[:-1], waypoints[1:]))
        shifted = sign * total.real / (2.0 * math.pi)
        # independent symmetry route: quadrature at the reflected position
        reflected = sign * quadrature_psi(2 - n, t, tol=tol * 0.1)[0].real
        exact = mantissa_to_float(walk.state(t).mantissa_r(n), t)
        for item, dev in (("shifted contour == real line", abs(shifted - real_line)),
                          ("reflected position == real line", abs(reflected - real_line)),
                          ("shifted contour == simulator", abs(shifted - exact))):
            ledger.worst = max(ledger.worst, dev)
            ledger.record(item, (n, t, dev), dev <= tol)
    return ledger
