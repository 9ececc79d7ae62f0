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

The quadrature oracle reads every position at time t from one half-length
transform per time: the periodic trapezoid rule (Trefethen & Weideman, SIAM
Review 56, 2014, section 3) at N nodes, N the least power of two >= 2t+2 at
which its error is proved below the tolerance (``_node_count``), with psi_R
and psi_L packed into one complex sample list (Press et al., Numerical
Recipes, section 12.3), folded to length N/2 for t's parity and transformed
by the module's own radix-2 FFT (Cooley & Tukey, Math. Comp. 19, 1965).  The
contour shift sums the same rule along a smooth periodic path through the
saddle, so the module needs nothing beyond the standard library.
"""

from __future__ import annotations

import cmath
import functools
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
_TOL_FLOOR = 1e-14  # below it rounding, not the trapezoid bound, sets the error


class BranchCutError(ValueError):
    """theta lies on a branch cut of the principal sheet."""


class ValidityError(ValueError):
    """alpha outside the region where the requested expansion is valid."""


class GrowthBoundError(AssertionError):
    """Measured growth violates the large-|Im theta| bounds."""


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

QuadratureResult = namedtuple("QuadratureResult", "value node_count")


def _sample_integrands(thetas, t: int) -> list:
    """psi_R integrand + i psi_L integrand over ``thetas``, without e^{-i theta n}:
    e^{i theta}/q e^{-i omega t} + i (1 + cos theta/q) e^{-i omega t},
    q = sqrt(1 + cos^2 theta); omega is real on the real line."""
    samples = []
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        q = math.sqrt(1.0 + c * c)
        om_t = math.asin(s * _INV_SQRT2) * t
        samples.append(complex(c / q, 1.0 + (c + s) / q)
                       * complex(math.cos(om_t), -math.sin(om_t)))
    return samples


@functools.cache  # N takes a few powers of two, so each table is built once
def _twiddles(n: int) -> tuple:
    """e^{-2 pi i k/n} for k < n/2."""
    return tuple(complex(math.cos(2.0 * math.pi * k / n), -math.sin(2.0 * math.pi * k / n))
                 for k in range(n // 2))


def _fft(x: list, twiddles: tuple) -> list:
    """DFT X[k] = sum_j x[j] e^{-2 pi i jk/n}, n = len(x) a power of two and
    ``twiddles`` = _twiddles(n): recursive radix-2 decimation in time (Cooley
    & Tukey), X[k] = E[k] + w^k O[k] and X[k + n/2] = E[k] - w^k O[k]."""
    if len(x) == 1:
        return list(x)
    half = twiddles[0::2]
    even = _fft(x[0::2], half)
    odd = [w * o for w, o in zip(twiddles, _fft(x[1::2], half))]
    return [e + o for e, o in zip(even, odd)] + [e - o for e, o in zip(even, odd)]


def _bound_term(a: float) -> tuple:
    """(a, g(a), log(max(e^a, q + cosh a)/q)): the t-independent parts of
    ``_node_count``'s bound at one a."""
    q = math.sqrt((3.0 - math.cosh(2.0 * a)) / 2.0)
    return (a, math.asinh(math.sinh(a) * _INV_SQRT2),
            math.log(max(math.exp(a), q + math.cosh(a)) / q))


_BOUND_TERMS = tuple(_bound_term(ARCSINH1 * k / 32) for k in range(1, 32))


def _node_count(t: int, tol: float) -> int:
    """Least power of two N >= 2t+2 at which the N-node trapezoid sums of
    both momentum integrals are proved within ``tol`` at every |n| <= t.

    On |Im theta| <= a < arcsinh 1 both integrands are analytic and bounded by
    M(a) = e^{t g(a)} max(e^a, q + cosh a)/q, g(a) = asinh(sinh a/sqrt2),
    q = sqrt((3 - cosh 2a)/2), from |e^{-i omega t}| <= e^{t g(a)} (below),
    |1 + cos^2 theta| = |3 + cos 2 theta|/2 >= q^2, |e^{i theta}| <= e^a and
    |cos theta| <= cosh a.  So their Fourier coefficients obey
    |c_m| <= M(a) e^{-a|m|}, and the sum at n, which adds c_{n+kN} for every
    k != 0, errs by at most 2 M(a) e^{-a(N-t)}/(1 - e^{-aN}).  The least N at
    which that is <= tol for one of 31 equispaced a in (0, arcsinh 1), with
    1 - e^{-aN} taken at its least value N = 2t+2, is rounded up to a power
    of two.

    The growth bound: with w = sin theta/sqrt2, |Im arcsin w| =
    arccosh((|w+1| + |w-1|)/2), which is constant on each ellipse with foci
    +-1 and grows outward.  On Im theta = +-a, w runs over the ellipse
    x = sin u cosh a/sqrt2, y = +-cos u sinh a/sqrt2.  The confocal ellipse
    through its vertex (0, B), B = sinh a/sqrt2, has semi-major axis
    A = sqrt(1 + B^2), and x^2/A^2 + y^2/B^2 = sin^2 u cosh^2 a/(2 + sinh^2 a)
    + cos^2 u <= 1.  So |Im omega| <= arcsinh B = g(a), with equality at u = 0.
    """
    if not _TOL_FLOOR <= tol < math.inf:
        raise ValueError("tolerance not finite or below attainable double precision")
    least = 2 * t + 2
    need = math.inf
    for a, g, log_factor in _BOUND_TERMS:
        need = min(need, t + (math.log(2.0 / tol) + (t * g + log_factor)
                              - math.log1p(-math.exp(-a * least))) / a)
    return 1 << (max(least, math.ceil(need)) - 1).bit_length()


def _quadrature_row(t: int, tol: float) -> list:
    """(psi_R, psi_L) QuadratureResult pairs for n = -t, -t+2, ..., t, each
    within ``tol`` of its integral divided by 2 pi; node_count is
    N = ``_node_count(t, tol)``.

    At theta_j = -pi + 2 pi j/N the N-node trapezoid sum at n is (-1)^n/N times
    DFT entry n mod N; no |n| <= t aliases since N >= 2t+2.  Both sums are
    real (each integrand is conjugate-symmetric on these nodes), so the DFT
    of the samples z = psi_R + i psi_L holds them as its real and imaginary
    parts.  Only entries of t's parity are read: the N/2-point DFT of
    y_j = z_j + z_{j+N/2} (t even) or (z_j - z_{j+N/2}) e^{-2 pi i j/N}
    (t odd) holds them at (n mod N) // 2.
    """
    nodes = _node_count(t, tol)
    half = nodes // 2
    step = 2.0 * math.pi / nodes
    twiddles = _twiddles(nodes)
    z = _sample_integrands([-math.pi + j * step for j in range(nodes)], t)
    if t % 2:
        y = [(a - b) * w for a, b, w in zip(z[:half], z[half:], twiddles)]
    else:
        y = [a + b for a, b in zip(z[:half], z[half:])]
    spectrum = _fft(y, twiddles[0::2])
    sign = (-1.0 if t % 2 else 1.0) / nodes
    return [(QuadratureResult(sign * x.real, nodes), QuadratureResult(sign * x.imag, nodes))
            for x in (spectrum[(n % nodes) // 2] for n in range(-t, t + 1, 2))]


def quadrature_psi(n: int, t: int, tol: float = 1e-10) -> tuple:
    """Momentum-integral amplitudes (psi_R, psi_L) as QuadratureResult pair.

    Numeric oracle for the exact simulator: the two periodic integrals over
    [-pi, pi], divided by 2 pi, each within ``tol``, read at n from the row
    that one half-length transform per time gives for every position at
    time t (``_quadrature_row``).
    """
    _require_position(n, t)
    return _quadrature_row(t, tol)[(n + t) // 2]


def check_quadrature(walk: WalkCache, t_max: int, tol: float = 1e-9) -> Ledger:
    """Momentum integrals == exact simulator amplitudes within ``tol``.

    Both chiralities at every reachable (n, t) with t <= t_max; each t takes
    all its positions from one ``_quadrature_row`` at tolerance tol/10.
    Witnesses are (n, t, deviation).
    """
    ledger = Ledger("momentum integrals == simulator", worst=0.0, tol=tol)
    for t in range(t_max + 1):
        st = walk.state(t)
        row = _quadrature_row(t, tol * 0.1)
        for n, (qr, ql) in zip(range(-t, t + 1, 2), row):
            dev = max(abs(qr.value - mantissa_to_float(st.mantissa_r(n), t)),
                      abs(ql.value - mantissa_to_float(st.mantissa_l(n), t)))
            ledger.worst = max(ledger.worst, dev)
            ledger.record("momentum integral", (n, t, dev), dev <= tol)
    return ledger


# ---------------------------------------------------------------------------
# contour shift
# ---------------------------------------------------------------------------

def _reflected_kernel(theta, alpha: float, t: int):
    """Integrand of the reflected right-amplitude representation.

    psi_R(n,t) = (-1)^(n+1)/(2 pi) * Int e^{-i theta} / sqrt(1+cos^2 theta)
                 * e^{-i (omega - theta alpha) t} d theta,
    analytic on the cut strip; usable on complex paths.
    """
    q = cmath.sqrt(1.0 + cmath.cos(theta) ** 2)
    return cmath.exp(-1j * theta) / q * cmath.exp(-1j * (omega(theta) - theta * alpha) * t)


def _shifted_path(alpha: float) -> tuple:
    """(c0, c1, c2) of the height h(u) = c0 + c1 cos u + c2 cos 2u of the
    path theta(u) = u + i h(u) through the saddle theta_alpha.

    h(0) = Im theta_alpha; h(+-pi/2) = 0.8 arcsinh 1, below the branch
    points, so the path crosses Re theta = +-pi/2 between the cuts; h(+-pi) =
    max(1, Im theta_alpha + 0.5).  Without the cos 2u term the path dips
    below the real axis near u = +-pi at large alpha and the kernel overflows.
    """
    top = saddle(alpha).imag
    side = max(1.0, top + 0.5)
    cross = 0.8 * ARCSINH1
    return (top + side) / 4 + cross / 2, (top - side) / 2, (top + side) / 4 - cross / 2


def _path_sum(alpha: float, t: int, path: tuple, nodes: int) -> complex:
    """N-node periodic trapezoid rule for 1/(2 pi) times the integral of
    ``_reflected_kernel`` along theta(u) = u + i h(u), -pi <= u <= pi, with
    h's coefficients ``path``: the mean of kernel(theta(u_j)) theta'(u_j) at
    u_j = -pi + 2 pi j/N.  The path (0, 0, 0) is the real line.
    """
    c0, c1, c2 = path
    total = 0j
    for j in range(nodes):
        u = -math.pi + 2.0 * math.pi * j / nodes
        theta = complex(u, c0 + c1 * math.cos(u) + c2 * math.cos(2.0 * u))
        slope = -c1 * math.sin(u) - 2.0 * c2 * math.sin(2.0 * u)
        total += _reflected_kernel(theta, alpha, t) * complex(1.0, slope)
    return total / nodes


def check_contour_shift(walk: WalkCache, points, tol: float = 1e-8) -> Ledger:
    """The right amplitude by the shifted contour == real line == simulator.

    For each decay-region (n, t) in ``points``, the reflected representation
    (``_reflected_kernel``) is summed by one periodic trapezoid rule
    (``_path_sum``) along the real line and along the smooth path
    ``_shifted_path`` through the imaginary-axis saddle.  The kernel is
    2 pi-periodic, since alpha t = n is an integer, and analytic between the
    two paths, which cross Re theta = +-pi/2 only below the cuts; so by
    Cauchy both integrals are equal.  Both sums take twice the momentum
    rule's node count ``_node_count(t, tol/10)``; on the real line the kernel
    is e^{i theta n} times a function bounded by the same M(a), so that
    error bound holds there too.  Three records per point, each with the witness
    (n, t, deviation): shifted contour == real line and the momentum integral
    at the reflected position 2 - n == real line, both absolute, and shifted
    contour == the simulator's amplitude, relative, so an amplitude that
    underflows to 0 reads deviation inf.  Raises ValidityError outside the
    decay region.
    """
    ledger = Ledger("contour shift", worst=0.0, tol=tol)
    for n, t in points:
        alpha = n / t
        _require_decay(alpha, 1e-3)
        nodes = 2 * _node_count(t, tol * 0.1)
        sign = (-1.0) ** (n + 1)
        real_line = sign * _path_sum(alpha, t, (0.0, 0.0, 0.0), nodes).real
        shifted = sign * _path_sum(alpha, t, _shifted_path(alpha), nodes).real
        # independent symmetry route: quadrature at the reflected position
        reflected = sign * quadrature_psi(2 - n, t, tol=tol * 0.1)[0].value
        exact = mantissa_to_float(walk.state(t).mantissa_r(n), t)
        for item, dev in (("shifted contour == real line", abs(shifted - real_line)),
                          ("reflected position == real line", abs(reflected - real_line)),
                          ("shifted contour == simulator",
                           abs(shifted - exact) / abs(exact) if exact else math.inf)):
            ledger.worst = max(ledger.worst, dev)
            ledger.record(item, (n, t, dev), dev <= tol)
    return ledger
