"""Complex phase function, saddle points, decay asymptotics, and quadrature oracles.

The phase omega(theta) = arcsin(sin(theta)/sqrt(2)) is taken on the principal
sheet: the strip -pi <= Re theta <= pi minus four branch cuts on the vertical
half-lines Re theta = +-pi/2, |Im theta| >= arcsinh(1).  The principal complex
arcsin realizes exactly this branch: it is real and odd on [-pi, pi], equals
 i*arcsinh(sinh v / sqrt 2) on the positive imaginary axis,
-i*arcsinh(sinh v / sqrt 2) on the verticals Re theta = +-pi, and takes the
values pi/2 +- i*ln(cosh v / sqrt 2 + sqrt(cosh^2 v / 2 - 1)) on the two sides
of the right-hand cut.  Points within ``cut_tolerance`` of a cut are rejected
instead of being silently assigned a side.

In the exponential-decay region 1/sqrt2 < alpha < 1 the saddle sits on the
positive imaginary axis and the per-step decay base is

    Btilde(alpha) = (sqrt(1-a^2)/(a+s))^a * (1+s) / (sqrt2 sqrt(1-a^2)),
    s = sqrt(2 a^2 - 1),

the sqrt(2)-denominator form: it is the unique choice with Btilde -> 1 at the
oscillatory boundary, it matches the exact simulator, and it is the form for
which the path-integral base b_pathintegral is provably identical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .ledger import Ledger
from .walk import WalkCache

__all__ = [
    "ARCSINH1",
    "SINGULAR_POINTS",
    "PrincipalOmega",
    "principal_omega",
    "omega",
    "BranchCutError",
    "ValidityError",
    "QuadratureBudgetError",
    "GrowthBoundError",
    "growth_check",
    "SaddleData",
    "saddle",
    "btilde",
    "b_pathintegral",
    "psi_asymptotic",
    "QuadratureResult",
    "quadrature_psi",
    "quadrature_psi_tilde_l",
    "check_quadrature",
    "contour_shift_check",
    "ContourReport",
    "saddle_residual_fd",
    "omega_second_derivative_fd",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
ARCSINH1 = math.asinh(1.0)

SINGULAR_POINTS = (
    complex(+math.pi / 2, +ARCSINH1),
    complex(-math.pi / 2, +ARCSINH1),
    complex(+math.pi / 2, -ARCSINH1),
    complex(-math.pi / 2, -ARCSINH1),
)


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


class PrincipalOmega:
    """Evaluation context for the phase on its principal sheet."""

    def __init__(self, cut_tolerance: float = 1e-12):
        self.cut_tolerance = cut_tolerance

    def reduce_to_strip(self, theta: complex) -> complex:
        """Shift by multiples of 2 pi so that -pi <= Re theta <= pi."""
        u = theta.real
        if -math.pi <= u <= math.pi:
            return theta
        k = math.floor((u + math.pi) / (2.0 * math.pi))
        return complex(u - 2.0 * math.pi * k, theta.imag)

    def on_cut(self, theta: complex) -> bool:
        u, v = theta.real, theta.imag
        if abs(v) < ARCSINH1 - self.cut_tolerance:
            return False
        return (abs(abs(u) - math.pi / 2) <= self.cut_tolerance)

    def __call__(self, theta: complex) -> complex:
        theta = self.reduce_to_strip(complex(theta))
        if self.on_cut(theta):
            raise BranchCutError(f"theta={theta} lies on a branch cut")
        return cmath.asin(cmath.sin(theta) * _INV_SQRT2)


principal_omega = PrincipalOmega()


def omega(theta: complex) -> complex:
    """Principal-branch phase value; raises BranchCutError on the cuts."""
    return principal_omega(theta)


def growth_check(u: float, v: float, t: int) -> float:
    """Measured |exp(-i omega(u+iv) t)| for large v, with its growth asserted.

    Inside |u| < pi/2 the modulus must track (e^v / sqrt2)^t, in the outer
    strips (sqrt2 e^-v)^t, within a factor 4^t of those forms.
    """
    if v <= 0:
        raise ValueError("growth bounds are stated for v > 0")
    if abs(abs(u) - math.pi / 2) < 1e-6:
        raise ValueError("u too close to +-pi/2: ill-conditioned")
    om = principal_omega(complex(u, v))
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


@dataclass(frozen=True)
class SaddleData:
    """Saddle location and decay data for one value of alpha."""

    alpha: float
    region: str                 # "oscillatory" or "decay"
    theta_alpha: complex
    omega_alpha: complex
    btilde: float | None = None
    b: float | None = None
    prefactor_r: float | None = None
    prefactor_l: float | None = None


def _check_alpha(alpha: float, eps: float) -> None:
    if abs(alpha) >= 1.0 - eps:
        raise ValidityError(f"|alpha| = {abs(alpha)} too close to 1")
    if abs(abs(alpha) - _INV_SQRT2) <= eps:
        raise ValidityError(
            f"alpha = {alpha} inside the excluded transition zone of width {eps}")


def saddle(alpha: float, eps: float = 1e-3) -> SaddleData:
    """Stationary point of omega(theta) - theta*alpha and the derived data.

    For |alpha| < 1/sqrt2 the two stationary points are real (+-theta_alpha;
    the positive representative is returned).  Beyond, the returned saddle is
    the one with positive imaginary part, the one the shifted contour crosses.
    """
    _check_alpha(alpha, eps)
    x = alpha / math.sqrt(1.0 - alpha * alpha)
    if abs(alpha) < _INV_SQRT2:
        theta = complex(math.acos(x), 0.0)
        om = principal_omega(theta)
        return SaddleData(alpha, "oscillatory", theta, om)
    if alpha > 0:
        theta = complex(0.0, math.acosh(x))
    else:
        theta = complex(math.pi, math.acosh(-x))
    om = principal_omega(theta)
    a = abs(alpha)
    s = math.sqrt(2.0 * a * a - 1.0)
    common = 1.0 / math.sqrt(2.0 * math.pi * (1.0 - a * a) * s)
    return SaddleData(alpha, "decay", theta, om,
                      btilde=btilde(a), b=b_pathintegral(a),
                      prefactor_r=(a + s) * common,
                      prefactor_l=(1.0 - a) * common)


def _require_decay(alpha: float) -> None:
    if not _INV_SQRT2 < alpha < 1.0:
        raise ValidityError(f"alpha = {alpha} outside (1/sqrt2, 1)")


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
        _check_alpha(n / t, eps)
        if n / t <= _INV_SQRT2:
            raise ValidityError("alpha in the oscillatory region")
        return _asym_pair(n, t)
    p = -n
    _check_alpha(p / t, eps)
    _check_alpha((p + 2) / t, eps)
    if p / t <= _INV_SQRT2:
        raise ValidityError("alpha in the oscillatory region")
    psi_r_pos, _ = _asym_pair(p + 2, t)
    _, psi_l_pos = _asym_pair(p, t)
    psi_r = (-1.0) ** (p + 1) * psi_r_pos
    psi_l = (-1.0) ** p * (t + p) / (t - p) * psi_l_pos
    return psi_r, psi_l


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_integrate(fvec, a: float, b: float, panels: int) -> complex:
    """Composite 16-point Gauss-Legendre on [a, b] for a vectorized integrand."""
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1] - edges[0])
    thetas = (mids[:, None] + halves * _GL_NODES[None, :]).ravel()
    vals = fvec(thetas).reshape(panels, -1)
    return complex(halves * np.sum(vals @ _GL_WEIGHTS))


def _refine(fvec, a: float, b: float, tol: float, panels0: int,
            max_nodes: int = 1 << 22) -> tuple:
    """Panel-doubling until two refinements agree; returns (value, est, nodes)."""
    panels = panels0
    prev = _panel_integrate(fvec, a, b, panels)
    nodes = panels * 16
    while True:
        panels *= 2
        cur = _panel_integrate(fvec, a, b, panels)
        nodes += panels * 16
        delta = abs(cur - prev)
        if delta <= tol:
            return cur, delta, nodes
        if nodes > max_nodes:
            raise QuadratureBudgetError(
                f"node budget exhausted at estimate {delta:g} (tol {tol:g})", delta)
        prev = cur


def _kernel_factory(n: int, t: int):
    alpha = n / t if t else 0.0

    def kr(theta):
        om = np.arcsin(np.sin(theta) * _INV_SQRT2)
        q = np.sqrt(1.0 + np.cos(theta) ** 2)
        phase = np.exp(-1j * (om + theta * alpha) * t)
        return np.exp(1j * theta) / q * phase

    def kl(theta):
        om = np.arcsin(np.sin(theta) * _INV_SQRT2)
        q = np.sqrt(1.0 + np.cos(theta) ** 2)
        phase = np.exp(-1j * (om + theta * alpha) * t)
        return (1.0 + np.cos(theta) / q) * phase

    return kr, kl


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    node_count: int

    @property
    def real(self) -> float:
        return self.value.real


def quadrature_psi(n: int, t: int, tol: float = 1e-10,
                   max_nodes: int = 1 << 22) -> tuple:
    """Momentum-integral amplitudes (psi_R, psi_L) as QuadratureResult pair.

    Numeric oracle for the exact simulator: the two periodic integrals over
    [-pi, pi], divided by 2 pi.  The result's imaginary part is pure noise and
    is folded into the error estimate.  If panel doubling cannot reach the
    tolerance within ``max_nodes`` evaluations, QuadratureBudgetError carries
    the achieved estimate.
    """
    if abs(n) > t:
        raise ValueError(f"position {n} outside [-{t}, {t}]")
    if (n - t) % 2:
        raise ValueError(f"parity violation: n={n}, t={t}")
    if tol < 1e-14:
        raise ValueError("tolerance below attainable double precision")
    kr, kl = _kernel_factory(n, t)
    panels0 = max(64, 2 * t)
    out = []
    for kern in (kr, kl):
        val, est, nodes = _refine(kern, -math.pi, math.pi, tol * 0.25, panels0,
                                  max_nodes=max_nodes)
        val /= 2.0 * math.pi
        est = est / (2.0 * math.pi) + abs(val.imag)
        out.append(QuadratureResult(val, est, nodes))
    return tuple(out)


def check_quadrature(walk: WalkCache, t_max: int, tol: float = 1e-9) -> Ledger:
    """Momentum integrals == exact simulator amplitudes within ``tol``.

    Both chiralities at every reachable (n, t) with t <= t_max; each integral
    is computed to tol/10.  Witnesses are (n, t, deviation).
    """
    ledger = Ledger("momentum integrals == simulator", worst=0.0, tol=tol)
    for t in range(t_max + 1):
        for n in range(-t, t + 1, 2):
            qr, ql = quadrature_psi(n, t, tol=tol * 0.1)
            dev = max(abs(qr.real - walk.amp_r_float(n, t)),
                      abs(ql.real - walk.amp_l_float(n, t)))
            ledger.worst = max(ledger.worst, dev)
            ledger.record("momentum integral", (n, t, dev), dev <= tol)
    return ledger


def quadrature_psi_tilde_l(n: int, t: int, tol: float = 1e-10) -> QuadratureResult:
    """Numeric value of the reduced left integral (1/2pi) Int e^{-i(t om + n th)}."""
    if tol < 1e-14:
        raise ValueError("tolerance below attainable double precision")

    def kern(theta):
        om = np.arcsin(np.sin(theta) * _INV_SQRT2)
        return np.exp(-1j * (t * om + n * theta))

    val, est, nodes = _refine(kern, -math.pi, math.pi, tol * 0.25, max(64, 2 * t))
    val /= 2.0 * math.pi
    return QuadratureResult(val, est / (2.0 * math.pi) + abs(val.imag), nodes)


# ---------------------------------------------------------------------------
# contour shift
# ---------------------------------------------------------------------------


def _reflected_kernel(theta, alpha: float, t: int):
    """Integrand of the reflected right-amplitude representation.

    psi_R(n,t) = (-1)^(n+1)/(2 pi) * Int e^{-i theta} / sqrt(1+cos^2 theta)
                 * e^{-i (omega - theta alpha) t} d theta,
    analytic on the cut strip; usable on complex paths.
    """
    om = np.arcsin(np.sin(theta) * _INV_SQRT2)
    q = np.sqrt((1.0 + np.cos(theta) ** 2).astype(complex))
    return np.exp(-1j * theta) / q * np.exp(-1j * (om - theta * alpha) * t)


def _segment_integrate(f, za: complex, zb: complex, tol: float) -> tuple:
    """Adaptive composite GL along the straight segment za -> zb."""
    direction = zb - za

    def g(s):
        return f(za + direction * s) * direction

    return _refine(g, 0.0, 1.0, tol, 16)


@dataclass(frozen=True)
class ContourReport:
    n: int
    t: int
    real_line_value: float
    shifted_value: float
    difference: float
    symmetry_difference: float
    truncation_height: float
    waypoint_height: float
    node_count: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.difference <= self.tolerance


def contour_shift_check(n: int, t: int, tol: float = 1e-8,
                        eps: float = 1e-3) -> ContourReport:
    """Compare the real-line and shifted-contour routes for the right amplitude.

    The shifted path runs (-pi + iV) -> (-pi/2 + ih) -> theta_alpha ->
    (pi/2 + ih) -> (pi + iV) with h below the branch-point height arcsinh(1),
    so the path threads between the cuts and through the imaginary-axis
    saddle.  The closing vertical legs at Re theta = +-pi cancel exactly by
    2pi-periodicity of the integrand (alpha t = n is an integer), so the
    four-segment path integral equals the [-pi, pi] integral exactly; the
    ``truncation_height`` V only anchors the slant and its tail contribution
    is bounded by exp(-(1-alpha) V t).
    """
    alpha = n / t
    if not (_INV_SQRT2 + eps < alpha < 1.0 - eps):
        raise ValidityError(f"alpha = {alpha} outside the decay region")
    sd = saddle(alpha, eps)
    v_s = sd.theta_alpha.imag
    h = 0.8 * ARCSINH1
    v_top = max(1.0, v_s + 0.5)
    # grow V until the analytic tail bound is inside the error budget
    while math.exp(-(1.0 - alpha) * v_top * t) > tol * 1e-3 and v_top < 60.0:
        v_top += 1.0

    sign = (-1.0) ** (n + 1)

    def f(theta):
        return _reflected_kernel(theta, alpha, t)

    real_val, _, real_nodes = _refine(
        f, -math.pi, math.pi, tol * 0.05, max(64, 2 * t))
    real_line = sign * real_val.real / (2.0 * math.pi)

    waypoints = [complex(-math.pi, v_top), complex(-math.pi / 2, h),
                 sd.theta_alpha, complex(math.pi / 2, h), complex(math.pi, v_top)]
    total = 0.0 + 0.0j
    nodes = real_nodes
    for za, zb in zip(waypoints[:-1], waypoints[1:]):
        val, _, seg_nodes = _segment_integrate(f, za, zb, tol * 0.05)
        total += val
        nodes += seg_nodes
    shifted = sign * total.real / (2.0 * math.pi)

    # independent symmetry route: quadrature at the reflected position
    refl = quadrature_psi(2 - n, t, tol=tol * 0.1)[0].real
    sym_diff = abs(sign * refl - real_line)

    return ContourReport(n, t, real_line, shifted, abs(real_line - shifted),
                         sym_diff, v_top, h, nodes, tol)


# ---------------------------------------------------------------------------
# high-precision finite-difference verification of the saddle conditions
# ---------------------------------------------------------------------------


def _omega_mp(theta, dps: int = 40):
    with mpmath.workdps(dps):
        return mpmath.asin(mpmath.sin(theta) / mpmath.sqrt(2))


def saddle_residual_fd(alpha: float, step: float = 1e-5, dps: int = 40) -> float:
    """|d/dtheta (omega - theta alpha)| at the saddle, by central differences.

    Five-point central stencil evaluated in high precision, so the reported
    residual is the truncation error of the stencil alone.
    """
    sd = saddle(alpha)
    with mpmath.workdps(dps):
        th = mpmath.mpc(sd.theta_alpha.real, sd.theta_alpha.imag)
        h = mpmath.mpf(step)

        def f(z):
            return _omega_mp(z, dps) - z * alpha

        deriv = (-f(th + 2 * h) + 8 * f(th + h) - 8 * f(th - h) + f(th - 2 * h)) / (12 * h)
        return float(abs(deriv))


def omega_second_derivative_fd(alpha: float, step: float = 1e-5,
                               dps: int = 40) -> complex:
    """Second derivative of omega at the saddle by a five-point stencil.

    In the decay region this must equal -i (1 - alpha^2) sqrt(2 alpha^2 - 1).
    """
    sd = saddle(alpha)
    with mpmath.workdps(dps):
        th = mpmath.mpc(sd.theta_alpha.real, sd.theta_alpha.imag)
        h = mpmath.mpf(step)
        f = lambda z: _omega_mp(z, dps)
        second = (-f(th + 2 * h) + 16 * f(th + h) - 30 * f(th)
                  + 16 * f(th - h) - f(th - 2 * h)) / (12 * h * h)
        return complex(second)

