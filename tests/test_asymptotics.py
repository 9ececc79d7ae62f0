import cmath
import math
import random

import numpy as np
import pytest

from hadwalk.asymptotics import (ARCSINH1, BranchCutError, ContourReport,
                                 ValidityError, b_pathintegral, btilde,
                                 contour_shift_check, growth_check, omega,
                                 psi_asymptotic, quadrature_psi, saddle)
from hadwalk.walk import WalkCache, mantissa_to_float

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2


# Derivatives of omega from its definition sin(omega) = sin(theta)/sqrt2,
# independent of the saddle formula they are checked against.
def omega_prime(theta):
    return cmath.cos(theta) / (SQRT2 * cmath.cos(omega(theta)))


def omega_second(theta):
    c = cmath.cos(omega(theta))
    return (-cmath.sin(theta) / (SQRT2 * c)
            + cmath.sin(theta) * cmath.cos(theta) ** 2 / (2 * SQRT2 * c ** 3))


def exact(cache, n, t):
    """Simulator amplitudes (psi_R, psi_L) at (n, t) as floats."""
    st = cache.state(t)
    return (mantissa_to_float(st.mantissa_r(n), t),
            mantissa_to_float(st.mantissa_l(n), t))


@pytest.fixture(scope="module")
def walk400():
    cache = WalkCache()
    cache.state(400)
    return cache


class TestOmega:
    def test_anchor_values(self):
        assert omega(0) == 0
        assert abs(omega(math.pi / 2) - math.asin(INV_SQRT2)) < 1e-15
        v = math.asinh(SQRT2)
        want = 1j * math.log(1 + SQRT2)
        assert abs(omega(1j * v) - want) < 1e-14

    def test_positive_imaginary_axis_form(self):
        for v in (0.3, 1.0, 2.5, 5.0):
            want = 1j * math.asinh(math.sinh(v) / SQRT2)
            assert abs(omega(1j * v) - want) < 1e-13

    def test_strip_boundary_form(self):
        for v in (0.3, 1.0, 2.5, 5.0):
            want = -1j * math.asinh(math.sinh(v) / SQRT2)
            assert abs(omega(math.pi + 1j * v) - want) < 1e-13
            assert abs(omega(-math.pi + 1j * v) - want) < 1e-13

    def test_vertical_cut_sides(self):
        # left of the cut at Re=pi/2: +i log branch; right of it: -i log
        for v in (1.2, 2.0):
            inner = math.log(math.cosh(v) / SQRT2
                             + math.sqrt(math.cosh(v) ** 2 / 2 - 1))
            left = omega(math.pi / 2 - 1e-9 + 1j * v)
            right = omega(math.pi / 2 + 1e-9 + 1j * v)
            assert abs(left - (math.pi / 2 + 1j * inner)) < 1e-7
            assert abs(right - (math.pi / 2 - 1j * inner)) < 1e-7

    def test_real_odd(self):
        for u in np.linspace(0, math.pi, 25):
            assert abs(omega(u) + omega(-u)) < 1e-15

    def test_defining_relation_random_strip(self):
        rng = random.Random(99)
        checked = 0
        while checked < 10_000:
            u = rng.uniform(-math.pi, math.pi)
            v = rng.uniform(-3.0, 3.0)
            if abs(abs(u) - math.pi / 2) < 1e-3 and abs(v) > ARCSINH1 - 1e-3:
                continue
            w = omega(complex(u, v))
            assert abs(cmath.sin(w) - cmath.sin(complex(u, v)) / SQRT2) < 1e-13
            checked += 1

    def test_cut_rejection(self):
        with pytest.raises(BranchCutError):
            omega(complex(math.pi / 2, 1.5))
        with pytest.raises(BranchCutError):
            omega(complex(-math.pi / 2, -2.0))

    def test_periodic_reduction(self):
        assert abs(omega(0.3 + 2 * math.pi) - omega(0.3)) < 1e-15
        assert abs(omega(0.3 - 4 * math.pi) - omega(0.3)) < 1e-15

    def test_numpy_branch_agrees_with_cmath(self):
        pts = [0.3 + 0.4j, -2.0 + 1.1j, 2.5 - 0.7j, 1j * 2.0, math.pi - 0.01 + 3j]
        arr = np.arcsin(np.sin(np.array(pts)) / SQRT2)
        for p, a in zip(pts, arr):
            assert abs(a - omega(p)) < 1e-13

    def test_cut_tolerance_is_1e12(self):
        for theta in (complex(math.pi / 2 + 1e-13, 2.0),
                      complex(math.pi / 2 - 1e-13, 2.0),
                      complex(math.pi / 2, ARCSINH1 - 1e-13)):
            with pytest.raises(BranchCutError):
                omega(theta)
        for theta in (complex(math.pi / 2 + 1e-11, 2.0),
                      complex(math.pi / 2 - 1e-11, 2.0),
                      complex(math.pi / 2, ARCSINH1 - 1e-11)):
            omega(theta)

    def test_odd_at_complex_saddles(self):
        # the phase difference changes sign between the paired saddles
        for alpha in (0.3, 0.8):
            th = saddle(alpha).theta_alpha
            f_plus = omega(th) - th * alpha
            f_minus = omega(-th) - (-th) * alpha
            assert abs(f_plus + f_minus) < 1e-14


class TestGrowth:
    def test_inner_strip_rate(self):
        measured = growth_check(0.0, 20.0, 1)
        assert 0.5 < measured / (math.exp(20.0) / SQRT2) < 2.0

    def test_outer_strip_rate(self):
        measured = growth_check(math.pi, 20.0, 1)
        assert 0.5 < measured / (SQRT2 * math.exp(-20.0)) < 2.0

    def test_exponent_linearity(self):
        m1 = growth_check(0.0, 20.0, 1)
        m3 = growth_check(0.0, 20.0, 3)
        assert 1 / 8 < m3 / m1**3 < 8

    def test_rates_hold_at_interior_angles(self):
        # the asymptotic constants are u-independent within each strip
        inner = growth_check(math.pi / 4, 20.0, 1)
        assert 0.5 < inner / (math.exp(20.0) / SQRT2) < 2.0
        outer = growth_check(3 * math.pi / 4, 20.0, 1)
        assert 0.5 < outer / (SQRT2 * math.exp(-20.0)) < 2.0

    def test_rejects_near_cut_line(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            growth_check(math.pi / 2 + 1e-9, 20.0, 1)


class TestSaddle:
    def test_oscillatory_at_zero(self):
        sd = saddle(0.0)
        assert sd.region == "oscillatory"
        assert abs(sd.theta_alpha - math.pi / 2) < 1e-15

    def test_decay_location_and_exponential(self):
        sd = saddle(0.8)
        want = 1j * math.acosh((4 / 3))
        assert abs(sd.theta_alpha - want) < 1e-14
        # e^{i theta_alpha} = sqrt(1-a^2)/(a + sqrt(2a^2-1))
        got = cmath.exp(1j * sd.theta_alpha)
        assert abs(got - 0.6 / (0.8 + math.sqrt(0.28))) < 1e-14

    def test_negative_alpha_saddle_upper_half(self):
        sd = saddle(-0.8)
        assert sd.theta_alpha.imag > 0
        assert sd.region == "decay"

    def test_exclusion_zones(self):
        with pytest.raises(ValidityError):
            saddle(INV_SQRT2 + 5e-4)
        with pytest.raises(ValidityError):
            saddle(0.9999)

    def test_stationarity_residual_both_regions(self):
        for alpha in list(np.arange(0.1, 0.66, 0.05)) + list(np.arange(0.75, 0.96, 0.02)):
            a = float(alpha)
            assert abs(omega_prime(saddle(a).theta_alpha) - a) < 1e-12, a

    def test_second_derivative_in_decay_region(self):
        for alpha in np.arange(0.75, 0.99, 0.02):
            a = float(alpha)
            got = omega_second(saddle(a).theta_alpha)
            want = -1j * (1 - a * a) * math.sqrt(2 * a * a - 1)
            assert abs(got - want) < 1e-10, a


class TestDecayBases:
    def test_algebraic_identities_behind_equivalence(self):
        # the two cross-multiplication identities that reduce one base to the
        # other: (1+s)^2 = 2(a^2+s) and (1+2a-s)/(1+a) = (1+s)/(a+s)
        for a in (0.75, 0.8, 0.95):
            s = math.sqrt(2 * a * a - 1)
            assert abs((1 + s) ** 2 - 2 * (a * a + s)) < 1e-14
            assert abs((1 + 2 * a - s) / (1 + a) - (1 + s) / (a + s)) < 1e-14

    def test_equality_on_grid(self):
        alphas = np.arange(0.72, 0.9901, 0.001)
        worst = max(abs(btilde(float(a)) - b_pathintegral(float(a))) for a in alphas)
        assert worst <= 1e-12

    def test_limit_at_transition(self):
        assert abs(btilde(INV_SQRT2 + 1e-8) - 1.0) <= 1e-6

    def test_decreasing_below_one(self):
        values = [btilde(a) for a in (0.75, 0.8, 0.9, 0.99)]
        assert all(0 < v < 1 for v in values)
        assert values == sorted(values, reverse=True)

    def test_domain_errors(self):
        for bad in (0.5, 1.0, -0.8):
            with pytest.raises(ValidityError):
                btilde(bad)
            with pytest.raises(ValidityError):
                b_pathintegral(bad)


class TestPsiAsymptotic:
    def test_alpha08_within_ten_percent(self, walk400):
        asym_r, asym_l = psi_asymptotic(160, 200)
        exact_r, exact_l = exact(walk400, 160, 200)
        assert abs(asym_r / exact_r - 1) <= 0.1
        assert abs(asym_l / exact_l - 1) <= 0.1

    def test_sign_matches_exact(self, walk400):
        asym_r, asym_l = psi_asymptotic(160, 200)
        exact_r, exact_l = exact(walk400, 160, 200)
        assert asym_r * exact_r > 0
        assert asym_l * exact_l > 0
        assert asym_r < 0  # (-1)^(n+1) with n even

    def test_error_shrinks_like_one_over_t(self, walk400):
        e200 = abs(psi_asymptotic(160, 200)[0] / exact(walk400, 160, 200)[0] - 1)
        e400 = abs(psi_asymptotic(320, 400)[0] / exact(walk400, 320, 400)[0] - 1)
        assert 0.3 <= e400 / e200 <= 0.8

    def test_negative_position_via_symmetry(self, walk400):
        asym_r, asym_l = psi_asymptotic(-160, 200)
        exact_r, exact_l = exact(walk400, -160, 200)
        assert abs(asym_r / exact_r - 1) <= 0.1
        assert abs(asym_l / exact_l - 1) <= 0.1

    def test_validity_errors(self):
        with pytest.raises(ValidityError):
            psi_asymptotic(100, 200)      # oscillatory
        with pytest.raises(ValidityError):
            psi_asymptotic(161, 200)      # parity
        with pytest.raises(ValidityError):
            psi_asymptotic(200, 200)      # alpha = 1


class TestQuadrature:
    def test_t1_value(self):
        qr, _ = quadrature_psi(1, 1)
        assert abs(qr.real - 0.7071067811865476) < 1e-12
        assert abs(qr.value.imag) < 1e-12

    def test_t0_left_unit(self):
        _, ql = quadrature_psi(0, 0)
        assert abs(ql.real - 1.0) < 1e-12

    def test_t2_matches_exact_mantissas(self, walk400):
        for n in (-2, 0, 2):
            qr, ql = quadrature_psi(n, 2)
            exact_r, exact_l = exact(walk400, n, 2)
            assert abs(qr.real - exact_r) < 1e-10
            assert abs(ql.real - exact_l) < 1e-10

    def test_matches_exact_through_t20(self, walk400):
        for t in range(21):
            for n in range(-t, t + 1):
                if (n - t) % 2:
                    continue
                qr, ql = quadrature_psi(n, t, tol=1e-10)
                exact_r, exact_l = exact(walk400, n, t)
                assert abs(qr.real - exact_r) < 1e-9
                assert abs(ql.real - exact_l) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="parity"):
            quadrature_psi(1, 2)
        with pytest.raises(ValueError, match="outside"):
            quadrature_psi(3, 2)
        with pytest.raises(ValueError, match="tolerance"):
            quadrature_psi(0, 2, tol=1e-15)

    def test_budget_error_reports_achieved_estimate(self):
        import numpy as np
        from hadwalk.asymptotics import QuadratureBudgetError, _refine

        def nasty(theta):
            return np.exp(1j * 3000.0 * np.cos(theta))

        with pytest.raises(QuadratureBudgetError) as excinfo:
            _refine(nasty, -math.pi, math.pi, 1e-12, 64, max_nodes=20_000)
        assert excinfo.value.achieved > 1e-12


class TestContourShift:
    @pytest.mark.parametrize("n, t", [(14, 18), (160, 200)])
    def test_routes_agree(self, n, t):
        rep = contour_shift_check(n, t, tol=1e-8)
        assert isinstance(rep, ContourReport)
        assert rep.passed, rep
        assert rep.difference <= 1e-8
        assert rep.symmetry_difference <= 1e-8

    def test_matches_exact_amplitude(self, walk400):
        rep = contour_shift_check(14, 18, tol=1e-8)
        assert abs(rep.shifted_value - exact(walk400, 14, 18)[0]) < 1e-8

    def test_sweep_across_decay_region(self, walk400):
        # includes saddles above the branch-point height arcsinh(1)
        for n in (74, 86, 94, 98):
            rep = contour_shift_check(n, 100, tol=1e-8)
            assert rep.passed, (n, rep.difference)
            assert abs(rep.shifted_value - exact(walk400, n, 100)[0]) < 1e-8

    def test_waypoints_below_branch_points(self):
        rep = contour_shift_check(14, 18)
        assert rep.waypoint_height < ARCSINH1

    def test_oscillatory_alpha_rejected(self):
        with pytest.raises(ValidityError):
            contour_shift_check(6, 18)
