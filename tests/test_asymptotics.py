import cmath
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hadwalk import asymptotics, jacobi
from hadwalk.asymptotics import (ARCSINH1, BranchCutError, ValidityError,
                                 b_pathintegral, btilde, check_contour_shift,
                                 omega, psi_asymptotic, quadrature_psi, saddle)
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
            th = saddle(alpha)
            f_plus = omega(th) - th * alpha
            f_minus = omega(-th) - (-th) * alpha
            assert abs(f_plus + f_minus) < 1e-14


def growth(u, v, t):
    """|e^(-i omega(u + iv) t)|, whose rate at large v the strips fix."""
    return abs(cmath.exp(-1j * omega(complex(u, v)) * t))


class TestGrowth:
    def test_inner_strip_rate(self):
        measured = growth(0.0, 20.0, 1)
        assert 0.5 < measured / (math.exp(20.0) / SQRT2) < 2.0

    def test_outer_strip_rate(self):
        measured = growth(math.pi, 20.0, 1)
        assert 0.5 < measured / (SQRT2 * math.exp(-20.0)) < 2.0

    def test_exponent_linearity(self):
        m1 = growth(0.0, 20.0, 1)
        m3 = growth(0.0, 20.0, 3)
        assert 1 / 8 < m3 / m1**3 < 8

    def test_rates_hold_at_interior_angles(self):
        # the asymptotic constants are u-independent within each strip
        inner = growth(math.pi / 4, 20.0, 1)
        assert 0.5 < inner / (math.exp(20.0) / SQRT2) < 2.0
        outer = growth(3 * math.pi / 4, 20.0, 1)
        assert 0.5 < outer / (SQRT2 * math.exp(-20.0)) < 2.0


class TestSaddle:
    def test_oscillatory_at_zero(self):
        theta = saddle(0.0)
        assert theta.imag == 0
        assert abs(theta - math.pi / 2) < 1e-15

    def test_decay_location_and_exponential(self):
        theta = saddle(0.8)
        assert theta.imag > 0
        want = 1j * math.acosh((4 / 3))
        assert abs(theta - want) < 1e-14
        # e^{i theta_alpha} = sqrt(1-a^2)/(a + sqrt(2a^2-1))
        got = cmath.exp(1j * theta)
        assert abs(got - 0.6 / (0.8 + math.sqrt(0.28))) < 1e-14

    def test_negative_alpha_saddle_upper_half(self):
        assert saddle(-0.8).imag > 0
        assert saddle(-0.5).imag == 0

    def test_exclusion_zones(self):
        with pytest.raises(ValidityError):
            saddle(INV_SQRT2 + 5e-4)
        with pytest.raises(ValidityError):
            saddle(0.9999)

    def test_stationarity_residual_both_regions(self):
        for alpha in list(np.arange(0.1, 0.66, 0.05)) + list(np.arange(0.75, 0.96, 0.02)):
            a = float(alpha)
            assert abs(omega_prime(saddle(a)) - a) < 1e-12, a

    def test_second_derivative_in_decay_region(self):
        for alpha in np.arange(0.75, 0.99, 0.02):
            a = float(alpha)
            got = omega_second(saddle(a))
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
        # rel_error of the one decay-law comparison, on the simulator's mantissas
        e200, e400 = (asymptotics._decay_row(n, t, walk400.state(t).mantissa_r(n), 1e-3)[2]
                      for n, t in ((160, 200), (320, 400)))
        assert 0.3 <= e400 / e200 <= 0.8

    def test_no_exact_zero_in_the_decay_region(self, walk400):
        # so _decay_row may take the log of every exact amplitude there
        for t in range(1, 401):
            state = walk400.state(t)
            assert all(state.mantissa_r(n) for n in range(-t, t + 1, 2)
                       if t * INV_SQRT2 < abs(n) < t)

    @pytest.mark.parametrize("alpha", [0.8, 0.9, 0.98])
    def test_error_halves_with_t_below_the_floats(self, alpha):
        # from t = 4000 to 32000 the amplitudes leave the normal floats (at
        # alpha 0.98, t = 32000 they are ~1e-4400); compared on their logs,
        # rel_error still halves as t doubles, the paper's O(1/t) law
        errors = []
        for t in (4000, 8000, 16000, 32000):
            n = round(alpha * t)
            row = asymptotics._decay_row(n, t, jacobi.psi_closed_r(n, t), 1e-3)
            assert row[5] == "ok"
            errors.append(row[2])
        for e_t, e_2t in zip(errors, errors[1:]):
            assert 1.9 <= e_t / e_2t <= 2.1

    def test_exact_decimal_is_correctly_rounded(self):
        # mantissa * 2^(-t/2) at 17 digits equals the 90-digit value rounded
        # half to even, on random odd and even t, on exact ties (t = 2j,
        # mantissa w 2^(j-k), so 10^k times the value is w 5^k, ending in 5)
        # and on values around each power of ten, where rounding carries
        rng = random.Random(37)
        cases = [(rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.randint(1, t // 2 - 1)), t)
                 for t in (rng.randint(4, 3000) for _ in range(300))]
        ties = [(w << 40, 2 * (k + 40)) for k in (21, 22, 24) for w in range(1, 400, 2)
                if 10**17 <= w * 5**k < 10**18]
        assert len(ties) > 100
        for e in range(1, 30):
            edge = math.isqrt(10 ** (120 - 2 * e) << 4001) // 10**60
            cases += [(edge + d, 4001) for d in range(-2, 3)]
        for mantissa, t in cases + ties + [(-w, t) for w, t in ties]:
            got = asymptotics._exact_decimal(mantissa, t)
            with localcontext() as ctx:
                ctx.prec = 90
                value = Decimal(mantissa) * (Decimal(2) ** -t).sqrt()
                ctx.prec = 17
                assert Decimal(got) == +value, (mantissa, t, got)
            assert len(got.split("e")[0].lstrip("-").replace(".", "")) <= 17

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
        assert abs(qr.value - 0.7071067811865476) < 1e-12

    def test_t0_left_unit(self):
        _, ql = quadrature_psi(0, 0)
        assert abs(ql.value - 1.0) < 1e-12

    def test_t2_matches_exact_mantissas(self, walk400):
        for n in (-2, 0, 2):
            qr, ql = quadrature_psi(n, 2)
            exact_r, exact_l = exact(walk400, n, 2)
            assert abs(qr.value - exact_r) < 1e-10
            assert abs(ql.value - exact_l) < 1e-10

    def test_matches_exact_through_t20(self, walk400):
        for t in range(21):
            for n in range(-t, t + 1):
                if (n - t) % 2:
                    continue
                qr, ql = quadrature_psi(n, t, tol=1e-10)
                exact_r, exact_l = exact(walk400, n, t)
                assert abs(qr.value - exact_r) < 1e-9
                assert abs(ql.value - exact_l) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="parity"):
            quadrature_psi(1, 2)
        with pytest.raises(ValueError, match="outside"):
            quadrature_psi(3, 2)
        with pytest.raises(ValueError, match="tolerance"):
            quadrature_psi(0, 2, tol=1e-15)

    def test_non_finite_tolerance_rejected_before_sampling(self, walk400, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the tolerance was checked")

        monkeypatch.setattr(asymptotics, "_sample_integrands", no_sampling)
        monkeypatch.setattr(asymptotics, "_reflected_kernel", no_sampling)
        for tol in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                quadrature_psi(0, 2, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                asymptotics.check_quadrature(walk400, 2, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                check_contour_shift(walk400, [(14, 18)], tol=tol)


class TestQuadratureRow:
    @pytest.mark.parametrize("n", [1 << p for p in range(11)])
    def test_fft_matches_direct_dft(self, n):
        rng = random.Random(n)
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        roots = [cmath.exp(-2j * math.pi * k / n) for k in range(n)]
        dft = [sum(xj * roots[j * k % n] for j, xj in enumerate(x)) for k in range(n)]
        got = asymptotics._fft(x, asymptotics._twiddles(n))
        assert max(abs(a - b) for a, b in zip(got, dft)) <= 1e-12 * n

    @pytest.mark.parametrize("t, nodes", [(24, 128), (50, 128), (200, 512)])
    def test_final_node_count(self, t, nodes):
        # the least power of two >= 2t+2 at which the error bound is below tol
        row = asymptotics._quadrature_row(t, 1e-10)
        assert len(row) == t + 1
        assert {part.node_count for pair in row for part in pair} == {nodes}

    def test_growth_lemma(self):
        # sup over Re theta of Im omega on Im theta = +-a is asinh(sinh a/sqrt2)
        us = [-math.pi + 2.0 * math.pi * j / 2000 for j in range(2000)]
        for a in (k / 100 for k in range(10, 88)):
            for v in (a, -a):
                sup = max(omega(complex(u, v)).imag for u in us)
                assert abs(sup - math.asinh(math.sinh(a) * INV_SQRT2)) <= 1e-12, a

    @pytest.mark.parametrize("t", [0, 1, 6, 24, 50, 200, 400])
    @pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-6])
    def test_bound_holds_at_the_certified_count(self, t, tol):
        def bound(nodes):
            # 2 M(a) e^{-a(N-t)} / (1 - e^{-aN}), least over the same a grid
            best = math.inf
            for k in range(1, 32):
                a = ARCSINH1 * k / 32
                q = math.sqrt((3.0 - math.cosh(2.0 * a)) / 2.0)
                m = (math.exp(t * math.asinh(math.sinh(a) * INV_SQRT2))
                     * max(math.exp(a), q + math.cosh(a)) / q)
                best = min(best, 2.0 * m * math.exp(-a * (nodes - t))
                           / (1.0 - math.exp(-a * nodes)))
            return best

        nodes = asymptotics._node_count(t, tol)
        assert nodes & (nodes - 1) == 0 and nodes >= 2 * t + 2
        assert bound(nodes) <= tol
        assert nodes // 2 < 2 * t + 2 or bound(nodes // 2) > tol

    def test_check_passes_through_t200(self, walk400):
        ledger = asymptotics.check_quadrature(walk400, 200, tol=1e-9)
        assert ledger.passed, ledger.failures[:3]
        assert ledger.checked == 201 * 202 // 2

    @pytest.mark.parametrize("t", [0, 1, 7, 24])
    def test_each_value_is_its_own_trapezoid_sum(self, t):
        # the packed, folded half-length transform gives, at every n, the
        # direct N-node sum of that chirality's integrand alone
        def integrands(theta):
            q = math.sqrt(1.0 + math.cos(theta) ** 2)
            phase = cmath.exp(-1j * math.asin(math.sin(theta) * INV_SQRT2) * t)
            return cmath.exp(1j * theta) / q * phase, (1.0 + math.cos(theta) / q) * phase

        row = asymptotics._quadrature_row(t, 1e-10)
        nodes = row[0][0].node_count
        thetas = [-math.pi + 2.0 * math.pi * j / nodes for j in range(nodes)]
        samples = [integrands(theta) for theta in thetas]
        for n, pair in zip(range(-t, t + 1, 2), row):
            for k, part in enumerate(pair):
                direct = sum(f[k] * cmath.exp(-1j * theta * n)
                             for f, theta in zip(samples, thetas)) / nodes
                assert isinstance(part.value, float)
                assert abs(part.value - direct) <= 1e-13, (n, t, k)

    def test_point_oracle_is_a_view_of_the_row(self):
        row = asymptotics._quadrature_row(18, 1e-10)
        for n, pair in zip(range(-18, 19, 2), row):
            assert quadrature_psi(n, 18) == pair

    def test_tolerance_checked_for_every_caller(self, walk400):
        with pytest.raises(ValueError, match="tolerance"):
            asymptotics.check_quadrature(walk400, 2, tol=1e-14)

    def test_dropping_one_over_q_fails_the_suite(self, walk400, monkeypatch):
        # negative control: the oracle is not a tautology of the simulator
        def without_q(thetas, t):
            return [(cmath.exp(1j * theta) + 1j * (1.0 + math.cos(theta)))
                    * cmath.exp(-1j * math.asin(math.sin(theta) * INV_SQRT2) * t)
                    for theta in thetas]

        monkeypatch.setattr(asymptotics, "_sample_integrands", without_q)
        ledger = asymptotics.check_quadrature(walk400, 24, tol=1e-9)
        assert ledger.checked == 325 and not ledger.passed
        item, (n, t, deviation) = ledger.failures[0]
        assert item == "momentum integral" and deviation > 1e-9
        assert abs(n) <= t <= 24 and (n - t) % 2 == 0


class TestContourShift:
    ITEMS = ("shifted contour == real line", "reflected position == real line",
             "shifted contour == simulator")

    @pytest.mark.parametrize("n, t", [(14, 18), (160, 200)])
    def test_routes_agree(self, walk400, n, t):
        ledger = check_contour_shift(walk400, [(n, t)], tol=1e-8)
        assert ledger.passed, ledger.failures
        assert ledger.checked == 3
        assert ledger.tol == 1e-8 and 0 <= ledger.worst <= 1e-8

    def test_matches_exact_amplitude(self, walk400, monkeypatch):
        # every record carries (n, t, deviation), the simulator's included
        witnesses = []
        record = asymptotics.Ledger.record

        def keep(self, item, witness, ok):
            witnesses.append((item, witness))
            record(self, item, witness, ok)

        monkeypatch.setattr(asymptotics.Ledger, "record", keep)
        ledger = check_contour_shift(walk400, [(14, 18)], tol=1e-8)
        assert [item for item, _ in witnesses] == list(self.ITEMS)
        assert all(w[:2] == (14, 18) and 0 <= w[2] < 1e-8 for _, w in witnesses)
        assert ledger.worst == max(w[2] for _, w in witnesses)

    def test_sweep_across_decay_region(self, walk400):
        # includes saddles above the branch-point height arcsinh(1)
        points = [(74, 100), (86, 100), (94, 100), (98, 100)]
        assert saddle(0.98).imag > ARCSINH1
        ledger = check_contour_shift(walk400, points, tol=1e-8)
        assert ledger.passed, ledger.failures
        assert ledger.checked == 12

    def test_path_crosses_below_branch_points(self):
        for alpha in (0.72, 0.8, 0.9, 0.98):
            c0, c1, c2 = asymptotics._shifted_path(alpha)

            def h(u):
                return c0 + c1 * math.cos(u) + c2 * math.cos(2.0 * u)

            assert abs(h(0.0) - saddle(alpha).imag) <= 1e-15
            assert 0 < h(math.pi / 2) < ARCSINH1 and 0 < h(-math.pi / 2) < ARCSINH1
            assert min(h(math.pi * j / 500) for j in range(-500, 501)) > 0

    def test_simulator_record_is_relative(self, walk400, monkeypatch):
        # negative control: at (196, 200) |psi_R| = 1.5e-26, so an absolute
        # comparison would pass a shifted integral of 0; a relative one reads 1
        kernel = asymptotics._reflected_kernel

        def zero_off_axis(theta, alpha, t):
            return kernel(theta, alpha, t) if theta.imag == 0 else 0j

        monkeypatch.setattr(asymptotics, "_reflected_kernel", zero_off_axis)
        ledger = check_contour_shift(walk400, [(196, 200)], tol=1e-8)
        assert [item for item, _ in ledger.failures] == [self.ITEMS[2]]
        (_, (n, t, deviation)), = ledger.failures
        assert (n, t) == (196, 200) and abs(deviation - 1.0) <= 1e-12

    def test_underflowed_amplitude_fails_without_raising(self, walk400, monkeypatch):
        # from t ~ 2200 psi_R near the light cone underflows to 0.0
        monkeypatch.setattr(asymptotics, "mantissa_to_float", lambda mantissa, t: 0.0)
        ledger = check_contour_shift(walk400, [(14, 18)], tol=1e-8)
        assert ledger.failures == [(self.ITEMS[2], (14, 18, math.inf))]

    @pytest.mark.parametrize("n, t", [(14, 18), (160, 200), (74, 100), (86, 100),
                                      (94, 100), (98, 100), (196, 200)])
    def test_shifted_contour_relative_error(self, walk400, monkeypatch, n, t):
        deviations = {}
        record = asymptotics.Ledger.record

        def keep(self, item, witness, ok):
            deviations[item] = witness[2]
            record(self, item, witness, ok)

        monkeypatch.setattr(asymptotics.Ledger, "record", keep)
        assert check_contour_shift(walk400, [(n, t)], tol=1e-8).passed
        assert deviations[self.ITEMS[2]] <= 1e-13

    def test_oscillatory_alpha_rejected(self, walk400):
        with pytest.raises(ValidityError):
            check_contour_shift(walk400, [(6, 18)])

    @pytest.mark.parametrize("n, t", [(14, 18), (86, 100)])
    def test_dropping_one_over_q_fails_reflection_and_simulator(self, walk400,
                                                                 monkeypatch, n, t):
        # negative control: both contours integrate the same wrong kernel, so
        # they still agree with each other; the two independent routes do not
        def without_q(theta, alpha, t):
            om = cmath.asin(cmath.sin(theta) * INV_SQRT2)
            return cmath.exp(-1j * theta) * cmath.exp(-1j * (om - theta * alpha) * t)

        monkeypatch.setattr(asymptotics, "_reflected_kernel", without_q)
        ledger = check_contour_shift(walk400, [(n, t)], tol=1e-8)
        assert ledger.checked == 3
        assert [item for item, _ in ledger.failures] == list(self.ITEMS[1:])
        assert all(w[:2] == (n, t) and w[2] > 1e-8 for _, w in ledger.failures)
