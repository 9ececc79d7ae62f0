import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hadwalk.genfun import (check_intermediate_relations, closed_form_series,
                            definitional_series, equivalence_ledger,
                            jacobi_generating, lagrange_invert,
                            srivastava_singhal_series)
from hadwalk.jacobi import jacobi_at
from hadwalk.ring import RationalSeries, Sqrt2Scalar, random_rational_series
from hadwalk.walk import WalkCache


@pytest.fixture(scope="module")
def walk():
    cache = WalkCache()
    cache.state(41)
    return cache


class TestClosedForms:
    def test_f0_low_coefficients(self):
        s = closed_form_series("F", 0, 3)
        assert s.coefficient(0) == Sqrt2Scalar(Fraction(1, 2), 1)    # 2^(-1/2)
        assert s.coefficient(1).is_zero
        assert s.coefficient(2) == Sqrt2Scalar(Fraction(-1, 4), 1)   # -2^(-3/2)

    def test_g0_and_i0_constants(self):
        assert closed_form_series("G", 0, 5).coefficient(0).is_zero
        assert closed_form_series("I", 0, 5).coefficient(0) == Sqrt2Scalar(1)

    def test_h0_constant_is_negative(self):
        # the left-series boundary value: psiTilde_L(1,1) = -2^(-3/2)
        got = closed_form_series("H", 0, 5).coefficient(0)
        assert got == Sqrt2Scalar(Fraction(-1, 4), 1)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            closed_form_series("F", 5, 3)
        with pytest.raises(ValueError, match="family"):
            definitional_series("Q", 0, 3, WalkCache())


class TestDefinitionalVsClosed:
    @pytest.mark.parametrize("family", "FGHI")
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_exact_agreement(self, walk, family, m):
        assert (definitional_series(family, m, 16, walk)
                == closed_form_series(family, m, 16))

    def test_leading_zeros_below_m(self, walk):
        s = definitional_series("I", 3, 10, walk)
        for t in range(3):
            assert s.coefficient(t).is_zero


class TestIntermediateRelations:
    @pytest.mark.parametrize("m_max", [0, 1, 3, 6])
    def test_bridges_hold_exactly(self, walk, m_max):
        rep = check_intermediate_relations(walk, m_max, 20)
        assert rep.passed, rep.failures[:2]
        assert rep.checked == 2 * (m_max + 1)


class TestJacobiGenerating:
    def test_x0_trivial_coefficients(self):
        s = jacobi_generating(0, 0, 0, 6)
        assert s.coefficient(0) == Sqrt2Scalar(1)
        assert s.coefficient(2) == Sqrt2Scalar(Fraction(-1, 2))

    @pytest.mark.parametrize("r, s", [(0, 0), (2, 1), (5, 5), (-1, 0), (0, -2)])
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(-1, 2)])
    def test_coefficients_match_explicit_sum(self, r, s, x):
        series = jacobi_generating(x, r, s, 12)
        for k in range(13):
            assert series.coefficient(k) == Sqrt2Scalar(jacobi_at(k, r, s, x)), (k, r, s, x)

    def test_cauchy_extraction_matches(self):
        # trapezoid contour integral at radius 1/2 of the x=0 generating function
        nodes = 512
        radius = 0.5
        zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        for r in range(4):
            for s in range(4):
                root = np.sqrt(1 + zs * zs)
                gen = 2.0 ** (r + s) / (root * (1 - zs + root) ** r * (1 + zs + root) ** s)
                for k in range(11):
                    coef = np.mean(gen / zs**k).real
                    assert abs(coef - float(jacobi_at(k, r, s))) < 1e-10


class TestEquivalenceLedger:
    def test_chain_holds(self, walk):
        rep = equivalence_ledger(walk, m_max=4, order=16)
        assert rep.passed, rep.failures[:5]
        assert rep.checked > 500


class TestKernelIntegral:
    def test_closed_forms_match_cosine_kernel(self):
        # F_m(z) = (1-z)/(pi sqrt2) * Int_0^pi cos(2m th)/(1 - 2 z cos^2 th + z^2) dth,
        # the classical tabulated integral behind the closed forms
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for z in (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)):
            zf = float(z)
            root = math.sqrt(1 + zf * zf)
            dd = 1 - zf + root
            edges = np.linspace(0.0, math.pi, 65)
            mids = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            th = (mids[:, None] + half * nodes[None, :]).ravel()
            den = 1.0 - 2.0 * zf * np.cos(th) ** 2 + zf * zf
            for m in range(6):
                integral = half * np.sum(np.cos(2 * m * th) / den *
                                         np.tile(weights, 64))
                got = (1 - zf) / (math.pi * math.sqrt(2)) * integral
                want = 2.0 ** (m - 0.5) * zf**m / (root * dd ** (2 * m))
                assert abs(got - want) < 1e-10, (m, z)


class TestLagrange:
    def test_tree_function(self):
        order = 20
        phi = RationalSeries([Fraction(1, math.factorial(k)) for k in range(order + 1)],
                             order)
        w = lagrange_invert(phi, RationalSeries.z(order))
        for n in range(1, order + 1):
            assert w.coefficient(n) == Sqrt2Scalar(Fraction(n ** (n - 1), math.factorial(n)))

    def test_w_squared(self):
        order = 20
        phi = RationalSeries([Fraction(1, math.factorial(k)) for k in range(order + 1)],
                             order)
        f = RationalSeries.polynomial([0, 0, 1], order)
        w2 = lagrange_invert(phi, f)
        assert w2.coefficient(0).is_zero and w2.coefficient(1).is_zero
        for n in range(2, order + 1):
            want = 2 * Fraction(n) ** (n - 3) / math.factorial(n - 2)
            assert w2.coefficient(n) == Sqrt2Scalar(want)

    def test_constant_phi_gives_identity(self):
        order = 6
        w = lagrange_invert(RationalSeries.one(order), RationalSeries.z(order))
        assert w == RationalSeries.z(order)

    def test_defining_equation_randomized(self):
        rng = random.Random(7)
        order = 10
        ident = RationalSeries.z(order)
        for _ in range(25):
            phi = random_rational_series(rng, order, constant=1)
            w = lagrange_invert(phi, ident)
            assert phi.compose(w).shift(1) == w

    def test_rejects_vanishing_phi0(self):
        order = 4
        with pytest.raises(ValueError, match="not a valid inversion"):
            lagrange_invert(RationalSeries.z(order), RationalSeries.z(order))

    def test_rejects_mixed_orders(self):
        with pytest.raises(ValueError, match="mixed truncation orders 4 and 5"):
            lagrange_invert(RationalSeries.one(4), RationalSeries.z(5))

    def test_rejects_irrational_grade(self):
        one, ident = RationalSeries.one(4), RationalSeries.z(4)
        root2 = Sqrt2Scalar(1, 1)
        for phi, f in [(one * root2, ident), (one, ident * root2)]:
            with pytest.raises(ValueError, match="rational-graded"):
                lagrange_invert(phi, f)


class TestSrivastavaSinghal:
    def test_walk_case_equals_reciprocal_root(self):
        assert srivastava_singhal_series(0, 0, 0, 0, 40) == jacobi_generating(0, 0, 0, 40)

    def test_order_zero_coefficient(self):
        s = srivastava_singhal_series(0, 1, 0, 0, 8)
        assert s.coefficient(0) == Sqrt2Scalar(1)

    def test_parameter_slope_one(self):
        # a=gamma=0, b=1, beta=0 enumerates J_j^{(0,j)}(0)
        s = srivastava_singhal_series(0, 1, 0, 0, 10)
        for j in range(11):
            assert s.coefficient(j) == Sqrt2Scalar(jacobi_at(j, 0, j)), j

    def test_rejects_inexact_parameters(self):
        with pytest.raises(TypeError, match="exact rational"):
            srivastava_singhal_series(0.5, 0, 0, 0, 8)

    def test_implicit_solution_leading_terms(self):
        # -u = (z/2)(1-u)(1+u): u = -z/2 + O(z^3)
        phihat = (RationalSeries.polynomial([1, -1], 6).pow_rational(1)
                  * RationalSeries.polynomial([1, 1], 6).pow_rational(1) / (-2))
        u = lagrange_invert(phihat, RationalSeries.z(6))
        assert u.coefficient(1) == Sqrt2Scalar(Fraction(-1, 2))
        assert u.coefficient(2).is_zero
        assert u.coefficient(3) == Sqrt2Scalar(Fraction(1, 8))
