import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hadwalk
from hadwalk import genfun, jacobi
from hadwalk.genfun import (check_intermediate_relations, closed_form_series,
                            definitional_series, equivalence_ledger,
                            jacobi_generating, lagrange_invert,
                            srivastava_singhal_series)
from hadwalk.jacobi import jacobi_at
from hadwalk.ring import RationalSeries, random_rational_series
from hadwalk.walk import WalkCache, WalkState


@pytest.fixture(scope="module")
def walk():
    cache = WalkCache()
    cache.state(41)
    return cache


class TestClosedForms:
    def test_f0_low_coefficients(self):
        # sqrt(2) F_0 = 1/R: F_0 starts 2^(-1/2), 0, -2^(-3/2)
        s = closed_form_series("F", 0, 3)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 0
        assert s.coefficient(2) == Fraction(-1, 2)

    def test_coefficient_is_fraction_read_with_grade(self):
        # the odd-time families are series over Q too, with no sqrt(2) grade
        s = closed_form_series("F", 0, 3)
        assert not hasattr(s, "grade")
        for i in range(4):
            assert type(s.coefficient(i)) is Fraction
            assert s.coefficient(i) == Fraction(s.nums[i], s.den)

    def test_g0_and_i0_constants(self):
        assert closed_form_series("G", 0, 5).coefficient(0) == 0
        i0 = closed_form_series("I", 0, 5)
        assert i0.coefficient(0) == 1

    def test_h0_constant_is_negative(self):
        # the left-series boundary value: psiTilde_L(1,1) = -2^(-3/2), so
        # sqrt(2) H_0 starts -1/2
        h0 = closed_form_series("H", 0, 5)
        assert h0.coefficient(0) == Fraction(-1, 2)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            closed_form_series("F", 5, 3)
        with pytest.raises(ValueError, match="family"):
            definitional_series("Q", 0, 3, WalkCache())


def composed_map(family, m, body):
    """The family map as series operations: multiply by 1+z, shift by z^m,
    scale by the sign and power of 2, and add 1/2 for I_0; F and H come out
    times sqrt(2)."""
    one_plus_z = RationalSeries.polynomial([1, 1], body.order)
    if family == "I" and m == 0:
        return RationalSeries.polynomial([Fraction(1, 2)], body.order) + one_plus_z * body / 2
    if family == "F":
        return body.shift(m) * 2**m
    if family == "G":
        return body.shift(1) if m == 0 else body.shift(m) * -2 ** (m - 1)
    if family == "H":
        return (one_plus_z * body).shift(m) * -2**m
    return (one_plus_z * body).shift(m) * 2 ** (m - 1)


class TestClosedMap:
    @pytest.mark.parametrize("family", "FGHI")
    def test_one_pass_equals_the_composition(self, family):
        rng = random.Random(26)
        order = 12
        root = RationalSeries.polynomial([1, 0, 1], order).sqrt()
        bodies = [random_rational_series(rng, order, constant=Fraction(3, 5)) for _ in range(3)]
        bodies.append((root * (RationalSeries.polynomial([1, -1], order) + root)
                       .pow_int(5)).reciprocal())
        for body in bodies:
            for m in range(11):
                # the reassembly reads the body times 2^(-k)
                scale = Fraction(1, 2 ** genfun._d_exponent(family, m))
                for read in (body, body.scaled(scale)):
                    assert (genfun._closed_core(family, m, read)
                            == composed_map(family, m, read)), (read, m)

    # I_0 adds 1/2 to a rational series, so a body times sqrt(2)^grade
    # reaches it only at an even grade, as 2^(grade/2)
    @pytest.mark.parametrize("grade", [-4, -2, 2])
    def test_i0_needs_an_even_grade(self, grade):
        body = RationalSeries.polynomial([1, 2], 4).scaled(Fraction(2) ** (grade // 2))
        assert genfun._closed_core("I", 0, body) == composed_map("I", 0, body)


class TestDefinitionalVsClosed:
    @pytest.mark.parametrize("family", "FGHI")
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_exact_agreement(self, walk, family, m):
        assert (definitional_series(family, m, 16, walk)
                == closed_form_series(family, m, 16))

    @pytest.mark.parametrize("family", "FH")
    def test_odd_families_are_rational(self, walk, family):
        # sqrt(2) F_m has coefficient t = mantissa / 2^t, and sqrt(2) H_m
        # (2t+1) mantissa / ((t-m) 2^(t+1)) for t > m and -2^(-m-1) at t = m
        for m in range(4):
            got = definitional_series(family, m, 20, walk)
            closed = closed_form_series(family, m, 20)
            for t in range(21):
                state = walk.state(2 * t + 1)
                if t < m:
                    want = 0
                elif family == "F":
                    want = Fraction(state.mantissa_r(2 * m + 1), 2**t)
                elif t == m:
                    want = Fraction(-1, 2 ** (m + 1))
                else:
                    want = Fraction((2 * t + 1) * state.mantissa_l(2 * m + 1),
                                    (t - m) * 2 ** (t + 1))
                assert got.coefficient(t) == closed.coefficient(t) == want, (m, t)

    def test_leading_zeros_below_m(self, walk):
        s = definitional_series("I", 3, 10, walk)
        for t in range(3):
            assert s.coefficient(t) == 0


class TestIntermediateRelations:
    @pytest.mark.parametrize("m_max", [0, 1, 3, 6])
    def test_bridges_hold_exactly(self, walk, m_max):
        rep = check_intermediate_relations(walk, m_max, 20)
        assert rep.passed, rep.failures[:2]
        assert rep.checked == 2 * (m_max + 1)

    # a wrong mantissa fails exactly the bridges whose series read it, each
    # with its first mismatching coefficient; the lists the full
    # coefficient-by-coefficient scan gave, now searched only on a failure
    @pytest.mark.parametrize("wrong, failures", [
        ((15, "R", 5), [("H bridge", (1, 7)), ("I bridge", (1, 8)), ("H bridge", (2, 7)),
                        ("I bridge", (2, 7)), ("I bridge", (3, 8))]),
        ((16, "L", 4), [("I bridge", (2, 8))]),
        ((9, "L", 3), [("H bridge", (1, 4))]),
        ((17, "L", 1), [("H bridge", (0, 8))]),
    ], ids=["R-t15-n5", "L-t16-n4", "L-t9-n3", "L-t17-n1"])
    def test_one_wrong_mantissa(self, wrong, failures):
        rep = check_intermediate_relations(OneWrongMantissa(*wrong), 3, 12)
        assert rep.checked == 8
        assert rep.failures == failures


class TestJacobiGenerating:
    def test_x0_trivial_coefficients(self):
        s = jacobi_generating(0, 0, 0, 6)
        assert s.coefficient(0) == 1
        assert s.coefficient(2) == Fraction(-1, 2)

    def test_float_argument_rejected(self):
        # even 0.5, which a Fraction would convert exactly; x must be exact
        with pytest.raises(TypeError, match="float"):
            jacobi_generating(0.5, 0, 0, 4)

    @pytest.mark.parametrize("r, s", [(0, 0), (2, 1), (5, 5), (-1, 0), (0, -2)])
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(-1, 2)])
    def test_coefficients_match_explicit_sum(self, r, s, x):
        series = jacobi_generating(x, r, s, 12)
        for k in range(13):
            assert series.coefficient(k) == jacobi_at(k, r, s, x), (k, r, s, x)

    @pytest.mark.parametrize("r, s", [(2, 1), (0, 0), (3, 3)])
    def test_check_fails_only_the_wrong_coefficients(self, r, s, monkeypatch):
        # coefficients 0 and 3 of one (r, s) series off by one
        core = genfun._jacobi_core
        bad = (r, s)

        def wrong_core(inv_root, minus_power, plus_power, r, s):
            series = core(inv_root, minus_power, plus_power, r, s)
            if (r, s) != bad:
                return series
            return series + RationalSeries.polynomial([1, 0, 0, 1], series.order)

        monkeypatch.setattr(genfun, "_jacobi_core", wrong_core)
        rep = genfun.check_jacobi_generating(12, 3)
        assert rep.checked == 208
        assert rep.failures == [("generating coefficient", (0, r, s)),
                                ("generating coefficient", (3, r, s))]

    def test_check_reads_the_grade(self, monkeypatch):
        # times 2, a series fails wherever J_k^{(0,0)}(0) != 0: at even k
        core = genfun._jacobi_core

        def wrong_core(inv_root, minus_power, plus_power, r, s):
            series = core(inv_root, minus_power, plus_power, r, s)
            return series * 2 if (r, s) == (0, 0) else series

        monkeypatch.setattr(genfun, "_jacobi_core", wrong_core)
        rep = genfun.check_jacobi_generating(12, 3)
        assert rep.failures == [("generating coefficient", (k, 0, 0))
                                for k in range(0, 13, 2)]

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


class OneWrongMantissa(WalkCache):
    """The simulator with 1 added to one mantissa of one state."""

    def __init__(self, t: int, chirality: str, n: int):
        super().__init__()
        self.wrong = (t, chirality, n)

    def state(self, t: int) -> WalkState:
        st = super().state(t)
        wrong_t, chirality, n = self.wrong
        if t != wrong_t:
            return st
        psi_r, psi_l = list(st.psi_r), list(st.psi_l)
        (psi_r if chirality == "R" else psi_l)[n + t] += 1
        return WalkState(t, tuple(psi_r), tuple(psi_l))


@pytest.fixture(scope="module")
def walk81():
    cache = WalkCache()
    cache.state(81)
    return cache


class TestEquivalenceLedger:
    def test_chain_holds(self, walk):
        rep = equivalence_ledger(walk, m_max=4, order=16)
        assert rep.passed, rep.failures[:5]
        assert rep.checked > 500

    # each wrong mantissa fails the definitional series that reads it and
    # exactly the amplitude checks at its (m, t); lists as the Fraction ledger gave
    @pytest.mark.parametrize("wrong, failures", [
        ((15, "R", 5), [("F: definitional == closed", ("F", 2)),
                        ("psi_R odd == 2^(-m-1/2) J_(t-m)^(2m,0)(0)", (2, 7)),
                        ("psi_R odd reflected-parameter form", (2, 7)),
                        ("psi_R odd == closed amplitude", (2, 7))]),
        ((16, "L", 4), [("I: definitional == closed", ("I", 2)),
                        ("psi_L even == Jacobi form", (2, 8)),
                        ("psi_L even == closed amplitude", (2, 8))]),
        ((16, "R", 0), [("G: definitional == closed", ("G", 0)),
                        ("psi_R even == Jacobi form", (0, 8))]),
        ((9, "L", 3), [("H: definitional == closed", ("H", 1)),
                       ("psi_L odd == Jacobi form", (1, 4))]),
    ], ids=["R-t15-n5", "L-t16-n4", "R-t16-n0", "L-t9-n3"])
    def test_one_wrong_mantissa(self, wrong, failures):
        rep = equivalence_ledger(OneWrongMantissa(*wrong), m_max=4, order=12)
        assert rep.checked == 413
        assert rep.failures == failures

    def test_wrong_jacobi_series_fails_only_its_reassembly(self, walk, monkeypatch):
        # entry 3 of the Jacobi side's run from 1/R, 2^(-3) times the series
        # of r = 3, is read by H_1 (r = 2m+1) and G_2 (r = 2m-1); the closed
        # side never reads the Jacobi side, so no definitional check fails
        powers = genfun._powers
        inv_root = RationalSeries.polynomial([1, 0, 1], 12).sqrt().reciprocal()

        def wrong_powers(base, top, first=1):
            out = powers(base, top, first)
            if first == inv_root:
                out[3] = out[3] + RationalSeries.one(out[3].order)
            return out

        monkeypatch.setattr(genfun, "_powers", wrong_powers)
        rep = equivalence_ledger(walk, m_max=4, order=12)
        assert rep.checked == 413
        assert rep.failures == [("H: closed == Jacobi generating reassembly", ("H", 1)),
                                ("G: closed == Jacobi generating reassembly", ("G", 2))]

    # the closed amplitudes read the ledger's own table: psi_R(2m+1, 2t+1)
    # reads N(t-m, 0, 2m), as the reflected-parameter form does, and
    # psi_L(2m, 2t) reads N(t-m-1, 1, 2m), as the psi_L even Jacobi form does;
    # the psi_R even Jacobi form reads N(t-1, 1, 0) at m = 0 and at m = 1
    @pytest.mark.parametrize("key, failures", [
        ((3, 0, 4), [("psi_R odd reflected-parameter form", (2, 5)),
                     ("psi_R odd == closed amplitude", (2, 5))]),
        ((3, 1, 4), [("psi_L even == Jacobi form", (2, 6)),
                     ("psi_L even == closed amplitude", (2, 6))]),
        ((3, 1, 0), [("psi_R even == Jacobi form", (0, 4)),
                     ("psi_L even == closed amplitude", (0, 4)),
                     ("psi_R even == Jacobi form", (1, 4))]),
    ])
    def test_one_wrong_table_value(self, walk, monkeypatch, key, failures):
        build = genfun._numerator_table

        def wrong(*args):
            numerator = build(*args)
            return lambda *k_r_s: numerator(*k_r_s) + (k_r_s == key)

        monkeypatch.setattr(genfun, "_numerator_table", wrong)
        rep = equivalence_ledger(walk, m_max=4, order=12)
        assert rep.checked == 413
        assert rep.failures == failures

    @pytest.mark.parametrize("m_max, order", [(0, 0), (0, 1), (1, 1), (5, 4)])
    def test_domain(self, walk, m_max, order):
        with pytest.raises(ValueError, match=f"order={order} and m_max={m_max}"):
            equivalence_ledger(walk, m_max=m_max, order=order)

    def test_order_equal_to_m_max_holds(self, walk):
        rep = equivalence_ledger(walk, m_max=3, order=3)
        assert rep.passed, rep.failures[:5]

    def test_one_basis_per_call(self, walk81, monkeypatch):
        # counts, not timings, at (10, 40): one sqrt(1+z^2), 1/(R D^k) and
        # 1/R (1/D)^k stepped by one product each, rows built once per call
        # (the Fraction ledger made 88 square roots, 130 reciprocals, 703
        # products, 172 pow_int calls and 5,438 rows)
        calls = Counter()

        def counted(owner, name):
            func = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return func(*args)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("sqrt", "reciprocal", "__mul__", "__rmul__", "pow_int"):
            counted(RationalSeries, name)
        counted(jacobi, "_binomial_row")
        counted(genfun, "_jacobi_core")
        assert equivalence_ledger(walk81, m_max=10, order=40).checked == 2820
        assert calls["sqrt"] == 1
        # one inverse for every closed body, 1/(R D^21); then 1/R and 1/D for
        # the Jacobi side
        assert calls["reciprocal"] == 3
        # the Jacobi side is read as it is stepped, with no Jacobi series
        # built per k: entry k serves every family with that k (F_m and I_m
        # share 2m, G_m and H_(m-1) share 2m-1)
        assert calls["_jacobi_core"] == 0
        # D^21 by pow_int (21 = 0b10101: three products into the result and
        # four squarings) and R times it (1); the bodies 1/(R D^k) for
        # k = 20..0, each the last times D (21); the Jacobi side 1/R (1/D)^k
        # for k = 1..21, each the last times 1/D (21).  The family map
        # multiplies by 1+z on the body's integers, with no series product
        assert calls["__mul__"] == (3 + 4) + 1 + 21 + 21
        # both runs start from a series, so no product has an int on the left
        assert calls["__rmul__"] == 0
        assert calls["pow_int"] == 1
        # two weighted rows (p+q and p-q) per a in -1..50 for the ledger's own
        # table, which the closed amplitudes read too, and two for each of the
        # 21 boundary jacobi_at calls of degree 0 (the 21 of degree -1 sum
        # nothing)
        assert calls["_binomial_row"] == 2 * 52 + 2 * 21

    def test_bodies_are_the_inverses_of_r_d_k(self, walk81, monkeypatch):
        # the closed side reads bodies[k] as the one body of every family
        # with exponent k; each (family, m) reads its closed body first, then
        # the reassembly's
        bodies, seen = {}, set()
        core = genfun._closed_core

        def spy(family, m, body):
            if (family, m) not in seen:
                seen.add((family, m))
                bodies.setdefault(genfun._d_exponent(family, m), body)
            return core(family, m, body)

        monkeypatch.setattr(genfun, "_closed_core", spy)
        assert equivalence_ledger(walk81, m_max=10, order=40).passed
        assert sorted(bodies) == list(range(22))
        root = RationalSeries.polynomial([1, 0, 1], 40).sqrt()
        big_d = RationalSeries.polynomial([1, -1], 40) + root
        for k, body in bodies.items():
            assert body == (root * big_d.pow_int(k)).reciprocal(), k

    def test_jacobi_side_is_the_generating_series(self, walk81, monkeypatch):
        # the reassembly of every family with exponent k reads R^(-1) (D^(-1))^k,
        # 2^(-k) times the public Jacobi generating series of (r, s) = (k, 0);
        # each (family, m) reads its closed body first, then this one
        generating, seen = {}, set()
        core = genfun._closed_core

        def spy(family, m, body):
            if (family, m) in seen:
                generating.setdefault(genfun._d_exponent(family, m), body)
            seen.add((family, m))
            return core(family, m, body)

        monkeypatch.setattr(genfun, "_closed_core", spy)
        assert equivalence_ledger(walk81, m_max=10, order=40).passed
        assert sorted(generating) == list(range(22))
        for k, series in generating.items():
            assert jacobi_generating(0, k, 0, 40).scaled(Fraction(1, 2**k)) == series, k

    def test_memory_bounded_by_one_call(self):
        # in a fresh interpreter, so that a table kept between calls is filled
        # by the traced call and counts towards its peak (~200 KB without one)
        src = str(Path(hadwalk.__file__).parents[1])
        code = ("import tracemalloc\n"
                "from hadwalk import genfun, walk\n"
                "cache = walk.WalkCache()\n"
                "cache.state(81)\n"
                "tracemalloc.start()\n"
                "genfun.equivalence_ledger(cache, 10, 40)\n"
                "print(tracemalloc.get_traced_memory()[1])\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 512 * 1024


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
            assert w.coefficient(n) == Fraction(n ** (n - 1), math.factorial(n))

    def test_w_squared(self):
        order = 20
        phi = RationalSeries([Fraction(1, math.factorial(k)) for k in range(order + 1)],
                             order)
        f = RationalSeries.polynomial([0, 0, 1], order)
        w2 = lagrange_invert(phi, f)
        assert w2.coefficient(0) == 0 and w2.coefficient(1) == 0
        for n in range(2, order + 1):
            want = 2 * Fraction(n) ** (n - 3) / math.factorial(n - 2)
            assert w2.coefficient(n) == want

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


class TestSrivastavaSinghal:
    def test_walk_case_equals_reciprocal_root(self):
        assert srivastava_singhal_series(0, 0, 0, 0, 40) == jacobi_generating(0, 0, 0, 40)

    def test_order_zero_coefficient(self):
        s = srivastava_singhal_series(0, 1, 0, 0, 8)
        assert s.coefficient(0) == 1

    def test_parameter_slope_one(self):
        # a=gamma=0, b=1, beta=0 enumerates J_j^{(0,j)}(0)
        s = srivastava_singhal_series(0, 1, 0, 0, 10)
        for j in range(11):
            assert s.coefficient(j) == jacobi_at(j, 0, j), j

    def test_rejects_inexact_parameters(self):
        with pytest.raises(TypeError, match="exact rational"):
            srivastava_singhal_series(0.5, 0, 0, 0, 8)

    def test_implicit_solution_leading_terms(self):
        # -u = (z/2)(1-u)(1+u): u = -z/2 + O(z^3)
        phihat = (RationalSeries.polynomial([1, -1], 6).pow_rational(1)
                  * RationalSeries.polynomial([1, 1], 6).pow_rational(1) / (-2))
        u = lagrange_invert(phihat, RationalSeries.z(6))
        assert u.coefficient(1) == Fraction(-1, 2)
        assert u.coefficient(2) == 0
        assert u.coefficient(3) == Fraction(1, 8)
