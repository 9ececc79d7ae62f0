import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwalk import jacobi
from hadwalk.jacobi import (binomial, check_jacobi_identities, check_reflections,
                            jacobi_at, psi_center_l, psi_center_r,
                            psi_closed_l, psi_closed_r)
from hadwalk.ledger import Ledger
from hadwalk.walk import WalkCache, evolve, initial_state, step


@pytest.fixture(scope="module")
def walk60():
    cache = WalkCache()
    cache.state(60)
    return cache


class TestBinomial:
    def test_small_nonnegative_is_zero(self):
        # C(a, k) vanishes for integer 0 <= a < k, the convention the
        # parameter-lowering identity relies on across its full range
        assert binomial(2, 3) == 0
        assert binomial(0, 1) == 0

    def test_negative_upper_argument(self):
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4

    def test_negative_k(self):
        assert binomial(5, -1) == 0

    def test_row_matches_math_comb(self):
        # C(a, j) = (-1)^j C(j - a - 1, j) for a < 0
        def comb_row(a, k):
            if a >= 0:
                return [math.comb(a, j) for j in range(k + 1)]
            return [(-1) ** j * math.comb(j - a - 1, j) for j in range(k + 1)]

        for a in range(-8, 30):
            for k in range(25):
                assert jacobi._binomial_row(a, k, 1) == comb_row(a, k), (a, k)

    def test_weighted_row_matches_binomial(self):
        # [C(a, i) w^i]: the step c (a-i) w // (i+1) stays exact for negative
        # a and for weights of either sign and any size
        for a in (-9, -2, -1, 0, 3, 17):
            for w in (-7, -3, -1, 0, 1, 2, 10):
                row = jacobi._binomial_row(a, 20, w)
                assert row == [binomial(a, i) * w**i for i in range(21)], (a, w)


def reference_jacobi(k, r, s, x):
    """The explicit sum evaluated term by term in Fractions with the
    generalized ``binomial``: an independent evaluation to pin jacobi_at."""
    if k < 0:
        return Fraction(0)
    xm = x - 1
    xp = x + 1
    total = Fraction(0)
    for j in range(k + 1):
        c = binomial(k + r, j) * binomial(k + s, k - j)
        if c:
            total += c * xm ** (k - j) * xp**j
    return total / 2**k


def _reference_triples():
    """(k, r, s) with k in [-1, 45] and r, s in [-50, 12]: fixed corners plus a
    seeded sample, so k + r and k + s take both signs."""
    corners = [(-1, 0, 0), (0, -50, 12), (1, -50, -50), (45, 12, 12),
               (45, -50, -50), (3, -7, 2), (3, 2, -7), (10, -11, -11)]
    rng = random.Random(2003)
    return corners + [(rng.randint(-1, 45), rng.randint(-50, 12), rng.randint(-50, 12))
                      for _ in range(64)]


REFERENCE_TRIPLES = _reference_triples()
REFERENCE_XS = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1),
                Fraction(-1), Fraction(3, 7), Fraction(-5, 3), Fraction(2)]


def _scaled_reference(k, r, s, p, q):
    """(2q)^k times the Fraction explicit sum at x = p/q: the integer N that
    the kernel must return."""
    return (2 * q) ** k * reference_jacobi(k, r, s, Fraction(p, q))


def _kernel_cases():
    """Seeded (k, r, s, p, q) with -1 <= k + r, k + s, as the tables need:
    p of both signs, q up to 9, and k + r = -1 in a fixed share."""
    rng = random.Random(20)
    cases = [(5, -6, 2, -3, 7), (7, 0, -8, 4, 9), (0, -1, -1, -1, 2), (-1, 3, 3, 5, 3)]
    while len(cases) < 60:
        k = rng.randint(0, 30)
        r = -k - 1 if rng.random() < 0.25 else rng.randint(-k - 1, 12)
        p, q = rng.randint(-9, 9), rng.randint(1, 9)
        if math.gcd(p, q) == 1:
            cases.append((k, r, rng.randint(-k - 1, 12), p, q))
    return cases


class TestKernel:
    """``_explicit_sum`` over weighted rows, against the Fraction explicit sum
    built from ``binomial``."""

    def test_cases_cover_the_edges(self):
        cases = _kernel_cases()
        assert any(k + r == -1 for k, r, s, p, q in cases if k > 0)
        assert any(p < 0 for k, r, s, p, q in cases)
        assert any(q > 1 for k, r, s, p, q in cases)

    def test_per_call_rows_match_reference(self):
        for k, r, s, p, q in _kernel_cases():
            assert jacobi._numerator(k, r, s, p, q) == _scaled_reference(k, r, s, p, q), \
                (k, r, s, p, q)

    def test_table_matches_reference(self):
        # each table serves every case at its point, longer rows read as prefixes
        cases = _kernel_cases()
        for p, q in {(p, q) for k, r, s, p, q in cases}:
            numerator = jacobi._numerator_table(42, 30, p, q)
            for k, r, s, p_, q_ in cases:
                if (p_, q_) == (p, q):
                    assert numerator(k, r, s) == _scaled_reference(k, r, s, p, q), \
                        (k, r, s, p, q)

    @pytest.mark.parametrize("p, q", [(0, 1), (3, 7)])
    def test_degree_1000(self, p, q, row_minus_one):
        # k + r = k + s = -1, so every term is nonzero and both factors read
        # the one reference row
        k, r, row = 1000, -1001, row_minus_one
        reference = sum(row[j] * row[k - j] * (p + q) ** j * (p - q) ** (k - j)
                        for j in range(k + 1))
        assert jacobi._numerator(k, r, r, p, q) == reference
        assert jacobi._numerator_table(-1, k, p, q)(k, r, r) == reference


@pytest.fixture(scope="module")
def row_minus_one():
    """C(-1, j) for j <= 1000 from ``binomial``, built once for both points
    (~1.7 s in Fractions)."""
    return [binomial(-1, j) for j in range(1001)]


class TestJacobiAt:
    def test_reference_grid_covers_negative_binomial_tops(self):
        signs = {(k + r < 0, k + s < 0) for k, r, s in REFERENCE_TRIPLES if k >= 0}
        assert signs == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("x", REFERENCE_XS, ids=str)
    def test_matches_reference_sum(self, x):
        for k, r, s in REFERENCE_TRIPLES:
            assert jacobi_at(k, r, s, x) == reference_jacobi(k, r, s, x), (k, r, s)

    def test_degree_zero(self):
        for r, s in [(0, 0), (3, -2), (-1, 5)]:
            assert jacobi_at(0, r, s, Fraction(1, 3)) == 1

    @pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (2, 5), (3, -1)])
    def test_degree_one_at_origin(self, a, b):
        assert jacobi_at(1, a, b) == Fraction(a - b, 2)

    def test_odd_legendre_at_origin(self):
        assert jacobi_at(1, 0, 0) == 0
        assert jacobi_at(3, 0, 0) == 0

    def test_even_legendre_values(self):
        assert jacobi_at(2, 0, 0) == Fraction(-1, 2)
        assert jacobi_at(4, 0, 0) == Fraction(3, 8)

    def test_negative_degree_is_zero(self):
        assert jacobi_at(-1, 1, 0) == 0

    def test_exact_rational_argument(self):
        # P_2(1/10) = (3/100 - 1)/2; a float 0.1 would be the binary double
        # 3602879701896397/2^55, so floats are refused rather than converted
        assert jacobi_at(2, 0, 0, Fraction(1, 10)) == Fraction(-97, 200)
        for x in (0.1, 0.0):
            with pytest.raises(TypeError, match="float"):
                jacobi_at(2, 0, 0, x)
        with pytest.raises(TypeError, match="float"):
            jacobi_at(-1, 0, 0, 0.1)
        with pytest.raises(TypeError, match="float"):
            check_jacobi_identities(2, 1, xs=(Fraction(1, 2), 0.5))


class TestClosedForms:
    def test_matches_simulator_through_t60(self, walk60):
        for t in range(61):
            st = walk60.state(t)
            for n in range(-t, t + 1):
                if (n - t) % 2:
                    continue
                right, left = psi_closed_r(n, t), psi_closed_l(n, t)
                assert type(right) is int and type(left) is int
                assert (right, left) == (st.mantissa_r(n), st.mantissa_l(n)), (n, t)

    def test_matches_simulator_at_t199_and_t200(self):
        # every position of two large times from one stepped state; the n < 0
        # left branch divides (t-n) N by (t+n) exactly on ints of ~200 bits
        state = evolve(initial_state(), 199)
        for st in (state, step(state)):
            t = st.t
            for n in range(-t, t + 1, 2):
                assert psi_closed_r(n, t) == st.mantissa_r(n), (n, t)
                assert psi_closed_l(n, t) == st.mantissa_l(n), (n, t)

    def test_inexact_left_division_raises(self, monkeypatch):
        # (t-n) N / (t+n) must be an int; a wrong N that leaves a remainder
        # raises instead of being rounded
        monkeypatch.setattr(jacobi, "_numerator", lambda k, r, s: 1)
        with pytest.raises(ArithmeticError, match="n=-1, t=5"):
            psi_closed_l(-1, 5)

    def test_right_edge(self):
        for t in range(1, 30):
            assert psi_closed_r(t, t) == (-1) ** (t + 1)

    def test_origin_values(self):
        assert psi_closed_r(0, 0) == 0
        assert psi_closed_l(0, 0) == 1
        assert psi_closed_r(0, 2) == 1  # value 1/2 at t = 2

    def test_center_forms(self, walk60):
        assert psi_center_r(0) == 0 and psi_center_l(0) == 1
        for t in range(2, 61, 2):
            assert psi_center_r(t) == walk60.state(t).mantissa_r(0)
            assert psi_center_l(t) == walk60.state(t).mantissa_l(0)

    def test_closed_form_branches_connected_by_symmetry(self):
        # the n >= 0 and n < 0 branches reproduce the reflection relations
        for t in range(1, 41):
            for n in range(1, t - 1):
                if (n - t) % 2:
                    continue
                lhs = psi_closed_r(-n, t)
                rhs = psi_closed_r(n + 2, t) * (-1) ** (n + 1)
                assert lhs == rhs, (n, t)
                lhs = psi_closed_l(-n, t) * (t - n)
                rhs = psi_closed_l(n, t) * ((-1) ** n * (t + n))
                assert lhs == rhs, (n, t)

    def test_center_forms_to_t200(self):
        cache = WalkCache()
        cache.state(200)
        for t in range(2, 201, 2):
            assert psi_center_r(t) == cache.state(t).mantissa_r(0), t
            assert psi_center_l(t) == cache.state(t).mantissa_l(0), t

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="parity"):
            psi_closed_r(1, 2)
        with pytest.raises(ValueError, match="outside"):
            psi_closed_l(4, 2)
        with pytest.raises(ValueError, match="even"):
            psi_center_r(3)


class TestSymmetry:
    def test_all_positions_through_t60(self, walk60):
        rep = check_reflections(walk60.state(t) for t in range(61))
        assert rep.passed, rep.failures[:3]
        assert rep.checked == 61 * 62 // 2

    def test_left_relation_trivial_cases(self, walk60):
        # a single state covers n = 0, where the left relation reduces to an
        # identity, and n = t, where it pairs zeros on both sides
        rep = check_reflections([walk60.state(10)])
        assert rep.passed and rep.checked == 11


class TestIdentities:
    def test_sweep_is_exact(self):
        report = check_jacobi_identities(m_max=8, uv_max=4)
        assert report.passed, report.failures[:3]
        # 3 points x 3 families x 225 instances: a loop that skips cases fails
        assert report.checked == 2025

    def test_parameter_lowering_trivial_at_ell0(self):
        x = Fraction(1, 2)
        for m, u in [(3, 2), (5, 0)]:
            lhs = binomial(m, 0) * jacobi_at(m, u, 0, x)
            rhs = binomial(m + u, 0) * jacobi_at(m, u, 0, x)
            assert lhs == rhs

    def test_reflection_kills_odd_symmetric_values(self):
        for n in (1, 3, 5):
            for r in (0, 1, 2):
                assert jacobi_at(n, r, r) == 0

    def test_contiguous_specific_instance(self):
        # k=1, u=v=0 at the origin: both sides equal 1
        lhs = 2 * jacobi_at(1, 0, -1)
        rhs = 1 * jacobi_at(1, 0, 0) + 1 * jacobi_at(0, 0, 0)
        assert lhs == rhs == 1

    @given(st.integers(0, 10), st.integers(0, 5), st.integers(0, 5),
           st.fractions(min_value=-2, max_value=2, max_denominator=9))
    @settings(max_examples=150, deadline=None)
    def test_reflection_at_random_arguments(self, n, r, s, x):
        assert jacobi_at(n, r, s, -x) == (-1) ** n * jacobi_at(n, s, r, x)

    @given(st.integers(0, 10), st.integers(0, 5), st.integers(0, 5),
           st.fractions(min_value=-2, max_value=2, max_denominator=9))
    @settings(max_examples=150, deadline=None)
    def test_contiguous_at_random_arguments(self, k, u, v, x):
        lhs = (u + v + 2 * k) * jacobi_at(k, u, v - 1, x)
        rhs = ((u + v + k) * jacobi_at(k, u, v, x)
               + (u + k) * jacobi_at(k - 1, u, v, x))
        assert lhs == rhs

    @given(st.integers(0, 10), st.integers(0, 5), st.integers(0, 10),
           st.fractions(min_value=-2, max_value=2, max_denominator=9))
    @settings(max_examples=150, deadline=None)
    def test_parameter_lowering_at_random_arguments(self, m, u, ell, x):
        ell = min(ell, m)
        lhs = binomial(m, ell) * jacobi_at(m, u, -ell, x)
        rhs = (binomial(m + u, ell) * ((1 + x) / 2) ** ell
               * jacobi_at(m - ell, u, ell, x))
        assert lhs == rhs


def reference_sweep(m_max, uv_max, xs):
    """The identity sweep in Fractions on ``jacobi_at``, each relation
    compared as stated with no scaling by (2q)^k: the integer sweep's reference."""
    report = Ledger("Jacobi identities")
    for x in xs:
        for m in range(m_max + 1):
            for u in range(uv_max + 1):
                for ell in range(m + 1):
                    lhs = math.comb(m, ell) * jacobi_at(m, u, -ell, x)
                    rhs = (math.comb(m + u, ell) * ((1 + x) / 2) ** ell
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


DEFAULT_XS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2))
OFF_DEFAULT_XS = (Fraction(3, 7), Fraction(-5, 3), Fraction(2), Fraction(-1))


def _families_per_point(m_max, uv_max):
    """Instances per point: parameter-lowering, reflection, contiguous."""
    lowering = (m_max + 1) * (m_max + 2) // 2 * (uv_max + 1)
    return lowering + 2 * (m_max + 1) * (uv_max + 1) ** 2


def wrong_numerator(monkeypatch, k, a_left, a_right, x):
    """Make the shared kernel return N + 1 for one numerator: degree k, rows
    C(a_left, .) (p+q)^. and C(a_right, .) (p-q)^., at the point x = p/q.  The
    sweep and ``jacobi_at`` (hence ``reference_sweep``) both see the wrong value."""
    exact = jacobi._explicit_sum
    p, q = x.numerator, x.denominator
    plus = jacobi._binomial_row(a_left, k, p + q)
    minus = jacobi._binomial_row(a_right, k, p - q)

    def off_by_one(k_, plus_, minus_):
        value = exact(k_, plus_, minus_)
        hit = k_ == k and plus_[:k + 1] == plus and minus_[:k + 1] == minus
        return value + 1 if hit else value

    monkeypatch.setattr(jacobi, "_explicit_sum", off_by_one)


class TestIntegerSweep:
    """The integer sweep reports exactly what the Fraction sweep reports."""

    # (9, 2) reaches the parameter-lowering right side with l > uv_max, which
    # is summed outside the box; (3, 6) has uv_max > m_max
    @pytest.mark.parametrize("m_max, uv_max", [(0, 0), (1, 0), (3, 6), (9, 2), (12, 6)])
    @pytest.mark.parametrize("xs", [DEFAULT_XS, OFF_DEFAULT_XS],
                             ids=["default", "off-default"])
    def test_matches_reference_sweep(self, xs, m_max, uv_max):
        new = check_jacobi_identities(m_max=m_max, uv_max=uv_max, xs=xs)
        ref = reference_sweep(m_max, uv_max, xs)
        assert new.checked == ref.checked == len(xs) * _families_per_point(m_max, uv_max)
        assert new.failures == ref.failures == []

    def test_same_failures_when_one_value_is_wrong(self, monkeypatch):
        # N(3, 1, 2) at x = -1/2: rows C(4, .) and C(5, .) of degree 3
        wrong_numerator(monkeypatch, 3, 4, 5, Fraction(-1, 2))
        new = check_jacobi_identities(m_max=6, uv_max=4)
        ref = reference_sweep(6, 4, DEFAULT_XS)
        assert new.checked == ref.checked
        assert new.failures == ref.failures
        # the wrong value enters reflections as J(-x) at x = 1/2 and as J(x)
        # at x = -1/2, and contiguous relations at degrees 3 and 4
        assert ("reflection", (3, 1, 2, Fraction(1, 2))) in new.failures
        assert ("reflection", (3, 2, 1, Fraction(-1, 2))) in new.failures
        assert ("contiguous", (3, 1, 3, Fraction(-1, 2))) in new.failures
        assert ("contiguous", (4, 1, 2, Fraction(-1, 2))) in new.failures

    def test_same_failures_when_a_v_minus_one_value_is_wrong(self, monkeypatch):
        # N(5, 2, -1) at x = 0: the contiguous left side reads it from the
        # box, the parameter-lowering left side N(5, 2, -1) sums it directly
        wrong_numerator(monkeypatch, 5, 7, 4, Fraction(0))
        new = check_jacobi_identities(m_max=6, uv_max=4)
        ref = reference_sweep(6, 4, DEFAULT_XS)
        assert new.checked == ref.checked
        assert new.failures == ref.failures
        assert ("contiguous", (5, 2, 0, Fraction(0))) in new.failures
        assert ("parameter-lowering", (5, 2, 1, Fraction(0))) in new.failures

    def test_same_failures_when_a_box_value_at_zero_is_wrong(self, monkeypatch):
        # N(4, 1, 3) at x = 0: the reflection reads both sides from the box
        # there, so the wrong value fails (4, 1, 3) as the left side and
        # (4, 3, 1) as the right side, as in the Fraction sweep
        wrong_numerator(monkeypatch, 4, 5, 7, Fraction(0))
        new = check_jacobi_identities(m_max=6, uv_max=4)
        ref = reference_sweep(6, 4, DEFAULT_XS)
        assert new.checked == ref.checked
        assert new.failures == ref.failures
        assert ("reflection", (4, 1, 3, Fraction(0))) in new.failures
        assert ("reflection", (4, 3, 1, Fraction(0))) in new.failures

    def test_same_failures_when_a_value_outside_the_box_is_wrong(self, monkeypatch):
        # N(4, 1, 3) at x = 1/2 with uv_max = 2: only the parameter-lowering
        # right side at (m, u, l) = (7, 1, 3) needs it, summed outside the box
        wrong_numerator(monkeypatch, 4, 5, 7, Fraction(1, 2))
        new = check_jacobi_identities(m_max=9, uv_max=2)
        ref = reference_sweep(9, 2, DEFAULT_XS)
        assert new.checked == ref.checked
        assert new.failures == ref.failures == [
            ("parameter-lowering", (7, 1, 3, Fraction(1, 2)))]

    def test_rows_once_per_call_and_numerators_once_per_point(self, monkeypatch):
        # counts, not timings: at the defaults (20, 6) the sweep sums each
        # numerator of the (k, u, v) box once per point and builds each
        # weighted row once per table: two rows (p+q, p-q) per a in -1..26,
        # one table at x = 0 and two (x and -x) at x = +-1/2.  12,642 sums:
        # 13,671 less the 1,029 reflection left sides read from the x = 0 box
        # (25,137 sums and 50,274 rows when every numerator was summed afresh
        # from its own rows)
        calls = {"sum": 0, "row": 0}
        explicit_sum, row = jacobi._explicit_sum, jacobi._binomial_row

        def counted_sum(*args):
            calls["sum"] += 1
            return explicit_sum(*args)

        def counted_row(*args):
            calls["row"] += 1
            return row(*args)

        monkeypatch.setattr(jacobi, "_explicit_sum", counted_sum)
        monkeypatch.setattr(jacobi, "_binomial_row", counted_row)
        assert check_jacobi_identities(20, 6).passed
        assert calls["sum"] == 13_671 - 1_029
        assert calls["row"] == 2 * (20 + 6 + 2) * (1 + 2 + 2)

    def test_memory_bounded_by_one_box(self):
        # one point's box and table are ~120 KB traced; a memo table kept over
        # the whole sweep takes ~1.4 MB
        tracemalloc.start()
        try:
            check_jacobi_identities(20, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
