import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwalk.jacobi import (binomial, check_jacobi_identities, check_reflections,
                            jacobi_at, psi_center_l, psi_center_r,
                            psi_closed_l, psi_closed_r)
from hadwalk.ring import Sqrt2Scalar
from hadwalk.walk import WalkCache


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


class TestClosedForms:
    def test_matches_simulator_through_t60(self, walk60):
        for t in range(61):
            for n in range(-t, t + 1):
                if (n - t) % 2:
                    continue
                assert psi_closed_r(n, t) == walk60.state(t).amp_r(n), (n, t)
                assert psi_closed_l(n, t) == walk60.state(t).amp_l(n), (n, t)

    def test_right_edge(self):
        for t in range(1, 30):
            assert psi_closed_r(t, t) == Sqrt2Scalar((-1) ** (t + 1), -t)

    def test_origin_values(self):
        assert psi_closed_r(0, 0).is_zero
        assert psi_closed_l(0, 0) == Sqrt2Scalar(1)
        assert psi_closed_r(0, 2) == Sqrt2Scalar(Fraction(1, 2))

    def test_center_forms(self, walk60):
        assert psi_center_l(0) == Sqrt2Scalar(1)
        for t in range(2, 61, 2):
            assert psi_center_r(t) == walk60.state(t).amp_r(0)
            assert psi_center_l(t) == walk60.state(t).amp_l(0)

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
            assert psi_center_r(t) == cache.state(t).amp_r(0), t
            assert psi_center_l(t) == cache.state(t).amp_l(0), t

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
        assert report.checked > 1000

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
