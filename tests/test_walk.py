import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hadwalk.ring import Sqrt2Scalar
from hadwalk.walk import (AliasingError, WalkCache, coin_matrix, evolve,
                          fourier_evolve, initial_state, mantissa_to_float,
                          norm_squared_mantissas, probability, step)

HALF_ROOT2 = Sqrt2Scalar(Fraction(1, 2), 1)   # value 2^(-1/2)


def coin_eigenvalues(theta):
    """exp(-i*omega) and -exp(i*omega) with sin(omega) = sin(theta)/sqrt2."""
    om = math.asin(math.sin(theta) / math.sqrt(2.0))
    return cmath.exp(-1j * om), -cmath.exp(1j * om)


class TestSingleSteps:
    def test_initial_state(self):
        s = initial_state()
        assert s.t == 0
        assert s.mantissa_l(0) == 1 and s.mantissa_r(0) == 0
        assert norm_squared_mantissas(s) == 1
        assert evolve(s, 0) == s

    def test_canonical_first_step(self):
        # orientation pinned against the momentum-integral oracle: the right
        # amplitude lands at +1 and the left amplitude at -1 with value +2^(-1/2)
        s = step(initial_state(), "canonical")
        assert s.amp_r(1) == HALF_ROOT2
        assert s.amp_l(-1) == HALF_ROOT2
        assert s.mantissa_l(1) == 0 and s.mantissa_r(-1) == 0

    def test_as_printed_first_step(self):
        s = step(initial_state(), "as-printed")
        assert s.amp_r(-1) == HALF_ROOT2
        assert s.amp_l(-1) == -HALF_ROOT2
        assert s.mantissa_r(1) == 0 and s.mantissa_l(1) == 0

    def test_two_canonical_steps_center(self):
        s = evolve(initial_state(), 2, "canonical")
        assert s.amp_r(0) == Sqrt2Scalar(Fraction(1, 2))

    def test_unknown_orientation(self):
        with pytest.raises(ValueError, match="orientation"):
            step(initial_state(), "sideways")


class TestInvariants:
    def test_unitarity_and_parity(self):
        s = initial_state()
        for t in range(1, 301):
            s = step(s)
            assert norm_squared_mantissas(s) == 2**t
            for n in s.positions():
                if (n - t) % 2:
                    assert s.mantissa_r(n) == 0 and s.mantissa_l(n) == 0

    def test_endpoints_through_t200(self):
        cache = WalkCache("canonical")
        for t in range(1, 201):
            st = cache.state(t)
            assert st.amp_r(t) == Sqrt2Scalar((-1) ** (t + 1), -t)
            assert st.mantissa_l(t) == 0
            assert st.mantissa_r(-t) == 0
            assert st.amp_l(-t) == Sqrt2Scalar(1, -t)

    def test_orientation_relationship(self):
        # canonical R is the reflection of printed R; canonical L is printed L
        # times (-1)^t -- the exact componentwise dictionary between the rules
        canon = WalkCache("canonical")
        printed = WalkCache("as-printed")
        for t in range(0, 61):
            sc = canon.state(t)
            sp = printed.state(t)
            sign = (-1) ** t
            for n in range(-t, t + 1):
                assert sc.mantissa_r(n) == sp.mantissa_r(-n)
                assert sc.mantissa_l(n) == sign * sp.mantissa_l(n)

    def test_as_printed_edge_values(self):
        # the printed rule puts the nonzero right edge at n=-t and alternates
        # the left edge sign; no single orientation has R(t,t) != 0 together
        # with an alternating L(-t,t)
        printed = WalkCache("as-printed")
        for t in range(1, 61):
            st = printed.state(t)
            assert st.amp_r(-t) == Sqrt2Scalar((-1) ** (t + 1), -t)
            assert st.amp_l(-t) == Sqrt2Scalar((-1) ** t, -t)
            assert st.mantissa_r(t) == 0
            assert st.mantissa_l(t) == 0


class TestProbability:
    def test_basic_values(self):
        assert probability(initial_state(), 0) == 1
        s1 = step(initial_state())
        assert probability(s1, 1) == Fraction(1, 2)
        assert probability(s1, -1) == Fraction(1, 2)

    def test_total_probability_is_one(self):
        s = initial_state()
        for _ in range(100):
            s = step(s)
        total = sum(probability(s, n) for n in s.positions())
        assert total == 1

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            probability(initial_state(), 1)


class TestCoinMatrix:
    def test_eigenvalues_match_phase(self):
        # the broadcast form, as fourier_evolve uses it
        thetas = np.linspace(-math.pi, math.pi, 41)
        mats = coin_matrix(thetas)
        assert mats.shape == (41, 2, 2)
        for theta, mat in zip(thetas, mats):
            got = sorted(np.linalg.eigvals(mat), key=lambda z: (z.real, z.imag))
            want = sorted(coin_eigenvalues(theta), key=lambda z: (z.real, z.imag))
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12

    def test_unitary(self):
        mat = coin_matrix(0.7)
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-14)


class TestFourierEvolve:
    def test_t0(self):
        psi_r, psi_l = fourier_evolve(0, 8)
        assert abs(psi_l[0] - 1.0) < 1e-14
        assert abs(psi_r[0]) < 1e-14

    def test_t1(self):
        psi_r, psi_l = fourier_evolve(1, 8)
        assert abs(psi_r[2] - 1 / math.sqrt(2)) < 1e-12   # n=+1
        assert abs(psi_l[0] - 1 / math.sqrt(2)) < 1e-12   # n=-1

    def test_matches_exact_at_t100(self):
        st = WalkCache("canonical").state(100)
        psi_r, psi_l = fourier_evolve(100, 512)
        dev = 0.0
        for i, n in enumerate(range(-100, 101)):
            dev = max(dev, abs(psi_r[i] - mantissa_to_float(st.mantissa_r(n), 100)),
                      abs(psi_l[i] - mantissa_to_float(st.mantissa_l(n), 100)))
        assert dev < 1e-10

    def test_grid_too_small(self):
        with pytest.raises(AliasingError):
            fourier_evolve(10, 16)
        with pytest.raises(AliasingError):
            fourier_evolve(2, 9)   # odd
