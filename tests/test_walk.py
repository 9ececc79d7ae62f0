import math
import random
import sys
from fractions import Fraction

import pytest

from hadwalk.walk import (WalkCache, WalkState, as_printed, evolve, initial_state,
                          mantissa_to_float, probability, step)


def norm_squared_mantissas(state):
    """sum(mantissa**2) over both chiralities; exactly 2**t when unitary."""
    return sum(m * m for m in (*state.psi_r, *state.psi_l))


def printed_step(state):
    """The source's recursion, exactly as printed; the reference for ``as_printed``:

        psi_R(n, t+1) =  psi_L(n+1, t) + psi_R(n-1, t)
        psi_L(n, t+1) = -psi_L(n+1, t) + psi_R(n-1, t)
    """
    t = state.t

    def at(psi, n):
        return psi[n + t] if abs(n) <= t else 0

    ns = range(-t - 1, t + 2)
    psi_r = tuple(at(state.psi_l, n + 1) + at(state.psi_r, n - 1) for n in ns)
    psi_l = tuple(-at(state.psi_l, n + 1) + at(state.psi_r, n - 1) for n in ns)
    return WalkState(t + 1, psi_r, psi_l)


class TestSingleSteps:
    def test_initial_state(self):
        s = initial_state()
        assert s.t == 0
        assert s.mantissa_l(0) == 1 and s.mantissa_r(0) == 0
        assert norm_squared_mantissas(s) == 1
        assert evolve(s, 0) == s

    def test_canonical_first_step(self):
        # orientation pinned against the momentum-integral oracle: the right
        # amplitude lands at +1 and the left amplitude at -1 with value +2^(-1/2),
        # mantissa 1 at t = 1
        s = step(initial_state())
        assert s.mantissa_r(1) == 1
        assert s.mantissa_l(-1) == 1
        assert s.mantissa_l(1) == 0 and s.mantissa_r(-1) == 0

    def test_as_printed_first_step(self):
        s = as_printed(step(initial_state()))
        assert s == printed_step(initial_state())
        assert s.mantissa_r(-1) == 1
        assert s.mantissa_l(-1) == -1
        assert s.mantissa_r(1) == 0 and s.mantissa_l(1) == 0

    def test_two_canonical_steps_center(self):
        s = evolve(initial_state(), 2)
        assert s.mantissa_r(0) == 1  # value 1/2 at t = 2

    def test_step_is_the_per_site_rule(self):
        # the rule of the module docstring, read through the accessors, with
        # 0 outside -t..t:
        #   psi_R(n, t+1) = psi_L(n-1, t) - psi_R(n-1, t)
        #   psi_L(n, t+1) = psi_R(n+1, t) + psi_L(n+1, t)
        state = initial_state()
        for t in range(120):
            def at(mantissa, n):
                return mantissa(n) if abs(n) <= t else 0

            nxt = step(state)
            assert nxt.t == t + 1
            for n in range(-t - 1, t + 2):
                assert nxt.mantissa_r(n) == (at(state.mantissa_l, n - 1)
                                             - at(state.mantissa_r, n - 1)), (n, t)
                assert nxt.mantissa_l(n) == (at(state.mantissa_r, n + 1)
                                             + at(state.mantissa_l, n + 1)), (n, t)
            state = nxt


class TestRecord:
    def test_repr_and_hash(self):
        s = initial_state()
        assert repr(s) == "WalkState(t=0, psi_r=(0,), psi_l=(1,))"
        twin = WalkState(t=0, psi_r=(0,), psi_l=(1,))
        assert twin == s and hash(twin) == hash(s) and len({s, twin}) == 1

    @pytest.mark.parametrize("name", ["t", "psi_r", "extra"])
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(initial_state(), name, 1)

    @pytest.mark.parametrize("t, psi_r, psi_l", [
        (0, (), (1,)), (0, (0,), (1, 0)), (1, (0, 0, 1), (1,)), (1, (0,), (1,))])
    def test_bad_lengths(self, t, psi_r, psi_l):
        with pytest.raises(ValueError, match="positions -t..t"):
            WalkState(t, psi_r, psi_l)

    def test_make_and_replace_run_the_checks(self):
        # namedtuple builds these without __new__ unless _make goes through it
        with pytest.raises(ValueError, match="positions -t..t"):
            WalkState._make((1, (0,), (1,)))
        with pytest.raises(ValueError, match="positions -t..t"):
            initial_state()._replace(t=1)
        assert WalkState._make((0, (0,), (1,))) == initial_state()


class TestInvariants:
    def test_unitarity_and_parity(self):
        s = initial_state()
        for t in range(1, 301):
            s = step(s)
            assert norm_squared_mantissas(s) == 2**t
            for n in range(-s.t, s.t + 1):
                if (n - t) % 2:
                    assert s.mantissa_r(n) == 0 and s.mantissa_l(n) == 0

    def test_endpoints_through_t200(self):
        cache = WalkCache()
        for t in range(1, 201):
            st = cache.state(t)
            assert st.mantissa_r(t) == (-1) ** (t + 1)
            assert st.mantissa_l(t) == 0
            assert st.mantissa_r(-t) == 0
            assert st.mantissa_l(-t) == 1

    def test_orientation_relationship(self):
        # relabelling the canonical state (R mirrored, L times (-1)^t) gives the
        # printed recursion's state, state for state
        canon = WalkCache()
        printed = initial_state()
        for t in range(61):
            assert as_printed(canon.state(t)) == printed
            printed = printed_step(printed)

    def test_as_printed_edge_values(self):
        # the printed rule puts the nonzero right edge at n=-t and alternates
        # the left edge sign; no single orientation has R(t,t) != 0 together
        # with an alternating L(-t,t)
        canon = WalkCache()
        for t in range(1, 61):
            st = as_printed(canon.state(t))
            assert st.mantissa_r(-t) == (-1) ** (t + 1)
            assert st.mantissa_l(-t) == (-1) ** t
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
        total = sum(probability(s, n) for n in range(-s.t, s.t + 1))
        assert total == 1

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            probability(initial_state(), 1)


class TestMantissaToFloat:
    @staticmethod
    def fraction_route(mantissa, t):
        """The exact value rounded through Fraction, then divided by sqrt(2) at odd t."""
        if mantissa == 0:
            return 0.0
        val = float(Fraction(mantissa, 1 << (t // 2)))
        return val / math.sqrt(2.0) if t % 2 else val

    def test_equals_the_fraction_route(self):
        rng = random.Random(2024)
        cases = [(0, 0), (0, 7), (1, 0), (-1, 1), (3, 2000), (-3, 2001)]
        for _ in range(4000):
            bits = rng.randint(0, 1200)
            mantissa = rng.choice((-1, 1)) * rng.getrandbits(bits) if bits else 0
            # results from ~2^60 down through the subnormals to a signed zero
            t = 2 * (bits + rng.randint(-60, 1120)) + rng.randint(0, 1)
            cases.append((mantissa, max(t, 0)))
        subnormal = signed_zero = 0
        for mantissa, t in cases:
            got = mantissa_to_float(mantissa, t)
            # hex() tells the sign of zero and every bit of the significand apart
            assert got.hex() == self.fraction_route(mantissa, t).hex(), (mantissa, t)
            subnormal += 0 < abs(got) < sys.float_info.min
            signed_zero += got == 0 and math.copysign(1.0, got) < 0
        assert subnormal > 50 and signed_zero > 50
