"""The integer simulator: exact evolution of the Hadamard walk on the line.

Amplitudes at time t are integers times sqrt(2)**(-t); the common 1/sqrt(2)
per step lives in that exponent, so stepping is pure integer arithmetic and
unitarity is the exact statement sum(mantissa**2) == 2**t.

The one step rule is the canonical orientation, the one that reproduces the
momentum-integral representations (the closed forms and asymptotics here are
written against it; pinned by tests, not assumed):

    psi_R(n, t+1) = psi_L(n-1, t) - psi_R(n-1, t)
    psi_L(n, t+1) = psi_R(n+1, t) + psi_L(n+1, t)

The ``as-printed`` orientation of the source is not a second walk but a
relabelling of this one (``as_printed``):

    psi_R^printed(n, t) = psi_R(-n, t)
    psi_L^printed(n, t) = (-1)**t * psi_L(n, t)

which is *not* a plain mirror image.  The tests check it state for state
against the printed recursion

    psi_R(n, t+1) =  psi_L(n+1, t) + psi_R(n-1, t)
    psi_L(n, t+1) = -psi_L(n+1, t) + psi_R(n-1, t)
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "WalkState",
    "WalkCache",
    "initial_state",
    "step",
    "evolve",
    "probability",
    "norm_squared_mantissas",
    "mantissa_to_float",
    "as_printed",
    "ORIENTATIONS",
]

ORIENTATIONS = ("canonical", "as-printed")

_SQRT2 = math.sqrt(2.0)


class WalkState(namedtuple("WalkState", "t psi_r psi_l")):
    """Amplitude pair over positions -t..t at time t, as integer mantissas.

    psi_r[i] and psi_l[i] hold the mantissas at position n = i - t; the
    amplitude value is mantissa * sqrt(2)**(-t).
    """

    __slots__ = ()

    def __new__(cls, t: int, psi_r: tuple, psi_l: tuple):
        if len(psi_r) != 2 * t + 1 or len(psi_l) != 2 * t + 1:
            raise ValueError("mantissa arrays must cover positions -t..t")
        return super().__new__(cls, t, psi_r, psi_l)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _make and _replace run its checks too
        return cls(*iterable)

    def _index(self, n: int) -> int:
        if abs(n) > self.t:
            raise ValueError(f"position {n} outside [-{self.t}, {self.t}]")
        return n + self.t

    def mantissa_r(self, n: int) -> int:
        return self.psi_r[self._index(n)]

    def mantissa_l(self, n: int) -> int:
        return self.psi_l[self._index(n)]


def initial_state() -> WalkState:
    """Walker at the origin with its coin in the L state."""
    return WalkState(0, (0,), (1,))


def step(state: WalkState) -> WalkState:
    """One time step; the 1/sqrt(2) is carried by the halftime exponent."""
    t = state.t
    size = 2 * t + 3
    new_r = [0] * size
    new_l = [0] * size
    old_r = state.psi_r
    old_l = state.psi_l
    # contribution view: site p sends (l - r) to R(p+1) and (r + l) to L(p-1)
    for i in range(2 * t + 1):
        r = old_r[i]
        l = old_l[i]
        if r or l:
            new_r[i + 2] += l - r
            new_l[i] += r + l
    return WalkState(t + 1, tuple(new_r), tuple(new_l))


def evolve(state: WalkState, steps: int) -> WalkState:
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    for _ in range(steps):
        state = step(state)
    return state


def norm_squared_mantissas(state: WalkState) -> int:
    """Exactly 2**t for a unitary evolution."""
    return sum(m * m for m in state.psi_r) + sum(m * m for m in state.psi_l)


def probability(state: WalkState, n: int) -> Fraction:
    """Exact occupation probability at position n."""
    r = state.mantissa_r(n)
    l = state.mantissa_l(n)
    return Fraction(r * r + l * l, 2**state.t)


class WalkCache:
    """Lazily extended list of states, and nothing more."""

    def __init__(self):
        self._states = [initial_state()]

    def state(self, t: int) -> WalkState:
        if t < 0:
            raise ValueError("time must be nonnegative")
        while len(self._states) <= t:
            self._states.append(step(self._states[-1]))
        return self._states[t]


def mantissa_to_float(mantissa: int, t: int) -> float:
    """mantissa * sqrt(2)**(-t) without overflowing intermediate floats."""
    if mantissa == 0:
        return 0.0
    val = float(Fraction(mantissa, 1 << (t // 2)))
    if t % 2:
        val /= _SQRT2
    return val


def as_printed(state: WalkState) -> WalkState:
    """The same state in the source's printed labels: R mirrored, L times (-1)**t."""
    sign = -1 if state.t % 2 else 1
    return WalkState(state.t, state.psi_r[::-1], tuple(sign * m for m in state.psi_l))
