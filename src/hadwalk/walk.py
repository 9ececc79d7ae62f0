"""Exact simulation of the Hadamard walk on the integer line.

Amplitudes at time t are integers times sqrt(2)**(-t); the common 1/sqrt(2)
per step lives in that exponent, so stepping is pure integer arithmetic and
unitarity is the exact statement sum(mantissa**2) == 2**t.

Two step orientations are exposed.  ``as-printed`` is the recursion

    psi_R(n, t+1) =  psi_L(n+1, t) + psi_R(n-1, t)
    psi_L(n, t+1) = -psi_L(n+1, t) + psi_R(n-1, t)

``canonical`` is the orientation that reproduces the momentum-integral
representations (the one the closed forms and asymptotics here are written
against; pinned by tests, not assumed):

    psi_R(n, t+1) = psi_L(n-1, t) - psi_R(n-1, t)
    psi_L(n, t+1) = psi_R(n+1, t) + psi_L(n+1, t)

The two walks are related componentwise by

    psi_R^canonical(n, t) = psi_R^printed(-n, t)
    psi_L^canonical(n, t) = (-1)**t * psi_L^printed(n, t)

which is *not* a plain mirror image; see the package documentation for how
this was pinned down empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ring import Sqrt2Scalar

__all__ = [
    "WalkState",
    "WalkCache",
    "initial_state",
    "step",
    "evolve",
    "probability",
    "norm_squared_mantissas",
    "mantissa_to_float",
    "coin_matrix",
    "fourier_evolve",
    "AliasingError",
    "ORIENTATIONS",
]

ORIENTATIONS = ("canonical", "as-printed")

_SQRT2 = math.sqrt(2.0)


class AliasingError(ValueError):
    """Momentum grid too small to reconstruct the state without aliasing."""


@dataclass(frozen=True)
class WalkState:
    """Amplitude pair over positions -t..t at time t, as integer mantissas.

    psi_r[i] and psi_l[i] hold the mantissas at position n = i - t; the
    amplitude value is mantissa * sqrt(2)**(-t).
    """

    t: int
    psi_r: tuple
    psi_l: tuple

    def __post_init__(self):
        if len(self.psi_r) != 2 * self.t + 1 or len(self.psi_l) != 2 * self.t + 1:
            raise ValueError("mantissa arrays must cover positions -t..t")

    def _index(self, n: int) -> int:
        if abs(n) > self.t:
            raise ValueError(f"position {n} outside [-{self.t}, {self.t}]")
        return n + self.t

    def mantissa_r(self, n: int) -> int:
        return self.psi_r[self._index(n)]

    def mantissa_l(self, n: int) -> int:
        return self.psi_l[self._index(n)]

    def amp_r(self, n: int) -> Sqrt2Scalar:
        return Sqrt2Scalar.from_mantissa(self.mantissa_r(n), self.t)

    def amp_l(self, n: int) -> Sqrt2Scalar:
        return Sqrt2Scalar.from_mantissa(self.mantissa_l(n), self.t)

    def positions(self) -> range:
        return range(-self.t, self.t + 1)


def initial_state() -> WalkState:
    """Walker at the origin with its coin in the L state."""
    return WalkState(0, (0,), (1,))


def step(state: WalkState, orientation: str = "canonical") -> WalkState:
    """One time step; the 1/sqrt(2) is carried by the halftime exponent."""
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    t = state.t
    size = 2 * t + 3
    new_r = [0] * size
    new_l = [0] * size
    old_r = state.psi_r
    old_l = state.psi_l
    if orientation == "canonical":
        # contribution view: site p sends (l - r) to R(p+1) and (r + l) to L(p-1)
        for i in range(2 * t + 1):
            r = old_r[i]
            l = old_l[i]
            if r or l:
                new_r[i + 2] += l - r
                new_l[i] += r + l
    else:
        # site p sends l to R(p-1), -l to L(p-1), r to R(p+1), r to L(p+1)
        for i in range(2 * t + 1):
            r = old_r[i]
            l = old_l[i]
            if l:
                new_r[i] += l
                new_l[i] -= l
            if r:
                new_r[i + 2] += r
                new_l[i + 2] += r
    return WalkState(t + 1, tuple(new_r), tuple(new_l))


def evolve(state: WalkState, steps: int, orientation: str = "canonical") -> WalkState:
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    for _ in range(steps):
        state = step(state, orientation)
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
    """Lazily extended list of states for one orientation, and nothing more."""

    def __init__(self, orientation: str = "canonical"):
        if orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {orientation!r}")
        self.orientation = orientation
        self._states = [initial_state()]

    def state(self, t: int) -> WalkState:
        if t < 0:
            raise ValueError("time must be nonnegative")
        while len(self._states) <= t:
            self._states.append(step(self._states[-1], self.orientation))
        return self._states[t]


def mantissa_to_float(mantissa: int, t: int) -> float:
    """mantissa * sqrt(2)**(-t) without overflowing intermediate floats."""
    if mantissa == 0:
        return 0.0
    val = float(Fraction(mantissa, 1 << (t // 2)))
    if t % 2:
        val /= _SQRT2
    return val


def coin_matrix(theta) -> np.ndarray:
    """Momentum-space step matrix (the 1/sqrt(2) Hadamard factor included).

    ``theta`` may be an array of angles; the result then has shape
    ``theta.shape + (2, 2)``.
    """
    em = np.exp(-1j * np.asarray(theta, dtype=float))
    ep = np.conj(em)
    rows = (np.stack([em, em], axis=-1), np.stack([ep, -ep], axis=-1))
    return np.stack(rows, axis=-2) / _SQRT2


def fourier_evolve(t: int, grid: int) -> tuple:
    """Reconstruct the canonical state at time t from momentum-space evolution.

    Applies coin_matrix(theta)**t to (1, 0) on a ``grid``-point theta grid and
    inverse-transforms.  Returns (psi_r, psi_l) as float arrays over n=-t..t.
    The grid must be even and at least 4t (the state is a trigonometric
    polynomial of degree t, so this is alias-free with margin).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if grid % 2 or grid < max(4, 4 * t):
        raise AliasingError(f"grid {grid} too small for t={t}; need even >= {max(4, 4 * t)}")
    thetas = 2.0 * math.pi * np.arange(grid) / grid
    acc = np.broadcast_to(np.eye(2, dtype=complex), (grid, 2, 2)).copy()
    base = coin_matrix(thetas)
    power = t
    while power:
        if power & 1:
            acc = base @ acc
        power >>= 1
        if power:
            base = base @ base

    vec = acc[:, :, 0]  # evolution applied to (1, 0)^T
    ns = np.arange(-t, t + 1)
    kernel = np.exp(-1j * np.outer(ns, thetas)) / grid
    # canonical labels swap the component roles of the momentum-space vector
    psi_l = kernel @ vec[:, 0]
    psi_r = kernel @ vec[:, 1]
    return psi_r.real, psi_l.real
