"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from fractions import Fraction

import pytest

from hadwalk import asymptotics, genfun, jacobi, walk


@pytest.fixture(scope="module")
def cache400():
    c = walk.WalkCache()
    c.state(400)
    return c


class _Line:
    """Prints the criterion verdict even if the assertion machinery re-raises."""

    def __init__(self, tag, description):
        self.tag = tag
        self.description = description
        self.t0 = time.perf_counter()

    def ok(self):
        dt = time.perf_counter() - self.t0
        print(f"{self.tag} PASS  {self.description}  [{dt:.1f}s]")

    def fail(self, detail):
        dt = time.perf_counter() - self.t0
        print(f"{self.tag} FAIL  {self.description}: {detail}  [{dt:.1f}s]")
        raise AssertionError(f"{self.tag}: {detail}")

    def check(self, ledger):
        if not ledger.passed:
            item, witness = ledger.failures[0]
            self.fail(f"{ledger.name}: {len(ledger.failures)} of {ledger.checked} "
                      f"failed, first {item} at {witness}")


def test_ac01_exact_closed_form_equivalence(cache400):
    line = _Line("AC-01", "closed forms == simulator exactly, t <= 60")
    line.check(jacobi.check_closed_forms(cache400, 60))
    line.ok()


def test_ac02_symmetry_relations(cache400):
    line = _Line("AC-02", "reflection relations exact, t <= 60")
    line.check(jacobi.check_reflections(cache400.state(t) for t in range(61)))
    line.ok()


def test_ac03_unitarity_to_t1000():
    line = _Line("AC-03", "sum of squared mantissas == 2^t, t <= 1000")
    state = walk.initial_state()
    for t in range(1, 1001):
        state = walk.step(state)
        if walk.norm_squared_mantissas(state) != 2**t:
            line.fail(f"norm broken at t={t}")
    elapsed = time.perf_counter() - line.t0
    if elapsed >= 60:
        line.fail(f"runtime {elapsed:.1f}s exceeds 60s budget")
    line.ok()


def test_ac04_generating_functions(cache400):
    line = _Line("AC-04", "equivalence chain and bridges exact, m <= 10, order 40")
    chain = genfun.equivalence_ledger(cache400, m_max=10, order=40)
    line.check(chain)
    if chain.checked != 2820:
        line.fail(f"{chain.checked} equivalence checks, expected 2820")
    line.check(genfun.check_intermediate_relations(cache400, 10, 40))
    line.ok()


def test_ac05_jacobi_generating_and_identities():
    line = _Line("AC-05", "generating coefficients k <= 40, r,s in [0,5]; identities")
    line.check(genfun.check_jacobi_generating(k_max=40, rs_max=5))
    identities = jacobi.check_jacobi_identities(m_max=20, uv_max=6)
    line.check(identities)
    if identities.checked != 11025:
        line.fail(f"{identities.checked} identity instances, expected 11025")
    line.ok()


def test_ac06_quadrature_oracle(cache400):
    line = _Line("AC-06", "momentum integrals match simulator to 1e-9, t <= 50")
    ledger = asymptotics.check_quadrature(cache400, 50, tol=1e-9)
    line.check(ledger)
    print(f"      worst quadrature deviation: {ledger.worst:.2e}")
    line.ok()


def test_ac07_decay_base_equivalence():
    line = _Line("AC-07", "btilde == b_pathintegral to 1e-12; limit 1 at 2^-1/2")
    alpha = 0.72
    while alpha <= 0.99 + 1e-12:
        if abs(asymptotics.btilde(alpha) - asymptotics.b_pathintegral(alpha)) > 1e-12:
            line.fail(f"bases differ at alpha={alpha}")
        alpha += 0.001
    if abs(asymptotics.btilde(2**-0.5 + 1e-8) - 1.0) > 1e-6:
        line.fail("limit check at offset 1e-8")
    if abs(asymptotics.btilde(2**-0.5 + 1e-12) - 1.0) > 1e-10:
        line.fail("limit check at offset 1e-12")
    line.ok()


def test_ac08_decay_asymptotics(cache400):
    line = _Line("AC-08", "steepest-descent error <= 0.1 at t=200 and O(1/t)")
    asym_r, _ = asymptotics.psi_asymptotic(160, 200)
    exact200 = walk.mantissa_to_float(cache400.state(200).mantissa_r(160), 200)
    err200 = abs(asym_r / exact200 - 1.0)
    if err200 > 0.1:
        line.fail(f"relative error {err200:.3f} at (160, 200)")
    if asym_r * exact200 <= 0:
        line.fail("sign mismatch at (160, 200)")
    asym_r400, _ = asymptotics.psi_asymptotic(320, 400)
    exact400 = walk.mantissa_to_float(cache400.state(400).mantissa_r(320), 400)
    err400 = abs(asym_r400 / exact400 - 1.0)
    ratio = err400 / err200
    if not 0.3 <= ratio <= 0.8:
        line.fail(f"error ratio {ratio:.3f} outside [0.3, 0.8]")
    print(f"      rel errors: {err200:.4f} (t=200), {err400:.4f} (t=400), ratio {ratio:.3f}")
    line.ok()


def test_ac09_growth_rates():
    line = _Line("AC-09", "|e^(-i omega)| at v=20 within factor 2 of both asymptotes")
    inner = asymptotics.growth_check(0.0, 20.0, 1)
    ref_inner = math.exp(20.0) / math.sqrt(2.0)
    if not 0.5 <= inner / ref_inner <= 2.0:
        line.fail(f"inner-strip ratio {inner / ref_inner:.3f}")
    outer = asymptotics.growth_check(math.pi, 20.0, 1)
    ref_outer = math.sqrt(2.0) * math.exp(-20.0)
    if not 0.5 <= outer / ref_outer <= 2.0:
        line.fail(f"outer-strip ratio {outer / ref_outer:.3f}")
    line.ok()


def test_ac10_contour_shift():
    line = _Line("AC-10", "shifted contour == real line to 1e-8 at (14,18), (160,200)")
    for n, t in [(14, 18), (160, 200)]:
        rep = asymptotics.contour_shift_check(n, t, tol=1e-8)
        if not rep.passed:
            line.fail(f"difference {rep.difference:.2e} at (n={n}, t={t})")
    line.ok()


def test_ac11_lagrange_inversion():
    line = _Line("AC-11", "tree/w^2 coefficients exact to n=20; implicit series order 40")
    line.check(genfun.check_lagrange(order=20, implicit_order=40))
    line.ok()


def test_ac12_peak_location(cache400):
    line = _Line("AC-12", "t=100 distribution: right peak in [62,72], tail < 1e-3 peak")
    state = cache400.state(100)
    probs = {n: walk.probability(state, n) for n in state.positions()
             if (n - 100) % 2 == 0}
    right_peak = max((p for n, p in probs.items() if n > 0))
    argmax_right = max((n for n, p in probs.items() if n > 0 and p == right_peak))
    if not 62 <= argmax_right <= 72:
        line.fail(f"argmax over n>0 is {argmax_right}")
    peak = max(probs.values())
    if probs[90] >= peak * Fraction(1, 1000):
        line.fail(f"prob(90)/peak = {float(probs[90] / peak):.2e}")
    line.ok()
