"""The benchmark's three workloads and the correctness gates on their outputs.

Each workload has a ``run`` that executes inside a fresh child process (after
``import hadwalk``) and writes its output into a directory, and a ``check``
that reads that output in run.py, outside the timed region, and returns
``(check name, passed)`` pairs.  Sizes are fixed; see README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ASYMPTOTICS_REFERENCE = os.path.join(HERE, "reference", "asymptotics-t2000.json")

VERIFY_REPORT = "report.json"
ASYMPTOTICS_TABLE = "decay.csv"
LEDGER_SUMMARY = "ledger.json"

ASYMPTOTICS_ARGS = ["--alpha-start", "0.72", "--alpha-stop", "0.98",
                    "--alpha-step", "0.02", "--t", "500,1000,2000"]
ASYMPTOTICS_TIMES = (500, 1000, 2000)

VERIFY_SUITES = ("exact-equivalence", "generating-function", "jacobi-identity",
                 "lagrange", "quadrature", "symmetry")
VERIFY_IDENTITY_INSTANCES = 11025
VERIFY_EQUIVALENCE_CHECKS = 1110
LEDGER_CHECKS = 2820

DECAY_BASE_TOL = 1e-12
EXACT_REL_TOL = 1e-12
# rel_error(2t) / rel_error(t) for the O(1/t) law; 0.5 exactly in the limit.
HALVING_RANGE = (0.4, 0.6)


@dataclass(frozen=True)
class Workload:
    run: Callable      # (seed, outdir, inject_fault) -> exit code, in the child
    check: Callable    # (outdir, seed, exit code) -> [(name, passed)], in run.py


def _run_verify(seed: int, outdir: str, inject_fault: bool) -> int:
    from hadwalk import cli

    argv = ["verify", "--report", os.path.join(outdir, VERIFY_REPORT),
            "--seed", str(seed)]
    return cli.main(argv + (["--inject-fault"] if inject_fault else []))


def _leading_int(text: str) -> int | None:
    head = text.split(" ", 1)[0]
    return int(head) if head.isdigit() else None


def check_verify(outdir: str, seed: int, code: int) -> list:
    checks = [("exit code 0", code == 0)]
    try:
        with open(os.path.join(outdir, VERIFY_REPORT)) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return checks + [("report readable", False)]
    config = report.get("config", {})
    suites = report.get("suites", {})
    checks.append(("default config with the run's seed",
                   (config.get("t_max"), config.get("order"), config.get("m_max"),
                    config.get("quad_t_max"), config.get("seed"),
                    config.get("inject_fault")) == (40, 24, 6, 24, seed, False)))
    checks.append(("all_passed", report.get("all_passed") is True))
    for name in VERIFY_SUITES:
        checks.append((f"suite {name} passed",
                       suites.get(name, {}).get("passed") is True))
    identity = suites.get("jacobi-identity", {}).get("detail", "")
    checks.append((f"{VERIFY_IDENTITY_INSTANCES} identity instances",
                   _leading_int(identity) == VERIFY_IDENTITY_INSTANCES))
    ledger = suites.get("generating-function", {}).get("detail", "")
    checks.append((f"{VERIFY_EQUIVALENCE_CHECKS} equivalence checks",
                   _leading_int(ledger) == VERIFY_EQUIVALENCE_CHECKS))
    return checks


def _run_asymptotics(seed: int, outdir: str, inject_fault: bool) -> int:
    from hadwalk import cli

    return cli.main(["asymptotics", *ASYMPTOTICS_ARGS,
                     "--out", os.path.join(outdir, ASYMPTOTICS_TABLE)])


def _float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _int(text) -> int | None:
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def load_reference() -> dict:
    """Exact column recorded from the walk simulator, keyed by (alpha, t, n)."""
    with open(ASYMPTOTICS_REFERENCE) as fh:
        rows = json.load(fh)
    return {(r["alpha"], r["t"], r["n"]): r["exact"] for r in rows}


def check_asymptotics_rows(rows: list, reference: dict) -> list:
    """Gate on the decay table: values are compared, never bytes."""
    checks = [(f"{len(reference)} rows", len(rows) == len(reference))]
    rel_errors = {}
    for row in rows:
        where = f"alpha={row.get('alpha')} t={row.get('t')}"
        key = (_float(row.get("alpha")), _int(row.get("t")), _int(row.get("n")))
        btilde, b = _float(row.get("btilde")), _float(row.get("b"))
        rel = _float(row.get("rel_error"))
        exact, want = _float(row.get("exact")), reference.get(key)
        checks.append((f"{where} status ok", row.get("status") == "ok"))
        checks.append((f"{where} |btilde - b| <= {DECAY_BASE_TOL:g}",
                       abs(btilde - b) <= DECAY_BASE_TOL))
        checks.append((f"{where} rel_error finite", math.isfinite(rel)))
        checks.append((f"{where} exact matches reference",
                       want is not None
                       and abs(exact - want) <= EXACT_REL_TOL * abs(want)))
        rel_errors[key[:2]] = rel
    alphas = sorted({alpha for alpha, _t in rel_errors})
    lo, hi = HALVING_RANGE
    for alpha in alphas:
        for t in ASYMPTOTICS_TIMES[:-1]:
            ratio = (rel_errors.get((alpha, 2 * t), math.nan)
                     / rel_errors.get((alpha, t), math.nan))
            checks.append((f"alpha={alpha} rel_error halves from t={t} to {2 * t}",
                           lo <= ratio <= hi))
    return checks


def check_asymptotics(outdir: str, seed: int, code: int) -> list:
    checks = [("exit code 0", code == 0)]
    try:
        with open(os.path.join(outdir, ASYMPTOTICS_TABLE), newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return checks + [("table readable", False)]
    return checks + check_asymptotics_rows(rows, load_reference())


def _run_ledger(seed: int, outdir: str, inject_fault: bool) -> int:
    from hadwalk import genfun, walk

    report = genfun.equivalence_ledger(walk.WalkCache(), m_max=10, order=40)
    with open(os.path.join(outdir, LEDGER_SUMMARY), "w") as fh:
        json.dump({"passed": report.passed, "checked": report.checked,
                   "failures": [list(map(str, f)) for f in report.failures]}, fh)
    return 0


def check_ledger(outdir: str, seed: int, code: int) -> list:
    checks = [("exit code 0", code == 0)]
    try:
        with open(os.path.join(outdir, LEDGER_SUMMARY)) as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        return checks + [("summary readable", False)]
    return checks + [("passed", summary.get("passed") is True),
                     (f"checked == {LEDGER_CHECKS}",
                      summary.get("checked") == LEDGER_CHECKS)]


WORKLOADS = {
    "verify-default": Workload(_run_verify, check_verify),
    "asymptotics-t2000": Workload(_run_asymptotics, check_asymptotics),
    "genfun-ledger": Workload(_run_ledger, check_ledger),
}
