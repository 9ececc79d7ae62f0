"""Tests of the benchmark itself: span analysis, tracer installation, gates.

    python3 -m pytest -q perfbench/tests

The negative controls show that the gates can fail: a verify run with an
injected fault and a perturbed asymptotics row must both be counted as
failed checks.
"""

import json
import math
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_span_stats_two_threads():
    # main thread 1: A [0, 10] with 2 s CPU; worker thread 2: B [1, 4];
    # worker thread 3: C [3, 8] with its own child D [4, 6].  B and C overlap,
    # so A's children cover the union [1, 8], not 3 + 5 s.
    doc = {"names": ["A", "B", "C", "D"], "distinct": {}, "totals": {},
           "spans": [[0, 0.0, 10.0, 1, -1, 2.0],
                     [1, 1.0, 4.0, 2, 0, 3.0],
                     [2, 3.0, 8.0, 3, 0, 1.0],
                     [3, 4.0, 6.0, 3, 2, 2.0]]}
    stats = tracer.span_stats(doc)
    assert stats["A"] == {"calls": 1, "wall_s": 10.0, "self_s": 3.0, "wait_s": 8.0}
    assert stats["B"] == {"calls": 1, "wall_s": 3.0, "self_s": 3.0, "wait_s": 0.0}
    assert stats["C"] == {"calls": 1, "wall_s": 5.0, "self_s": 3.0, "wait_s": 4.0}
    assert stats["D"] == {"calls": 1, "wall_s": 2.0, "self_s": 2.0, "wait_s": 0.0}


def test_worker_span_parent_is_open_main_span():
    tr = tracer.Tracer()
    inner = tr.wrap(tracer.Target("inner", lambda: time.sleep(0.02)))

    def work():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    tr.wrap(tracer.Target("outer", work))()
    names = [tr.names[s[0]] for s in tr.spans]
    assert names == ["outer", "inner", "inner"]
    outer, on_worker, on_main = tr.spans
    assert on_worker[3] != outer[3] and on_main[3] == outer[3]
    assert on_worker[4] is outer and on_main[4] is outer
    assert on_worker[5] < 0.01  # asleep, so its wall time is wait
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spans.json"
        tr.dump(path)
        stats = tracer.span_stats(json.loads(path.read_text()))
    assert stats["inner"]["calls"] == 2
    assert stats["outer"]["self_s"] < stats["outer"]["wall_s"] - 0.03
    assert stats["inner"]["wait_s"] > 0.03


def test_install_rebinds_every_name():
    code = textwrap.dedent("""
        import hadwalk
        from hadwalk import cli, genfun, jacobi, ring, walk
        from tracer import Tracer, install, layer_targets
        originals = (jacobi.jacobi_at, walk.step, cli._suite_symmetry)
        tr = Tracer()
        install(tr, layer_targets())
        assert genfun.jacobi_at is jacobi.jacobi_at is hadwalk.jacobi_at
        assert hadwalk.step is walk.step
        assert cli._SUITES["symmetry"] is cli._suite_symmetry
        assert ring.RationalSeries.__rmul__ is ring.RationalSeries.__mul__
        assert not set(originals) & {jacobi.jacobi_at, walk.step, cli._suite_symmetry}
        genfun.equivalence_ledger(walk.WalkCache(), m_max=1, order=4)
        counts = {}
        for span in tr.spans:
            counts[tr.names[span[0]]] = counts.get(tr.names[span[0]], 0) + 1
        assert counts["jacobi.jacobi_at"] > 0 and counts["ring.mul"] > 0
        print("ok")
    """)
    env = run.child_env()
    env["PYTHONPATH"] += ":" + str(HERE)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_tail_percentile_lies_above_median():
    # ten samples beyond the percentile, and the value above the median
    assert run.tail_percentile(list(range(21))) is None
    for n in (22, 23, 40):
        values = list(range(n))
        pct, value = run.tail_percentile(values)
        assert sum(v > value for v in values) == 10
        assert value > (n - 1) / 2 and pct > 50


def test_benchmark_metrics_are_computable():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [t.name for t in tracer.layer_targets()]
    doc = {"names": names, "spans": [], "distinct": {"jacobi.jacobi_at": 0},
           "totals": {"asymptotics.quadrature_psi": 0}}
    stats = tracer.span_stats(doc)
    for metric in spec["per_layer"]:
        assert run.layer_value(metric["name"], doc, stats, 0.0) == 0
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _good_rows(reference):
    rows = []
    for (alpha, t, n), exact in reference.items():
        rows.append({"alpha": repr(alpha), "t": str(t), "n": str(n),
                     "exact": repr(exact), "asymptotic": repr(exact),
                     "rel_error": repr(1.0 / t), "btilde": "0.99", "b": "0.99",
                     "status": "ok"})
    return rows


def _failed(checks):
    return [name for name, ok in checks if not ok]


def test_asymptotics_gate_accepts_reference_rows():
    reference = workloads.load_reference()
    assert len(reference) == 42
    assert _failed(workloads.check_asymptotics_rows(_good_rows(reference), reference)) == []


def test_perturbed_asymptotics_row_rejected():
    reference = workloads.load_reference()
    perturbations = [("exact", lambda v: repr(float(v) * (1 + 1e-9))),
                     ("b", lambda v: repr(float(v) + 1e-11)),
                     ("rel_error", lambda v: "inf"),
                     ("status", lambda v: "excluded")]
    for field, perturb in perturbations:
        rows = _good_rows(reference)
        rows[5][field] = perturb(rows[5][field])
        assert _failed(workloads.check_asymptotics_rows(rows, reference)), field
    rows = _good_rows(reference)
    del rows[-1]
    assert _failed(workloads.check_asymptotics_rows(rows, reference))
    # an error that stops shrinking as 1/t
    rows = _good_rows(reference)
    for row in rows:
        row["rel_error"] = "0.001"
    assert _failed(workloads.check_asymptotics_rows(rows, reference))


def test_injected_fault_fails_verify_gate():
    with tempfile.TemporaryDirectory() as tmp:
        runner = run.Runner("verify-default", 7, tmp, time.monotonic() + 170,
                            inject_fault=True)
        sample = runner.sample()
    failed = _failed(runner.checks)
    assert sample["result"]["code"] == 1
    assert "suite symmetry passed" in failed and "all_passed" in failed
    assert 0 < len(failed) / len(runner.checks) < 1
    assert not math.isnan(sample["run_s"])
