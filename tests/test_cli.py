import ast
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hadwalk
from hadwalk import cli, jacobi, walk
from hadwalk.cli import VerifyConfig, main

DATA = Path(__file__).parent / "data"


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_t0_single_row(self, tmp_path):
        out = tmp_path / "walk.csv"
        assert main(["simulate", "--t", "0", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["n"] == "0"
        assert rows[0]["prob"] == "1/1"
        assert rows[0]["psiL"] == "1*2^(-0/2)"

    def test_exact_columns_reconstruct(self, tmp_path):
        out = tmp_path / "walk.csv"
        main(["simulate", "--t", "6", "--out", str(out)])
        rows = read_csv(out)
        total = sum(Fraction(r["prob"]) for r in rows)
        assert total == 1
        for r in rows:
            mant, _, tail = r["psiR"].partition("*2^(-")
            assert tail == "6/2)"
            int(mant)  # mantissa parses as an integer

    def test_orientation_flag(self, tmp_path):
        out_c = tmp_path / "c.csv"
        out_p = tmp_path / "p.csv"
        main(["simulate", "--t", "1", "--out", str(out_c)])
        main(["simulate", "--t", "1", "--orientation", "as-printed",
              "--out", str(out_p)])
        canon = {r["n"]: r for r in read_csv(out_c)}
        printed = {r["n"]: r for r in read_csv(out_p)}
        assert canon["1"]["psiR"] == "1*2^(-1/2)"
        assert canon["-1"]["psiL"] == "1*2^(-1/2)"
        assert printed["-1"]["psiR"] == "1*2^(-1/2)"
        assert printed["-1"]["psiL"] == "-1*2^(-1/2)"

    @pytest.mark.parametrize("orientation", ["canonical", "as-printed"])
    def test_table_pinned(self, tmp_path, orientation):
        out = tmp_path / "walk.csv"
        code = main(["simulate", "--t", "40", "--orientation", orientation,
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA / f"simulate-t40-{orientation}.csv").read_bytes()

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["simulate", "--t", "25", "--out", str(a)])
        main(["simulate", "--t", "25", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_svg_plot(self, tmp_path):
        out = tmp_path / "walk.csv"
        svg = tmp_path / "walk.svg"
        main(["simulate", "--t", "12", "--out", str(out), "--plot", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "rect" in text

    def test_svg_plot_pinned(self, tmp_path):
        out = tmp_path / "walk.csv"
        svg = tmp_path / "walk.svg"
        assert main(["simulate", "--t", "40", "--out", str(out), "--plot", str(svg)]) == 0
        assert svg.read_bytes() == (DATA / "simulate-t40.svg").read_bytes()

    def test_unwritable_path_exits_2(self, tmp_path):
        code = main(["simulate", "--t", "2", "--out",
                     str(tmp_path / "missing" / "walk.csv")])
        assert code == 2

    @pytest.mark.parametrize("bad", ["--out", "--plot"])
    def test_unwritable_path_leaves_no_file(self, tmp_path, capsys, bad):
        # either path failing exits 2 and leaves neither file
        paths = {"--out": tmp_path / "walk.csv", "--plot": tmp_path / "walk.svg"}
        paths[bad] = tmp_path / "missing" / "walk"
        code = main(["simulate", "--t", "4", "--out", str(paths["--out"]),
                     "--plot", str(paths["--plot"])])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("I/O error: ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_plot_keeps_an_existing_table(self, tmp_path):
        # only a table that the failed run created is removed
        table = tmp_path / "walk.csv"
        table.write_text("kept\n")
        code = main(["simulate", "--t", "4", "--out", str(table),
                     "--plot", str(tmp_path / "missing" / "walk.svg")])
        assert code == 2 and table.exists()

    def test_negative_t_exits_2(self, tmp_path):
        code = main(["simulate", "--t", "-3", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_svg_plot_is_linear(self, tmp_path):
        # the extremes are read once, not once per bar; a rescan per bar makes
        # 40,001 bars take over 20 s on a 2-vCPU VM
        pairs = [(n, 1.0 / (1 + abs(n))) for n in range(-40_000, 40_001, 2)]
        start = time.perf_counter()
        cli._write_svg_bars(str(tmp_path / "wide.svg"), pairs, "wide")
        assert time.perf_counter() - start < 2.0


def run_pinned_verify(tmp_path, pinned, args):
    """Run verify; its report must equal the bytes pinned in tests/data."""
    report = tmp_path / "report.json"
    code = main(["verify", *args, "--report", str(report)])
    assert report.read_bytes() == (DATA / pinned).read_bytes()
    return code, json.loads(report.read_text())


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        code, data = run_pinned_verify(
            tmp_path, "verify-pass.json",
            ["--t-max", "12", "--order", "8", "--m-max", "2", "--quad-t-max", "6"])
        assert code == 0 and data["all_passed"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == ("PASS jacobi-identity: 5733 identity instances exact; "
                            "checked=5877")
        assert lines[4] == ("PASS quadrature: max deviation 4.233e-16 through t=6; "
                            "checked=28 worst=4.233e-16 tol=1e-09")

    def test_fault_injection_fails_symmetry(self, tmp_path):
        code, data = run_pinned_verify(
            tmp_path, "verify-inject-fault.json",
            ["--t-max", "12", "--order", "8", "--m-max", "2", "--quad-t-max", "4",
             "--inject-fault"])
        assert code == 1
        failed = [name for name, s in data["suites"].items() if not s["passed"]]
        assert failed == ["symmetry"]
        assert data["suites"]["symmetry"]["witness"] == {"n": -2, "t": 6}

    @pytest.mark.parametrize("t_max", range(1, 13))
    def test_fault_injection_fails_at_every_t_max(self, tmp_path, t_max):
        # at an odd t_max // 2 position 0 is off the parity lattice
        report = tmp_path / "report.json"
        code = main(["verify", "--t-max", str(t_max), "--order", "0", "--quad-t-max", "0",
                     "--inject-fault", "--report", str(report)])
        assert code == 1
        data = json.loads(report.read_text())
        assert [name for name, s in data["suites"].items() if not s["passed"]] == ["symmetry"]

    def test_degenerate_run_flagged_vacuous(self, tmp_path):
        code, data = run_pinned_verify(
            tmp_path, "verify-vacuous.json",
            ["--t-max", "0", "--order", "0", "--quad-t-max", "0"])
        assert code == 0
        assert all(s["vacuous"] for s in data["suites"].values())

    def test_default_config_report(self, tmp_path):
        code, data = run_pinned_verify(tmp_path, "verify-default.json", [])
        assert code == 0 and data["all_passed"]
        # the library's defaults and the flags' defaults are the pinned config,
        # value and type
        def typed(config):
            return {name: (type(value), value) for name, value in config.items()}

        _, args = cli.parse_args(["verify", "--report", "-"])
        assert typed(VerifyConfig()._asdict()) == typed(data["config"])
        assert typed({name: getattr(args, name) for name in VerifyConfig._fields}) == \
            typed(data["config"])

    def test_ledger_scale_report(self, tmp_path):
        # the 2,820-check equivalence ledger at order 40, m_max 10
        code, data = run_pinned_verify(tmp_path, "verify-order40.json",
                                       ["--order", "40", "--m-max", "10"])
        assert code == 0 and data["all_passed"]
        assert data["suites"]["generating-function"]["detail"] == "2820 equivalence checks exact"

    def test_closed_form_sweep_report(self, tmp_path, capsys):
        # exact-equivalence over the 13,121 positions and centers of t <= 160,
        # pinned from the closed forms that summed every numerator per call
        code, data = run_pinned_verify(tmp_path, "verify-t160.json",
                                       ["--t-max", "160", "--quad-t-max", "0"])
        assert code == 0 and data["all_passed"]
        assert capsys.readouterr().out.splitlines()[0] == (
            "PASS exact-equivalence: all amplitudes equal through t=160; checked=13121")

    @pytest.mark.parametrize("flag, value", [
        ("--t-max", "-1"), ("--order", "-1"), ("--m-max", "-3"),
        ("--quad-t-max", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-inf"),
        ("--tol", "0"), ("--tol", "-1"), ("--m-max", "4"), ("--m-max", "9")],
        ids=["t-max", "order", "m-max", "quad-t-max", "tol-nan", "tol-inf", "tol-minus-inf",
             "tol-zero", "tol-negative", "order-at-m-max", "order-below-m-max"])
    def test_bad_config_exits_2(self, tmp_path, capsys, flag, value):
        report = tmp_path / "report.json"
        code = main(["verify", "--t-max", "6", "--order", "4", "--m-max", "1",
                     "--quad-t-max", "2", f"{flag}={value}", "--report", str(report)])
        assert code == 2 and not report.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0]

    def test_library_config_rejects_negative_size(self):
        with pytest.raises(ValueError, match="--t-max"):
            VerifyConfig(t_max=-1)

    def test_library_config_rejects_order_below_m_max(self):
        # the bridge relations need order >= m_max + 1
        with pytest.raises(ValueError, match="--order .* --m-max"):
            VerifyConfig(order=4)

    def test_tol_floor_applies_only_to_the_quadrature_suite(self):
        # check_quadrature asks each row for tol/10, and the rows accept >= 1e-14
        assert VerifyConfig(tol=1e-13).tol == 1e-13
        assert VerifyConfig(tol=5e-14, quad_t_max=0).tol == 5e-14
        with pytest.raises(ValueError, match="--tol >= 1e-13"):
            VerifyConfig(tol=5e-14)

    def test_make_and_replace_run_the_checks(self):
        # namedtuple builds these without __new__ unless _make goes through it
        with pytest.raises(ValueError, match="--order .* --m-max"):
            VerifyConfig()._replace(order=4)
        with pytest.raises(ValueError, match="--t-max"):
            VerifyConfig._make((-1, 24, 6, 24, 1e-9, 0, False))
        assert VerifyConfig()._replace(order=30).order == 30

    def test_deterministic_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["verify", "--t-max", "8", "--order", "6", "--m-max", "1",
                "--quad-t-max", "4"]
        main(args + ["--report", str(a)])
        main(args + ["--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_report_to_stdout(self, tmp_path, capsys):
        code = main(["verify", "--t-max", "6", "--order", "4", "--m-max", "1",
                     "--quad-t-max", "2", "--report", "-"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["all_passed"] is True
        # the suite lines move to stderr, ahead of the timings
        assert captured.err.splitlines()[0].startswith("PASS exact-equivalence: ")

    def test_suite_seconds_on_stderr(self, tmp_path, capsys):
        code, _ = run_pinned_verify(
            tmp_path, "verify-pass.json",
            ["--t-max", "12", "--order", "8", "--m-max", "2", "--quad-t-max", "6"])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert [line.partition(": ")[0] for line in lines] == [
            f"time {name}" for name in sorted(cli._SUITES)]
        for line in lines:
            seconds, unit = line.partition(": ")[2].split(" ")
            assert float(seconds) >= 0 and unit == "s"
        assert "time" not in captured.out


# pinned report -> the verify flags that wrote it
PINNED_REPORTS = {
    "verify-pass.json": ["--t-max", "12", "--order", "8", "--m-max", "2", "--quad-t-max", "6"],
    "verify-inject-fault.json": ["--t-max", "12", "--order", "8", "--m-max", "2",
                                 "--quad-t-max", "4", "--inject-fault"],
    "verify-vacuous.json": ["--t-max", "0", "--order", "0", "--quad-t-max", "0"],
    "verify-default.json": [],
}
SMALL_RUN = ["verify", "--t-max", "6", "--order", "4", "--m-max", "1", "--quad-t-max", "2"]


def counted_forks(monkeypatch, forked: bool) -> list:
    """Sets which path run_verify takes; the list gets one entry per fork."""
    monkeypatch.setattr(cli, "_two_cpus_usable", lambda: forked)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raises_boom(cfg, cache):
    raise ValueError("boom")


def _exits_3(cfg, cache):
    os._exit(3)


def _raises_type_error(cfg, cache):
    raise TypeError("not a suite result")


def _sends_200_kb(cfg, cache):
    return {"passed": True, "vacuous": False, "detail": "x" * 200_000}, []


class TestVerifyPaths:
    """run_verify forks the suites of _FORKED_SUITES when two CPUs are usable,
    and runs all of them in process otherwise; both write the same bytes."""

    @pytest.mark.parametrize("pinned", sorted(PINNED_REPORTS))
    def test_both_paths_write_the_same_bytes(self, tmp_path, capsys, monkeypatch, pinned):
        outputs = []
        for forked in (True, False):
            forks = counted_forks(monkeypatch, forked)
            code, data = run_pinned_verify(tmp_path, pinned, PINNED_REPORTS[pinned])
            assert len(forks) == forked
            captured = capsys.readouterr()
            assert [line.partition(": ")[0] for line in captured.err.splitlines()] == [
                f"time {name}" for name in sorted(cli._SUITES)]
            outputs.append((code, captured.out))
            if pinned == "verify-inject-fault.json":  # symmetry runs in the child
                assert "symmetry" in cli._FORKED_SUITES
                assert data["suites"]["symmetry"]["witness"] == {"n": -2, "t": 6}
        assert outputs[0] == outputs[1]
        assert [line.partition(":")[0].split()[1] for line in outputs[0][1].splitlines()] == \
            sorted(cli._SUITES)
        assert_no_child_left()

    @pytest.mark.parametrize("suite, replacement, says", [
        ("symmetry", _raises_boom, "configuration error: boom"),
        ("symmetry", _exits_3, "I/O error: verify's forked suites exited with status 3 "),
        ("lagrange", _raises_boom, "configuration error: boom"),
    ], ids=["child-raises", "child-exits", "caller-raises"])
    def test_a_failed_half_keeps_the_exit_code_contract(self, tmp_path, capsys, monkeypatch,
                                                        suite, replacement, says):
        assert "symmetry" in cli._FORKED_SUITES and "lagrange" not in cli._FORKED_SUITES
        forks = counted_forks(monkeypatch, True)
        monkeypatch.setitem(cli._SUITES, suite, replacement)
        report = tmp_path / "report.json"
        assert main([*SMALL_RUN, "--report", str(report)]) == 2
        assert len(forks) == 1 and not report.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(says)
        assert_no_child_left()

    def test_a_result_beyond_the_pipe_buffer_arrives(self, tmp_path, capsys, monkeypatch):
        # the caller reads the pipe to EOF before it waits for the child
        counted_forks(monkeypatch, True)
        monkeypatch.setitem(cli._SUITES, "symmetry", _sends_200_kb)
        report, ledgers, seconds = cli.run_verify(VerifyConfig(t_max=6, order=4, m_max=1,
                                                               quad_t_max=2))
        assert report["suites"]["symmetry"]["detail"] == "x" * 200_000
        assert ledgers["symmetry"] == [] and list(seconds) == sorted(cli._SUITES)
        assert_no_child_left()

    def test_a_child_error_shows_the_child_frame(self, monkeypatch):
        # the child's traceback text is the cause of the error raised again here
        assert "symmetry" in cli._FORKED_SUITES
        counted_forks(monkeypatch, True)
        monkeypatch.setitem(cli._SUITES, "symmetry", _raises_type_error)
        with pytest.raises(TypeError, match="not a suite result") as raised:
            cli.run_verify(VerifyConfig(t_max=6, order=4, m_max=1, quad_t_max=2))
        cause = raised.value.__cause__
        assert isinstance(cause, cli._ChildTraceback)
        assert ", in _raises_type_error\n    raise TypeError(" in str(cause)
        assert_no_child_left()

    def test_one_cpu_or_no_affinity_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not cli._two_cpus_usable()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._two_cpus_usable()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert not cli._two_cpus_usable()


class TestAsymptoticsCmd:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "asym.csv"
        code = main(["asymptotics", "--alpha-start", "0.75", "--alpha-stop",
                     "0.85", "--alpha-step", "0.05", "--t", "60,120",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6
        ok_rows = [r for r in rows if r["status"] == "ok"]
        assert ok_rows
        for r in ok_rows:
            assert abs(float(r["btilde"]) - float(r["b"])) <= 1e-12
            assert float(r["rel_error"]) < 0.5

    def test_excluded_rows_flagged(self, tmp_path):
        out = tmp_path / "asym.csv"
        main(["asymptotics", "--alpha-start", "0.7072", "--alpha-stop",
              "0.7072", "--alpha-step", "1.0", "--t", "40", "--out", str(out)])
        rows = read_csv(out)
        assert rows[0]["status"] == "excluded"
        assert rows[0]["asymptotic"] == ""

    def test_underflow_rows_compare_nothing(self, tmp_path):
        # at alpha 0.9, t = 8000 both amplitudes are below the normal floats
        # (~3e-536): the row is compared on their logs, not left without a
        # rel_error, and prints each amplitude as a decimal read from its log
        out = tmp_path / "asym.csv"
        code = main(["asymptotics", "--alpha-start", "0.8", "--alpha-stop", "0.9",
                     "--alpha-step", "0.1", "--t", "4000,8000", "--out", str(out)])
        assert code == 0
        rows = {(r["alpha"][:3], r["t"]): r for r in read_csv(out)}
        assert len(rows) == 4
        for r in rows.values():
            assert r["status"] == "ok"
            assert 0 < float(r["rel_error"]) < 1e-3
        low = rows[("0.9", "8000")]
        assert low["exact"].endswith("e-536") and low["asymptotic"].endswith("e-536")
        exact = Fraction(jacobi.psi_closed_r(7200, 8000), 2**4000)
        assert abs(Fraction(low["exact"]) / exact - 1) < 1e-10

    def test_exact_cells_are_correctly_rounded(self, tmp_path):
        # every exact cell is mantissa / 2^(t/2) rounded: a normal float cell
        # is the nearest float, and below the normal floats a decimal printed
        # from the mantissa's integers, within 1e-16
        out = tmp_path / "asym.csv"
        assert main(["asymptotics", "--alpha-start", "0.72", "--alpha-stop", "0.99",
                     "--alpha-step", "0.03", "--t", "4000,8000", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 20
        below = 0
        with localcontext() as ctx:
            ctx.prec = 40
            for r in rows:
                n, t = int(r["n"]), int(r["t"])
                mantissa = jacobi.psi_closed_r(n, t)
                if abs(Fraction(mantissa, 2 ** (t // 2))) >= sys.float_info.min:
                    assert float(r["exact"]) == float(Fraction(mantissa, 2 ** (t // 2))), r
                    continue
                below += 1
                want = Decimal(mantissa) / Decimal(2) ** (t // 2)
                assert abs(Decimal(r["exact"]) / want - 1) < Decimal("1e-16"), r
        assert below == 8

    def test_bad_t_list_exits_2(self, tmp_path):
        code = main(["asymptotics", "--alpha-start", "0.8", "--alpha-stop",
                     "0.8", "--alpha-step", "1.0", "--t", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("start, stop, step", [
        ("0.75", "0.85", "0"), ("0.75", "0.85", "-0.05"), ("0.85", "0.75", "0.05"),
        ("0.75", "inf", "0.05"), ("-inf", "0.85", "0.05"), ("0.75", "0.85", "inf"),
        ("1e308", "1e308", "1"), ("-1e308", "1e308", "1e308")],
        ids=["zero-step", "negative-step", "reversed-range", "stop-inf", "start-minus-inf",
             "step-inf", "alpha-times-t-overflows", "row-count-overflows"])
    def test_empty_alpha_grid_exits_2(self, tmp_path, capsys, start, stop, step):
        out = tmp_path / "x.csv"
        code = main(["asymptotics", f"--alpha-start={start}", f"--alpha-stop={stop}",
                     f"--alpha-step={step}", "--t", "40", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
    def test_bad_eps_exits_2(self, tmp_path, capsys, eps):
        # a NaN or negative width switches the transition-zone guard off
        out = tmp_path / "x.csv"
        code = main(["asymptotics", "--alpha-start", "0.70", "--alpha-stop", "0.72",
                     "--alpha-step", "0.001", "--t", "1000", f"--eps={eps}",
                     "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--eps" in err[0]

    def test_grid_pinned(self, tmp_path):
        # covers n outside the light cone (|alpha| > 1), negative n, excluded
        # rows, and an unsorted --t list with a duplicate; the odd times pin the
        # rounding of amplitudes with an odd power of sqrt(2)
        for times, pinned in (("40,10,120,40", "asymptotics-grid.csv"),
                              ("41,9,121", "asymptotics-grid-odd.csv")):
            out = tmp_path / pinned
            code = main(["asymptotics", "--alpha-start=-1.1", "--alpha-stop", "1.1",
                         "--alpha-step", "0.1", "--t", times, "--out", str(out)])
            assert code == 0
            assert out.read_bytes() == (DATA / pinned).read_bytes()

    def test_benchmark_grid_pinned(self, tmp_path):
        # the asymptotics-t2000 benchmark's table, byte for byte: psi_closed_r
        # at degrees up to 280 (alpha 0.72, t = 2000)
        out = tmp_path / "decay.csv"
        code = main(["asymptotics", "--alpha-start", "0.72", "--alpha-stop", "0.98",
                     "--alpha-step", "0.02", "--t", "500,1000,2000", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA / "asymptotics-t2000.csv").read_bytes()

    def test_exact_column_matches_simulator(self, tmp_path):
        # the simulator stays the ground truth for the closed form the command
        # reads: on the benchmark grid both agree exactly at every row
        out = tmp_path / "decay.csv"
        code = main(["asymptotics", "--alpha-start", "0.72", "--alpha-stop", "0.98",
                     "--alpha-step", "0.02", "--t", "500,1000,2000", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 42
        state = walk.initial_state()
        for t in (500, 1000, 2000):
            state = walk.evolve(state, t - state.t)
            for row in (r for r in rows if int(r["t"]) == t):
                n = int(row["n"])
                assert jacobi.psi_closed_r(n, t) == state.mantissa_r(n)
                assert float(row["exact"]) == walk.mantissa_to_float(state.mantissa_r(n), t)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_memory_follows_one_state(self, tmp_path):
        # every state up to t=1500 would take ~280 MB; the closed form takes
        # one row at a time and holds no state
        src = str(Path(hadwalk.__file__).parents[1])
        code = (
            "import resource, sys\n"
            "from hadwalk.cli import main\n"
            "assert main(['asymptotics', '--alpha-start', '0.8', '--alpha-stop', '0.8',"
            " '--alpha-step', '1', '--t', '1500', '--out', sys.argv[1]]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.csv")],
                             cwd=src, check=True, capture_output=True, text=True).stdout
        assert int(out) < 100 * 1024

    def test_rows_written_as_made(self, monkeypatch):
        # each row is in the file before the next row's exact value is computed
        class Sink(io.StringIO):
            def close(self):
                pass

        sink = Sink()
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: sink, raising=False)
        lines_at_call = []
        psi_closed_r = jacobi.psi_closed_r

        def spy(n, t):
            lines_at_call.append((t, sink.getvalue().count("\n")))
            return psi_closed_r(n, t)

        monkeypatch.setattr(jacobi, "psi_closed_r", spy)
        code = main(["asymptotics", "--alpha-start", "0.75", "--alpha-stop", "0.85",
                     "--alpha-step", "0.05", "--t", "60,120", "--out", "unused.csv"])
        assert code == 0
        # the header, then one more line per row; the t=60 rows precede t=120's
        assert lines_at_call == [(60, 1), (60, 2), (60, 3), (120, 4), (120, 5), (120, 6)]
        assert sink.getvalue().count("\n") == 7

    def test_deterministic_table(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["asymptotics", "--alpha-start", "0.75", "--alpha-stop", "0.85",
                "--alpha-step", "0.05", "--t", "80"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPackage:
    def test_runs_without_numpy(self, tmp_path):
        # the package has no runtime dependency; numpy is a test-only reference
        src = str(Path(hadwalk.__file__).parents[1])
        report, table = tmp_path / "verify.json", tmp_path / "decay.csv"
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from hadwalk.cli import main\n"
            "assert main(['verify', '--report', sys.argv[1]]) == 0\n"
            "assert main(['asymptotics', '--alpha-start=-1.1', '--alpha-stop', '1.1',\n"
            "             '--alpha-step', '0.1', '--t', '40,10,120,40',\n"
            "             '--out', sys.argv[2]]) == 0\n"
            "print('mpmath' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code, str(report), str(table)],
                             cwd=src, check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "False"
        assert report.read_bytes() == (DATA / "verify-default.json").read_bytes()
        assert table.read_bytes() == (DATA / "asymptotics-grid.csv").read_bytes()

    def test_import_generates_no_code(self):
        # the records are namedtuples and plain classes, annotations stay
        # strings and the flags are one table, so importing the package and
        # its CLI needs none of these
        src = str(Path(hadwalk.__file__).parents[1])
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import hadwalk, hadwalk.cli\n"
                "print(sorted({'argparse', 'dataclasses', 'inspect', 'typing', 'numpy',\n"
                "              'pickle'}\n"
                "             & set(sys.modules)))\n")
        # -S: no site, whose .pth files may load typing themselves; -B: -E drops
        # PYTHONDONTWRITEBYTECODE, and the test must leave no .pyc in src
        out = subprocess.run([sys.executable, "-B", "-E", "-S", "-c", code, src],
                             check=True, capture_output=True, text=True).stdout
        assert out.splitlines() == ["[]"]

    # public names that only tests call, each kept for a stated reason
    TEST_ONLY = {
        "binomial": "a per-layer span of perfbench/tracer.py",
        "closed_form_series": "a per-layer span of perfbench/tracer.py",
        "psi_closed_l": "psi_closed_r's other chirality at every (n, t); a tracer span",
        "check_contour_shift": "waits for verify to check the steepest-descent law",
    }

    def test_every_public_name_has_a_caller(self):
        # a name in a module's __all__ must be read somewhere in src/hadwalk
        # besides its own definition, its __all__ entry and the package's
        # re-export (the last two are a string and an import, not reads)
        trees = [ast.parse(path.read_text())
                 for path in Path(hadwalk.__file__).parent.glob("*.py")
                 if path.name != "__init__.py"]

        def reads(node):
            return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                           for sub in ast.walk(node)
                           if isinstance(sub, ast.Attribute)
                           or isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))

        everywhere = sum(map(reads, trees), Counter())
        uncalled = set()
        for tree in trees:
            defs = {node.name: node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and getattr(node.targets[0], "id", None) == "__all__"):
                    for name in ast.literal_eval(node.value):
                        own = reads(defs[name])[name] if name in defs else 0
                        if everywhere[name] == own:
                            uncalled.add(name)
        assert sorted(uncalled - set(self.TEST_ONLY)) == []
        assert set(self.TEST_ONLY) <= uncalled  # a name that gains a caller leaves the list


# Every token below parses as its flag's type, written as --flag=value or as
# --flag value (a value such as "-inf" may start with one "-"), so each vector
# reaches the command.
# Per subcommand: flag -> (valid values, special values); None omits the flag.
SPECIAL = ["-1", "0", "nan", "inf", "-inf", "1e308", "-1e308"]
BAD_PATHS = ["{missing}", "{dir}"]
COMMANDS = {
    "simulate": {
        "--t": ([0, 1, 7, 50], [-1, -3]),
        "--orientation": (["canonical", "as-printed"], []),
        "--out": (["{ok}"], BAD_PATHS),
        "--plot": ([None, "{ok}"], BAD_PATHS),
    },
    "verify": {
        "--t-max": (range(7), [-1, -2]),
        "--order": (range(7), [-1]),
        "--m-max": (range(7), [-3]),
        "--quad-t-max": (range(3), [-1]),
        "--tol": (["1e-9", "1e308"], ["nan", "inf", "-inf", "0", "-1", "-1e308", "5e-14"]),
        "--seed": (range(3), []),
        "--inject-fault": ([None, ""], []),
        "--report": (["{ok}", "-"], BAD_PATHS),
    },
    # at most 22 alphas over at most two times up to 200: a special step or
    # bound leaves the grid empty, overflowing, one row long or at most 22 long
    "asymptotics": {
        "--alpha-start": (["-0.9", "0.72"], SPECIAL),
        "--alpha-stop": (["0.9", "1.1"], SPECIAL),
        "--alpha-step": (["0.1"], SPECIAL),
        "--t": (["40", "200,50", "1,,2"], [",", "abc", "0", "-5", "1" + "0" * 400]),
        "--eps": (["1e-3", "0"], SPECIAL),
        "--out": (["{ok}"], BAD_PATHS),
    },
}


@st.composite
def argvs(draw):
    """A valid argument vector with at most one flag given a special value,
    each value in its own token or after "=", drawn per vector."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    values = {name: draw(st.sampled_from(list(valid))) for name, (valid, _) in flags.items()}
    spoiled = draw(st.sampled_from([None] + [name for name in flags if flags[name][1]]))
    if spoiled:
        values[spoiled] = draw(st.sampled_from(flags[spoiled][1]))
    joined = draw(st.booleans())
    argv = [command]
    for name, value in values.items():
        if value == "":
            argv.append(name)
        elif value is not None:
            argv += [f"{name}={value}"] if joined else [name, str(value)]
    return argv


class TestExitCodes:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(argvs())
    @example(["asymptotics", "--alpha-start=1e308", "--alpha-stop=1e308",
              "--alpha-step=1", "--t", "10", "--out", "{ok}"])
    @example(["asymptotics", "--alpha-start=-1e308", "--alpha-stop=1e308",
              "--alpha-step=1e308", "--t", "10", "--out", "{ok}"])
    @example(["asymptotics", "--alpha-start", "-1e308", "--alpha-stop", "1e308",
              "--alpha-step", "1", "--t", "10", "--eps", "-inf", "--out", "{ok}"])
    def test_exit_code_contract(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"ok": os.path.join(tmp, "out"), "dir": tmp,
                     "missing": os.path.join(tmp, "missing", "out")}
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([token.format(**paths) for token in argv])
        assert code in (0, 1, 2)
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("argv, says", [
    (["simulate", "--t=-1", "--out", "{out}"], "steps must be nonnegative"),
    (["verify", "--tol", "0", "--report", "{out}"], "verify needs a finite --tol > 0"),
    (["verify", "--tol", "5e-14", "--report", "{out}"],
     "verify needs --tol >= 1e-13 when --quad-t-max > 0, got 5e-14"),
    (["verify", "--order", "3", "--m-max", "6", "--report", "{out}"],
     "verify needs --order > --m-max"),
    (["asymptotics", "--alpha-start", "0.8", "--alpha-stop", "0.9", "--alpha-step", "0.1",
      "--t", "0", "--out", "{out}"], "asymptotics needs positive --t values"),
    (["asymptotics", "--alpha-start", "0.8", "--alpha-stop", "0.9", "--alpha-step", "0.1",
      "--t", "abc", "--out", "{out}"],
     "asymptotics needs --t as comma-separated integers, got 'abc'"),
    (["asymptotics", "--alpha-start", "0.9", "--alpha-stop", "0.8", "--alpha-step", "0.1",
      "--t", "10", "--out", "{out}"], "--alpha-stop >= --alpha-start"),
    (["asymptotics", "--alpha-start", "0.8", "--alpha-stop", "0.9", "--alpha-step", "0.1",
      "--t", "10", "--eps=nan", "--out", "{out}"], "asymptotics needs a finite --eps"),
    (["asymptotics", "--alpha-start", "1e308", "--alpha-stop", "1e308", "--alpha-step", "1",
      "--t", "10", "--out", "{out}"], "asymptotics needs an alpha grid"),
    ([], "hadwalk needs a command (simulate, verify, asymptotics), got none"),
    (["bogus", "--out", "{out}"], "hadwalk needs a command (simulate, verify, asymptotics), "
     "got 'bogus'"),
    (["verify", "--bogus", "1", "--report", "{out}"], "verify has no flag '--bogus'"),
    (["verify", "--bo\ngus", "--report", "{out}"], "verify has no flag '--bo\\ngus'"),
    (["asymptotics", "--alpha-start", "0.8", "--alpha-stop", "0.9", "--alpha-step", "0.1",
      "--t", "10", "--ep", "0.01", "--out", "{out}"], "asymptotics has no flag '--ep'"),
    (["simulate", "--out", "{out}", "--t"], "simulate needs a value after --t"),
    (["simulate", "--t", "--out", "{out}"], "simulate needs a value after --t"),
    (["simulate", "--t", "abc", "--out", "{out}"], "simulate needs --t as an integer, got 'abc'"),
    (["simulate", "--t", "4", "--orientation", "sideways", "--out", "{out}"],
     "simulate needs --orientation as canonical or as-printed, got 'sideways'"),
    (["simulate", "--t", "4"], "simulate needs --out"),
    (["verify", "--inject-fault=1", "--report", "{out}"],
     "verify --inject-fault is a switch and takes no value")],
    ids=["simulate-negative-t", "verify-tol-zero", "verify-tol-below-floor",
         "verify-order-below-m-max",
         "asymptotics-t-zero", "asymptotics-t-not-int", "asymptotics-reversed-grid",
         "asymptotics-eps-nan", "asymptotics-grid-overflows", "no-command", "unknown-command",
         "verify-unknown-flag", "verify-flag-with-a-newline", "asymptotics-abbreviated-flag",
         "simulate-t-at-the-end", "simulate-t-before-a-flag", "simulate-t-not-int",
         "simulate-unknown-orientation", "simulate-without-out", "verify-switch-with-value"])
def test_config_error_takes_one_path(tmp_path, capsys, argv, says):
    # every command checks its input by raising ValueError, and so does the
    # flag parser; main turns that into one line and exit code 2, raises no
    # SystemExit, and opens no output file
    out = tmp_path / "out"
    code = main([token.format(out=out) for token in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and list(tmp_path.iterdir()) == []
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert says in err[0]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["simulate", "--help"],
                                  ["verify", "--t-max", "4", "-h"], ["asymptotics", "--help"]])
def test_help_prints_every_flag(tmp_path, capsys, monkeypatch, argv):
    # the usage of the command named, or of every command, on stdout; no file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    shown = COMMANDS if argv[0] not in COMMANDS else {argv[0]: COMMANDS[argv[0]]}
    lines = captured.out.splitlines()
    assert lines[0].startswith("usage: hadwalk COMMAND")
    for command in COMMANDS:
        assert (f"{command}: " in captured.out) == (command in shown)
    for flags in shown.values():
        for flag in flags:
            assert any(line.startswith(f"  {flag} (") for line in lines), flag
    assert captured.err == "" and list(tmp_path.iterdir()) == []
