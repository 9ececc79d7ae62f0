import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hadwalk.cli import main

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

    def test_unwritable_path_exits_2(self, tmp_path):
        code = main(["simulate", "--t", "2", "--out",
                     str(tmp_path / "missing" / "walk.csv")])
        assert code == 2

    def test_negative_t_exits_2(self, tmp_path):
        code = main(["simulate", "--t", "-3", "--out", str(tmp_path / "x.csv")])
        assert code == 2


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
        assert lines[4] == ("PASS quadrature: max deviation 3.553e-15 through t=6; "
                            "checked=28 worst=3.553e-15 tol=1e-09")

    def test_fault_injection_fails_symmetry(self, tmp_path):
        code, data = run_pinned_verify(
            tmp_path, "verify-inject-fault.json",
            ["--t-max", "12", "--order", "8", "--m-max", "2", "--quad-t-max", "4",
             "--inject-fault"])
        assert code == 1
        failed = [name for name, s in data["suites"].items() if not s["passed"]]
        assert failed == ["symmetry"]
        assert data["suites"]["symmetry"]["witness"] == {"n": -2, "t": 6}

    def test_degenerate_run_flagged_vacuous(self, tmp_path):
        code, data = run_pinned_verify(
            tmp_path, "verify-vacuous.json",
            ["--t-max", "0", "--order", "0", "--quad-t-max", "0"])
        assert code == 0
        assert all(s["vacuous"] for s in data["suites"].values())

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
        out = capsys.readouterr().out
        assert '"all_passed": true' in out


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

    def test_bad_t_list_exits_2(self, tmp_path):
        code = main(["asymptotics", "--alpha-start", "0.8", "--alpha-stop",
                     "0.8", "--alpha-step", "1.0", "--t", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("start, stop, step", [
        ("0.75", "0.85", "0"), ("0.75", "0.85", "-0.05"), ("0.85", "0.75", "0.05")],
        ids=["zero-step", "negative-step", "reversed-range"])
    def test_empty_alpha_grid_exits_2(self, tmp_path, capsys, start, stop, step):
        out = tmp_path / "x.csv"
        code = main(["asymptotics", "--alpha-start", start, "--alpha-stop", stop,
                     "--alpha-step", step, "--t", "40", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_deterministic_table(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["asymptotics", "--alpha-start", "0.75", "--alpha-stop", "0.85",
                "--alpha-step", "0.05", "--t", "80"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
