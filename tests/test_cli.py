import csv
import io
import json
from pathlib import Path

import pytest

from qpart import oppainleve
from qpart.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_special_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "special"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert all(r["pass"] for r in rows)

    def test_special_suite_passes_at_stressed_point(self, capsys):
        # the binary64 direct series missed c_n by 1.26e-13 here
        code, _, _ = run(["verify", "--suite", "special", "--q", "0.9", "--xi", "0.5"],
                         capsys)
        assert code == 0

    def test_report_schema(self, capsys):
        _, out, _ = run(["verify", "--suite", "special"], capsys)
        rows = json.loads(out)
        for row in rows:
            assert set(row) == {
                "check_id", "paper_ref", "measured", "tolerance", "pass"
            }

    def test_rows_sorted_by_check_id(self, capsys):
        _, out, _ = run(
            ["verify", "--suite", "gap", "--xi", "0.2"], capsys
        )
        ids = [r["check_id"] for r in json.loads(out)]
        assert ids == sorted(ids)

    def test_invalid_q_exits_2(self, capsys):
        code, _, err = run(["verify", "--q", "1.2"], capsys)
        assert code == 2
        assert "parameter error" in err

    def test_all_suites_pass_away_from_the_desk_point(self, capsys):
        code, out, _ = run(["verify", "--q", "0.7", "--xi", "0.5"], capsys)
        assert code == 0
        assert [r["pass"] for r in json.loads(out)] == [True] * 29

    def test_xi_zero_passes_quickly(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "measures", "--xi", "0.0"], capsys
        )
        assert code == 0


class TestOutputFormats:
    def test_csv_header_and_precision(self, capsys):
        _, out, _ = run(
            ["gap-table", "--n-max", "2", "--format", "csv"], capsys
        )
        lines = out.strip().split("\n")
        assert lines[0] == "N,toeplitz"
        # 17 significant digits
        assert "e-" in lines[1] or "e+" in lines[1]

    def test_csv_deterministic(self, capsys):
        _, out1, _ = run(
            ["gap-table", "--n-max", "3", "--format", "csv"], capsys
        )
        _, out2, _ = run(
            ["gap-table", "--n-max", "3", "--format", "csv"], capsys
        )
        assert out1 == out2

    def test_csv_rows_have_header_width(self, capsys):
        # paper_ref strings contain commas, so cells must be quoted
        code, out, _ = run(
            ["verify", "--suite", "kernels", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check_id", "paper_ref", "measured", "tolerance", "pass"]
        assert len(rows) > 1
        assert all(len(r) == 5 for r in rows)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["verify", "--suite", "special", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())

    @pytest.mark.parametrize("target", ["missing/report.json", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, target, tmp_path, capsys):
        # a missing parent directory, and a path that is a directory
        code, out, err = run(["limit-shape", "--out", str(tmp_path / target)], capsys)
        assert code == 2
        assert out == ""
        assert "qpart: cannot write output" in err


class TestLimitShape:
    def test_boundary_rows(self, capsys):
        _, out, _ = run(
            ["limit-shape", "--xi", "0.5", "--grid-points", "50"], capsys
        )
        rows = json.loads(out)
        assert rows[0]["rho"] == 1.0  # left of support
        assert rows[-1]["rho"] == 0.0  # right of support
        interior = [r for r in rows if 0.0 < r["rho"] < 1.0]
        assert interior


class TestGapTable:
    def test_discrepancy_column_with_all_methods(self, capsys):
        _, out, _ = run(
            ["gap-table", "--n-max", "3", "--method", "all"], capsys
        )
        rows = json.loads(out)
        for row in rows:
            assert row["max_discrepancy"] < 1e-6

    def test_run_past_the_stored_digit_limit_exits_2(self, capsys, monkeypatch):
        # the row N = 3000 needs two runs holding 3.9e10 digits, about 22 GB;
        # the table starts from its largest N, so it is refused before any run
        monkeypatch.setattr(oppainleve, "_szego", None)
        code, out, err = run(["gap-table", "--method", "toeplitz", "--q", "0.999", "--xi", "0.5",
                              "--n-max", "3000"], capsys)
        assert code == 2
        assert out == ""
        assert "needs 3.9e+10 stored digits (top^2 x 4326), past the limit of 5e+08" in err

    def test_near_q_one_exits_0(self, capsys):
        # log M = 9148 here; M itself overflows a double
        code, out, _ = run(
            ["gap-table", "--q", "0.99", "--xi", "0.9"], capsys
        )
        assert code == 0
        assert all(0.0 <= r["toeplitz"] <= 1.0 for r in json.loads(out))

    def test_near_q_one_enumeration_has_no_traceback(self, capsys):
        # M overflows a double here; the partition sum up to size 25 is
        # still truncated, so only the exit and the output shape are checked
        code, out, err = run(
            ["gap-table", "--q", "0.99", "--xi", "0.9", "--method",
             "enumeration", "--n-max", "1"], capsys
        )
        assert code == 0
        assert "Traceback" not in err
        assert [r["N"] for r in json.loads(out)] == [0, 1]

    def test_readme_example_is_the_output(self, capsys):
        # the README's example block: "$ qpart <args>", then what it prints
        block = README.read_text().split("```\n$ qpart ")[1].split("```")[0]
        command, *shown = block.splitlines()
        code, out, _ = run(command.split(), capsys)
        assert code == 0
        assert out.splitlines() == shown

    def test_variant_flag(self, capsys):
        _, out_l, _ = run(
            ["gap-table", "--n-max", "2", "--variant", "length"], capsys
        )
        _, out_f, _ = run(
            ["gap-table", "--n-max", "2", "--variant", "first-part"], capsys
        )
        assert out_l != out_f


class TestPainleveTable:
    def test_x_branch_columns(self, capsys):
        _, out, _ = run(["painleve", "--n-max", "6"], capsys)
        rows = json.loads(out)
        assert set(rows[0]) == {"n", "x", "residual", "tail_ratio"}
        assert all(r["residual"] < 1e-7 for r in rows[1:-1])
        # no recurrence is evaluated at the ends of the table
        assert rows[0]["residual"] is None and rows[-1]["residual"] is None

    def test_csv_end_rows_have_empty_residual(self, capsys):
        _, out, _ = run(["painleve", "--n-max", "3", "--format", "csv"], capsys)
        lines = out.splitlines()
        col = lines[0].split(",").index("residual")
        cells = [line.split(",")[col] for line in lines[1:]]
        assert cells[0] == cells[-1] == ""
        assert all(float(c) < 1e-7 for c in cells[1:-1])

    def test_n_max_past_guard_exits_2(self, capsys):
        code, _, err = run(["painleve", "--n-max", "30"], capsys)
        assert code == 2
        assert "exceeds guard" in err

    @pytest.mark.parametrize("argv", [
        ["painleve", "--q", "1e-300", "--n-max", "2"],
        ["painleve", "--source", "recurrence", "--q", "1e-100", "--n-max", "25"],
    ])
    def test_precision_past_the_limit_exits_2(self, argv, capsys, monkeypatch):
        # the engine refuses before its first run, naming the digits it needs
        monkeypatch.setattr(oppainleve, "_szego", None)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "did not converge" in err
        assert "digits, past the limit of 10000" in err
        assert "Traceback" not in err

    def test_y_branch_tail_ratio_converges(self, capsys):
        _, out, _ = run(
            ["painleve", "--branch", "y", "--n-max", "10"], capsys
        )
        rows = json.loads(out)
        assert rows[-1]["tail_ratio"] == pytest.approx(1.0, rel=1e-5)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["gap-table", "--n-max", "1", "--method", "fredholm"],
        ["painleve", "--branch", "y", "--n-max", "3"],
        ["painleve", "--n-max", "3"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_nonconvergence_exits_2(self, argv, capsys):
        # at q = 0.9999 the J_gen product needs more than its fixed 10,000
        # factors and is refused before its partial products overflow; the
        # painleve tail comparators read that table before the engine runs
        code, _, err = run([*argv, "--q", "0.9999", "--xi", "0.5"], capsys)
        assert code == 2
        assert "did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, failing", [
        (["--suite", "special", "--q", "0.5", "--xi", "0.999"],
         ["special.modified_bessel_relation"]),
        (["--suite", "kernels", "--q", "0.9999", "--xi", "0.5"],
         ["kernels.christoffel_darboux", "kernels.schur_vs_qbessel", "kernels.symmetry"]),
    ])
    @pytest.mark.filterwarnings("error")
    def test_verify_reports_rows_that_do_not_converge(self, argv, failing, capsys):
        # a row whose series does not converge fails with measured null; every
        # other row is still measured, and verify exits 1
        code, out, err = run(["verify", *argv], capsys)
        assert code == 1
        rows = json.loads(out)
        assert len(rows) == 5
        assert [r["check_id"] for r in rows if not r["pass"]] == failing
        assert all(r["measured"] is None for r in rows if not r["pass"])
        assert all(r["measured"] is not None for r in rows if r["pass"])
        assert [line.split(": ")[1] for line in err.splitlines()] == failing
        assert all(": did not converge: " in line for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gap-table", "--n-max", "-1"],
        ["painleve", "--n-max", "-1"],
        ["limit-shape", "--grid-points", "0"],
    ])
    def test_empty_range_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "qpart: parameter error" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--q", "0", "--xi", "0.3"],
        ["verify", "--q", "0.5", "--xi", "0"],
        ["painleve", "--q", "0.5", "--xi", "0", "--n-max", "2"],
    ])
    def test_singular_point_exits_2(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "qpart: singular at this point" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["painleve", "--branch", "y", "--q", "1e-30", "--xi", "0.3", "--n-max", "25"],
        ["verify", "--q", "1e-300", "--xi", "0.3"],
    ])
    def test_overflow_exits_2(self, argv, capsys):
        # q^{-n/2} of the y branch leaves the float range; at q = 1e-300 the
        # engine first refuses the plain rows, past its digit limit
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "qpart: overflow at this point" in err
        assert "Traceback" not in err
