import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
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

    def test_reports_every_row_where_kappa_underflows(self, capsys):
        # kappa_n^2 underflows to 0.0 here; verify exited 2 with no rows when
        # rhp_value_at_zero divided by it and tau_relation took its log
        code, out, err = run(["verify", "--q", "0.9999", "--xi", "0.5"], capsys)
        assert code == 1
        rows = {r["check_id"]: r for r in json.loads(out)}
        assert len(rows) == 29
        assert rows["painleve.tau_relation"]["pass"]
        assert rows["painleve.rhp_value_at_zero"]["measured"] is None
        assert "painleve.rhp_value_at_zero: overflow at this point" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_rhp_rows_refuse_where_kappa_underflows(self, capsys, monkeypatch):
        # E_n = 1/kappa_n^2 = Y_n(0)_12 is past the double range here, so each
        # RHP row is refused before any series is summed; summed, the entries
        # overflowed, rhp_det read NaN, and --q 0.999 --xi 0.999 took 6.6 s
        monkeypatch.setattr(oppainleve, "_horner", None)
        _, out, err = run(["verify", "--suite", "painleve", "--q", "0.9999", "--xi", "0.5"], capsys)
        rows = {r["check_id"]: r for r in json.loads(out)}
        for name in ("rhp_det", "rhp_jump", "rhp_value_at_zero"):
            assert rows[f"painleve.{name}"]["measured"] is None
            assert f"painleve.{name}: overflow at this point: E_" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("q, xi, sha", [
        ("0.5", "0.3", "17c5cbcbedbef6ff2185628e0f151bb75f2da934d6c00c3b5b5cf552f91d73c4"),
        ("0.9", "0.5", "4f1fbee27b454cc8f8a20210ddf727081fb435da2045b0c111e79addf5a90b42"),
    ], ids=["0.5-0.3", "0.9-0.5"])
    def test_painleve_suite_is_pinned(self, q, xi, sha, capsys):
        # the JSON as it read once the Riemann-Hilbert sample formed every
        # entry in decimal from the engine's moments, not by a float quadrature
        code, out, err = run(["verify", "--suite", "painleve", "--q", q, "--xi", xi], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_recurrence_rows_below_the_floor_fail(self, capsys):
        # every v_n is below 2^-27 at xi = 1e-30, where the relation's left
        # side is exactly 1 whatever they are: both rows read 0.0 and passed
        code, out, err = run(["verify", "--suite", "painleve", "--q", "0.5", "--xi", "1e-30"],
                             capsys)
        assert code == 1
        failed = {r["check_id"]: r["measured"] for r in json.loads(out) if not r["pass"]}
        assert failed == {"painleve.x_recurrence_residual": None,
                          "painleve.y_recurrence_residual": None}
        assert err.splitlines() == [f"qpart: {c}: nothing to measure at this point" for c in failed]

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
        # the row N = 3000 needs two runs of 3.9e10 digit-operations; the
        # table starts from its largest N, so it is refused before any run
        monkeypatch.setattr(oppainleve, "_szego", None)
        code, out, err = run(["gap-table", "--method", "toeplitz", "--q", "0.999", "--xi", "0.5",
                              "--n-max", "3000"], capsys)
        assert code == 2
        assert out == ""
        assert "needs 3.9e+10 digit-operations (top^2 x 4326), past the limit of 5e+08" in err

    def test_sweep_certifies_one_run(self, fresh_engine, capsys, monkeypatch):
        # the largest N comes first and certifies top 61, and every smaller N
        # reads that run: one certification, where there were 46 (6.0 s, now
        # 0.66 s on a 2-core VM), printing the bytes the 46 printed
        tops, certified = [], oppainleve._certified
        monkeypatch.setattr(oppainleve, "_certified",
                            lambda v, p, top: tops.append(top) or certified(v, p, top))
        code, out, _ = run(["gap-table", "--method", "toeplitz", "--q", "0.999", "--xi", "0.5",
                            "--n-max", "60"], capsys)
        assert code == 0
        assert tops == [61]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "73e4a59ccfa7c45bcc8ca47837f80582eb48cc63493c7a02e447872e78c7614a")

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

    def test_oversized_fredholm_section_exits_2(self, capsys, monkeypatch):
        # the J_gen table builds here, but the section needs 8,220 sites by
        # 24,607 orders, a B of 1.6 GB, which is refused before it is built
        def no_qr(*args, **kwargs):
            raise AssertionError("the section is refused before any QR")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        code, out, err = run(["gap-table", "--method", "fredholm", "--q", "0.9999",
                              "--xi", "0.5", "--n-max", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "needs 8,220 sites" in err
        assert "Traceback" not in err

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

    def test_n_max_past_guard_exits_2(self, capsys, monkeypatch):
        # the table's one index guard is the engine's digit limit: top 401 at
        # the desk point needs 36,655 digits and is refused before any run
        monkeypatch.setattr(oppainleve, "_szego", None)
        code, out, err = run(["painleve", "--n-max", "400"], capsys)
        assert code == 2
        assert out == ""
        assert "digits, past the limit of 10000" in err

    def test_refusal_comes_before_the_comparator_column(self, capsys, monkeypatch):
        # the engine refuses top 10^7 + 1 before any run, and the table's
        # O(n_max) comparator column is not built before that
        calls, comparator = [], oppainleve.tail_comparator
        monkeypatch.setattr(oppainleve, "tail_comparator",
                            lambda *args: calls.append(args) or comparator(*args))
        code, out, err = run(["painleve", "--n-max", "10000000"], capsys)
        assert code == 2
        assert out == ""
        assert "top 10000001) needs 22577262033468 digits, past the limit of 10000" in err
        assert len(calls) <= 1

    @pytest.mark.parametrize("branch", ["x", "y"])
    def test_reaches_past_the_edge_index(self, branch, capsys):
        # the edge index at (0.97, 0.7) is about 79; past it the variable
        # follows its tail comparator, and the rows up to 25 are those of
        # the --n-max 25 table, since the engine prefixes are bit-identical
        point = ["painleve", "--branch", branch, "--q", "0.97", "--xi", "0.7"]
        code, out, _ = run([*point, "--n-max", "90"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[90]["tail_ratio"] == pytest.approx(1.0, rel=1e-3)
        _, short, _ = run([*point, "--n-max", "25"], capsys)
        cols = (["x"] if branch == "x" else ["y_sq", "y_cross"]) + ["tail_ratio"]
        for a, b in zip(rows, json.loads(short)):
            assert [a[c] for c in cols] == [b[c] for c in cols]

    @pytest.mark.parametrize("argv", [
        ["painleve", "--q", "1e-300", "--n-max", "2"],
        ["painleve", "--q", "1e-100", "--n-max", "25"],
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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_underflowed_comparator_has_no_tail_ratio(self, fmt, capsys):
        # past n = 6 at q = 1e-12 both x_n and its comparator underflow to
        # 0, and their ratio is not a number; the rows before it read 1
        argv = ["painleve", "--q", "1e-12", "--xi", "0.3", "--n-max", "9", "--format", fmt]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        empty = None if fmt == "json" else ""
        assert [r["tail_ratio"] for r in rows[7:]] == [empty] * 3
        assert all(float(r["tail_ratio"]) == pytest.approx(1.0, rel=1e-12) for r in rows[:7])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_values_below_the_floor_have_no_residual(self, fmt, capsys):
        # past n = 1 at q = 1e-12, v_{n-1}, v_n and v_{n+1} are all below
        # 2^-27, where the relation's left side is exactly 1 whatever they
        # are; those rows read null where they read 0.0
        argv = ["painleve", "--q", "1e-12", "--xi", "0.3", "--n-max", "9", "--format", fmt]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        empty = None if fmt == "json" else ""
        assert [r["residual"] for r in rows[2:]] == [empty] * 8
        assert 0.0 < float(rows[1]["residual"]) < 1e-15

    def test_forward_source_is_not_an_option(self, capsys):
        # the table has one route, the certified engine, so there is no source to pick
        with pytest.raises(SystemExit) as exc:
            main(["painleve", "--source", "recurrence"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --source" in capsys.readouterr().err

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
        # at q = 0.99999 the J_gen table's band alone reaches past its span
        # limit of 65,536 orders, and it is refused before any run; the
        # painleve tail comparators read that table before the engine runs
        code, _, err = run([*argv, "--q", "0.99999", "--xi", "0.5"], capsys)
        assert code == 2
        assert "did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, failing", [
        (["--suite", "special", "--q", "0.5", "--xi", "0.999"],
         ["special.modified_bessel_relation"]),
        (["--suite", "kernels", "--q", "0.99999", "--xi", "0.5"],
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
        ["painleve", "--q", "0", "--xi", "0.3", "--n-max", "2"],
        ["painleve", "--branch", "y", "--q", "0.5", "--xi", "0", "--n-max", "2"],
        ["painleve", "--q", "0.5", "--xi", "0", "--n-max", "2"],
    ])
    def test_singular_point_exits_2(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "qpart: singular at this point" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["painleve", "--branch", "y", "--q", "1e-30", "--xi", "0.3", "--n-max", "25"],
    ])
    def test_overflow_exits_2(self, argv, capsys):
        # q^{-n/2} of the y branch leaves the float range
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "qpart: overflow at this point" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("point, failing", [
        (["--q", "0", "--xi", "0.3"], {"singular at this point": 5}),
        (["--q", "0.5", "--xi", "0"], {"singular at this point": 5}),
        # the engine refuses the plain rows past its digit limit, and
        # q^{-n/2} of the y rows leaves the float range
        (["--q", "1e-300", "--xi", "0.3"], {"did not converge": 12, "overflow at this point": 1}),
    ])
    def test_verify_reports_rows_that_divide_by_zero_or_overflow(self, point, failing, capsys):
        # a row that divides by zero or overflows at the point fails with
        # measured null; every other row is still measured, and verify exits 1
        code, out, err = run(["verify", *point], capsys)
        assert code == 1
        rows = json.loads(out)
        assert len(rows) == 29
        failed = [r["check_id"] for r in rows if not r["pass"]]
        assert all(r["measured"] is None for r in rows if not r["pass"])
        assert all(r["measured"] is not None for r in rows if r["pass"])
        assert [line.split(": ")[1] for line in err.splitlines()] == failed
        reasons = [line.split(": ")[2] for line in err.splitlines()]
        assert {why: reasons.count(why) for why in set(reasons)} == failing
        assert "Traceback" not in err
