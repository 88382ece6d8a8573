"""Command line front end.

Four subcommands: `verify` evaluates the rows of the `qpart.checks` table
for the named suites and reports residuals, `limit-shape` tabulates the
macroscopic profile, `gap-table` tabulates gap probabilities by one or all
methods, `painleve` tabulates the recurrence variables with residual and
tail-comparator columns. Only `verify` imports `qpart.checks`, where every
comparison it reports is computed, and mpmath. A `painleve` row has no
residual (null) below the floor of `oppainleve.recurrence_residuals`.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parameter
error, a series, grid or precision that did not converge, a division
that is singular at the given (q, xi), a float that overflows there, or
an output file that cannot be written. A `verify` row whose own series
does not converge, or that the point makes singular or overflow, is a
failed check: it reads measured null, stderr names it, and every other
row is still reported. So does a recurrence row with every v_n below the
floor, which has nothing to measure. Output is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import gap as gap_mod
from . import kernels as kern_mod
from . import oppainleve as op_mod
from .qspecial import NonconvergenceError, QParams

SUITES = ("special", "measures", "kernels", "gap", "painleve", "all")


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = list(rows[0].keys()) if rows else []
        writer.writerow(cols)
        for row in rows:
            writer.writerow(
                f"{row[c]:.16e}" if isinstance(row[c], float) else row[c] for c in cols
            )
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_n_max(args: argparse.Namespace) -> None:
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")


def cmd_verify(args: argparse.Namespace, params: QParams) -> int:
    from . import checks  # here, so that no other command loads mpmath
    rows = [check.report(params) for check in checks.CHECKS
            if args.suite in ("all", check.suite)]
    _emit(rows, args)
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_limit_shape(args: argparse.Namespace, params: QParams) -> int:
    if args.grid_points < 1:
        raise ValueError("--grid-points must be at least 1")
    shape = kern_mod.limit_shape(params.xi)
    lo, hi = shape.a - 1.0, shape.b + 1.0
    rows = []
    for k in range(args.grid_points):
        x = lo + (hi - lo) * k / max(args.grid_points - 1, 1)
        rows.append({"x": x, "rho": shape.rho(x), "omega": shape.omega(x)})
    _emit(rows, args)
    return 0


def cmd_gap_table(args: argparse.Namespace, params: QParams) -> int:
    _require_n_max(args)
    methods = gap_mod.METHODS if args.method == "all" else (args.method,)
    rows = []
    for n in range(args.n_max, -1, -1):  # the largest N first: a refused run fails at once
        query = gap_mod.GapQuery(variant=args.variant, N=n, params=params)
        vals = {m: gap_mod.gap_probability(query, m) for m in methods}
        row: dict = {"N": n, **vals}
        if len(methods) > 1:
            row["max_discrepancy"] = max(vals.values()) - min(vals.values())
        rows.append(row)
    _emit(rows[::-1], args)
    return 0


def cmd_painleve(args: argparse.Namespace, params: QParams) -> int:
    _require_n_max(args)
    # a refusal of the J_gen table (q = 0.99999) comes first, the engine's next, the column last
    op_mod.tail_comparator(args.branch, params, 0)
    state = op_mod.painleve_trajectory(args.branch, "determinant", params, args.n_max)
    comps = [op_mod.tail_comparator(args.branch, params, n) for n in range(args.n_max + 1)]
    # the first and last rows lack x_{n-1} or x_{n+1}, so they have no residual,
    # nor has a row below the floor, and a row whose comparator underflows to
    # 0 has no tail ratio
    residuals = [None, *op_mod.recurrence_residuals(state), None]
    values = state.values if args.branch == "x" else state.sq
    cols = {"x": values} if args.branch == "x" else {"y_sq": values, "y_cross": state.cross}
    rows = [{"n": n, **{c: v[n] for c, v in cols.items()}, "residual": residuals[n],
             "tail_ratio": values[n] / comp if comp != 0.0 else None}
            for n, comp in enumerate(comps)]
    _emit(rows, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpart",
        description="verification CLI for partition measures, kernels, gap "
        "probabilities, and the associated recurrences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--xi", type=float, default=0.3)
        sp.add_argument("--q", type=float, default=0.5)
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="run a named check suite")
    common(sp)
    sp.add_argument("--suite", choices=SUITES, default="all")

    sp = sub.add_parser("limit-shape", help="tabulate the macroscopic profile")
    common(sp)
    sp.add_argument("--grid-points", type=int, default=200)

    sp = sub.add_parser("gap-table", help="tabulate gap probabilities")
    common(sp)
    sp.add_argument("--variant", choices=gap_mod.GAP_VARIANTS, default="length")
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--method", choices=(*gap_mod.METHODS, "all"), default="toeplitz")

    sp = sub.add_parser("painleve", help="tabulate the recurrence variables")
    common(sp)
    sp.add_argument("--branch", choices=("x", "y"), default="x")
    sp.add_argument("--n-max", type=int, default=10)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "limit-shape": cmd_limit_shape,
    "gap-table": cmd_gap_table,
    "painleve": cmd_painleve,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, QParams(q=args.q, xi=args.xi))
    except ValueError as exc:
        print(f"qpart: parameter error: {exc}", file=sys.stderr)
    except NonconvergenceError as exc:
        print(f"qpart: did not converge: {exc}", file=sys.stderr)
    except ZeroDivisionError as exc:
        print(f"qpart: singular at this point: {exc}", file=sys.stderr)
    except OverflowError as exc:
        print(f"qpart: overflow at this point: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"qpart: cannot write output: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
