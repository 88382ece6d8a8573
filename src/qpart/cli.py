"""Command line front end.

Four subcommands: `verify` runs named check suites and reports residuals,
`limit-shape` tabulates the macroscopic profile, `gap-table` tabulates gap
probabilities by one or all methods, `painleve` tabulates the recurrence
variables with residual and tail-comparator columns.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parameter error.
Environment: QPART_MAX_TERMS and QPART_TAIL_TOL override series defaults.
Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gap as gap_mod
from . import kernels as kern_mod
from . import measures as meas_mod
from . import oppainleve as op_mod
from . import partitions as part_mod
from . import qspecial as qs_mod
from .qspecial import QParams

SUITES = ("special", "measures", "kernels", "gap", "painleve", "all")


@dataclass
class RunConfig:
    command: str
    params: QParams
    output_format: str = "json"
    output_path: str | None = None


def _env_params(xi: float, q: float) -> QParams:
    kwargs: dict = {}
    if "QPART_MAX_TERMS" in os.environ:
        kwargs["max_terms"] = int(os.environ["QPART_MAX_TERMS"])
    if "QPART_TAIL_TOL" in os.environ:
        kwargs["tail_tol"] = float(os.environ["QPART_TAIL_TOL"])
    return QParams(q=q, xi=xi, **kwargs)


def _emit(rows: list[dict], config: RunConfig) -> None:
    if config.output_format == "json":
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
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify suites. Each check returns a report row; formula descriptors in the
# reference field name the identity being tested.


def _check(check_id: str, ref: str, measured: float, tol: float) -> dict:
    return {
        "check_id": check_id,
        "paper_ref": ref,
        "measured": measured,
        "tolerance": tol,
        "pass": bool(measured <= tol),
    }


def _suite_special(p: QParams) -> list[dict]:
    rows = []
    coeffs = [1, 1, 3, 6]
    dev = 0.0
    for k, want in enumerate(coeffs):
        got = qs_mod.macmahon_series_coefficient(k)
        dev = max(dev, abs(got - want))
    rows.append(_check("special.macmahon_coeffs",
                       "generating series of plane partitions, p(0..3)",
                       dev, 0.0))
    table = qs_mod.fourier_coefficients("J_gen", p, -80, 80)
    s = sum(v * v for v in table.coeffs.values())
    rows.append(_check("special.unimodular_parseval",
                       "sum of squared generating-function coefficients = 1",
                       abs(s - 1.0), 1e-12))
    dev = 0.0
    for n in range(0, 6):
        direct = p.q ** (n / 2.0) * qs_mod.q_bessel(3, n, 2.0 * p.xi, p.q)
        dev = max(dev, abs(table[n] - direct))
    rows.append(_check("special.gen_fn_coefficients",
                       "c_n = q^{n/2} J_n(2 xi; q) against the direct series",
                       dev, 1e-13))
    dev = 0.0
    for n in range(1, 8):
        lhs = qs_mod.q_bessel(3, -n, 2.0 * p.xi, p.q)
        rhs = (-1.0) ** n * p.q ** (n / 2.0) * qs_mod.q_bessel(
            3, n, p.q ** (n / 2.0) * 2.0 * p.xi, p.q
        )
        dev = max(dev, abs(lhs - rhs))
    rows.append(_check("special.negative_order_reflection",
                       "J_{-n}(x) = (-1)^n q^{n/2} J_n(q^{n/2} x)",
                       dev, 1e-14))
    u = p.xi
    dev = 0.0
    for n in range(0, 5):
        i1 = qs_mod.modified_q_bessel(1, n, 2.0 * u, p.q)
        i2 = qs_mod.modified_q_bessel(2, n, 2.0 * u, p.q)
        pref = qs_mod.q_pochhammer(u * u, p.q, math.inf)
        dev = max(dev, abs(i2 - pref * i1) / max(abs(i2), 1e-300))
    rows.append(_check("special.modified_bessel_relation",
                       "I2_n = (u^2; q)_inf I1_n",
                       dev, 1e-12))
    return rows


def _suite_measures(p: QParams) -> list[dict]:
    rows = []
    for kind, cid in (
        (meas_mod.QPPSquared(xi=p.xi, q=p.q), "measures.norm_squared"),
        (meas_mod.QPPMixed(xi=p.xi, q=p.q), "measures.norm_mixed"),
        (meas_mod.PoissonizedPlancherel(eta=0.8), "measures.norm_poissonized"),
    ):
        total = meas_mod.normalization_partial_sum(kind, 20)
        rows.append(_check(cid, "total mass of the measure sums to 1",
                           abs(total - 1.0), 1e-7))
    dev = 0.0
    for n in range(1, 7):
        total = meas_mod.normalization_partial_sum(meas_mod.Plancherel(n), n)
        dev = max(dev, abs(total - 1.0))
    rows.append(_check("measures.plancherel_exact",
                       "sum over |lambda| = n of (dim lambda)^2 / n! = 1",
                       dev, 1e-12))
    lam = part_mod.Partition((2, 1))
    chain = meas_mod.q_limit_check(lam, 0.9, [0.9, 0.97, 0.99])
    devs_sq = [abs(r[1] - r[3]) for r in chain]
    devs_mx = [abs(r[2] - r[3]) for r in chain]
    mono = all(b < a for a, b in zip(devs_sq, devs_sq[1:])) and all(
        b < a for a, b in zip(devs_mx, devs_mx[1:])
    )
    rows.append(_check("measures.q_to_1_chain",
                       "both deformations approach the Poissonized value",
                       0.0 if mono else 1.0, 0.0))
    return rows


def _suite_kernels(p: QParams) -> list[dict]:
    from fractions import Fraction

    rows = []
    t = meas_mod.MiwaTimes.principal(p.xi, p.q)
    pts = [Fraction(2 * k + 1, 2) for k in range(-4, 4)]
    dev = 0.0
    for r in pts:
        for s in pts:
            a = kern_mod.q_bessel_kernel(p, r, s)
            b = kern_mod.schur_kernel(t, t, r, s)
            dev = max(dev, abs(a - b))
    rows.append(_check("kernels.schur_vs_qbessel",
                       "series form of the kernel equals the closed form",
                       dev, 1e-10))
    dev = 0.0
    for r in pts:
        for s in pts:
            dev = max(dev, abs(kern_mod.q_bessel_kernel(p, r, s)
                               - kern_mod.q_bessel_kernel(p, s, r)))
    rows.append(_check("kernels.symmetry", "K(r, s) = K(s, r)", dev, 1e-12))
    shape = kern_mod.limit_shape(p.xi)
    dev = max(
        abs(shape.alpha0 + 2.0 * math.log(1.0 - p.xi)),
        abs(shape.beta0 - p.xi / (1.0 - p.xi) ** 2),
    )
    rows.append(_check("kernels.edge_constants",
                       "alpha0 = -2 log(1-xi), beta0 = xi/(1-xi)^2",
                       dev, 1e-14))
    from scipy.special import airy as scipy_airy

    ai0, aip0, _, _ = scipy_airy(0.0)
    dev = abs(kern_mod.airy_kernel(0.0, 0.0) - float(aip0) ** 2)
    rows.append(_check("kernels.airy_diagonal",
                       "K_Airy(0,0) = Ai'(0)^2", dev, 1e-14))
    return rows


def _suite_gap(p: QParams) -> list[dict]:
    rows = []
    dev_tf, dev_te = 0.0, 0.0
    for variant in gap_mod.GAP_VARIANTS:
        for n in range(0, 5):
            query = gap_mod.GapQuery(variant=variant, N=n, params=p)
            a = gap_mod.gap_probability(query, "toeplitz")
            b = gap_mod.gap_probability(query, "fredholm")
            c = gap_mod.gap_probability(query, "enumeration", max_size=22)
            dev_tf = max(dev_tf, abs(a - b))
            dev_te = max(dev_te, abs(a - c))
    rows.append(_check("gap.toeplitz_vs_fredholm",
                       "determinant of the symbol matrix equals the kernel "
                       "determinant", dev_tf, 1e-10))
    rows.append(_check("gap.toeplitz_vs_enumeration",
                       "determinant route equals the direct partition sum",
                       dev_te, 1e-6))
    z30_over_m = gap_mod.gap_probability(gap_mod.GapQuery("length", 30, p))
    rows.append(_check("gap.z_infinity",
                       "Z_N approaches the squared-type normalization",
                       abs(z30_over_m - 1.0), 1e-10))
    for variant in gap_mod.GAP_VARIANTS:
        vals = gap_mod.monotonicity_scan(variant, p, 10)
        ok = all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        rows.append(_check(f"gap.monotone_{variant}",
                           "gap probabilities nondecreasing in N",
                           0.0 if ok else 1.0, 0.0))
    return rows


def _suite_painleve(p: QParams) -> list[dict]:
    rows = []
    for branch, ref in (("x", "the x variables satisfy the q-difference "
                              "recurrence"),
                        ("y", "the y bilinears satisfy the q-difference "
                              "recurrence")):
        state = op_mod.painleve_trajectory(branch, "determinant", p, 13)
        rows.append(_check(f"painleve.{branch}_recurrence_residual", ref,
                           max(op_mod.recurrence_residuals(state)), 1e-7))
    dev = 0.0
    for row in op_mod.tau_relation_check(p, range(2, 13)):
        dev = max(dev, row["residual"])
    rows.append(_check("painleve.tau_relation",
                       "second log-difference of Z_n equals log(1 - x_n^2)",
                       dev, 1e-9))
    probes = [0.4 + 0.3j, -0.7 + 0.1j, 1.3 - 0.5j, 0.2 - 0.9j, -1.1 - 0.4j]
    dev_c, dev_i, dev_k = 0.0, 0.0, 0.0
    for variant in op_mod.OP_VARIANTS:
        seq = op_mod.op_sequence(variant, p, 11)
        for n in range(1, 10):
            res = op_mod.lax_checks(n, p, seq, probes)
            dev_c = max(dev_c, max(res["compatibility"]))
            dev_i = max(dev_i, max(res["inversion"]))
            dev_k = max(dev_k, abs(res["det_k"] + 1.0))
    rows.append(_check("painleve.lax_compatibility",
                       "index shift and q-shift matrices commute through the "
                       "solution", dev_c, 1e-8))
    rows.append(_check("painleve.lax_inversion",
                       "T(z)^{-1} = q^{-n} K T(1/(qz)) K", dev_i, 1e-8))
    rows.append(_check("painleve.lax_det_k", "det K_n = -1", dev_k, 1e-12))
    dev_det, dev_y0 = 0.0, 0.0
    for n in range(1, 9):
        s = op_mod.rhp_sample(n, 2.0 + 0.0j, p)
        dev_det = max(dev_det, abs(s.det_y - 1.0))
        seq = op_mod.op_sequence("plain", p, n + 1)
        s0 = op_mod.rhp_sample(n, 0.0 + 0.0j, p)
        want = np.array([
            [seq.x[n], 1.0 / seq.kappa_sq[n]],
            [-seq.kappa_sq[n - 1], seq.x[n]],
        ])
        dev_y0 = max(dev_y0, float(np.max(np.abs(s0.y - want))))
    rows.append(_check("painleve.rhp_det",
                       "the Riemann-Hilbert matrix has unit determinant",
                       dev_det, 1e-8))
    rows.append(_check("painleve.rhp_value_at_zero",
                       "Y_n(0) matches the closed form in x_n and kappa_n",
                       dev_y0, 1e-8))
    dev = max(
        op_mod.rhp_jump_residual(3, 0.7, p),
        op_mod.rhp_jump_residual(5, 2.1, p, variant="check"),
    )
    rows.append(_check("painleve.rhp_jump",
                       "boundary values satisfy the triangular jump relation",
                       dev, 1e-6))
    return rows


_SUITE_FNS = {
    "special": _suite_special,
    "measures": _suite_measures,
    "kernels": _suite_kernels,
    "gap": _suite_gap,
    "painleve": _suite_painleve,
}


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    suites = list(_SUITE_FNS) if args.suite == "all" else [args.suite]
    rows: list[dict] = []
    for name in suites:
        rows.extend(_SUITE_FNS[name](config.params))
    rows.sort(key=lambda r: r["check_id"])
    _emit(rows, config)
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_limit_shape(args: argparse.Namespace, config: RunConfig) -> int:
    xi = config.params.xi
    shape = kern_mod.limit_shape(xi)
    lo, hi = shape.a - 1.0, shape.b + 1.0
    rows = []
    for k in range(args.grid_points):
        x = lo + (hi - lo) * k / max(args.grid_points - 1, 1)
        rows.append({"x": x, "rho": shape.rho(x), "omega": shape.omega(x)})
    _emit(rows, config)
    return 0


def cmd_gap_table(args: argparse.Namespace, config: RunConfig) -> int:
    methods = (
        ["toeplitz", "fredholm", "enumeration"]
        if args.method == "all"
        else [args.method]
    )
    rows = []
    for n in range(args.n_max + 1):
        query = gap_mod.GapQuery(variant=args.variant, N=n, params=config.params)
        vals = {m: gap_mod.gap_probability(query, m) for m in methods}
        row: dict = {"N": n}
        row.update(vals)
        if len(methods) > 1:
            row["max_discrepancy"] = max(vals.values()) - min(vals.values())
        rows.append(row)
    _emit(rows, config)
    return 0


def cmd_painleve(args: argparse.Namespace, config: RunConfig) -> int:
    p = config.params
    state = op_mod.painleve_trajectory(args.branch, args.source, p, args.n_max)
    residuals = [0.0, *op_mod.recurrence_residuals(state), 0.0]
    rows = []
    if args.branch == "x":
        for n in range(args.n_max + 1):
            row: dict = {"n": n, "x": state.values[n], "residual": residuals[n]}
            comp = math.sqrt(p.xi) * qs_mod.q_bessel(3, -n, 2.0 * p.xi, p.q)
            row["tail_ratio"] = state.values[n] / comp if comp != 0.0 else 0.0
            rows.append(row)
    else:
        for n in range(args.n_max + 1):
            row = {"n": n, "y_sq": state.sq[n], "y_cross": state.cross[n],
                   "residual": residuals[n]}
            jn = qs_mod.q_bessel(3, n, -2.0 * p.xi, p.q)
            comp = -p.xi * jn * jn
            row["tail_ratio"] = state.sq[n] / comp if comp != 0.0 else 0.0
            rows.append(row)
    _emit(rows, config)
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
    sp.add_argument(
        "--method",
        choices=("toeplitz", "fredholm", "enumeration", "all"),
        default="toeplitz",
    )

    sp = sub.add_parser("painleve", help="tabulate the recurrence variables")
    common(sp)
    sp.add_argument("--branch", choices=("x", "y"), default="x")
    sp.add_argument(
        "--source", choices=("determinant", "recurrence"), default="determinant"
    )
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
        params = _env_params(args.xi, args.q)
    except ValueError as exc:
        print(f"qpart: parameter error: {exc}", file=sys.stderr)
        return 2
    config = RunConfig(
        command=args.command,
        params=params,
        output_format=args.format,
        output_path=args.out,
    )
    try:
        return _COMMANDS[args.command](args, config)
    except ValueError as exc:
        print(f"qpart: parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
