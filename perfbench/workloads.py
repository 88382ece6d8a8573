"""The benchmark's three workloads: their operations and expected values.

An operation is one library call (in-process workloads) or one CLI command
(`cli-desk`). Each carries a function that pulls the numbers to check out
of its result and a function that picks the same numbers out of the
stored oracle. qpart functions are looked up through their module at call
time, so wrappers installed by the tracer are the ones called.

- cli-desk: the four CLI commands at the desk point (q, xi) = (0.5, 0.3),
  each a fresh `python -m qpart.cli` process, so interpreter start and
  import are paid per command.
- gap-sweep: all three gap routes x both variants x N = 0..10 on a 3 x 2
  grid of (q, xi). Points run one after another, each point's operations
  in a seed-shuffled order, so each point's coefficient tables are built
  cold and reused only within the point. (Interleaving points instead
  makes the 64-entry kernel-table cache thrash: 4.2k-4.7k table builds
  instead of 312, and 16-19 s per pass instead of 7 s.)
- near-scaling: the paper's scaling regime q -> 1 at xi = 0.7, where the
  high-precision OPUC layer dominates and the gap routes lose digits.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable

import oracle as orc

WORKLOADS = ("cli-desk", "gap-sweep", "near-scaling")
DEADLINE_S = 5.0      # per in-process operation; slowest completing op ~1.6 s
CLI_TIMEOUT_S = 60.0  # per CLI command; slowest ~5 s
CLI_EXIT_OK = 0       # every cli-desk command, verify included, must exit 0
GAP_METHODS = ("toeplitz", "fredholm", "enumeration")
GAP_VARIANTS = ("length", "first-part")
FAR_NS = (3, 10)


def qp(name: str):
    """qpart submodule `name`, imported on first use."""
    return importlib.import_module(f"qpart.{name}")


@dataclass(frozen=True)
class Op:
    """One operation: `run` times the call, `values` reads its result, and
    `expected` reads the oracle. Each maps a key to (numbers, measure),
    measure being "rel" (per value), "norm" (max error over max |value|)
    or "abs" (for quantities that are exactly 0)."""

    name: str
    run: Callable[[], object]
    values: Callable[[object], dict]
    expected: Callable[[dict], dict]


@dataclass(frozen=True)
class Command:
    """One CLI command: argv after `python -m qpart.cli`, and readers for its
    JSON output and for the oracle."""

    name: str
    argv: tuple[str, ...]
    values: Callable[[list], dict]
    expected: Callable[[dict], dict]


def _params(q: float, xi: float):
    return qp("qspecial").QParams(q=q, xi=xi)


def _gap_op(method: str, variant: str, q: float, xi: float, n: int) -> Op:
    def run():
        g = qp("gap")
        return g.gap_probability(g.GapQuery(variant=variant, N=n, params=_params(q, xi)),
                                 method=method)

    key = orc.point_key(q, xi)
    return Op(
        name=f"{method}/{variant}/q={q}/xi={xi}/N={n}",
        run=run,
        values=lambda v: {"p": ([float(v)], "rel")},
        expected=lambda o: {"p": ([o["gap"][key][variant][n]], "rel")},
    )


def gap_sweep_order(seed: int) -> list[Op]:
    rng = random.Random(seed)
    points = list(orc.SWEEP_POINTS)
    rng.shuffle(points)
    ops = []
    for q, xi in points:
        here = [_gap_op(m, v, q, xi, n) for m in GAP_METHODS for v in GAP_VARIANTS
                for n in range(orc.GAP_N_MAX + 1)]
        rng.shuffle(here)
        ops.extend(here)
    return ops


def _near_ops(q: float) -> list[Op]:
    xi = orc.NEAR_XI
    key = orc.point_key(q, xi)
    ops = []
    for variant in ("plain", "check"):
        ops.append(Op(
            name=f"op_sequence/{variant}/q={q}",
            run=lambda v=variant: qp("oppainleve").op_sequence(v, _params(q, xi), 25),
            values=lambda s: {"x": (list(s.x), "rel"),
                              "kappa_sq": (list(s.kappa_sq), "rel")},
            expected=lambda o, v=variant: {
                "x": (o["op"][key][v]["x"], "rel"),
                "kappa_sq": (o["op"][key][v]["kappa_sq"], "rel")},
        ))
    ops.append(Op(
        name=f"painleve_trajectory/x/q={q}",
        run=lambda: qp("oppainleve").painleve_trajectory(
            "x", "determinant", _params(q, xi), 25),
        values=lambda s: {"x": (list(s.values), "rel")},
        expected=lambda o: {"x": (o["painleve"][key]["x"], "rel")},
    ))
    ops.append(Op(
        name=f"painleve_trajectory/y/q={q}",
        run=lambda: qp("oppainleve").painleve_trajectory(
            "y", "determinant", _params(q, xi), 25),
        values=lambda s: {"y_sq": (list(s.sq), "rel"),
                          "y_cross": (list(s.cross), "rel")},
        expected=lambda o: {"y_sq": (o["painleve"][key]["y_sq"], "rel"),
                            "y_cross": (o["painleve"][key]["y_cross"], "rel")},
    ))
    ops.append(Op(
        name=f"tau_relation_check/q={q}",
        run=lambda: qp("oppainleve").tau_relation_check(_params(q, xi), range(1, 25)),
        values=lambda rows: {"residual": ([r["residual"] for r in rows], "abs")},
        expected=lambda o: {"residual": ([abs(v) for v in o["tau"][key]], "abs")},
    ))
    for variant in GAP_VARIANTS:
        ops.extend(_gap_op("toeplitz", variant, q, xi, n)
                   for n in range(orc.GAP_N_MAX + 1))
    sites = orc.edge_block_sites(q, xi)

    def block():
        kern = qp("kernels")
        p = _params(q, xi)
        return [[kern.q_bessel_kernel(p, r, s) for s in sites] for r in sites]

    ops.append(Op(
        name=f"kernel_block/q={q}",
        run=block,
        values=lambda b: {"K": ([v for row in b for v in row], "norm")},
        expected=lambda o: {"K": ([v for row in o["kernel"][key]["block"] for v in row],
                                  "norm")},
    ))
    return ops


def near_scaling_order(seed: int) -> list[Op]:
    xi = orc.NEAR_XI
    ops = [op for q in orc.NEAR_QS for op in _near_ops(q)]
    keys = [orc.point_key(q, xi) for q in orc.NEAR_QS]
    ops.append(Op(
        name="scaling_probe/edge_airy",
        run=lambda: qp("kernels").scaling_probe(
            "edge_airy", xi, orc.NEAR_QS, orc.PROBE_X, orc.PROBE_Y),
        values=lambda rows: {"value": ([r["value"] for r in rows], "rel"),
                             "target": ([r["target"] for r in rows], "rel")},
        expected=lambda o: {
            "value": ([o["kernel"][k]["probe_value"] for k in keys], "rel"),
            "target": ([o["kernel"][k]["probe_target"] for k in keys], "rel")},
    ))
    # the Toeplitz route at the far point is already in the q sweep above
    q_far = orc.NEAR_QS[-1]
    ops.extend(_gap_op(m, v, q_far, xi, n) for m in ("fredholm", "enumeration")
               for v in GAP_VARIANTS for n in FAR_NS)
    random.Random(seed).shuffle(ops)
    return ops


def in_process_ops(workload: str, seed: int) -> list[Op]:
    if workload == "gap-sweep":
        return gap_sweep_order(seed)
    if workload == "near-scaling":
        return near_scaling_order(seed)
    raise ValueError(f"{workload!r} is not an in-process workload")


# ---------------------------------------------------------------------------
# cli-desk

DESK_KEY = orc.point_key(*orc.DESK)


def _column(rows: list, col: str) -> list:
    return [float(r[col]) for r in rows]


def _gap_table(variant: str) -> Command:
    n_max = 8
    return Command(
        name=f"gap-table --variant {variant}",
        argv=("gap-table", "--variant", variant, "--method", "all",
              "--n-max", str(n_max)),
        values=lambda rows: {m: (_column(rows, m), "rel") for m in GAP_METHODS},
        expected=lambda o: {m: (o["gap"][DESK_KEY][variant][: n_max + 1], "rel")
                            for m in GAP_METHODS},
    )


def _painleve(branch: str) -> Command:
    cols = ("x",) if branch == "x" else ("y_sq", "y_cross")
    return Command(
        name=f"painleve --branch {branch}",
        argv=("painleve", "--branch", branch, "--n-max", "25"),
        values=lambda rows: {c: (_column(rows, c), "rel") for c in cols},
        expected=lambda o: {c: (o["painleve"][DESK_KEY][c], "rel") for c in cols},
    )


def cli_commands(seed: int) -> list[Command]:
    xi = orc.DESK[1]
    cmds = [
        Command(name="verify --suite all", argv=("verify", "--suite", "all"),
                values=lambda rows: {}, expected=lambda o: {}),
        _gap_table("length"),
        _gap_table("first-part"),
        _painleve("x"),
        _painleve("y"),
        Command(
            name="limit-shape",
            argv=("limit-shape",),
            values=lambda rows: {"x": (_column(rows, "x"), "rel"),
                                 "omega": (_column(rows, "omega"), "rel")},
            expected=lambda o: {"x": (orc.limit_shape_grid(xi), "rel"),
                                "omega": (o["omega"][repr(xi)], "rel")},
        ),
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


def cli_metric(name: str) -> str:
    """The cli_*_s metric a command's wall time is summed into."""
    return "cli_" + name.split()[0].replace("-", "_") + "_s"
