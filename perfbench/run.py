"""qpart benchmark: accuracy-paired timings, end to end and per layer.

    python3 perfbench/run.py --workload {cli-desk,gap-sweep,near-scaling}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; qpart is imported from its src/. The
workloads are described in workloads.py. Every run first times fresh
`import qpart` interpreters (set-up), then runs whole passes of the workload,
each pass in a fresh process so every pass starts with cold caches. The
number of passes is fixed by --seconds (see SECONDS_PER_PASS), so runs of
faster code do the same work. Passes issue their operations in an order
drawn from --seed.

--trace 0 prints the end-to-end metrics: set-up time, pass wall time,
failures, correct digits against the stored mpmath oracle, and peak memory.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics: import times from `python -X importtime`; the per-operation
latency median and tail and the wall time of each CLI command, from the
untraced pass; and, from the traced pass, self times, call counts and
ratios read from spans around qpart's public functions. Operation
latencies and CLI command times sit here rather than end to end because
their run-to-run spread on a shared 2-core VM (up to a third of their
median) is wider than any bound the benchmark may set.

Failures of qpart operations are metrics. The failures of the code the
benchmark was introduced on are listed in baseline/known_defects.json; the
result line's `failed` counts the other failures and `correct` is true when
there are none. The exit code is nonzero, with no result line, only when
the harness itself broke. Each run's full record, with every failed
operation and its reason, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle as orc  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

OUT = HERE / "out"
KNOWN_DEFECTS = HERE / "baseline" / "known_defects.json"
# Seconds of --seconds that one pass stands for; a 20 s run makes 2 passes
# of cli-desk (12-16 s each), 4 of gap-sweep (5-8 s) and 1 of near-scaling
# (22-28 s), which keeps a full set of runs of every workload within an
# hour. Fixed, so that runs of faster code do the same work.
SECONDS_PER_PASS = {"cli-desk": 10.0, "gap-sweep": 5.0, "near-scaling": 30.0}
SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
RUN_BUDGET_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_GROUPS = {"numpy": "setup.import_numpy_s", "scipy": "setup.import_scipy_s",
                 "mpmath": "setup.import_mpmath_s", "qpart": "setup.import_qpart_own_s"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run or read a result."""


@dataclass
class Proc:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.tmp = 0

    def remaining(self) -> float:
        left = RUN_BUDGET_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise HarnessError("run budget exhausted")
        return left

    def spawn(self, argv: list[str], timeout: float) -> Proc:
        """Run a child to completion; wall time and peak RSS are its own.

        The child is waited for without being reaped first, so the kill
        timer can never signal a recycled pid.
        """
        timeout = min(timeout, self.remaining())
        killed = threading.Event()
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                        out.read().decode(), err.read().decode(), killed.is_set())

    # -- set-up ----------------------------------------------------------------

    def setup_times(self) -> list[float]:
        walls = []
        for _ in range(SETUP_SPAWNS):
            p = self.spawn(["-c", "import qpart"], 60.0)
            if p.code != 0:
                raise HarnessError(f"import qpart failed: {p.stderr.strip()[-500:]}")
            walls.append(p.wall_s)
        return walls

    def import_times(self) -> dict[str, float]:
        samples: dict[str, list[float]] = {m: [] for m in IMPORT_GROUPS.values()}
        for _ in range(IMPORTTIME_SPAWNS):
            p = self.spawn(["-X", "importtime", "-c", "import qpart"], 60.0)
            if p.code != 0:
                raise HarnessError(f"import qpart failed: {p.stderr.strip()[-500:]}")
            for metric, secs in parse_importtime(p.stderr).items():
                samples[metric].append(secs)
        return {m: statistics.median(v) for m, v in samples.items()}

    # -- passes ----------------------------------------------------------------

    def _tmpfile(self, stem: str) -> Path:
        self.tmp += 1
        return OUT / f"{self.workload}-{stem}-{self.tmp}.json"

    def in_process_pass(self, pass_seed: int, trace: int) -> dict:
        path = self._tmpfile(f"pass-t{trace}")
        p = self.spawn([str(HERE / "worker.py"), "pass", "--workload", self.workload,
                        "--seed", str(pass_seed), "--trace", str(trace),
                        "--out", str(path)], self.remaining())
        if p.code != 0 or not path.exists():
            raise HarnessError(f"worker failed ({p.code}): {p.stderr.strip()[-800:]}")
        result = json.loads(path.read_text())
        path.unlink()
        return result

    def cli_pass(self, pass_seed: int, trace: int) -> dict:
        ops, summaries, rss = [], [], 0.0
        for cmd in wl.cli_commands(pass_seed):
            if trace:
                path = self._tmpfile("cli")
                p = self.spawn([str(HERE / "worker.py"), "cli", "--out", str(path),
                                "--", *cmd.argv], wl.CLI_TIMEOUT_S)
                if p.timed_out:
                    res = {"status": "deadline", "error": None, "exit_code": None,
                           "stdout": ""}
                elif p.code != 0 or not path.exists():
                    raise HarnessError(f"traced cli failed: {p.stderr.strip()[-800:]}")
                else:
                    res = json.loads(path.read_text())
                    path.unlink()
                    summaries.append(res.pop("trace"))
            else:
                p = self.spawn(["-m", "qpart.cli", *cmd.argv], wl.CLI_TIMEOUT_S)
                res = {"status": "deadline" if p.timed_out else "ok", "error": None,
                       "exit_code": p.code, "stdout": p.stdout}
                if p.code != wl.CLI_EXIT_OK and not p.timed_out:
                    res["error"] = p.stderr.strip()[-300:]
            rss = max(rss, p.peak_rss_mb)
            values = None
            if res["status"] == "ok" and res["exit_code"] == wl.CLI_EXIT_OK:
                try:
                    values = cmd.values(json.loads(res["stdout"]))
                except (ValueError, KeyError, TypeError) as exc:
                    res["status"], res["error"] = "raised", f"output: {exc}"
            ops.append({"name": cmd.name, "latency_s": p.wall_s, "status": res["status"],
                        "error": res["error"], "values": values,
                        "exit_code": res["exit_code"], "expected_exit": wl.CLI_EXIT_OK})
        result = {"wall_s": sum(o["latency_s"] for o in ops), "peak_rss_mb": rss,
                  "ops": ops}
        if trace:
            result["trace"] = tracing.merge(summaries)
        return result

    def run_pass(self, index: int, trace: int) -> dict:
        pass_seed = self.seed * 1000 + index
        if self.workload == "cli-desk":
            return self.cli_pass(pass_seed, trace)
        return self.in_process_pass(pass_seed, trace)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time in seconds, summed per top-level package."""
    totals = {metric: 0.0 for metric in IMPORT_GROUPS.values()}
    pattern = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)")
    for line in stderr.splitlines():
        m = pattern.match(line.strip())
        if m and m.group(2).split(".")[0] in IMPORT_GROUPS:
            totals[IMPORT_GROUPS[m.group(2).split(".")[0]]] += int(m.group(1)) * 1e-6
    return totals


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it. A run with fewer than 20 samples has no
    such percentile; it gets the highest with at least one sample beyond,
    which is steadier than the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    for need in (10.0, 1.0):
        for p in TAIL_LADDER:
            if n * (1.0 - p / 100.0) >= need:
                return p, xs[math.ceil(p / 100.0 * n) - 1]
    return 100.0, xs[-1]


def specs(workload: str) -> dict:
    """Operation or command specs of a workload, by name (any seed)."""
    items = wl.cli_commands(0) if workload == "cli-desk" else wl.in_process_ops(workload, 0)
    return {item.name: item for item in items}


def check_pass(result: dict, spec: dict, oracle: dict) -> list[dict]:
    """A verdict for every operation of a pass."""
    out = []
    for rec in result["ops"]:
        v = checks.classify(rec["status"], rec["values"], spec[rec["name"]].expected(oracle),
                            rec.get("exit_code"), rec.get("expected_exit"))
        out.append({"name": rec["name"], "latency_s": rec["latency_s"], "ok": v.ok,
                    "reason": v.reason, "digits": v.digits, "worst_error": v.worst_error,
                    "error": rec["error"]})
    return out


def end_to_end(setup: list[float], passes: list[dict],
               verdicts: list[list[dict]]) -> tuple[dict, dict]:
    """(metric -> (value, unit)), and the sample counts behind them.

    failed_frac is the Jeffreys estimate (failed + 1/2) / (attempted + 1)
    per pass, so a pass without failures reads small but never 0.
    min_digits is taken over the operations that passed; a failed
    operation already counts in failed_frac, and its digits (which can be
    0 or negative) are kept in the record as min_digits_all_values.
    """
    failed = [sum(not v["ok"] for v in vs) for vs in verdicts]
    frac = [(f + 0.5) / (len(vs) + 1) for f, vs in zip(failed, verdicts)]
    ok_digits = [v["digits"] for vs in verdicts for v in vs
                 if v["ok"] and v["digits"] is not None]
    all_digits = [v["digits"] for vs in verdicts for v in vs if v["digits"] is not None]
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "failed_frac": (statistics.median(frac), "ratio"),
        "min_digits": (min(ok_digits, default=checks.DIGITS_CAP), "digits"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = {"passes": len(passes), "setup_spawns": len(setup),
             "operations": sum(len(vs) for vs in verdicts), "failed_per_pass": failed,
             "min_digits_all_values": min(all_digits, default=None)}
    return m, notes


CLI_METRICS = ("cli_verify_s", "cli_gap_table_s", "cli_painleve_s", "cli_limit_shape_s")
LAYER_UNITS = {"calls": "count", "self_s": "s", "tables_per_call": "tables/call",
               "kernel_entries_per_call": "entries/call", "hit_ratio": "ratio"}


def per_layer(imports: dict, traced: dict, untraced: dict,
              untraced_verdicts: list) -> tuple[dict, dict]:
    """Import times; from the untraced pass the operation latency median and
    tail and the CLI command times (0 on workloads without CLI commands);
    span totals of the traced pass; and the tracing overhead."""
    m = {k: (v, "s") for k, v in imports.items()}
    lat = [v["latency_s"] for v in untraced_verdicts]
    p_tail, v_tail = tail(lat)
    m["op_p50_s"] = (statistics.median(lat), "s")
    m["op_tail_s"] = (v_tail, "s")
    for metric in CLI_METRICS:
        m[metric] = (sum(v["latency_s"] for v in untraced_verdicts
                         if wl.cli_metric(v["name"]) == metric), "s")
    for k, v in tracing.layer_metrics(traced["trace"]).items():
        m[k] = (v, LAYER_UNITS[k.rsplit(".", 1)[1]])
    m["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return m, {"passes": 2, "operations": len(lat), "op_tail_percentile": p_tail}


def n_passes(workload: str, seconds: int) -> int:
    return max(1, round(seconds / SECONDS_PER_PASS[workload]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: harness error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "qpart" / "__init__.py").is_file():
        raise HarnessError(f"no qpart sources under {ROOT / 'src'}")
    oracle = orc.load()
    known = json.loads(KNOWN_DEFECTS.read_text()).get(args.workload, {})
    spec = specs(args.workload)
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)

    if args.trace:
        imports = runner.import_times()
        untraced = runner.run_pass(0, 0)
        traced = runner.run_pass(0, 1)
        passes = [untraced, traced]
    else:
        setup = runner.setup_times()
        passes = [runner.run_pass(i, 0) for i in range(n_passes(args.workload, args.seconds))]
    verdicts = [check_pass(p, spec, oracle) for p in passes]

    if args.trace:
        metrics, notes = per_layer(imports, traced, untraced, verdicts[0])
    else:
        metrics, notes = end_to_end(setup, passes, verdicts)
    failures = {}
    for vs in verdicts:
        for v in vs:
            if not v["ok"]:
                failures.setdefault(v["name"], {"reason": v["reason"], "error": v["error"],
                                                "worst_error": v["worst_error"],
                                                "known": v["name"] in known})
    unexpected = sorted(n for n, f in failures.items() if not f["known"])
    attempted = sum(len(vs) for vs in verdicts)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": {k: v[0] for k, v in metrics.items()},
              "units": {k: v[1] for k, v in metrics.items()}, "notes": notes,
              "attempted": attempted, "failed_unexpected": unexpected,
              "failures": failures,
              "operations": [[{k: v[k] for k in ("name", "latency_s", "ok", "reason", "digits")}
                              for v in vs] for vs in verdicts]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(f"# {notes}")
    for name, f in sorted(failures.items()):
        print(f"# failed: {name}: {f['reason']}{'' if f['known'] else ' (NEW)'}"
              f"{': ' + f['error'] if f['error'] else ''}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
