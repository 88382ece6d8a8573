"""One measured unit of work in a fresh interpreter, started by run.py.

    worker.py pass --workload W --seed S --trace 0|1 --out FILE
        one pass of an in-process workload: every operation under a
        per-operation deadline, in the seed's order, with qpart already
        imported so that caches start cold but import is not timed;
    worker.py cli --out FILE -- ARGV...
        one traced CLI command: install the wrappers, call qpart.cli.main.

The result goes to FILE as JSON; with tracing on, the spans go next to it.
qpart must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def run_ops(ops: list, deadline_s: float, tracer: tracing.Tracer | None) -> dict:
    """Run operations one after another, each stopped at deadline_s."""
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    t0 = time.perf_counter()
    for op in ops:
        root = tracer.begin_op(op.name) if tracer else None
        status, error, result = "ok", None, None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            status = "deadline"
        except Exception as exc:  # a failed operation is data, not a harness error
            status, error = "raised", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        values = None
        if status == "ok":
            try:
                values = op.values(result)
            except Exception as exc:
                status, error = "raised", f"{type(exc).__name__}: {exc}"
        records.append({"name": op.name, "latency_s": latency, "status": status,
                        "error": error, "values": values})
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "ops": records}


def run_cli(argv: list[str], tracer: tracing.Tracer) -> dict:
    import qpart.cli

    buf = io.StringIO()
    status, error, code = "ok", None, None
    root = tracer.begin_op(" ".join(argv))
    try:
        with contextlib.redirect_stdout(buf):
            code = qpart.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        status, error = "raised", f"{type(exc).__name__}: {exc}"
    finally:
        tracer.close(root)
    return {"status": status, "error": error, "exit_code": code, "stdout": buf.getvalue()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--out", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    import qpart  # noqa: F401  (import is set-up, not part of the pass)

    out = Path(args.out)
    tracer = tracing.Tracer() if args.mode == "cli" or args.trace else None
    if tracer:
        tracer.install()
    if args.mode == "pass":
        result = run_ops(wl.in_process_ops(args.workload, args.seed), wl.DEADLINE_S, tracer)
    else:
        result = run_cli([a for a in args.argv if a != "--"], tracer)
    if tracer:
        result["trace"] = tracer.summary()
        tracer.uninstall()
        tracer.write(out.with_suffix(".spans.json"))
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
