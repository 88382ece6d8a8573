"""Run every workload over several seeds and record the spread of its metrics.

    python3 perfbench/baseline.py --seeds 1-10 [--workload W ...] [--out FILE]

For each workload and seed it runs `run.py --trace 0` (with the
`run_seconds` of BENCHMARK.json) and then one `--trace 1` run, and writes,
per workload, each end-to-end metric's values, median, quartiles and
spread (quartile distance over median, as statistics.quantiles gives
them), the per-layer metrics of the traced run, and the failed operations
with their reasons. The committed perfbench/baseline/seed.json is this
record for the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in decl["workloads"]])
    ap.add_argument("--out", type=Path, default=HERE / "baseline" / "seed.json")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    doc = {"run_seconds": decl["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in decl["workloads"]]:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            result, record = run_once(workload, seed, decl["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        traced, _ = run_once(workload, args.seeds[0], decl["run_seconds"], 1)
        doc["workloads"][workload] = {
            "end_to_end": {k: {**spread(v), "bound": bounds[k]} for k, v in values.items()},
            "unexpected_failures": failed,
            "attempted": attempted,
            "failures": record["failures"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for k, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"  {k:12s} median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
