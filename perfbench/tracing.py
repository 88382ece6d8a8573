"""Spans around qpart's public functions, installed from outside the package.

`Tracer.install()` wraps every public function (name without a leading
underscore, defined in that module) of the traced modules and rebinds every
`qpart.*` module attribute that holds the same function object, so calls
between modules go through the wrappers too. `uninstall()` puts the
original objects back.

Each span records its name, start, end, parent span and the operation it
belongs to; spans stay in memory until `summary()` reduces them and
`write()` dumps them. A span's self time is its duration minus the time
covered by its child spans. Calls of a generator function are counted
once, and each resumption of the generator is timed as its own span, so
the consumer's work between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("partitions", "qspecial", "measures", "kernels", "gap",
                  "oppainleve", "cli")
ROOT = "op"  # span the benchmark opens around each operation
ROUTED = "gap.gap_probability"  # spans below one are charged to its method
CACHED = ("gap.symbol_table", "oppainleve.op_sequence")


NAME, START, END, PARENT, OP, TAG = range(6)  # fields of a span record


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, op, tag]
        self.calls: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.op_id = -1
        self.originals: dict[str, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, tag: str | None = None) -> int:
        i = len(self.spans)
        # one append per span, so a deadline signal cannot tear a record
        self.spans.append([name, self.clock(), None,
                           self.stack[-1] if self.stack else -1, self.op_id, tag])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        now = self.clock()
        # spans left open above i (an exception between open and try) end here
        while self.stack:
            j = self.stack.pop()
            self.spans[j][END] = now
            if j == i:
                return

    def begin_op(self, label: str) -> int:
        self.op_id += 1
        return self.open(ROOT, label)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    yield item
            return gen_wrapper

        if name == ROUTED:
            method_of = inspect.signature(fn)

            @functools.wraps(fn)
            def routed_wrapper(*args, **kwargs):
                bound = method_of.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.calls[name] += 1
                i = tracer.open(name, bound.arguments["method"])
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(i)
            return routed_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
        return wrapper

    def install(self, modules=TRACED_MODULES) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        targets = {}
        for short in modules:
            mod = importlib.import_module(f"qpart.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                name = f"{short}.{attr}"
                self.originals[name] = obj
                targets[id(obj)] = self._wrap(name, obj)
        packages = [m for k, m in list(sys.modules.items())
                    if m is not None and (k == "qpart" or k.startswith("qpart."))]
        for mod in packages:
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [(sp[END] if sp[END] is not None else sp[START]) - sp[START]
               for sp in self.spans]
        own = list(dur)
        for i, sp in enumerate(self.spans):
            if sp[PARENT] >= 0:
                own[sp[PARENT]] -= dur[i]
        return own

    def summary(self) -> dict:
        """Additive per-name and per-route totals; see `layer_metrics`."""
        own = self.self_times()
        route: list[str | None] = []
        self_s: dict[str, float] = defaultdict(float)
        routes: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for i, (name, _, _, parent, _, tag) in enumerate(self.spans):
            r = tag if name == ROUTED else (route[parent] if parent >= 0 else None)
            route.append(r)
            self_s[name] += own[i]
            if r is None:
                continue
            if name.startswith("gap."):
                routes[r]["gap_self_s"] += own[i]
            if name == ROUTED:
                routes[r]["calls"] += 1
            elif name == "qspecial.fourier_coefficients":
                routes[r]["tables"] += 1
            elif name == "kernels.q_bessel_kernel":
                routes[r]["kernel_entries"] += 1
        caches = {}
        for name in CACHED:
            fn = self.originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                caches[name] = [info.hits, info.misses]
        return {"self_s": dict(self_s), "calls": dict(self.calls),
                "routes": {k: dict(v) for k, v in routes.items()}, "caches": caches}

    def write(self, path) -> None:
        index = {n: k for k, n in enumerate(dict.fromkeys(sp[NAME] for sp in self.spans))}
        rows = [[index[sp[NAME]], *sp[1:]] for sp in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "names": list(index), "spans": rows}, fh)


def merge(summaries: list[dict]) -> dict:
    """Sum the additive totals of several traced processes or passes."""
    out: dict = {"self_s": defaultdict(float), "calls": defaultdict(int),
                 "routes": defaultdict(lambda: defaultdict(float)),
                 "caches": defaultdict(lambda: [0, 0])}
    for s in summaries:
        for k, v in s["self_s"].items():
            out["self_s"][k] += v
        for k, v in s["calls"].items():
            out["calls"][k] += v
        for r, d in s["routes"].items():
            for k, v in d.items():
                out["routes"][r][k] += v
        for k, (hits, misses) in s["caches"].items():
            out["caches"][k][0] += hits
            out["caches"][k][1] += misses
    return out


LAYER_MODULES = ("partitions", "qspecial", "measures", "kernels", "oppainleve", "cli")
FUNCTION_METRICS = (
    "partitions.enumerate_partitions.calls",
    "partitions.cell_stats.calls",
    "qspecial.fourier_coefficients.calls",
    "qspecial.fourier_coefficients.self_s",
    "qspecial.macmahon.calls",
    "qspecial.q_bessel.calls",
    "measures.normalization_partial_sum.self_s",
    "kernels.q_bessel_kernel.calls",
    "kernels.q_bessel_kernel.self_s",
    "kernels.schur_kernel.calls",
    "kernels.schur_kernel.self_s",
    "oppainleve.op_sequence.calls",
    "oppainleve.op_sequence.self_s",
    "oppainleve.rhp_sample.self_s",
    "oppainleve.lax_checks.self_s",
    "oppainleve.monic_coefficients.calls",
)
ROUTES = ("toeplitz", "fredholm", "enumeration")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict) -> dict[str, float]:
    """The named per-layer metrics from merged span totals."""
    m: dict[str, float] = {}
    for mod in LAYER_MODULES:
        m[f"{mod}.self_s"] = sum(v for k, v in total["self_s"].items()
                                 if k.split(".")[0] == mod)
    for metric in FUNCTION_METRICS:
        fn, kind = metric.rsplit(".", 1)
        source = total["calls"] if kind == "calls" else total["self_s"]
        m[metric] = source.get(fn, 0)
    for r in ROUTES:
        d = total["routes"].get(r, {})
        m[f"gap.{r}.self_s"] = d.get("gap_self_s", 0.0)
        m[f"gap.{r}.calls"] = int(d.get("calls", 0))
    fred = total["routes"].get("fredholm", {})
    m["gap.fredholm.tables_per_call"] = _ratio(fred.get("tables", 0), fred.get("calls", 0))
    m["gap.fredholm.kernel_entries_per_call"] = _ratio(
        fred.get("kernel_entries", 0), fred.get("calls", 0))
    for name, metric in (("gap.symbol_table", "gap.symbol_table.hit_ratio"),
                         ("oppainleve.op_sequence", "oppainleve.op_sequence.hit_ratio")):
        hits, misses = total["caches"].get(name, (0, 0))
        m[metric] = _ratio(hits, hits + misses)
    return m
