"""Tests of the benchmark's tracer, failure classifier and metric helpers."""

import sys
import time

import checks
import run
import tracing
import worker
import workloads as wl


class FakeClock:
    """Advances one unit per reading, so span lengths are exact counts."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_of_nested_calls():
    tr = tracing.Tracer(clock=FakeClock())
    inner = tr._wrap("kernels.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tr._wrap("gap.outer", body)
    root = tr.begin_op("synthetic")
    outer()
    tr.close(root)
    # clock readings: root 1; outer 2; inner 3-4; inner 5-6; outer ends 7; root 8
    assert [sp[tracing.NAME] for sp in tr.spans] == [
        "op", "gap.outer", "kernels.inner", "kernels.inner"]
    assert [sp[tracing.PARENT] for sp in tr.spans] == [-1, 0, 1, 1]
    assert tr.self_times() == [2.0, 3.0, 1.0, 1.0]
    s = tr.summary()
    assert s["self_s"] == {"op": 2.0, "gap.outer": 3.0, "kernels.inner": 2.0}
    assert s["calls"] == {"gap.outer": 1, "kernels.inner": 2}


def test_generator_resumptions_are_spans_and_one_call():
    tr = tracing.Tracer(clock=FakeClock())

    def gen():
        yield 1
        yield 2

    wrapped = tr._wrap("partitions.gen", gen)
    assert list(wrapped()) == [1, 2]
    assert tr.calls["partitions.gen"] == 1
    assert [sp[tracing.NAME] for sp in tr.spans].count("partitions.gen") == 3  # 2 items, stop


def test_routes_split_gap_work_by_method():
    tr = tracing.Tracer(clock=FakeClock())
    table = tr._wrap("qspecial.fourier_coefficients", lambda: None)

    def gap_probability(query, method="toeplitz"):
        table()

    routed = tr._wrap(tracing.ROUTED, gap_probability)
    routed(None, method="fredholm")
    routed(None, "fredholm")
    routed(None)
    m = tracing.layer_metrics(tracing.merge([tr.summary()]))
    assert m["gap.fredholm.calls"] == 2
    assert m["gap.toeplitz.calls"] == 1
    assert m["gap.fredholm.tables_per_call"] == 1.0


def _snapshot():
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qpart" or name.startswith("qpart."))
            for attr, obj in vars(mod).items()}


def test_install_then_uninstall_restores_every_attribute():
    import qpart.cli  # noqa: F401  (install imports every traced module)
    from qpart import gap, oppainleve

    before = _snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        # a function bound in two modules is rebound to one wrapper in both
        assert gap.symbol_table is not before[("qpart.gap", "symbol_table")]
        assert oppainleve.symbol_table is gap.symbol_table
        assert "cli.main" in tr.originals and "kernels.twice" in tr.originals
        assert not any(n.split(".")[1].startswith("_") for n in tr.originals)
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_deadline_stops_an_operation_and_fails_it():
    def slow():
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass

    ops = [wl.Op("slow", slow, lambda r: {}, lambda o: {}),
           wl.Op("fast", lambda: 2.0, lambda r: {"p": ([r], "rel")}, lambda o: {})]
    res = worker.run_ops(ops, 0.05, None)
    slow_rec, fast_rec = res["ops"]
    assert slow_rec["status"] == "deadline"
    assert slow_rec["latency_s"] < 1.0
    assert fast_rec["status"] == "ok"
    v = checks.classify(slow_rec["status"], slow_rec["values"], {})
    assert (v.ok, v.reason) == (False, "deadline")


def test_classifier_flags_wrong_values_and_counts_digits():
    want = {"p": ([1.0, 2.0], "rel")}
    good = checks.classify("ok", {"p": ([1.0 + 1e-12, 2.0], "rel")}, want)
    assert good.ok and 11.5 < good.digits < 12.5
    bad = checks.classify("ok", {"p": ([1.1, 2.0], "rel")}, want)
    assert (bad.ok, bad.reason) == (False, "digits")
    assert abs(bad.digits - 1.0) < 1e-9
    short = checks.classify("ok", {"p": ([1.0], "rel")}, want)
    assert short.reason == "digits"
    nan = checks.classify("ok", {"p": ([float("nan"), 2.0], "rel")}, want)
    assert nan.reason == "digits"
    assert checks.classify("raised", None, want).reason == "raised"
    assert checks.classify("ok", {}, {}, exit_code=1, expected_exit=0).reason == "exit code"
    block = checks.classify("ok", {"K": ([1.0, 1e-20], "norm")},
                            {"K": ([1.0, 2e-20], "norm")})
    assert block.ok  # a block is judged by its largest entry


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(396)]) == (95.0, 376.0)
    assert run.tail([float(i) for i in range(93)])[0] == 75.0
    assert run.tail([float(i) for i in range(18)]) == (90.0, 16.0)
    assert run.tail([3.0, 1.0]) == (50.0, 1.0)
    assert run.tail([3.0]) == (100.0, 3.0)


def test_importtime_groups_by_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:        20 |         20 |     scipy.linalg",
        "import time:         7 |          7 | qpart.gap",
        "import time:         3 |          3 | json",
    ])
    got = run.parse_importtime(text)
    assert abs(got["setup.import_numpy_s"] - 150e-6) < 1e-12
    assert abs(got["setup.import_scipy_s"] - 20e-6) < 1e-12
    assert got["setup.import_mpmath_s"] == 0.0
    assert abs(got["setup.import_qpart_own_s"] - 7e-6) < 1e-12


def test_metric_names_match_the_benchmark_declaration():
    import json
    from pathlib import Path

    decl = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    verdicts = [[{"name": "a", "latency_s": 1.0, "ok": True, "digits": 12.0}]]
    passes = [{"wall_s": 1.0, "peak_rss_mb": 50.0}]
    e2e, _ = run.end_to_end([0.9], passes, verdicts)
    assert list(e2e) == [m["name"] for m in decl["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in decl["end_to_end"])
    empty = {"wall_s": 1.0, "trace": tracing.merge([])}
    imports = dict.fromkeys(run.IMPORT_GROUPS.values(), 0.1)
    layers, _ = run.per_layer(imports, empty, empty, verdicts[0])
    assert sorted(layers) == sorted(m["name"] for m in decl["per_layer"])
    assert all(layers[m["name"]][1] == m["unit"] for m in decl["per_layer"])
