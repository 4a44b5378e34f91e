"""Tests of the benchmark's own arithmetic: self time, the tail rule, failed ops.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import textwrap
import time

import numpy as np
import pytest

import checks
import reference
import stats
import worker
from spans import Tracer, boundary_functions
from workloads import Op

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _span(tracer, name, layer, parent, op, start, end, cost=0):
    tracer.name.append(tracer.intern(name, layer))
    tracer.parent.append(parent)
    tracer.op.append(op)
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.cost.append(cost)
    return len(tracer.end) - 1


def test_self_time_of_nested_spans():
    tracer = Tracer()
    root = _span(tracer, "op", "bench", -1, 0, 0, 100)
    a = _span(tracer, "cli<-a.f", "a", root, 0, 10, 60)
    _span(tracer, "a<-b.g", "b", a, 0, 20, 30)
    _span(tracer, "a<-b.g", "b", a, 0, 35, 40)
    _span(tracer, "cli<-c.h", "c", root, 0, 70, 90)
    root2 = _span(tracer, "op", "bench", -1, 1, 200, 250)
    _span(tracer, "cli<-a.f", "a", root2, 1, 210, 250)

    dur, own = tracer.self_times()
    assert own[:5] == [30, 35, 10, 5, 20]
    summary = tracer.summary()
    assert summary["layers"] == {"bench": (2, 40), "a": (2, 75), "b": (2, 15), "c": (1, 20)}
    assert summary["names"]["a<-b.g"] == (2, 15)
    # per op, the self times add up exactly to the op's wall time
    assert summary["ops"] == {0: (100, 100), 1: (50, 50)}
    assert summary["negative_self"] == 0


def test_tracing_cost_is_charged_to_the_bench_layer_not_the_caller():
    tracer = Tracer()
    root = _span(tracer, "op", "bench", -1, 0, 0, 100)
    a = _span(tracer, "cli<-a.f", "a", root, 0, 10, 60, cost=4)
    _span(tracer, "a<-b.g", "b", a, 0, 20, 30, cost=3)

    dur, own = tracer.self_times()
    assert own == [100 - 50 - 4, 50 - 10 - 3, 10]
    summary = tracer.summary()
    assert summary["layers"] == {"bench": (1, 46 + 7), "a": (1, 37), "b": (1, 10)}
    assert summary["tracing_ns"] == 7
    assert summary["ops"] == {0: (100, 100)}


def test_child_outside_its_parent_shows_as_negative_self_time():
    tracer = Tracer()
    root = _span(tracer, "op", "bench", -1, 0, 0, 10)
    _span(tracer, "cli<-a.f", "a", root, 0, 5, 20)
    assert tracer.summary()["negative_self"] == 1


@pytest.fixture
def two_module_package(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(textwrap.dedent("""
        def work(x):
            return helper(x) + 1

        def helper(x):
            return 2 * x
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import work

        class Thing:
            pass

        def entry(x):
            return work(x) + work(x)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg

    yield toypkg
    for name in [m for m in sys.modules if m.startswith("toypkg")]:
        del sys.modules[name]


def test_boundary_functions_are_found_by_inspection(two_module_package):
    found = boundary_functions(two_module_package)
    assert [(imp, attr, layer) for imp, attr, layer, _ in found] == [("high", "work", "low")]


def test_tracer_spans_only_cross_module_calls_inside_an_op(two_module_package):
    import toypkg.high as high

    tracer = Tracer()
    assert tracer.install(two_module_package, entry_points=[("high", "entry")]) == 2
    try:
        assert high.entry(3) == 14  # outside an op: no spans
        assert len(tracer.end) == 0
        span = tracer.begin_op(0)
        assert high.entry(3) == 14
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # helper is called inside low only, so it is not a span of its own
    assert summary["names"].keys() == {"op", "high<-high.entry", "high<-low.work"}
    assert summary["layers"]["low"][0] == 2
    assert summary["layers"]["high"][0] == 1
    dur, own = summary["ops"][0]
    assert dur == own
    assert high.work.__module__ == "toypkg.low" and not hasattr(high.work, "__wrapped__")


def test_hook_time_is_bench_time_and_a_failing_hook_is_counted(two_module_package):
    import toypkg.high as high

    def slow_hook(tracer, args, kwargs, result):
        t_end = time.perf_counter_ns() + 2_000_000
        while time.perf_counter_ns() < t_end:
            pass
        if args[0] < 0:
            raise TypeError("unknown signature")

    tracer = Tracer()
    tracer.install(two_module_package, entry_points=[("high", "entry")],
                   hooks={"work": slow_hook})
    try:
        span = tracer.begin_op(0)
        assert high.entry(3) == 14
        assert high.entry(-1) == -2
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # four hooks of 2 ms each run inside cli<-high.entry, but count as bench
    assert summary["tracing_ns"] >= 8_000_000
    assert summary["layers"]["high"][1] < 2_000_000
    assert summary["layers"]["bench"][1] >= 8_000_000
    dur, own = summary["ops"][0]
    assert dur == own
    assert tracer.hook_errors == 2


def test_correct_needs_every_op_the_pins_the_balance_and_the_hooks():
    assert worker.is_correct([], [], {"unbalanced_ops": [], "hook_errors": 0})
    assert not worker.is_correct([{"ok": False}], [], {})
    assert not worker.is_correct([], ["seed: got 1, pinned 2"], {})
    assert not worker.is_correct([], [], {"unbalanced_ops": [3]})
    assert not worker.is_correct([], [], {"negative_self_spans": 1})
    assert not worker.is_correct([], [], {"hook_errors": 1})


def test_a_check_in_a_child_keeps_its_memory_out_of_the_peak():
    def check(out, argv):
        block = np.ones(16 * 1024 * 1024)  # 128 MB, touched
        return {"sum": float(block.sum()), "out": out}

    before = worker.peak_rss_mb()
    run = worker.in_child(check)
    assert run("dir", ["simulate"]) == {"sum": 16 * 1024 * 1024, "out": "dir"}
    assert worker.peak_rss_mb() == before
    assert run.peaks[0] >= 128

    def failing(out, argv):
        raise checks.CheckFailed("L2 drift 1e-3 above 1e-06")

    with pytest.raises(checks.CheckFailed, match="L2 drift"):
        worker.in_child(failing)("dir", ["simulate"])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    value, percentile, n = stats.tail(range(100, 0, -1))
    assert (value, percentile, n) == (90.0, 90.0, 100)
    value, percentile, n = stats.tail(range(1, 21))
    assert (value, percentile, n) == (10.0, 50.0, 20)
    assert sum(1 for x in range(1, 21) if x > value) == stats.TAIL_OPS_BEYOND


def test_tail_with_too_few_ops_falls_back_to_the_minimum():
    assert stats.tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (1.0, 20.0, 5)


class _FakeCli:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def main(self, argv):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        os.makedirs(argv[argv.index("--out") + 1], exist_ok=True)
        return outcome


def test_an_exception_counts_as_a_failed_op_and_the_run_goes_on(tmp_path):
    cli = _FakeCli([0, RuntimeError("boom"), 0, 2])
    runner = worker.OpRunner(cli, str(tmp_path), check=lambda out, argv: {"samples": 1},
                             reference=lambda: reference.REFERENCE_S)
    ops = [Op(("verify-estimate",), 10)]
    records = worker.run_loop(ops, seconds=0.0, cycle=4, runner=runner)
    assert [r["ok"] for r in records] == [True, False, True, False]
    assert "RuntimeError: boom" in records[1]["error"]
    assert records[3]["error"] == "exit code 2"
    metrics, details = worker.end_to_end(records, cycle=1)
    assert details["failed_frac"] == 0.5
    assert details["op_count"] == 2
    # failed ops do not count towards throughput
    walls = [r["wall_s"] for r in records if r["ok"]]
    assert metrics["throughput"] == pytest.approx(10 / stats.median(walls))


def test_timings_are_scaled_by_the_reference_timed_around_each_op(tmp_path):
    timings = iter([0.03, 0.09, 0.03])
    runner = worker.OpRunner(_FakeCli([0, 0]), str(tmp_path), check=lambda out, argv: {},
                             reference=lambda: next(timings))
    records = worker.run_loop([Op(("simulate",), 5)], seconds=0.0, cycle=2, runner=runner)
    assert [r["reference_s"] for r in records] == pytest.approx([0.06, 0.06])
    for r, wall in zip(records, (2.0, 4.0)):
        r["wall_s"] = r["cpu_s"] = wall
    metrics, details = worker.end_to_end(records, cycle=1)
    # the machine ran at half the reference speed, so times halve
    assert metrics["op_p50_s"] == pytest.approx(1.5)
    assert metrics["cpu_s_per_op"] == pytest.approx(1.5)
    assert metrics["throughput"] == pytest.approx(5 / 1.5)
    assert details["measured"]["op_p50_s"] == pytest.approx(3.0)
    assert details["reference_s"]["median"] == pytest.approx(0.06)


def test_declared_metrics_match_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    record = {"ok": True, "work": 1, "wall_s": 1.0, "cpu_s": 1.0, "reference_s": 0.03,
              "facts": {}}
    metrics, _ = worker.end_to_end([record], cycle=1)
    assert end_to_end == set(metrics) | {"setup_s"}
    layer_metrics, _ = worker.per_layer(Tracer(), [record])
    assert set(layer_metrics) <= per_layer
    rest = per_layer - set(layer_metrics)
    assert all(name.startswith("probe.") for name in rest - {"trace.overhead_frac"})
