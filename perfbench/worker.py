"""One workload in a fresh process: import, build ops, run the closed loop.

run.py starts this script with threads pinned to one.  It prints one line
{"ready_ns": ...} (CLOCK_MONOTONIC) as soon as the first op could start, one
line {"reference_s": ...} with the reference kernel's time just after, and
then, unless --setup-only, one JSON line with the run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import checks
import probes
import reference
import stats
import workloads
from spans import BENCH_LAYER, Tracer

#: Ops built during set-up; a run longer than this many ops reuses them.
OPS_BUILT = 400

#: Reference kernel timings whose median scales a set-up time.
SETUP_REFERENCES = 3

LAYERS = ("spectral", "norms", "evolution", "estimates", "conservation", "cli")

#: Boundary functions with a stable metric name, by function name.  Any other
#: boundary function still counts in its layer's totals.
GROUPS = {
    "_forward_raw": "spectral.transform",
    "_inverse_raw": "spectral.transform",
    "_is_hermitian": "spectral.hermitian_check",
    "solve_reference": "evolution.solve",
    "export_trajectory_csv": "evolution.export",
    "export_trajectory_binary": "evolution.export",
    "apriori_check": "conservation.apriori",
    "localized_lift": "norms.lift",
    "bourgain_norm": "norms.restriction_norm",
    "bourgain_weights": "norms.weights",
    "mixed_lebesgue_norm": "norms.mixed_lebesgue",
}

#: Counters filled by the hooks below, reported per op.
COUNTERS = (
    "spectral.transform.points",
    "spectral.transform.bytes",
    "evolution.steps",
    "evolution.export.bytes",
    "conservation.states",
    "norms.weights.evaluations",
)


def _transform_hook(tracer, args, kwargs, result):
    # computed from array sizes: elements in, and bytes read plus written
    tracer.count("spectral.transform.points", args[0].size)
    tracer.count("spectral.transform.bytes", args[0].nbytes + result.nbytes)


def _solve_hook(tracer, args, kwargs, result):
    tracer.count("evolution.steps", result.n_times - 1)


def _export_hook(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("evolution.export.bytes", os.path.getsize(path))


def _apriori_hook(tracer, args, kwargs, result):
    tracer.count("conservation.states", args[0].n_times)


def _weights_key(tracer, taus, xis, p, b):
    tracer.count("norms.weights.evaluations")
    tracer.note_distinct("norms.weights", (hash(taus.tobytes()), hash(xis.tobytes()), p, float(b)))


def _weights_hook(tracer, args, kwargs, result):
    _weights_key(tracer, *args[:4])


def _norm_hook(tracer, args, kwargs, result):
    # bourgain_norm evaluates the weights once inside its own module
    field, p = args[0], args[1]
    b = args[2] if len(args) > 2 else kwargs.get("b")
    _weights_key(tracer, field.taus, field.space_grid.frequencies, p, p.b if b is None else b)


HOOKS = {
    "_forward_raw": _transform_hook,
    "_inverse_raw": _transform_hook,
    "solve_reference": _solve_hook,
    "export_trajectory_csv": _export_hook,
    "export_trajectory_binary": _export_hook,
    "apriori_check": _apriori_hook,
    "bourgain_weights": _weights_hook,
    "bourgain_norm": _norm_hook,
}


def in_child(fn):
    """fn run in a forked child, so that its memory stays out of peak_rss_mb.

    ru_maxrss is the worker's high-water mark over its whole life.  Reading
    traj.bin back holds more at once than a simulate op does, and the
    reference kernel's block is larger than a bilinear op's arrays, so either
    in the worker itself would set peak_rss_mb.  The child sends back fn's
    JSON result and its own high-water mark, which starts at the worker's RSS
    at fork; an exception in fn is raised here as CheckFailed.
    """
    peaks = []

    def run(*args):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                try:
                    payload = {"result": fn(*args)}
                except Exception as exc:  # reported to the worker, which fails the op
                    payload = {"error": repr(exc)}
                payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                with os.fdopen(write_fd, "w") as fh:
                    json.dump(payload, fh)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        try:
            with os.fdopen(read_fd) as fh:
                raw = fh.read()
        finally:
            _, status = os.waitpid(pid, 0)
        if not raw or os.waitstatus_to_exitcode(status) != 0:
            raise checks.CheckFailed(f"child process ended with status {status}")
        payload = json.loads(raw)
        peaks.append(payload["maxrss_kb"] / 1024.0)
        if "error" in payload:
            raise checks.CheckFailed(payload["error"])
        return payload["result"]

    run.peaks = peaks
    return run


class OpRunner:
    """Runs one op through the CLI entry point, then checks its artifacts.

    Only the CLI call is timed.  The reference kernel is timed before the
    first op and after each op; an op's reference_s is the mean of the two
    timings around it.  An op fails when it raises, exits non-zero or leaves
    artifacts that do not check; the loop goes on either way.
    """

    def __init__(self, cli, work_dir: str, check, reference, tracer: Tracer | None = None):
        self.cli = cli
        self.work_dir = work_dir
        self.check = check
        self.reference = reference
        self.tracer = tracer
        self._reference_before = None

    def __call__(self, op: workloads.Op, index: int) -> dict:
        if self._reference_before is None:
            self._reference_before = self.reference()
        out = os.path.join(self.work_dir, f"op{index}")
        argv = list(op.argv) + ["--out", out]
        record = {"op": index, "argv": list(op.argv), "work": op.work, "ok": False}
        span = None
        cpu0 = time.process_time()
        t0 = time.perf_counter_ns()
        try:
            if self.tracer is not None:
                span = self.tracer.begin_op(index)
            code = self.cli.main(argv)
        except Exception:  # the loop must survive any failing op
            code = None
            record["error"] = traceback.format_exc(limit=3)
        finally:
            if span is not None:
                self.tracer.end_op(span)
            record["wall_s"] = (time.perf_counter_ns() - t0) / 1e9
            record["cpu_s"] = time.process_time() - cpu0
        after = self.reference()
        record["reference_s"] = (self._reference_before + after) / 2.0
        self._reference_before = after
        if code == 0:
            try:
                record["facts"] = self.check(out, op.argv)
                record["bytes_written"] = sum(
                    entry.stat().st_size for entry in os.scandir(out) if entry.is_file()
                )
                record["ok"] = True
            except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                record["error"] = f"check failed: {exc!r}"
        elif code is not None:
            record["error"] = f"exit code {code}"
        shutil.rmtree(out, ignore_errors=True)
        return record


def run_loop(ops, seconds: float, cycle: int, runner) -> list[dict]:
    """Closed loop over ops until seconds have passed and a cycle is complete."""
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        records.append(runner(ops[i % len(ops)], i))
        if (i + 1) % cycle == 0 and time.perf_counter() - start >= seconds:
            return records


def throughput(records: list[dict], cycle: int) -> float:
    """Work per second: the median work over the median wall time, per slot.

    Slot k holds the ops at positions k, k + cycle, ... of the loop, so each
    kind of a mixed workload counts once per cycle.  Failed ops do not count.
    """
    work = seconds = 0.0
    for k in range(cycle):
        slot = [r for r in records[k::cycle] if r["ok"]]
        if not slot:
            return 0.0
        work += stats.median(r["work"] for r in slot)
        seconds += stats.median(r["wall_s"] for r in slot)
    return work / seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def at_reference_speed(records: list[dict]) -> list[dict]:
    """Records with wall and CPU time scaled to the reference kernel's speed."""
    scaled = []
    for r in records:
        scale = reference.REFERENCE_S / r["reference_s"]
        scaled.append(dict(r, wall_s=r["wall_s"] * scale, cpu_s=r["cpu_s"] * scale))
    return scaled


def timings(records: list[dict], cycle: int) -> dict:
    ok = [r for r in records if r["ok"]]
    walls = [r["wall_s"] for r in ok] or [0.0]
    return {
        "throughput": throughput(records, cycle),
        "op_p50_s": stats.median(walls),
        "op_tail_s": stats.tail(walls)[0],
        "cpu_s_per_op": stats.median([r["cpu_s"] for r in ok] or [0.0]),
    }


def end_to_end(records: list[dict], cycle: int) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed phase, plus details for the report.

    The timings are at the reference kernel's speed; the details keep them
    as measured, under "measured".
    """
    ok = [r for r in records if r["ok"]]
    metrics = timings(at_reference_speed(records), cycle)
    metrics["peak_rss_mb"] = peak_rss_mb()
    _, percentile, n = stats.tail([r["wall_s"] for r in ok] or [0.0])
    refs = [r["reference_s"] for r in records]
    details = {
        "op_tail_percentile": percentile,
        "op_count": n,
        "failed_frac": (len(records) - len(ok)) / len(records),
        "measured": timings(records, cycle),
        "reference_s": {"median": stats.median(refs), "min": min(refs), "max": max(refs)},
    }
    return metrics, details


def per_layer(tracer: Tracer, records: list[dict]) -> tuple[dict, dict]:
    """Per-op layer figures of a traced phase, plus the per-op balance check."""
    summary = tracer.summary()
    n = max(1, len(summary["ops"]))
    metrics = {}
    for layer in LAYERS + (BENCH_LAYER,):
        calls, ns = summary["layers"].get(layer, (0, 0))
        if layer != BENCH_LAYER:
            metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.self_s"] = ns / 1e9 / n
    groups = {g: [0, 0] for g in GROUPS.values()}
    for name, (calls, ns) in summary["names"].items():
        group = GROUPS.get(name.rsplit(".", 1)[-1])
        if group is not None:
            groups[group][0] += calls
            groups[group][1] += ns
    for group, (calls, ns) in groups.items():
        metrics[f"{group}.calls"] = calls / n
        metrics[f"{group}.self_s"] = ns / 1e9 / n
    for key in COUNTERS:
        metrics[key] = tracer.counters.get(key, 0.0) / n
    evaluations = tracer.counters.get("norms.weights.evaluations", 0.0)
    distinct = len(tracer.distinct.get("norms.weights", ()))
    metrics["norms.weights.distinct_frac"] = distinct / evaluations if evaluations else 0.0

    facts = [r["facts"] for r in records if r["ok"]]
    samples = sum(f.get("samples", 0) for f in facts)
    top = sum(f.get("top_cells", 0) for f in facts)
    metrics["estimates.samples"] = samples / n
    metrics["estimates.skipped_frac"] = (
        sum(f.get("skipped", 0) for f in facts) / samples if samples else 0.0)
    metrics["estimates.regions.kept_frac"] = (
        sum(f.get("kept_cells", 0) for f in facts) / top if top else 0.0)
    metrics["cli.bytes_written"] = sum(r.get("bytes_written", 0) for r in records) / n

    unbalanced = [op for op, (dur, own) in summary["ops"].items() if dur != own]
    details = {
        "traced_ops": len(summary["ops"]),
        "spans": len(tracer.end),
        "layers_seen": sorted(summary["layers"]),
        "unbalanced_ops": unbalanced,
        "negative_self_spans": summary["negative_self"],
        "tracing_s_per_op": summary["tracing_ns"] / 1e9 / n,
        "hook_errors": tracer.hook_errors,
    }
    return metrics, details


def is_correct(failed: list, pinned_problems: list, details: dict) -> bool:
    """No failed op, the pinned values hold, and a traced run's spans add up.

    A hook that no longer fits its boundary would leave its counters at 0,
    which reads as an improvement, so a hook error makes the run incorrect.
    """
    traced_ok = not (details.get("unbalanced_ops") or details.get("negative_self_spans")
                     or details.get("hook_errors"))
    return not failed and not pinned_problems and traced_ok


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fbo_lab
    import fbo_lab.cli
    import fbo_lab.estimates

    if not os.path.abspath(fbo_lab.__file__).startswith(src + os.sep):
        raise ImportError(f"fbo_lab was imported from {fbo_lab.__file__}, not from {src}")
    return fbo_lab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    fbo = import_package(args.root)
    ops = workloads.make_ops(args.workload, args.seed, OPS_BUILT)
    print(json.dumps({"ready_ns": time.monotonic_ns()}), flush=True)
    measure = in_child(reference.kernel_s)
    setup_reference = stats.median(measure() for _ in range(SETUP_REFERENCES))
    print(json.dumps({"reference_s": setup_reference}), flush=True)
    if args.setup_only:
        return 0

    cycle = workloads.CYCLE[args.workload]
    check = in_child(lambda out, argv: checks.check_op(out, argv, fbo))
    runner = OpRunner(fbo.cli, args.work_dir, check, measure)
    if args.trace:
        # the untraced half gives the base for the tracing overhead
        plain = run_loop(ops, args.seconds / 2.0, cycle, runner)
        tracer = Tracer()
        runner.tracer = tracer
        wrapped = tracer.install(fbo, entry_points=[("cli", "main")], hooks=HOOKS)
        try:
            traced = run_loop(ops, args.seconds / 2.0, cycle, runner)
        finally:
            tracer.uninstall()
            runner.tracer = None
        metrics, details = per_layer(tracer, traced)
        # at reference speed, so that a change of the machine's speed between
        # the halves does not read as tracing overhead
        base = throughput(at_reference_speed(plain), cycle)
        metrics["trace.overhead_frac"] = (
            1.0 - throughput(at_reference_speed(traced), cycle) / base if base else 0.0)
        metrics.update(probes.run_probes(fbo, fbo.estimates))
        details["wrapped_functions"] = wrapped
        if args.spans_out:
            tracer.write(args.spans_out)
        records = plain + traced
    else:
        records = run_loop(ops, args.seconds, cycle, runner)
        metrics, details = end_to_end(records, cycle)
        # the checks' own high-water mark, to show it is not in peak_rss_mb
        details["check_peak_rss_mb"] = max(check.peaks, default=0.0)

    pinned_problems = []
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")) as fh:
        pinned = json.load(fh)
    for entry in pinned[args.workload]:
        record = runner(workloads.op_from_argv(entry["argv"]), -1)
        if not record["ok"]:
            pinned_problems.append(f"{entry['argv']}: {record.get('error')}")
        else:
            pinned_problems += checks.compare_pinned(record["facts"], entry["expect"])

    failed = [r for r in records if not r["ok"]]
    details["format_deviations"] = sum(
        r["facts"].get("format_deviations", 0) for r in records if r["ok"])
    details["pinned_problems"] = pinned_problems
    details["numpy"] = np.__version__
    details["threads"] = {k: v for k, v in os.environ.items() if k.endswith("THREADS")}
    details["errors"] = [r["error"] for r in failed[:5]]
    result = {
        "correct": is_correct(failed, pinned_problems, details),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "details": details,
        "ops": [r["argv"] for r in records],
        "op_wall_s": [r["wall_s"] for r in records],
        "op_cpu_s": [r["cpu_s"] for r in records],
        "op_reference_s": [r["reference_s"] for r in records],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
