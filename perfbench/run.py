"""Benchmark entry point: one workload, one fresh worker process, one result.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
src/fbo_lab of that checkout.  The set-up time is measured on SETUPS fresh
interpreters (the measuring worker plus set-up-only workers started before
and after it), each scaled to reference speed by the reference kernel timed
right after it (reference.py), and reported as their median.  All end-to-end
timings are at reference speed; the report keeps them as measured too.  The
last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer metrics for --trace 1.  The full report,
with provenance and every op config, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import reference
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUPS = 9
#: A run must end well inside 180 s.
RUN_TIMEOUT_S = 170.0

THREAD_VARS = (
    "FBO_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env(work_dir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["TMPDIR"] = work_dir
    return env


def start_worker(args, env: dict, extra: list[str], procs: list) -> tuple[subprocess.Popen, int]:
    cmd = [
        sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
        "--seed", str(args.seed),
    ] + extra
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    return proc, t0


def read_setup(proc: subprocess.Popen, t0: int) -> tuple[float, float]:
    """(set-up seconds as measured, reference kernel seconds right after)."""
    ready_ns = json.loads(proc.stdout.readline())["ready_ns"]
    return (ready_ns - t0) / 1e9, json.loads(proc.stdout.readline())["reference_s"]


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return its remaining stdout."""
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def provenance(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fbo_lab", "cli.py")):
        print(f"no fbo_lab sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    declared = declared_metrics(args.trace)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    env = worker_env(work_dir)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    procs = []
    setups = []

    def setup_only():
        proc, t0 = start_worker(args, env, ["--setup-only"], procs)
        setups.append(read_setup(proc, t0))
        finish(proc, deadline - time.monotonic())

    try:
        # set-up is sampled before and after the workload, so that its median
        # spans the run rather than one moment of a shared machine
        for _ in range(SETUPS // 2):
            setup_only()
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--work-dir", work_dir]
        if args.trace:
            extra += ["--spans-out", os.path.join(out_dir, f"spans_{args.workload}.csv.gz")]
        proc, t0 = start_worker(args, env, extra, procs)
        setups.append(read_setup(proc, t0))
        result = json.loads(finish(proc, deadline - time.monotonic()).strip().splitlines()[-1])
        for _ in range(SETUPS - 1 - SETUPS // 2):
            setup_only()
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    metrics = dict(result["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = stats.median(
            ready * reference.REFERENCE_S / ref for ready, ref in setups)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    report = {
        "provenance": provenance(args),
        "setup_s_samples": [ready for ready, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
        "details": result["details"],
        "ops": result["ops"],
        "op_wall_s": result["op_wall_s"],
        "op_cpu_s": result["op_cpu_s"],
        "op_reference_s": result["op_reference_s"],
    }
    with open(os.path.join(out_dir, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    details = result["details"]
    for name, unit in declared.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    if args.trace == 0:
        print(f"op_tail_s is p{details['op_tail_percentile']:.1f} of {details['op_count']} ops; "
              f"failed_frac {details['failed_frac']:.4g}")
        ref = details["reference_s"]
        print(f"timings above are at reference speed; the reference kernel took "
              f"{ref['median']:.4g} s (median, {ref['min']:.4g} to {ref['max']:.4g}), "
              f"{reference.REFERENCE_S} s at reference speed; as measured:")
        for name, value in details["measured"].items():
            print(f"  {name:38s} {value:.6g} {declared[name]}")
    for key in ("pinned_problems", "errors"):
        for line in details.get(key, []):
            print(f"{key}: {line}")
    if details.get("hook_errors"):
        print(f"hook errors: {details['hook_errors']} (the run is not correct)")
    if details.get("format_deviations"):
        print(f"format deviations from FORMATS.md in {details['format_deviations']} ops "
              "(traj.csv header writes np.float64 reprs)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
