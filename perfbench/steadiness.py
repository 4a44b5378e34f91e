"""Run the benchmark on several seeds and compare each spread with its bound.

    python3 perfbench/steadiness.py --workload simulate --runs 10 --first-seed 100

For every end-to-end metric this prints the median of the runs and the
distance between their first and third quartile as a share of the median.
A spread within a third of the metric's bound in BENCHMARK.json is marked
steady.  Runs are sequential, each with its own seed and BENCHMARK.json's
run_seconds.  The exit code is 0 when every metric, setup_s too, is steady,
and 3 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = [f"seed {seed}: correct={result['correct']} failed={result['failed']}"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            line.append(f"{name}={values[name][-1]:.5g}")
        print(" ".join(line), flush=True)
    steady = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        spread = quartile_spread(values[name])
        ok = spread <= metric["bound"] / 3.0
        steady = steady and ok
        print(f"{name:14s} median {median(values[name]):.5g} spread {spread:.4f} "
              f"bound {metric['bound']} {'steady' if ok else 'WIDE'}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
