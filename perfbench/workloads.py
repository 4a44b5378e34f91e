"""The benchmark's workloads: CLI op configs drawn from the workload seed.

Each workload is a closed loop of CLI calls in one process.  An op is one
call of ``fbo_lab.cli.main``; its arguments and seed come from the workload
seed, so the program only ever sees the generated configs.  Why each
workload was chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALPHA = "1.5"

#: Resolutions every estimate kind evaluates by default (coarse and fine).
ESTIMATE_RESOLUTIONS = 2

BILINEAR_KINDS = ("main_bilinear", "bilinear_str", "dual_bilinear")

#: Ops per cycle.  A run stops only at a cycle boundary, so a mixed workload
#: always runs its kinds in equal numbers.
CYCLE = {"simulate": 1, "strichartz": 1, "bilinear": len(BILINEAR_KINDS)}


@dataclass(frozen=True)
class Op:
    """One CLI call: argv without --out, and the work it does.

    Work is counted in trajectory states for simulate and in ratio samples
    (samples x resolutions) for the estimate kinds.
    """

    argv: tuple
    work: int


def _value(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def op_from_argv(argv) -> Op:
    argv = tuple(argv)
    if argv[0] == "simulate":
        steps = round(float(_value(argv, "--t-span")) / float(_value(argv, "--dt")))
        return Op(argv, 2 * steps + 1)
    return Op(argv, int(_value(argv, "--samples")) * ESTIMATE_RESOLUTIONS)


def _simulate_op(rng: random.Random, index: int) -> Op:
    # amplitude and width ranges of the growth-bound suite (criterion 8)
    amplitude = rng.uniform(0.2, 1.2)
    width = rng.uniform(0.8, 2.5)
    return op_from_argv((
        "simulate", "--alpha", ALPHA, "--n-modes", "512", "--box-length", "64",
        "--t-span", "1", "--dt", "1e-3", "--zero-mean", "--amplitude", repr(amplitude),
        "--width", repr(width), "--seed", str(rng.randrange(2**31)),
    ))


def _estimate_op(kind: str, samples: int, rng: random.Random) -> Op:
    return op_from_argv((
        "verify-estimate", "--kind", kind, "--alpha", ALPHA,
        "--samples", str(samples), "--seed", str(rng.randrange(2**31)),
    ))


def _strichartz_op(rng: random.Random, index: int) -> Op:
    return _estimate_op("strichartz", 25, rng)


def _bilinear_op(rng: random.Random, index: int) -> Op:
    return _estimate_op(BILINEAR_KINDS[index % len(BILINEAR_KINDS)], 40, rng)


_MAKERS = {
    "simulate": _simulate_op,
    "strichartz": _strichartz_op,
    "bilinear": _bilinear_op,
}


def make_ops(workload: str, seed: int, count: int) -> list[Op]:
    """The first count ops of a workload; the same seed gives the same ops."""
    rng = random.Random(seed)
    make = _MAKERS[workload]
    return [make(rng, i) for i in range(count)]
