"""Checks of every op's artifacts against FORMATS.md and the acceptance tolerances.

A check returns the facts it read (norms, ratios, counts) or raises
CheckFailed.  Deliberately not checked per op: the refinement-variation
thresholds of criteria 5 and 6, which are set for 200 samples and do not hold
at the 25 to 40 samples an op uses.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct

import numpy as np

#: Criteria 2 and 8 of the acceptance gate.
MAX_L2_DRIFT = 1e-6
MAX_FITTED_C = 10.0

#: Dominant cells classified per sample by main_bilinear (the harness default).
TOP_CELLS = 8

#: Pinned values must agree with the recorded ones to this relative tolerance.
PINNED_RTOL = 1e-9

CONSERVATION_HEADER = "run_id,alpha,omega,T,initial_norm,sup_norm,fitted_C,l2_drift"
SUMMARY_HEADER = "kind,alpha,s,b,b_prime,sup_or_inf,n_samples,resolution,seed"
TRAJ_HEADER = struct.Struct("<8sIIddI")
TRAJ_MAGIC = b"FBOTRAJ\0"
D_PARTS = ("D11", "D12", "D21", "D22")
A_PARTS = ("A", "A1", "A2")

# FORMATS.md writes the column as abs[xi=<f>].  The seed commit writes numpy
# scalar reprs, abs[xi=np.float64(<f>)]; both spellings are read, and the
# second is reported as a format deviation rather than failing every op.
_CSV_COLUMN = re.compile(r"^(abs|phase)\[xi=(np\.float64\()?([^()\]]+)\)?\]$")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _finite_positive(value, what: str) -> float:
    require(isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0,
            f"{what} must be finite and positive, got {value!r}")
    return float(value)


def _lines(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _argv_options(argv) -> dict:
    """--flag value pairs of an op as manifest keys; bare flags read 'true'."""
    options = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            options[key] = argv[i + 1]
            i += 2
        else:
            options[key] = "true"
            i += 1
    return options


def check_manifest(out: str, argv) -> None:
    lines = _lines(os.path.join(out, "manifest.txt"))
    require(lines and lines[0].startswith("# bump profile:"), "manifest lacks the profile line")
    values = {}
    for line in lines[1:]:
        require("=" in line, f"manifest line {line!r} is not key=value")
        key, raw = line.split("=", 1)
        values[key] = raw
    require(values.get("subcommand") == argv[0], "manifest subcommand differs")
    expected = _argv_options(argv)
    expected["out"] = out
    for key, want in expected.items():
        got = values.get(key)
        require(got is not None, f"manifest lacks {key}")
        try:
            same = float(got) == float(want)
        except ValueError:
            same = got == want
        require(same, f"manifest {key}={got!r}, expected {want!r}")


def _check_traj_csv(path: str, times: np.ndarray, coeffs: np.ndarray, box_length: float,
                    retained: int) -> bool:
    """Checks traj.csv against traj.bin; returns True if the header deviates."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    require(header[0] == "t" and len(header) == 1 + 2 * retained,
            f"traj.csv header has {len(header)} columns")
    xis = []
    deviates = False
    for j in range(retained):
        m_abs = _CSV_COLUMN.match(header[1 + 2 * j])
        m_phase = _CSV_COLUMN.match(header[2 + 2 * j])
        require(m_abs is not None and m_abs.group(1) == "abs", f"bad column {header[1 + 2 * j]!r}")
        require(m_phase is not None and m_phase.group(1) == "phase"
                and m_phase.group(3) == m_abs.group(3), f"bad column {header[2 + 2 * j]!r}")
        deviates = deviates or m_abs.group(2) is not None
        xis.append(float(m_abs.group(3)))
    # the retained modes are the smallest |xi|, ties positive first, ascending
    n = coeffs.shape[1]
    k = np.arange(-n // 2 + 1, n // 2 + 1)
    idx = np.sort(np.lexsort((k < 0, np.abs(k)))[:retained])
    want = 2.0 * math.pi * k[idx] / box_length
    require(np.allclose(xis, want, rtol=1e-12, atol=0.0), "traj.csv modes differ from the grid")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(table.shape == (times.size, 1 + 2 * retained), f"traj.csv holds {table.shape}")
    sub = coeffs[:, idx]
    require(np.array_equal(table[:, 0], times), "traj.csv times differ from traj.bin")
    require(np.allclose(table[:, 1::2], np.abs(sub), rtol=1e-12, atol=0.0),
            "traj.csv moduli differ from traj.bin")
    require(np.allclose(table[:, 2::2], np.angle(sub), rtol=0.0, atol=1e-12),
            "traj.csv phases differ from traj.bin")
    return deviates


def check_simulate(out: str, argv, fbo_lab) -> dict:
    opts = _argv_options(argv)
    n_modes, box_length = int(opts["n_modes"]), float(opts["box_length"])
    t_span, dt = float(opts["t_span"]), float(opts["dt"])
    steps = round(t_span / dt)
    count = 2 * steps + 1

    lines = _lines(os.path.join(out, "conservation.csv"))
    require(len(lines) == 2 and lines[0] == CONSERVATION_HEADER, "conservation.csv layout")
    row = lines[1].split(",")
    require(len(row) == 8, "conservation.csv row width")
    alpha, omega, T, initial, sup, fitted, drift = (float(x) for x in row[1:])
    require(alpha == float(opts["alpha"]) and T == t_span, "conservation.csv alpha or T")
    require(omega == 1.0 / alpha - 0.5, "conservation.csv omega (zero mean)")
    _finite_positive(initial, "initial_norm")
    _finite_positive(sup, "sup_norm")
    require(sup >= initial, "sup_norm below initial_norm")
    require(0.0 < fitted <= MAX_FITTED_C, f"fitted C {fitted} outside (0, {MAX_FITTED_C}]")
    require(0.0 <= drift <= MAX_L2_DRIFT, f"L2 drift {drift} above {MAX_L2_DRIFT}")

    path = os.path.join(out, "traj.bin")
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, n, L, dt_file, stored = TRAJ_HEADER.unpack_from(blob)
    require(magic == TRAJ_MAGIC and version == 1, "traj.bin magic or version")
    require(n == n_modes and L == box_length and stored == count, "traj.bin header")
    require(abs(dt_file - t_span / steps) <= 1e-12, "traj.bin dt")
    require(len(blob) == TRAJ_HEADER.size + 8 * count + 16 * count * n, "traj.bin length")
    times = np.frombuffer(blob, "<f8", count, TRAJ_HEADER.size)
    coeffs = np.frombuffer(blob, "<c16", count * n, TRAJ_HEADER.size + 8 * count).reshape(count, n)
    require(np.allclose(times, np.arange(-steps, steps + 1) * (t_span / steps),
                        rtol=0.0, atol=1e-12), "traj.bin times")
    reloaded = fbo_lab.load_trajectory_binary(path, alpha)
    require(reloaded.coeffs.shape == (count, n), "reloaded trajectory shape")
    require(np.array_equal(reloaded.times, times) and np.array_equal(reloaded.coeffs, coeffs),
            "reloaded trajectory values")
    norms = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=1) * (2.0 * math.pi / L))
    recomputed = float(np.max(np.abs(norms - norms[steps])) / norms[steps])
    require(recomputed <= MAX_L2_DRIFT and abs(recomputed - drift) <= 1e-12,
            f"L2 drift from traj.bin {recomputed} disagrees with {drift}")

    retained = int(opts.get("retained_modes", 16))
    deviates = _check_traj_csv(os.path.join(out, "traj.csv"), times, coeffs, L, retained)
    return {
        "initial_norm": initial,
        "sup_norm": sup,
        "fitted_C": fitted,
        "l2_drift": drift,
        "format_deviations": int(deviates),
    }


def check_estimate(out: str, argv) -> dict:
    opts = _argv_options(argv)
    kind, samples, seed = opts["kind"], int(opts["samples"]), int(opts["seed"])
    with open(os.path.join(out, f"estimate_{kind}.json")) as fh:
        report = json.load(fh)
    keys = {"kind", "sample_count", "seed", "skipped", "sup_ratio",
            "refinement_trend", "extremal_sample"}
    if kind == "main_bilinear":
        keys.add("region_histogram")
    require(set(report) == keys, f"report keys {sorted(report)}")
    require(report["kind"] == kind and report["sample_count"] == samples
            and report["seed"] == seed, "report kind, sample_count or seed")
    skipped = report["skipped"]
    require(isinstance(skipped, int) and 0 <= skipped < samples, f"skipped {skipped!r}")
    sup = _finite_positive(report["sup_ratio"], "sup_ratio")
    trend = report["refinement_trend"]
    require(len(trend) == 2 and all(set(t) == {"resolution", "value"} for t in trend),
            "refinement_trend layout")
    values = [_finite_positive(t["value"], "trend value") for t in trend]
    require(sup == values[-1], "sup_ratio differs from the finest trend value")
    extremal = report["extremal_sample"]
    require(0 <= extremal.get("sample_index", -1) < samples and extremal.get("ratio") == sup,
            "extremal_sample")
    kept = 0
    histogram = report.get("region_histogram")
    if histogram is not None:
        d, a = histogram["d_part"], histogram["a_part"]
        require(set(d) == set(D_PARTS) and set(a) == set(A_PARTS), "histogram parts")
        counts = list(d.values()) + list(a.values())
        require(all(isinstance(c, int) and c >= 0 for c in counts), "histogram counts")
        kept = sum(d.values())
        require(kept == sum(a.values()) and kept <= TOP_CELLS * samples,
                f"histogram total {kept} above {TOP_CELLS} x {samples}")

    lines = _lines(os.path.join(out, "summary.csv"))
    require(len(lines) == 2 and lines[0] == SUMMARY_HEADER, "summary.csv layout")
    row = lines[1].split(",")
    require(len(row) == 9 and row[0] == kind and float(row[1]) == float(opts["alpha"]),
            "summary.csv kind or alpha")
    require(float(row[5]) == sup and int(row[6]) == samples and row[7] == trend[-1]["resolution"]
            and int(row[8]) == seed, "summary.csv ratio, samples, resolution or seed")
    return {
        "sup_ratio": sup,
        "trend": values,
        "region_histogram": histogram,
        "samples": samples * len(trend),
        "skipped": skipped,
        "kept_cells": kept,
        "top_cells": TOP_CELLS * samples if histogram is not None else 0,
    }


def check_op(out: str, argv, fbo_lab) -> dict:
    """Check one op's output directory; returns the facts read from it."""
    check_manifest(out, argv)
    if argv[0] == "simulate":
        return check_simulate(out, argv, fbo_lab)
    return check_estimate(out, argv)


def compare_pinned(facts: dict, expect: dict) -> list[str]:
    """Differences between checked facts and pinned values, as messages."""
    problems = []
    for key, want in expect.items():
        got = facts.get(key)
        if isinstance(want, dict) or want is None:
            ok = got == want
        else:
            want_list = want if isinstance(want, list) else [want]
            got_list = got if isinstance(got, list) else [got]
            ok = len(got_list) == len(want_list) and all(
                math.isclose(g, w, rel_tol=PINNED_RTOL, abs_tol=0.0)
                for g, w in zip(got_list, want_list)
            )
        if not ok:
            problems.append(f"{key}: got {got!r}, pinned {want!r}")
    return problems
