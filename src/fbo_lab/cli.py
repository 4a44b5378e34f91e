"""Reproducible experiment driver.

Every run is fully determined by (config, seed).  The resolved configuration
is echoed as a flat key=value manifest into the output directory, and that
manifest is itself a loadable config, so any run can be reproduced from its
own output.  CSV and JSON schemas are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from .conservation import apriori_check, l2_drift
from .estimates import RatioReport, estimate_ratio, resonance_infimum
from .evolution import (
    BlowUpError,
    export_trajectory_binary,
    export_trajectory_csv,
    picard_solve,
    solve_reference,
)
from .norms import EstimateParams, admissible_omega, s_threshold
from .spectral import BUMP_PROFILE, FrequencyGrid, _l2_raw, make_test_field

ENV_THREADS = "FBO_LAB_THREADS"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SUBCOMMANDS = ("simulate", "picard", "verify-resonance", "verify-estimate", "sweep")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Fully materialized run parameters; field order fixes the manifest order."""

    subcommand: str = ""
    alpha: tuple = (1.5,)
    s: tuple | None = None
    n_modes: int = 1024
    box_length: float = 128.0
    t_span: float = 1.0
    dt: float = 1e-3
    samples: int = 100
    seed: int = 0
    out: str = "fbo-lab-out"
    kind: str = "main_bilinear"
    b: float | None = None
    b_prime: float | None = None
    epsilon: float = 0.1
    family: str = "gaussian"
    amplitude: float = 0.5
    width: float = 1.0
    carrier: float = 0.0
    band: float = 8.0
    zero_mean: bool = False
    tol: float = 1e-8
    max_iter: int = 30
    retained_modes: int = 16


_FLOAT_TUPLE_FIELDS = {"alpha", "s"}
_OPTIONAL_FIELDS = {"s", "b", "b_prime"}
_INT_FIELDS = {"n_modes", "samples", "seed", "max_iter", "retained_modes"}
_FLOAT_FIELDS = {
    "box_length", "t_span", "dt", "b", "b_prime", "epsilon",
    "amplitude", "width", "carrier", "band", "tol",
}
_BOOL_FIELDS = {"zero_mean"}
_STR_FIELDS = {"subcommand", "out", "kind", "family"}

_ALL_KEYS = (
    _FLOAT_TUPLE_FIELDS | _INT_FIELDS | _FLOAT_FIELDS | _BOOL_FIELDS | _STR_FIELDS
)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _OPTIONAL_FIELDS and raw.lower() == "none":
        return None
    if key in _FLOAT_TUPLE_FIELDS:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    if key in _INT_FIELDS:
        return int(raw)
    if key in _FLOAT_FIELDS:
        return float(raw)
    if key in _BOOL_FIELDS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    return raw


def _format_value(key: str, value) -> str:
    if value is None:
        return "none"
    if key in _FLOAT_TUPLE_FIELDS:
        return ",".join(repr(float(v)) for v in value)
    if key in _BOOL_FIELDS:
        return "true" if value else "false"
    if key in _FLOAT_FIELDS:
        return repr(float(value))
    return str(value)


def load_config_file(path: str) -> dict:
    """Parse a flat key=value config; unknown keys fail fast, listing them."""
    values = {}
    unknown = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in _ALL_KEYS:
                unknown.append(key)
                continue
            values[key] = _parse_value(key, raw)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return values


def config_to_text(config: ExperimentConfig) -> str:
    lines = [f"# bump profile: {BUMP_PROFILE}"]
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name}={_format_value(f.name, getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def _worker_count() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"{ENV_THREADS} must be an integer, got {raw!r}")


def _ordered_map(fn, items):
    """Map over independent parameter points; results keep submission order."""
    workers = _worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _estimate_summary_row(report: RatioReport, p: EstimateParams | None) -> str:
    sup_or_inf = report.ratio
    res = report.refinement_trend[-1][0]
    cells = [
        report.kind,
        "" if p is None else repr(p.alpha),
        "" if p is None else repr(p.s),
        "" if p is None else repr(p.b),
        "" if p is None else repr(p.b_prime),
        repr(sup_or_inf),
        str(report.sample_count),
        res,
        str(report.seed),
    ]
    return ",".join(cells)


_SUMMARY_HEADER = "kind,alpha,s,b,b_prime,sup_or_inf,n_samples,resolution,seed"


def _build_params(config: ExperimentConfig, alpha: float, s: float | None = None) -> EstimateParams:
    if s is None and config.s:
        s = config.s[0]
    return EstimateParams.default_admissible(
        alpha, config.epsilon, s=s, b=config.b, b_prime=config.b_prime
    )


def _initial_field(config: ExperimentConfig, grid: FrequencyGrid):
    return make_test_field(
        grid,
        config.family,
        seed=config.seed,
        amplitude=config.amplitude,
        width=config.width,
        carrier=config.carrier,
        band=config.band if config.family == "random_bandlimited" else None,
        zero_mean=config.zero_mean,
    )


def _run_simulate(config: ExperimentConfig) -> int:
    grid = FrequencyGrid(config.n_modes, config.box_length)
    alpha = config.alpha[0]
    u0 = _initial_field(config, grid)
    traj = solve_reference(u0, config.t_span, config.dt, alpha)
    drift = l2_drift(traj)
    omega = admissible_omega(alpha) if config.zero_mean else 0.0
    report = apriori_check(traj, omega)
    export_trajectory_csv(traj, os.path.join(config.out, "traj.csv"), config.retained_modes)
    export_trajectory_binary(traj, os.path.join(config.out, "traj.bin"))
    run_id = f"simulate-seed{config.seed}"
    rows = [
        "run_id,alpha,omega,T,initial_norm,sup_norm,fitted_C,l2_drift",
        ",".join(
            [
                run_id,
                repr(alpha),
                repr(omega),
                repr(report.T),
                repr(report.initial_norm),
                repr(report.sup_norm),
                repr(report.fitted_C),
                repr(drift),
            ]
        ),
    ]
    _write_text(os.path.join(config.out, "conservation.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


def _steps_match(T: float, dt: float) -> bool:
    """True when every reference time k*T/m lies on the Picard grid j*W/n.

    The reference solve uses m = round(T/dt) steps over T and the Picard
    iteration n = round(W/dt) steps over W = 2*max(T, 1); the reference
    step must then be a whole number q of Picard steps.
    """
    window = 2.0 * max(T, 1.0)
    ratio = (T / max(1, round(T / dt))) / (window / max(1, round(window / dt)))
    q = round(ratio)
    return q >= 1 and abs(ratio - q) <= 1e-9 * q


def _check_picard_dt(T: float, dt: float) -> None:
    """Reject a dt whose reference times fall off the Picard grid, naming one that fits."""
    if not (T > 0.0 and dt > 0.0):
        raise ConfigError(f"t_span and dt must be positive, got {T}, {dt}")
    if dt > T:
        raise ConfigError(f"dt={dt} exceeds t_span={T}; use dt <= {T!r}")
    if _steps_match(T, dt):
        return
    m0 = max(1, round(T / dt))
    fits = (T / m for d in range(10_000) for m in (m0 - d, m0 + d) if m >= 1)
    good = next((dt_fit for dt_fit in fits if _steps_match(T, dt_fit)), None)
    fix = (
        f"use dt={good!r}, which divides both" if good is not None
        else "choose dt dividing both"
    )
    raise ConfigError(
        f"dt={dt} puts the reference times off the Picard time grid: the steps "
        f"must divide t_span={T!r} and 2*max(t_span, 1)={2.0 * max(T, 1.0)!r}; {fix}"
    )


def _run_picard(config: ExperimentConfig) -> int:
    T = config.t_span
    _check_picard_dt(T, config.dt)
    grid = FrequencyGrid(config.n_modes, config.box_length)
    alpha = config.alpha[0]
    u0 = _initial_field(config, grid)
    traj, history = picard_solve(
        u0, T, alpha, tol=config.tol, max_iter=config.max_iter, dt=config.dt
    )
    reference = solve_reference(u0, T, config.dt, alpha)
    gaps = []
    for i in range(reference.n_times):
        t = float(reference.times[i])
        j = traj.index_of_time(t)
        gaps.append(
            _l2_raw(traj.coeffs[j] - reference.coeffs[i], grid.spacing)
        )
    payload = {
        "iterate_differences": list(history.iterate_differences),
        "converged": history.converged,
        "iterations": history.iterations,
        "cross_validation_sup_gap": max(gaps) if gaps else 0.0,
    }
    _write_json(os.path.join(config.out, "picard_history.json"), payload)
    lines = ["t,l2_gap_vs_reference"]
    for i in range(reference.n_times):
        lines.append(f"{float(reference.times[i])!r},{gaps[i]!r}")
    _write_text(os.path.join(config.out, "picard_vs_reference.csv"), "\n".join(lines) + "\n")
    return EXIT_OK


def _run_verify_resonance(config: ExperimentConfig) -> int:
    def one(alpha: float) -> RatioReport:
        return resonance_infimum(alpha, {"n_samples": config.samples}, config.seed)

    reports = _ordered_map(one, list(config.alpha))
    rows = [_SUMMARY_HEADER]
    for alpha, report in zip(config.alpha, reports):
        _write_json(
            os.path.join(config.out, f"resonance_alpha_{alpha}.json"),
            report.to_json_dict(),
        )
        row = _estimate_summary_row(report, None).split(",")
        row[1] = repr(alpha)
        rows.append(",".join(row))
    _write_text(os.path.join(config.out, "summary.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


def _run_verify_estimate(config: ExperimentConfig) -> int:
    alpha = config.alpha[0]
    p = _build_params(config, alpha)
    report = estimate_ratio(config.kind, {"n_samples": config.samples}, p, config.seed)
    _write_json(
        os.path.join(config.out, f"estimate_{config.kind}.json"), report.to_json_dict()
    )
    rows = [_SUMMARY_HEADER, _estimate_summary_row(report, p)]
    _write_text(os.path.join(config.out, "summary.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


def _run_sweep(config: ExperimentConfig) -> int:
    points = []
    for alpha in config.alpha:
        threshold = s_threshold(alpha)
        if config.s is not None:
            s_values = list(config.s)
        else:
            s_values = [threshold + delta for delta in (-0.2, -0.1, 0.1, 0.2)]
        for s in s_values:
            points.append((alpha, s, threshold))

    def one(point):
        alpha, s, threshold = point
        p = _build_params(config, alpha, s=s)
        # the band grows with the grid here so that refinement genuinely
        # enlarges the frequency support being tested around the threshold
        report = estimate_ratio(
            "main_bilinear",
            {"n_samples": config.samples, "band_fraction": 0.7},
            p,
            config.seed,
        )
        return report

    reports = _ordered_map(one, points)
    rows = [
        "alpha,s,s_threshold,resolution_coarse,ratio_coarse,resolution_fine,"
        "ratio_fine,growth_factor,seed"
    ]
    for (alpha, s, threshold), report in zip(points, reports):
        (res_c, ratio_c), (res_f, ratio_f) = (
            report.refinement_trend[0],
            report.refinement_trend[-1],
        )
        growth = ratio_f / ratio_c if ratio_c > 0.0 else math.inf
        rows.append(
            ",".join(
                [
                    repr(alpha),
                    repr(s),
                    repr(threshold),
                    res_c,
                    repr(ratio_c),
                    res_f,
                    repr(ratio_f),
                    repr(growth),
                    str(config.seed),
                ]
            )
        )
    _write_text(os.path.join(config.out, "sweep.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "picard": _run_picard,
    "verify-resonance": _run_verify_resonance,
    "verify-estimate": _run_verify_estimate,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    if config.subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    try:
        os.makedirs(config.out, exist_ok=True)
        probe = os.path.join(config.out, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {config.out!r} is not writable: {exc}")
    _write_text(os.path.join(config.out, "manifest.txt"), config_to_text(config))
    return _RUNNERS[config.subcommand](config)


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbo-lab",
        description="Deterministic experiment driver for the dispersive-flow laboratory.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--alpha", help="comma-separated dispersion exponents")
    parser.add_argument("--s", help="comma-separated regularity values, or 'none'")
    parser.add_argument("--n-modes", type=int, dest="n_modes")
    parser.add_argument("--box-length", type=float, dest="box_length")
    parser.add_argument("--t-span", type=float, dest="t_span")
    parser.add_argument("--dt", type=float)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--kind")
    parser.add_argument("--b", type=float)
    parser.add_argument("--b-prime", type=float, dest="b_prime")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--family")
    parser.add_argument("--amplitude", type=float)
    parser.add_argument("--width", type=float)
    parser.add_argument("--carrier", type=float)
    parser.add_argument("--band", type=float)
    parser.add_argument(
        "--zero-mean", dest="zero_mean", action=argparse.BooleanOptionalAction, default=None
    )
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--retained-modes", type=int, dest="retained_modes")
    return parser


#: Flags that take a comma-separated number list.
_LIST_FLAGS = ("--alpha", "--s")


def _bind_number_lists(argv: list[str]) -> list[str]:
    """Join a list flag to a following value that starts with a negative number.

    argparse takes '-0.5,-0.4' for an option, as it is not one number, so
    '--s -0.5,-0.4' is passed on as '--s=-0.5,-0.4'.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_config(argv: list[str]) -> ExperimentConfig:
    args = _build_argparser().parse_args(_bind_number_lists(argv))
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in _ALL_KEYS:
        if key == "subcommand":
            continue
        cli_value = getattr(args, key, None)
        if cli_value is None:
            continue
        if key in _FLOAT_TUPLE_FIELDS:
            values[key] = _parse_value(key, cli_value)
        else:
            values[key] = cli_value
    config_sub = values.pop("subcommand", None)
    if config_sub is not None and config_sub != args.subcommand:
        raise ConfigError(
            f"config file subcommand {config_sub!r} conflicts with {args.subcommand!r}"
        )
    config = ExperimentConfig(subcommand=args.subcommand, **values)
    if not config.alpha:
        raise ConfigError("alpha list must be nonempty")
    return config


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        return run(config)
    except BlowUpError as exc:
        print(f"numerical sentinel: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
