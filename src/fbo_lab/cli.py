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
from .estimates import RatioReport, _checked_inputs, _kind_inputs, estimate_ratio, pointwise_infimum
from .evolution import (
    BlowUpError,
    _check_dt,
    export_trajectory_binary,
    export_trajectory_csv,
    picard_solve,
    solve_reference,
)
from .norms import _ADMISSIBLE_TOL, EstimateParams, admissible_omega, epsilon_ceiling, s_threshold
from .spectral import BUMP_PROFILE, FrequencyGrid, SpectralField, _l2_raw, make_test_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_RUN = 4


class ConfigError(ValueError):
    pass


class RunError(Exception):
    """A ValueError or OSError raised by a runner, after manifest.txt is written."""


@dataclass
class ExperimentConfig:
    """Fully materialized run parameters.

    Each field declares one config key: its flag (--n-modes for n_modes), its
    type (tuple of floats, int, float, bool or str; '| None' lets it read
    'none') and its default.  Field order fixes the manifest order.
    """

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
    band: float | None = None
    zero_mean: bool = False
    tol: float = 1e-8
    max_iter: int = 30
    retained_modes: int = 16


#: The keys _initial_field reads, for simulate and picard.
_INITIAL_FIELD_KEYS = ("family", "amplitude", "width", "carrier", "band", "zero_mean", "seed")

#: The config keys each subcommand reads.  It accepts these and out, and no
#: other key, and its manifest records only these, subcommand and out.
SUBCOMMAND_KEYS = {
    "simulate": ("alpha", "n_modes", "box_length", "t_span", "dt", "retained_modes")
    + _INITIAL_FIELD_KEYS,
    "picard": ("alpha", "n_modes", "box_length", "t_span", "dt", "tol", "max_iter")
    + _INITIAL_FIELD_KEYS,
    "verify-resonance": ("alpha",),
    "verify-estimate": (
        "alpha", "s", "kind", "epsilon", "b", "b_prime", "band", "samples", "seed",
    ),
    "sweep": ("alpha", "s", "epsilon", "b", "b_prime", "samples", "seed"),
}
SUBCOMMANDS = tuple(SUBCOMMAND_KEYS)

#: Config key -> (base type name, whether it may read 'none'), from the fields.
_KEY_TYPES = {
    f.name: (f.type.removesuffix(" | None"), f.type.endswith(" | None"))
    for f in fields(ExperimentConfig)
}


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_CONVERTERS = {
    "tuple": lambda raw: tuple(float(part) for part in raw.split(",")),  # at least one number
    "int": int,
    "float": float,
    "bool": lambda raw: _BOOLS[raw.lower()],
    "str": str,
}


def _parse_value(key: str, raw: str):
    kind, optional = _KEY_TYPES[key]
    raw = raw.strip()
    if optional and raw.lower() == "none":
        return None
    convert = _CONVERTERS[kind]
    try:
        return convert(raw)
    except (KeyError, ValueError):
        expects = {"tuple": "comma-separated numbers", "int": "an int"}.get(kind, f"a {kind}")
        raise ConfigError(
            f"{key} expects {expects}{' or none' if optional else ''}, got {raw!r}"
        ) from None


def _format_value(key: str, value) -> str:
    kind = _KEY_TYPES[key][0]
    if value is None:
        return "none"
    if kind == "tuple":
        return ",".join(repr(float(v)) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
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
            if key not in _KEY_TYPES:
                unknown.append(key)
                continue
            values[key] = _parse_value(key, raw)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return values


def config_to_text(config: ExperimentConfig) -> str:
    """The manifest: the subcommand, the keys it reads and out."""
    keys = ("subcommand", "out") + SUBCOMMAND_KEYS[config.subcommand]
    lines = [f"# bump profile: {BUMP_PROFILE}"]
    for f in fields(ExperimentConfig):
        if f.name in keys:
            lines.append(f"{f.name}={_format_value(f.name, getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def _pool_size(points: int) -> int:
    """Threads for independent points: one per CPU this process may run on, at most one a point."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, points))


def _ordered_map(fn, items):
    """Map over independent parameter points; results keep submission order."""
    workers = _pool_size(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _estimate_summary_row(report: RatioReport, p: EstimateParams) -> str:
    return ",".join([
        report.kind, repr(p.alpha), repr(p.s), repr(p.b), repr(p.b_prime), repr(report.sup_ratio),
        str(report.sample_count), report.refinement_trend[-1][0], str(report.seed),
    ])


_SUMMARY_HEADER = "kind,alpha,s,b,b_prime,sup_or_inf,n_samples,resolution,seed"


def _single(config: ExperimentConfig, key: str) -> float | None:
    """The one value of a list key, for the subcommands that run one point."""
    values = getattr(config, key)
    if values is not None and len(values) > 1:
        raise ConfigError(
            f"{config.subcommand} runs one point, got {key}={_format_value(key, values)}: pass "
            "one value; sweep takes lists of alpha and s, verify-resonance a list of alpha"
        )
    return None if values is None else values[0]


def _build_params(config: ExperimentConfig, alpha: float, s: float | None) -> EstimateParams:
    return EstimateParams.default_admissible(
        alpha, config.epsilon, s=s, b=config.b, b_prime=config.b_prime
    )


def _check_epsilon(config: ExperimentConfig, points) -> None:
    """Before any compute: epsilon <= (alpha-1)/4 at every (alpha, s) point
    whose s is at or above its floor, else name an --epsilon that fits all."""
    eps, tol = config.epsilon, _ADMISSIBLE_TOL
    over = [
        a for a, s in points
        if eps > epsilon_ceiling(a) + tol and (s is None or s >= s_threshold(a) + eps - tol)
    ]
    if over:
        fits = epsilon_ceiling(min(a for a, _ in points))
        raise ConfigError(
            f"epsilon={eps!r} exceeds (alpha-1)/4 = {epsilon_ceiling(min(over)):.12g} at "
            f"alpha={min(over)!r}; pass --epsilon {fits:.12g} or smaller"
        )


def _sweep_points(config: ExperimentConfig) -> list[tuple[float, float, float]]:
    """(alpha, s, s_threshold) of each sweep point; without s, four offsets
    around each alpha's threshold."""
    points, offsets = [], (-0.2, -0.1, 0.1, 0.2)
    for alpha in config.alpha:
        threshold = s_threshold(alpha)
        s_values = config.s if config.s is not None else [threshold + d for d in offsets]
        points += [(alpha, s, threshold) for s in s_values]
    return points


def _memory() -> int:
    """The machine's physical memory, in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_config(config: ExperimentConfig) -> tuple:
    """The checks of a config's values, run before anything is written, so
    that the runners only compute: every alpha in (1, 2), one point for the
    subcommands that run one, a dt the solver accepts, a trajectory that
    fits in memory, at least 0 retained modes, a tol and
    max_iter picard accepts, a known kind and epsilon at every point, at
    least one sample, and verify-estimate's inputs as estimate_ratio checks
    them.  The inputs built on the way, which reject their own bad values,
    are returned for the runner: the initial field of simulate and picard,
    the parameters and estimate inputs of verify-estimate, and the
    parameters of each sweep point."""
    subcommand = config.subcommand
    outside = [a for a in config.alpha if not 1.0 < a < 2.0]  # nan too
    if outside:
        raise ConfigError(
            f"alpha must lie in (1, 2), got alpha={outside[0]!r}: pass --alpha 1.5, say"
        )
    if "samples" in SUBCOMMAND_KEYS[subcommand] and config.samples < 1:
        raise ConfigError(
            f"{subcommand} needs at least one sample, got samples={config.samples}: "
            "pass --samples 1 or more"
        )
    if subcommand in ("simulate", "picard"):
        _single(config, "alpha")
        _check_dt(config.t_span, config.dt)
        picard, row = subcommand == "picard", 16 * config.n_modes
        reach = 2.0 * max(config.t_span, 1.0) if picard else config.t_span
        memory = _memory()
        if (2.0 * reach / config.dt + 1.0) * row > memory:
            largest = (memory // row - 1) // 2 // (1 + picard) * config.dt
            fits = largest >= max(config.dt, picard)
            raise ConfigError(
                f"{subcommand}'s trajectory needs more than the machine's {memory / 1e9:.4g} GB of "
                f"memory: at dt={config.dt!r} and n_modes={config.n_modes}, "
                + (f"the largest t_span that fits is {largest!r}" if fits else "no t_span fits")
            )
        if subcommand == "simulate" and config.retained_modes < 0:
            raise ConfigError(
                f"retained_modes must be at least 0, got {config.retained_modes}: "
                "pass --retained-modes 16, or as many modes as the CSV should keep"
            )
        if subcommand == "picard" and not config.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {config.tol!r}: pass --tol 1e-08, say")
        if subcommand == "picard" and config.max_iter < 1:
            raise ConfigError(
                f"max_iter must be at least 1, got {config.max_iter}: pass --max-iter 30, say"
            )
        return (_initial_field(config, FrequencyGrid(config.n_modes, config.box_length)),)
    if subcommand == "verify-estimate":
        alpha, s = _single(config, "alpha"), _single(config, "s")
        _kind_inputs(config.kind)
        _check_epsilon(config, [(alpha, s)])
        p = _build_params(config, alpha, s)
        inputs = {"n_samples": config.samples}
        if config.band is not None:
            inputs["band"] = config.band
        _checked_inputs(config.kind, inputs, p)
        return p, inputs
    if subcommand == "sweep":
        points = _sweep_points(config)
        _check_epsilon(config, [(alpha, s) for alpha, s, _ in points])
        return (points, [_build_params(config, alpha, s) for alpha, s, _ in points])
    return ()


def _initial_field(config: ExperimentConfig, grid: FrequencyGrid) -> SpectralField:
    return make_test_field(
        grid,
        config.family,
        seed=config.seed,
        amplitude=config.amplitude,
        width=config.width,
        carrier=config.carrier,
        # random_bandlimited data is drawn within band, 8.0 when it is unset
        band=(8.0 if config.band is None else config.band)
        if config.family == "random_bandlimited" else None,
        zero_mean=config.zero_mean,
    )


def _run_simulate(config: ExperimentConfig, u0: SpectralField) -> int:
    alpha = config.alpha[0]
    traj = solve_reference(u0, config.t_span, config.dt, alpha)
    drift = l2_drift(traj)
    omega = admissible_omega(alpha) if config.zero_mean else 0.0
    report = apriori_check(traj, omega)
    export_trajectory_csv(traj, os.path.join(config.out, "traj.csv"), config.retained_modes)
    export_trajectory_binary(traj, os.path.join(config.out, "traj.bin"))
    values = (alpha, omega, report.T, report.initial_norm, report.sup_norm, report.fitted_C, drift)
    rows = [
        "run_id,alpha,omega,T,initial_norm,sup_norm,fitted_C,l2_drift",
        ",".join([f"simulate-seed{config.seed}"] + [repr(v) for v in values]),
    ]
    _write_text(os.path.join(config.out, "conservation.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


def _run_picard(config: ExperimentConfig, u0: SpectralField) -> int:
    alpha, T, grid = config.alpha[0], config.t_span, u0.grid
    traj, history = picard_solve(
        u0, T, alpha, tol=config.tol, max_iter=config.max_iter, dt=config.dt
    )
    reference = solve_reference(u0, T, config.dt, alpha)
    n_p, n_r = traj.n_times // 2, reference.n_times // 2  # the reference grid is picard's middle
    gaps = _l2_raw(traj.coeffs[n_p - n_r : n_p + n_r + 1] - reference.coeffs, grid.spacing).tolist()
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
    rows = ["kind,alpha,inf_ratio,closed_form,beta"]
    for alpha in config.alpha:
        for kind in ("resonance", "smoothing"):
            result = pointwise_infimum(kind, alpha)
            _write_json(os.path.join(config.out, f"{kind}_alpha_{alpha}.json"), result)
            values = (result[key] for key in ("alpha", "inf_ratio", "closed_form", "beta"))
            rows.append(",".join([kind, *map(repr, values)]))
    _write_text(os.path.join(config.out, "summary.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


def _run_verify_estimate(config: ExperimentConfig, p: EstimateParams, inputs: dict) -> int:
    report = estimate_ratio(config.kind, inputs, p, config.seed)
    _write_json(
        os.path.join(config.out, f"estimate_{config.kind}.json"), report.to_json_dict()
    )
    rows = [_SUMMARY_HEADER, _estimate_summary_row(report, p)]
    _write_text(os.path.join(config.out, "summary.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


def _run_sweep(config: ExperimentConfig, points: list, params: list) -> int:
    def one(p):
        # the band grows with the grid here so that refinement genuinely
        # enlarges the frequency support being tested around the threshold
        inputs = {"n_samples": config.samples, "band_fraction": 0.7}
        return estimate_ratio("main_bilinear", inputs, p, config.seed)

    reports = _ordered_map(one, params)
    rows = [
        "alpha,s,s_threshold,resolution_coarse,ratio_coarse,resolution_fine,"
        "ratio_fine,growth_factor,seed"
    ]
    for (alpha, s, threshold), report in zip(points, reports):
        (res_c, ratio_c), (res_f, ratio_f) = report.refinement_trend[0], report.refinement_trend[-1]
        growth = ratio_f / ratio_c if ratio_c > 0.0 else math.inf
        rows.append(",".join([
            repr(alpha), repr(s), repr(threshold), res_c, repr(ratio_c), res_f, repr(ratio_f),
            repr(growth), str(config.seed),
        ]))
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
    """Execute one subcommand; returns the process exit code.  ConfigError
    comes before manifest.txt is written, RunError after it."""
    if config.subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    inputs = _check_config(config)
    try:
        os.makedirs(config.out, exist_ok=True)
        _write_text(os.path.join(config.out, "manifest.txt"), config_to_text(config))
    except OSError as exc:
        raise ConfigError(f"output directory {config.out!r} is not writable: {exc}")
    try:
        return _RUNNERS[config.subcommand](config, *inputs)
    except (ValueError, OSError) as exc:
        raise RunError(f"{type(exc).__name__}: {exc}") from exc


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbo-lab",
        description="Deterministic experiment driver for the dispersive-flow laboratory.",
        epilog="keys each subcommand reads, besides --out:\n" + "\n".join(
            f"  {sub}: {' '.join(_flag(key) for key in keys)}"
            for sub, keys in SUBCOMMAND_KEYS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    for key, (kind, _) in _KEY_TYPES.items():
        if kind == "bool":
            parser.add_argument(
                _flag(key), dest=key, action=argparse.BooleanOptionalAction, default=None
            )
        elif key != "subcommand":
            parser.add_argument(_flag(key), dest=key)
    return parser


#: Flags that take a comma-separated number list.
_LIST_FLAGS = tuple(_flag(key) for key, (kind, _) in _KEY_TYPES.items() if kind == "tuple")


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


def _check_keys(subcommand: str, from_file: dict, from_flags: dict, path: str | None) -> None:
    """Reject a key the subcommand does not read, naming the flag or line to
    drop and the flags it reads."""
    reads = SUBCOMMAND_KEYS[subcommand]
    given = {**from_file, **from_flags}
    unread = [key for key in _KEY_TYPES if key in given and key not in reads + ("out",)]
    if not unread:
        return
    drop = [_flag(key) for key in unread if key in from_flags]
    lines = [f"{key}=" for key in unread if key in from_file]
    if lines:
        drop.append(f"the lines {' '.join(lines)} from {path}")
    raise ConfigError(
        f"{subcommand} does not read {', '.join(unread)}: remove {'; '.join(drop)}. "
        f"It reads {' '.join(_flag(key) for key in reads)} and --out"
    )


def build_config(argv: list[str]) -> ExperimentConfig:
    args = _build_argparser().parse_args(_bind_number_lists(argv))
    from_file = load_config_file(args.config) if args.config else {}
    config_sub = from_file.pop("subcommand", args.subcommand)
    if config_sub != args.subcommand:
        raise ConfigError(
            f"config file subcommand {config_sub!r} conflicts with {args.subcommand!r}"
        )
    from_flags = {
        key: value if isinstance(value, bool) else _parse_value(key, value)
        for key, value in vars(args).items()
        if key in _KEY_TYPES and key != "subcommand" and value is not None
    }
    _check_keys(args.subcommand, from_file, from_flags, args.config)
    return ExperimentConfig(subcommand=args.subcommand, **{**from_file, **from_flags})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        return run(config)
    except BlowUpError as exc:
        print(f"numerical sentinel: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RunError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
