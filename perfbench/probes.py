"""Layer probes: single public functions timed in isolation.

Each probe reports the median of REPEATS timings; a timing covers enough
calls to last a few milliseconds and is divided back to one call.  The
inputs follow the ROADMAP baselines (N=256 for the transform pair and the
nonlinearity) and the grids the CLI workloads use.
"""

from __future__ import annotations

import time

import numpy as np

from stats import median

REPEATS = 7


def _time_per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    timings = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append((time.perf_counter() - t0) / calls)
    return median(timings)


def _free_trajectory(fbo, grid, coeffs, alpha: float, T: float, n_time: int):
    """Exact free evolution sampled on the padded window of a pad-2 lift."""
    dt = 2.0 * 2.0 * 2.0 * T / n_time
    n = round(2.0 * T / dt)
    times = np.arange(-n, n + 1) * dt
    xi = grid.frequencies
    phases = np.exp(1j * np.outer(times, xi * np.abs(xi) ** alpha))
    return fbo.Trajectory(grid, times, phases * coeffs[None, :], alpha)


def run_probes(fbo, estimates) -> dict:
    """Probe figures by metric name; fbo is the package, estimates its module."""
    alpha = 1.5
    out = {}

    grid = fbo.make_grid(256, 64.0)
    u = fbo.make_test_field(grid, "gaussian", amplitude=0.7, width=1.5, zero_mean=True)
    samples = fbo.inverse_transform(u)
    out["probe.transform_pair_us"] = 1e6 * _time_per_call(
        lambda: fbo.inverse_transform(fbo.forward_transform(samples, grid)), 200)
    out["probe.nonlinearity_us"] = 1e6 * _time_per_call(lambda: fbo.nonlinearity(u), 200)

    # one step: a short solve over 2 x 10 steps, divided per step
    steps = 10
    for scheme in ("split_step", "exponential_integrator"):
        out[f"probe.step.{scheme}_us"] = 1e6 * _time_per_call(
            lambda: fbo.solve_reference(u, steps * 1e-3, 1e-3, alpha, scheme=scheme), 3
        ) / (2 * steps)

    # the strichartz grid: N=512 on L=64, 800 tau modes, pad factor 2
    grid = fbo.make_grid(512, 64.0)
    rng = np.random.default_rng(0)
    band = np.abs(grid.frequencies) <= 8.0
    coeffs = np.where(band, rng.standard_normal(512) + 1j * rng.standard_normal(512), 0.0)
    traj = _free_trajectory(fbo, grid, coeffs, alpha, 1.0, 800)
    lift = fbo.localized_lift(traj, 1.0, pad_factor=2.0)
    params = fbo.EstimateParams.default_admissible(alpha)
    x_params = fbo.EstimateParams(alpha, 0.0, 0.0, params.b, -0.25, 0.0)
    out["probe.localized_lift_ms"] = 1e3 * _time_per_call(
        lambda: fbo.localized_lift(traj, 1.0, pad_factor=2.0), 1)
    out["probe.bourgain_norm_ms"] = 1e3 * _time_per_call(
        lambda: fbo.bourgain_norm(lift, x_params), 1)

    # the bilinear grids: L=16, T=0.5; 64x64 lifts and a 64x512 product
    grid = fbo.make_grid(64, 16.0)
    fields = [
        fbo.make_test_field(grid, "wave_packet", amplitude=1.0, width=1.2,
                            center=c, carrier=k * grid.spacing, zero_mean=True).coeffs
        for c, k in ((-0.5, 3), (0.7, -5))
    ]
    lifts = [fbo.localized_lift(_free_trajectory(fbo, grid, c, alpha, 0.5, 64), 0.5,
                                pad_factor=2.0) for c in fields]
    out["probe.bilinear_I_ms"] = 1e3 * _time_per_call(
        lambda: fbo.bilinear_I(lifts[0], lifts[1], alpha / 2.0), 3)
    trajs = [_free_trajectory(fbo, grid, c, alpha, 0.5, 512) for c in fields]
    out["probe.product_derivative_field_ms"] = 1e3 * _time_per_call(
        lambda: estimates.product_derivative_field(trajs[0], trajs[1], 0.5, 512), 3)

    # the vectorised classifier on 10^6 tuples, drawn as criterion 9 draws them
    rng = np.random.default_rng(9)
    n = 1_000_000
    a = rng.uniform(-100.0, 100.0, n)
    b = rng.uniform(-100.0, 100.0, n)
    xi1 = np.where(np.abs(a) <= np.abs(b), a, b)
    xi2 = np.where(np.abs(a) <= np.abs(b), b, a)
    lam, lam1, lam2 = rng.uniform(-50.0, 50.0, (3, n))
    out["probe.classifier_s_per_1e6"] = _time_per_call(
        lambda: estimates._classify_arrays(xi1, xi2, lam, lam1, lam2), 1, repeats=3)
    return out
