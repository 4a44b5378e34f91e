"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here, not computed; the suite is the exit gate for the package.
"""

import math

import numpy as np
import pytest

from fbo_lab import (
    EstimateParams,
    SpaceTimeField,
    SpectralField,
    apriori_check,
    bilinear_I,
    bilinear_K,
    estimate_ratio,
    l2_drift,
    l2_norm,
    make_grid,
    make_test_field,
    picard_solve,
    pointwise_infimum,
    propagate,
    resonance,
    sobolev_norm,
    solve_reference,
    spacetime_inner,
)
from fbo_lab.estimates import _classify_arrays, classify_region
from fbo_lab.spectral import FrequencyGrid, _l2_raw


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")


def test_criterion_1_unitarity_and_group_law():
    alphas = (1.1, 1.5, 1.9)
    grid = make_grid(256, 64.0)
    worst_norm = 0.0
    worst_group = 0.0
    for i in range(100):
        alpha = alphas[i % 3]
        p = EstimateParams.default_admissible(alpha, epsilon=(alpha - 1.0) / 8.0)
        u = make_test_field(
            grid, "random_bandlimited", seed=1000 + i, band=8.0, zero_mean=True
        )
        ref = sobolev_norm(u, p.s, p.omega)
        for t in (0.1, 1.0):
            out = sobolev_norm(propagate(u, t, alpha), p.s, p.omega)
            worst_norm = max(worst_norm, abs(out - ref) / ref)
        composed = propagate(propagate(u, 0.1, alpha), 1.0, alpha)
        direct = propagate(u, 1.1, alpha)
        scale = np.max(np.abs(u.coeffs))
        worst_group = max(
            worst_group, np.max(np.abs(composed.coeffs - direct.coeffs)) / scale
        )
    ok = worst_norm <= 1e-12 and worst_group <= 1e-12
    report(
        1,
        "propagator unitarity and group law",
        ok,
        f"norm drift {worst_norm:.2e}, group error {worst_group:.2e}",
    )
    assert ok


def test_criterion_2_l2_conservation():
    grid = make_grid(512, 64.0)
    u0 = make_test_field(grid, "gaussian", amplitude=0.5)
    traj = solve_reference(u0, 1.0, 1e-3, 1.5)
    drift = l2_drift(traj)
    ok = drift <= 1e-6
    report(2, "L2 conservation at default resolution", ok, f"relative drift {drift:.2e}")
    assert ok


def test_criterion_3_resonance_bound():
    ok = True
    details = []
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9):
        inf = pointwise_infimum("resonance", alpha)["inf_ratio"]
        equal_pair = abs(resonance(1.0, 1.0, alpha)) / (2.0**alpha)
        closed_form = 2.0 - 2.0 ** (1.0 - alpha)
        here = (
            inf > 0.0
            and abs(inf - closed_form) <= 1e-10
            and abs(equal_pair - closed_form) <= 1e-10
        )
        ok = ok and here
        details.append(f"a={alpha}: inf={inf:.6f}")
    report(3, "resonance lower bound scan", ok, "; ".join(details))
    assert ok


def test_criterion_4_adjointness():
    gs = FrequencyGrid(64, 16.0)
    gt = FrequencyGrid(64, 8.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        fields = []
        for _ in range(3):
            c = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            fields.append(SpaceTimeField(gs, gt, c))
        u1, u2, w = fields
        lhs = spacetime_inner(bilinear_I(u1, u2, 0.75), w)
        rhs = spacetime_inner(u2, bilinear_K(u1, w, 1.5))
        scale = u1.l2_norm() * u2.l2_norm() * w.l2_norm()
        worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-10
    report(4, "bilinear adjoint identity", ok, f"worst scaled defect {worst:.2e}")
    assert ok


def test_criterion_5_strichartz_ratio():
    p = EstimateParams.default_admissible(1.5)
    r = estimate_ratio(
        "strichartz", {"n_samples": 200, "resolutions": (256, 512)}, p, seed=5
    )
    values = [v for _, v in r.refinement_trend]
    variation = abs(values[1] - values[0]) / max(values)
    ok = all(np.isfinite(values)) and variation < 0.10
    report(
        5,
        "linear space-time ratio stability",
        ok,
        f"sup ratios {values[0]:.4f} -> {values[1]:.4f}, variation {variation:.1%}",
    )
    assert ok


def test_criterion_6_main_bilinear():
    p = EstimateParams.default_admissible(1.5)
    assert p.s == pytest.approx(-0.275)
    assert p.omega == pytest.approx(1.0 / 6.0)
    assert p.b == pytest.approx(0.52)
    assert p.b_prime == pytest.approx(-0.4667, abs=1e-4)
    r = estimate_ratio("main_bilinear", {"n_samples": 200}, p, seed=6)
    values = [v for _, v in r.refinement_trend]
    variation = abs(values[1] - values[0]) / max(values)
    nonempty = sum(1 for v in r.region_histogram["d_part"].values() if v > 0)
    ok = all(np.isfinite(values)) and variation < 0.15 and nonempty >= 3
    report(
        6,
        "derivative product ratio and region coverage",
        ok,
        f"sup {values[0]:.4f} -> {values[1]:.4f} ({variation:.1%}), "
        f"regions {r.region_histogram['d_part']}",
    )
    assert ok


def test_criterion_7_picard_fixed_point():
    grid = make_grid(256, 64.0)
    raw = make_test_field(grid, "gaussian")
    u0 = SpectralField(grid, raw.coeffs * (0.1 / l2_norm(raw)))
    traj, hist = picard_solve(u0, 0.5, 1.5, tol=1e-10, max_iter=30, dt=0.005)
    gaps = hist.iterate_differences
    geometric = all(
        gaps[i] <= 0.7 * gaps[i - 1] for i in range(2, len(gaps))
    )
    ref = solve_reference(u0, 0.5, 1e-3, 1.5)
    sup_gap = 0.0
    for i in range(traj.n_times):
        t = float(traj.times[i])
        if abs(t) <= 0.5 + 1e-12:
            j = ref.index_of_time(t)
            sup_gap = max(sup_gap, _l2_raw(traj.coeffs[i] - ref.coeffs[j], grid.spacing))
    ok = hist.converged and geometric and sup_gap <= 1e-4
    report(
        7,
        "fixed-point iteration",
        ok,
        f"{hist.iterations} iterations, sup gap vs reference {sup_gap:.2e}",
    )
    assert ok


def test_criterion_8_apriori_bound_suite():
    grid = make_grid(256, 64.0)
    rng = np.random.default_rng(8)
    worst_c = 0.0
    worst_drift = 0.0
    for _ in range(20):
        amplitude = float(rng.uniform(0.2, 1.2))
        width = float(rng.uniform(0.8, 2.5))
        center = float(rng.uniform(-5.0, 5.0))
        u0 = make_test_field(
            grid, "gaussian", amplitude=amplitude, width=width, center=center,
            zero_mean=True,
        )
        traj = solve_reference(u0, 1.0, 1e-3, 1.5)
        rep = apriori_check(traj, 1.0 / 6.0)
        worst_c = max(worst_c, rep.fitted_C)
        worst_drift = max(worst_drift, l2_drift(traj))
    ok = worst_c <= 10.0 and worst_drift <= 1e-6
    report(
        8,
        "growth bound suite",
        ok,
        f"max fitted C {worst_c:.3f} (<= 10), max drift {worst_drift:.2e}",
    )
    assert ok


def test_criterion_9_region_partition():
    rng = np.random.default_rng(9)
    n = 1_000_000
    a = rng.uniform(-100.0, 100.0, n)
    b = rng.uniform(-100.0, 100.0, n)
    xi1 = np.where(np.abs(a) <= np.abs(b), a, b)
    xi2 = np.where(np.abs(a) <= np.abs(b), b, a)
    lam, lam1, lam2 = rng.uniform(-50.0, 50.0, (3, n))
    d, acode = _classify_arrays(xi1, xi2, lam, lam1, lam2)
    one_each = (
        d.shape == (n,)
        and acode.shape == (n,)
        and np.all((d >= 0) & (d <= 3))
        and np.all((acode >= 0) & (acode <= 2))
    )
    mask = d == 3
    d22_ok = (
        np.all(xi1[mask] * xi2[mask] < 0)
        and np.all(np.abs(xi1[mask] + xi2[mask]) <= 0.5 * np.abs(xi1[mask]))
        and np.all(np.abs(xi2[mask]) >= 1.0)
    )
    agree = True
    for i in rng.integers(0, n, 1000):
        label = classify_region(xi1[i], xi2[i], lam[i], lam1[i], lam2[i])
        agree = agree and label.d_part == ("D11", "D12", "D21", "D22")[int(d[i])]
        agree = agree and label.a_part == ("A", "A1", "A2")[int(acode[i])]
    ok = one_each and d22_ok and agree
    report(
        9,
        "frequency region partition",
        ok,
        f"counts {np.bincount(d, minlength=4).tolist()}, D22 facts hold: {d22_ok}",
    )
    assert ok
