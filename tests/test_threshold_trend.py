"""Exploratory sub-threshold trend, reported but not asserted.

Whether the derivative-product ratio visibly grows below the regularity
threshold at desk scale is an open question; this test prints the measured
trends for a below-threshold and an admissible exponent and only asserts
finiteness.  Run with -s to see the report.
"""

import numpy as np

from fbo_lab import EstimateParams, estimate_ratio


def test_report_threshold_trends():
    alpha, epsilon = 1.5, 0.1
    threshold = -0.75 * (alpha - 1.0)
    inputs = {
        "n_samples": 40,
        "band_fraction": 0.7,
        "resolutions": ((48, 384), (64, 512)),
    }
    rows = []
    for s in (threshold - 0.2, threshold + epsilon):
        p = EstimateParams.default_admissible(alpha, epsilon, s=s)
        report = estimate_ratio("main_bilinear", inputs, p, seed=17)
        values = [v for _, v in report.refinement_trend]
        rows.append((s, values))
        assert all(np.isfinite(values))
    print()
    for s, values in rows:
        growth = values[-1] / values[0]
        tag = "below threshold" if s < threshold else "admissible"
        print(
            f"[threshold trend] s={s:+.3f} ({tag}): "
            + " -> ".join(f"{v:.5f}" for v in values)
            + f", growth x{growth:.4f}"
        )
