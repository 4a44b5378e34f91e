"""Conservation-law and a priori growth diagnostics.

The flow conserves the L2 norm exactly, so the measured drift of a computed
trajectory is a pure solver-accuracy meter.  The a priori check fits the
smallest constant C for which the sup-in-time low-frequency-weighted norm is
bounded by C*(initial + T*initial^2) on a given run; the theory asserts one
C works for every smooth solution, the artifact can only exhibit a
dominating C over a test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import Trajectory, _row_blocks
from .norms import _sobolev_rows, _sobolev_weights
from .spectral import FrequencyGrid, _l2_raw


@dataclass(frozen=True)
class AprioriReport:
    """Fit of the linear-plus-quadratic growth bound on one run."""

    sup_norm: float
    initial_norm: float
    T: float
    fitted_C: float

    def __post_init__(self):
        if self.initial_norm > 0.0:
            floor = self.sup_norm / (self.initial_norm + self.T * self.initial_norm**2)
            if self.fitted_C < floor - 1e-12:
                raise ValueError("fitted_C below the defining ratio")


def _drift(norms: np.ndarray, i0: int) -> float:
    """l2_drift of the L2 norms of every time, the one of t=0 at i0."""
    ref = norms[i0]
    return float(np.max(np.abs(norms - ref)) / max(ref, np.finfo(float).tiny))


def l2_drift(traj: Trajectory) -> float:
    """max over t of |  ||u(t)|| - ||u(0)||  | / max(||u(0)||, tiny), the norms taken in
    blocks of rows, as in apriori_check."""
    norms = np.empty(traj.n_times)
    for rows in _row_blocks(traj.n_times):
        norms[rows] = _l2_raw(traj.coeffs[rows], traj.grid.spacing)
    return _drift(norms, traj.index_of_time(0.0))


def _weighted_norms(grid: FrequencyGrid, omega: float):
    """norms(rows, first): apriori_check's s = 0 weighted norm of each row, rows numbered from
    first for the mean-zero check."""
    weights = _sobolev_weights(grid.frequencies, 0.0, omega)
    return lambda rows, first: _sobolev_rows(rows, grid, weights, omega, first)


def _apriori_report(norms: np.ndarray, T: float, i0: int) -> AprioriReport:
    """apriori_check's report from the weighted norms of every time, the one of t=0 at i0."""
    initial, sup = float(norms[i0]), float(np.max(norms))
    fitted = 0.0 if initial == 0.0 else sup / (initial + T * initial**2)
    return AprioriReport(sup_norm=sup, initial_norm=initial, T=T, fitted_C=fitted)


def apriori_check(traj: Trajectory, omega: float) -> AprioriReport:
    """Sup-in-time weighted norm and the smallest C satisfying the growth bound.

    Zero data reports fitted_C = 0 by convention (the bound is then trivially
    true for every C).  The states are taken in blocks of rows, with the
    weight built once.
    """
    norms_of, norms = _weighted_norms(traj.grid, omega), np.empty(traj.n_times)
    for rows in _row_blocks(traj.n_times):
        norms[rows] = norms_of(traj.coeffs[rows], rows.start)
    return _apriori_report(norms, float(traj.times[-1]), traj.index_of_time(0.0))
