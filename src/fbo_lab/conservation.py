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

from .evolution import Trajectory, _dealiased_square, _row_blocks
from .norms import _sobolev_rows, _sobolev_weights
from .spectral import (
    FrequencyGrid, SpectralField, _l2_raw, _require_zero_mean, _singular_power, bump,
)


@dataclass(frozen=True)
class AprioriReport:
    """Fit of the linear-plus-quadratic growth bound on one run."""

    sup_norm: float
    initial_norm: float
    T: float
    fitted_C: float
    forcing_ratio_max: float

    def __post_init__(self):
        if self.initial_norm > 0.0:
            floor = self.sup_norm / (self.initial_norm + self.T * self.initial_norm**2)
            if self.fitted_C < floor - 1e-12:
                raise ValueError("fitted_C below the defining ratio")


def l2_drift(traj: Trajectory) -> float:
    """max over t of |  ||u(t)|| - ||u(0)||  | / max(||u(0)||, tiny)."""
    norms = _l2_raw(traj.coeffs, traj.grid.spacing)
    i0 = traj.index_of_time(0.0)
    ref = norms[i0]
    return float(np.max(np.abs(norms - ref)) / max(ref, np.finfo(float).tiny))


def low_freq_project(u: SpectralField, omega: float) -> SpectralField:
    """Multiply coefficients by psi(xi) |xi|^(-omega); zero outside |xi| <= 2.

    The singular weight requires mean-zero input whenever omega > 0.
    """
    if omega < 0.0:
        raise ValueError(f"omega must be nonnegative, got {omega}")
    xi = u.grid.frequencies
    weights = bump(xi)
    if omega > 0.0:
        _require_zero_mean(u.coeffs, u.grid.zero_index, "low-frequency projection")
        weights = weights * _singular_power(xi, -omega)
    return SpectralField(u.grid, u.coeffs * weights)


def forcing_ratio(state: SpectralField, omega: float) -> float:
    """||f(t)||_L2 / ||u(t)||_L2^2 for the projected forcing.

    f has coefficients -(i/2) psi(xi) xi |xi|^(-omega) F(u^2)(xi); the ratio
    is the per-time constant in the quadratic forcing bound.
    """
    grid = state.grid
    weights = _forcing_weights(grid, omega)
    return float(_forcing_ratios(state.coeffs, grid, weights))


def _forcing_weights(grid: FrequencyGrid, omega: float) -> np.ndarray:
    """-(i/2) psi(xi) |xi|^(1-omega), the multiplier taking F(u^2) to f."""
    xi = grid.frequencies
    # |xi|^(1-omega) is regular at 0 for omega < 1, no special case needed
    return -0.5j * (bump(xi) * np.abs(xi) ** (1.0 - omega))


def _forcing_ratios(coeffs: np.ndarray, grid: FrequencyGrid, weights: np.ndarray) -> np.ndarray:
    """forcing_ratio of each row of coeffs, 0 for a zero row."""
    l2 = _l2_raw(coeffs, grid.spacing)
    f_l2 = _l2_raw(weights * _dealiased_square(coeffs, grid), grid.spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(l2 == 0.0, 0.0, f_l2 / l2**2)


def apriori_check(traj: Trajectory, omega: float) -> AprioriReport:
    """Sup-in-time weighted norm and the smallest C satisfying the growth bound.

    Zero data reports fitted_C = 0 by convention (the bound is then trivially
    true for every C).  The states are taken in blocks of rows, with the
    weights built once.
    """
    grid = traj.grid
    weights = _sobolev_weights(grid.frequencies, 0.0, omega)
    f_weights = _forcing_weights(grid, omega)
    norms = np.empty(traj.n_times)
    ratios = np.empty(traj.n_times)
    for rows in _row_blocks(traj.n_times):
        block = traj.coeffs[rows]
        norms[rows] = _sobolev_rows(block, grid, weights, omega, rows.start)
        ratios[rows] = _forcing_ratios(block, grid, f_weights)
    T = float(traj.times[-1])
    i0 = traj.index_of_time(0.0)
    initial = float(norms[i0])
    sup = float(np.max(norms))
    if initial == 0.0:
        fitted = 0.0
    else:
        fitted = sup / (initial + T * initial**2)
    return AprioriReport(
        sup_norm=sup,
        initial_norm=initial,
        T=T,
        fitted_C=fitted,
        forcing_ratio_max=float(np.max(ratios)),
    )
