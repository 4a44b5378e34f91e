"""Conservation-law and a priori growth diagnostics.

The flow conserves the L2 norm exactly, so the measured drift of a computed
trajectory is a pure solver-accuracy meter.  The a priori check fits the
smallest constant C for which the sup-in-time low-frequency-weighted norm is
bounded by C*(initial + T*initial^2) on a given run; the theory asserts one
C works for every smooth solution, the artifact can only exhibit a
dominating C over a test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import Trajectory, _dealias_mask, _dealiased_square
from .norms import sobolev_norm
from .spectral import SpectralField, _l2_raw, _require_zero_mean, bump


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
    dxi = traj.grid.spacing
    norms = np.sqrt(np.sum(np.abs(traj.coeffs) ** 2, axis=1) * dxi)
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
        nz = xi != 0.0
        weights = np.where(nz, weights * np.abs(np.where(nz, xi, 1.0)) ** (-omega), 0.0)
    return SpectralField(u.grid, u.coeffs * weights)


def forcing_ratio(state: SpectralField, omega: float) -> float:
    """||f(t)||_L2 / ||u(t)||_L2^2 for the projected forcing.

    f has coefficients -(i/2) psi(xi) xi |xi|^(-omega) F(u^2)(xi); the ratio
    is the per-time constant in the quadratic forcing bound.
    """
    grid = state.grid
    l2 = _l2_raw(state.coeffs, grid.spacing)
    if l2 == 0.0:
        return 0.0
    squared = _dealiased_square(state.coeffs, grid, _dealias_mask(grid))
    xi = grid.frequencies
    # |xi|^(1-omega) is regular at 0 for omega < 1, no special case needed
    weights = bump(xi) * np.abs(xi) ** (1.0 - omega)
    f_coeffs = -0.5j * weights * squared
    return _l2_raw(f_coeffs, grid.spacing) / l2**2


def apriori_check(traj: Trajectory, omega: float) -> AprioriReport:
    """Sup-in-time weighted norm and the smallest C satisfying the growth bound.

    Zero data reports fitted_C = 0 by convention (the bound is then trivially
    true for every C).
    """
    norms = np.empty(traj.n_times)
    ratios = np.empty(traj.n_times)
    for i in range(traj.n_times):
        state = traj.state(i)
        norms[i] = sobolev_norm(state, 0.0, omega)
        ratios[i] = forcing_ratio(state, omega)
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
