"""Function-space norms on discrete fields.

Three scales are computed here: the weighted Sobolev norm with singular
low-frequency weight, the space-time restriction norm built on the distance
to the dispersive characteristic tau = xi*|xi|^alpha, and mixed Lebesgue
norms in time and space.

All integrals are Riemann sums with the grid measures dxi = 2*pi/L and
dtau = 2*pi/window, consistent with the Parseval-normalized transforms in
:mod:`fbo_lab.spectral`.  Restriction norms are evaluated on the canonical
cutoff lift rather than as an infimum over extensions; this is a surrogate,
and refinement trends are the honest way to judge it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import Trajectory
from .spectral import (
    FrequencyGrid,
    SpectralField,
    _forward_raw,
    _freeze,
    _held,
    _inverse_raw,
    _require_zero_mean,
    _singular_power,
    bump,
    dispersion_symbol,
    japanese_bracket,
)


#: Slack allowed when checking the admissibility constraints.
_ADMISSIBLE_TOL = 1e-9


def admissible_omega(alpha: float) -> float:
    """The low-frequency exponent omega = 1/alpha - 1/2 tied to alpha."""
    return 1.0 / alpha - 0.5


def s_threshold(alpha: float) -> float:
    """Regularity threshold -(3/4)(alpha-1); admissible s lies epsilon above it."""
    return -0.75 * (alpha - 1.0)


def epsilon_ceiling(alpha: float) -> float:
    """Largest admissible epsilon, (alpha-1)/4."""
    return (alpha - 1.0) / 4.0


def admissible_b_prime_bound(alpha: float, epsilon: float) -> float:
    """Largest admissible b': min{-1/4, -omega, -1/2+eps/3, -1/2+(3/4)(alpha-1)-eps}."""
    return min(
        -0.25,
        -admissible_omega(alpha),
        -0.5 + epsilon / 3.0,
        -0.5 + 0.75 * (alpha - 1.0) - epsilon,
    )


@dataclass(frozen=True)
class EstimateParams:
    """Parameter bundle (alpha, s, omega, b, b', epsilon) for the norm scales.

    With admissible=True the constructor enforces the admissibility
    constraints tying the parameters together (omega = 1/alpha - 1/2, the
    lower bound on s, the b' ceiling and b in (1/2, b'+1)).  Without the
    flag only the basic ranges are checked, so the norms stay evaluable at
    arbitrary exponents.
    """

    alpha: float
    s: float
    omega: float
    b: float
    b_prime: float
    epsilon: float = 0.0
    admissible: bool = False

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not (0.0 <= self.omega < 0.5):
            raise ValueError(f"omega must lie in [0, 1/2), got {self.omega}")
        if not all(map(math.isfinite, (self.s, self.b, self.b_prime))):
            raise ValueError(f"s, b and b' must be finite, got {self.s}, {self.b}, {self.b_prime}")
        if not self.epsilon >= 0.0:  # nan fails it too
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not self.admissible:
            return
        tol = _ADMISSIBLE_TOL
        target = admissible_omega(self.alpha)
        if abs(self.omega - target) > tol:
            raise ValueError(
                f"admissible omega is 1/alpha - 1/2 = {target:.12g}, got {self.omega}"
            )
        if self.epsilon > epsilon_ceiling(self.alpha) + tol:
            raise ValueError(
                f"epsilon must not exceed (alpha-1)/4 = {epsilon_ceiling(self.alpha):.12g}"
            )
        s_min = s_threshold(self.alpha) + self.epsilon
        if self.s < s_min - tol:
            raise ValueError(f"s must be at least {s_min:.12g}, got {self.s}")
        cap = admissible_b_prime_bound(self.alpha, self.epsilon)
        if self.b_prime > cap + tol:
            raise ValueError(f"b' must not exceed {cap:.12g}, got {self.b_prime}")
        if self.b_prime <= -0.5:
            raise ValueError(f"b' must exceed -1/2, got {self.b_prime}")
        if not (0.5 < self.b < self.b_prime + 1.0):
            raise ValueError(
                f"b must lie in (1/2, b'+1) = (0.5, {self.b_prime + 1.0:.12g}), "
                f"got {self.b}"
            )

    @classmethod
    def default_admissible(
        cls,
        alpha: float,
        epsilon: float = 0.1,
        s: float | None = None,
        b: float | None = None,
        b_prime: float | None = None,
    ) -> "EstimateParams":
        """Parameters with each unset exponent at its rule: s at its floor,
        b' at its ceiling and b = 1/2 + 0.6 (b' + 1/2).

        At alpha=1.5, epsilon=0.1 this yields omega=1/6, s=-0.275,
        b'=-0.4666..., b=0.52.  A given s below the floor gives a bundle with
        admissible=False, so sub-threshold points stay evaluable.
        """
        s_min = s_threshold(alpha) + epsilon
        if s is None:
            s = s_min
        if b_prime is None:
            b_prime = admissible_b_prime_bound(alpha, epsilon)
        if b is None:
            b = 0.5 + 0.6 * (b_prime + 0.5)
        admissible = s >= s_min - _ADMISSIBLE_TOL
        return cls(alpha, s, admissible_omega(alpha), b, b_prime, epsilon, admissible)


def sobolev_norm(u: SpectralField, s: float, omega: float) -> float:
    """Weighted Sobolev norm: sqrt(sum <xi>^(2s+2w) |xi|^(-2w) |c|^2 dxi).

    For omega > 0 the weight is singular at xi = 0, so the field must be
    mean-zero; the zero mode is then excluded from the sum.
    """
    weights = _sobolev_weights(u.grid.frequencies, s, omega)
    return float(_sobolev_rows(u.coeffs, u.grid, weights, omega))


def _sobolev_weights(xi: np.ndarray, s: float, omega: float) -> np.ndarray:
    """The squared weight of sobolev_norm, 0 on the zero mode for omega > 0."""
    if not (0.0 <= omega < 0.5):
        raise ValueError(f"omega must lie in [0, 1/2), got {omega}")
    weights = japanese_bracket(xi) ** (2.0 * s + 2.0 * omega)
    if omega > 0.0:
        weights = weights * _singular_power(xi, -2.0 * omega)
    return weights


def _sobolev_rows(
    coeffs: np.ndarray, grid: FrequencyGrid, weights: np.ndarray, omega: float, first: int = 0
) -> np.ndarray:
    """sobolev_norm of each row of coeffs (rows numbered from first for the
    mean-zero check), with weights from _sobolev_weights."""
    if omega > 0.0:
        _require_zero_mean(coeffs, grid.zero_index, "sobolev norm with omega > 0", first)
    return np.sqrt(np.sum(weights * np.abs(coeffs) ** 2, axis=-1) * grid.spacing)


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Coefficients on a (tau, xi) grid for a time-localized space-time function.

    time_grid is a FrequencyGrid over tau whose box_length is the time-window
    length, so its spacing is the tau Riemann measure.
    """

    space_grid: FrequencyGrid
    time_grid: FrequencyGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = _held(self.coeffs)
        expected = (self.time_grid.n_modes, self.space_grid.n_modes)
        if c.shape != expected:
            raise ValueError(f"coefficient shape {c.shape} does not match {expected}")
        object.__setattr__(self, "coeffs", c)

    @property
    def taus(self) -> np.ndarray:
        return self.time_grid.frequencies

    def l2_norm(self) -> float:
        """Space-time L2 norm via Parseval: sqrt(sum |c|^2 dtau dxi)."""
        return math.sqrt(
            float(np.sum(np.abs(self.coeffs) ** 2))
            * self.time_grid.spacing
            * self.space_grid.spacing
        )


def localized_lift(traj: Trajectory, T: float, pad_factor: float = 4.0) -> SpaceTimeField:
    """Time transform of psi_T(t) u(t), per spatial frequency.

    The cutoff confines the signal to [-2T, 2T], which the uniform times of
    traj must cover; the transform window is pad_factor times that support
    (at least 2), realized by zero padding, so the tau grid refines as the
    padding grows.  Window wrap-around in the weighted norms decays
    exponentially with the padding; the default of 4 puts a further doubling
    below 1e-6 relative at the unit cutoff scale.
    """
    t = traj.times
    if not (T > 0.0):
        raise ValueError(f"T must be positive, got {T}")
    if pad_factor < 2.0:
        raise ValueError(f"pad_factor must be at least 2, got {pad_factor}")
    if t[0] > -2.0 * T + 1e-9 or t[-1] < 2.0 * T - 1e-9:
        raise ValueError(
            f"trajectory window [{t[0]:.6g}, {t[-1]:.6g}] too short for the "
            f"cutoff support [-{2 * T:.6g}, {2 * T:.6g}]"
        )
    dt = float(t[1] - t[0])
    half_window = pad_factor * 2.0 * T
    m = int(math.ceil(half_window / dt - 1e-12))
    n_time = 2 * m
    if n_time < 8:
        raise ValueError("time window holds fewer than 8 samples; decrease dt")
    coeffs, time_grid = _padded_time_dft(bump(t / T)[:, None] * traj.coeffs, t, n_time)
    return SpaceTimeField(traj.grid, time_grid, _freeze(coeffs))


def _time_window(times: np.ndarray, n_slots: int, rows: np.ndarray) -> tuple:
    """(time_grid, samples, slots) of n_slots padded slots on the uniform times:
    slot j holds time -window/2 + j*dt, and samples and slots slice the
    samples that fall in the window and the slots that hold them.  rows, the
    samples along axis 0 or anything zero where they are, must be zero
    outside the window."""
    dt = float(times[1] - times[0])
    j0 = n_slots // 2 + int(round(float(times[0]) / dt))  # slot of the first sample
    lo = max(0, -j0)
    hi = max(lo, min(times.size, n_slots - j0))
    if np.any(rows[:lo]) or np.any(rows[hi:]):
        raise ValueError("time samples extend beyond the padded window")
    return FrequencyGrid(n_slots, n_slots * dt), slice(lo, hi), slice(j0 + lo, j0 + hi)


def _padded_time_dft(rows: np.ndarray, times: np.ndarray, n_slots: int) -> tuple:
    """Zero-pad time samples into the n_slots of _time_window and transform;
    returns (coeffs, time_grid)."""
    time_grid, samples, slots = _time_window(times, n_slots, rows)
    signal = np.zeros((n_slots, rows.shape[1]), dtype=complex)
    signal[slots] = rows[samples]
    return _forward_raw(signal, time_grid.box_length, axis=0), time_grid


def bourgain_weights(
    taus: np.ndarray, xis: np.ndarray, p: EstimateParams, b: float
) -> np.ndarray:
    """Squared-norm weight on the (tau, xi) lattice with modulation exponent b.

    Computes |xi|^(-2w) <xi>^(2s-2aw) <|tau|+|xi|^(1+a)>^(2w)
    <tau - xi|xi|^a>^(2b); the xi = 0 column is set to zero for w > 0 (the
    caller checks mean-zero-ness).
    """
    tau = taus[:, None]
    xi = xis[None, :]
    lam = tau - dispersion_symbol(xi, p.alpha)
    w = japanese_bracket(xi) ** (2.0 * p.s - 2.0 * p.alpha * p.omega)
    if p.omega > 0.0:  # at omega = 0 the factor is exactly 1
        sigma = np.abs(tau) + np.abs(xi) ** (1.0 + p.alpha)
        w = w * japanese_bracket(sigma) ** (2.0 * p.omega)
    w = w * japanese_bracket(lam) ** (2.0 * b)
    if p.omega > 0.0:
        w = w * _singular_power(xi, -2.0 * p.omega)
    return w


def bourgain_norm(U: SpaceTimeField, p: EstimateParams, b: float | None = None) -> float:
    """Restriction-norm of a space-time field under the parameter bundle p.

    The modulation exponent defaults to p.b; pass b=p.b_prime (or any other
    value) to evaluate the companion scales appearing in the estimates.
    """
    if b is None:
        b = p.b
    w = bourgain_weights(U.taus, U.space_grid.frequencies, p, b)
    return _weighted_norm(U, w, p.omega)


def _weighted_norm(U: SpaceTimeField, w: np.ndarray, omega: float) -> float:
    """bourgain_norm of U with its weight table w on U's lattice already built."""
    total = float(np.sum(_weighted_cells(U.coeffs, w, omega)))
    return math.sqrt(total * U.time_grid.spacing * U.space_grid.spacing)


def _weighted_cells(coeffs: np.ndarray, w: np.ndarray, omega: float, out=None) -> np.ndarray:
    """The cells w |coeffs|^2 of a squared restriction norm, written into out
    when given; for omega > 0 the (tau, xi) coefficients must be mean-zero."""
    mags = np.abs(coeffs, out=out)
    if omega > 0.0:
        zero = coeffs.shape[1] // 2 - 1
        _require_zero_mean(np.max(mags, axis=0), zero, "bourgain norm with omega > 0")
    return np.multiply(w, np.square(mags, out=mags), out=mags)


def mixed_lebesgue_norm(traj: Trajectory, p_time: float, q_space: float) -> float:
    """L^p in time of the spatial L^q norms, trapezoidal in t, exact max for q=inf."""
    grid = traj.grid
    samples = _inverse_raw(traj.coeffs, grid.box_length, axis=1)
    return _lebesgue_of_samples(np.abs(samples), grid, traj.dt, p_time, q_space)


def _lebesgue_of_samples(
    mags: np.ndarray, grid: FrequencyGrid, dt: float, p_time: float, q_space: float
) -> float:
    """mixed_lebesgue_norm of physical samples from their moduli mags (rows =
    times dt apart) on grid's nodes."""
    if p_time < 1.0 or q_space < 1.0:
        raise ValueError(f"exponents must be >= 1, got p={p_time}, q={q_space}")
    dx = grid.box_length / grid.n_modes
    if math.isinf(q_space):
        space = np.max(mags, axis=1)
    else:
        space = (np.sum(mags**q_space, axis=1) * dx) ** (1.0 / q_space)
    if math.isinf(p_time):
        return float(np.max(space))
    return float(np.trapezoid(space**p_time, dx=dt)) ** (1.0 / p_time)
