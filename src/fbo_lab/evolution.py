"""Nonlinear time evolution: reference solver, Duhamel operator, Picard iteration.

The flow solved here is u_t = |D|^alpha u_x - (1/2) d/dx (u^2), written with
the quadratic term in divergence form.  The linear part is advanced with the
exact phase factors of the free group, so only the nonlinear term carries
time-stepping error.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    FrequencyGrid,
    SpectralField,
    _freeze,
    _held,
    _inverse_raw,
    _l2_raw,
    bump,
    dispersion_symbol,
)


class BlowUpError(RuntimeError):
    """Raised when the L2 norm grows past the blow-up sentinel.

    L2 is conserved exactly by the flow, so any sizeable growth signals a
    numerically unstable run rather than genuine dynamics.
    """


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed solution samples on a uniform grid covering [-T_span, T_span].

    times is copied; coeffs is held as spectral._held gives it.
    """

    grid: FrequencyGrid
    times: np.ndarray
    coeffs: np.ndarray  # shape (n_times, n_modes)
    alpha: float

    def __post_init__(self):
        times = _freeze(np.array(self.times, dtype=float))
        coeffs = _held(self.coeffs)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("trajectory needs at least two time samples")
        steps = np.diff(times)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError("trajectory time samples must be uniform")
        if coeffs.shape != (times.size, self.grid.n_modes):
            raise ValueError(
                f"coefficient array shape {coeffs.shape} does not match "
                f"({times.size}, {self.grid.n_modes})"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def index_of_time(self, t: float) -> int:
        i = int(round((t - float(self.times[0])) / self.dt))
        if not (0 <= i < self.n_times) or abs(float(self.times[i]) - t) > 1e-9 * max(
            1.0, abs(t)
        ):
            raise ValueError(f"time {t} is not on the trajectory grid")
        return i


@dataclass(frozen=True)
class PicardHistory:
    """Successive sup-in-time L2 gaps of the fixed-point iteration."""

    iterate_differences: tuple[float, ...]
    converged: bool
    iterations: int

    def __post_init__(self):
        if any(not np.isfinite(d) for d in self.iterate_differences):
            raise ValueError("iterate differences must be finite")


#: Trajectory rows taken at once by the per-time loops: duhamel_apply's
#: forcing, solve_reference's blow-up check, export_trajectory_csv, and
#: conservation's l2_drift and apriori_check.  64 rows of 512 modes are
#: 512 KB, and no temporary grows with the number of times.
_BLOCK_ROWS = 64


def _row_blocks(n_rows: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK_ROWS rows covering range(n_rows)."""
    return [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n_rows, _BLOCK_ROWS)]


def _dealias_mask(grid: FrequencyGrid) -> np.ndarray:
    # 2/3 rule, strict: keep |k| < N/3 so that aliases of the quadratic
    # product land strictly outside the retained band.
    k = grid.mode_numbers
    limit = int(np.ceil(grid.n_modes / 3.0)) - 1
    return np.abs(k) <= limit


@functools.lru_cache(maxsize=16)
def _half_kernel(grid: FrequencyGrid):
    """(kernel, w_out): kernel(c, w_out, out, samples) writes -(1/2) d/dx (u^2) of the real
    fields whose k >= 0 modes (the ascending slice [z:], numpy's rfft bins) are the rows c into
    out, not c, through samples, a real buffer of N columns; a multiple of w_out in its place
    gives that multiple of it.  The square is of the 2/3-dealiased field and is dealiased again.
    Two weights on k = 0..N/2 hold every constant of the transform pair: w_in the (-1)^k origin
    phase, the synthesis scale and the mask, w_out the phase, the analysis scale, -(i/2) xi and
    the mask.  The mask multiplies by 0, so a value that is not finite in a dropped mode makes
    the result nan."""
    n, box, z = grid.n_modes, grid.box_length, grid.zero_index
    signs = np.where(np.arange(n // 2 + 1) % 2 == 0, 1.0, -1.0) + 0j
    mask = _dealias_mask(grid)[z:]
    w_in = signs * (math.sqrt(TWO_PI) / box) * mask
    w_out = signs * (box / (n * math.sqrt(TWO_PI))) * (-0.5j * grid.frequencies[z:]) * mask

    def kernel(c, w, out, samples):
        np.fft.irfft(np.multiply(c, w_in, out=out), n=n, norm="forward", out=samples)
        np.fft.rfft(np.multiply(samples, samples, out=samples), out=out)
        return np.multiply(out, w, out=out)

    return kernel, _freeze(w_out)


def _mirror(rows: np.ndarray, z: int) -> None:
    """Make ascending rows the real fields of their k >= 0 modes, in place: k < 0 the conjugates
    of k > 0, the unpaired mode N/2 its real part (the real flow's, where the march turns it)."""
    np.conjugate(rows[..., 2 * z : z : -1], out=rows[..., :z])
    rows[..., -1] = rows[..., -1].real


def _nonlinearity_raw(c: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """-(1/2) d/dx (u^2) of ascending rows of real fields, from their k >= 0 modes."""
    z = grid.zero_index
    kernel, w_out = _half_kernel(grid)
    out = np.empty(c.shape, complex)
    kernel(c[..., z:], w_out, out[..., z:], np.empty(c.shape))
    _mirror(out, z)
    return out


def nonlinearity(u: SpectralField) -> SpectralField:
    """-(1/2) d/dx (u^2) with 2/3-rule dealiasing of the square, of u declared real: a complex
    u gives, byte for byte, what the real field of its k >= 0 modes and their mirror gives."""
    return SpectralField(u.grid, _nonlinearity_raw(u.coeffs, u.grid))


def _etdrk4_coeffs(lin: np.ndarray, dt: float):
    # Contour-average evaluation of the phi-function combinations; the
    # integrand is entire so the mean over a full circle of 32 points around
    # z = dt*lin equals the value at the center (our operator is imaginary, so
    # the half-circle-plus-real-part shortcut for real operators does not apply).
    n_roots = 32
    z = dt * lin[:, None] + np.exp(
        2j * np.pi * (np.arange(n_roots) + 0.5) / n_roots
    )[None, :]
    ez = np.exp(z)
    q = dt * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=1)
    f1 = dt * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3, axis=1)
    f2 = dt * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=1)
    return q, f1, f2, f3


def _stepper(grid: FrequencyGrid, dt: np.ndarray, alpha: float, scheme: str):
    """Step rows of the k >= 0 modes of real fields (the ascending slice [z:]) in place, each by
    its signed step in the column dt; products keep the operand order of the ascending
    schemes, as complex products round differently when swapped."""
    if scheme not in ("split_step", "exponential_integrator"):
        raise ValueError(
            f"unknown scheme {scheme!r}; use 'split_step' or 'exponential_integrator'"
        )
    lin = 1j * dispersion_symbol(grid.frequencies[grid.zero_index :], alpha)
    kernel, w_out = _half_kernel(grid)
    half = np.exp(0.5 * dt * lin)
    a, b, hc, k0, k1, k2 = (np.empty((dt.shape[0], lin.size), complex) for _ in range(6))
    samples = np.empty((dt.shape[0], grid.n_modes))
    if scheme == "split_step":
        w_half = (0.5 * dt) * w_out

        def split_step(c):
            # half * rk4(nl, half * c) by stages k' = (dt/2) nl; k0 sums them
            np.multiply(half, c, out=c)
            kernel(c, w_half, k0, samples)
            kernel(np.add(c, k0, out=a), w_half, k1, samples)
            np.add(c, k1, out=a)
            np.add(k0, np.multiply(2.0, k1, out=k1), out=k0)
            kernel(a, w_half, k1, samples)
            np.add(c, np.multiply(2.0, k1, out=k1), out=a)
            np.add(k0, k1, out=k0)
            np.add(k0, kernel(a, w_half, k1, samples), out=k0)
            np.add(c, np.divide(k0, 3.0, out=k0), out=k0)
            np.multiply(half, k0, out=c)

        return split_step
    full = np.exp(dt * lin)
    # one call per signed step, stacked as rows: broadcasting over the
    # column rounds differently from the one-direction coefficients
    q, f1, f2, f3 = np.stack([_etdrk4_coeffs(lin, step) for step in dt[:, 0]], axis=1)
    two_f2 = 2.0 * f2

    def etdrk4(c):
        # n0, na, nb in k0, k1, k2; a and then cc in a; b and temporaries in b
        np.multiply(half, c, out=hc)
        kernel(c, w_out, k0, samples)
        np.add(hc, np.multiply(q, k0, out=a), out=a)
        kernel(a, w_out, k1, samples)
        kernel(np.add(hc, np.multiply(q, k1, out=b), out=b), w_out, k2, samples)
        np.subtract(np.multiply(2.0, k2, out=b), k0, out=b)
        np.add(np.multiply(half, a, out=a), np.multiply(q, b, out=b), out=a)
        np.multiply(full, c, out=c)
        np.add(c, np.multiply(f1, k0, out=k0), out=c)
        np.add(c, np.multiply(two_f2, np.add(k1, k2, out=k1), out=k1), out=c)
        np.add(c, np.multiply(f3, kernel(a, w_out, k2, samples), out=k2), out=c)

    return etdrk4


def _check_dt(t_span: float, dt: float) -> tuple[int, float]:
    """Reject a t_span or dt that solve_reference cannot step, naming the fix;
    return the whole steps of [0, t_span] nearest t_span / dt and their length."""
    if not (math.isfinite(t_span) and math.isfinite(dt)):
        raise ValueError(
            f"t_span and dt must be finite, got {t_span}, {dt}; use t_span=1.0 and dt=0.001, say"
        )
    if not (t_span > 0.0 and dt > 0.0):
        raise ValueError(f"t_span and dt must be positive, got {t_span}, {dt}")
    if dt > t_span:
        raise ValueError(f"dt={dt} exceeds t_span={t_span}; use dt <= {t_span!r}")
    if not math.isfinite(t_span / dt):
        raise ValueError(f"t_span/dt overflows, got {t_span}, {dt}; use a larger dt")
    n = max(1, int(round(t_span / dt)))
    return n, t_span / n


def solve_reference(
    u0: SpectralField,
    t_span: float,
    dt: float,
    alpha: float,
    scheme: str = "split_step",
    *,
    blowup_factor: float = 10.0,
) -> Trajectory:
    """Integrate forward and backward from t=0 over [-t_span, t_span].

    u0 is declared real: the march reads its k >= 0 modes only, so a complex u0 gives, byte
    for byte, what the real field of those modes and their mirror gives, and every row, t=0
    included, is real, the unpaired mode N/2 as the real flow turns it.  The linear substeps
    use the exact propagator phases.  dt is adjusted to the nearest value that divides t_span
    evenly.  Both directions march together as a pair of rows, one stepping by +dt and one by
    -dt, written straight into the trajectory.  If the L2 norm of either grows past
    blowup_factor times its initial value, or is not a number, BlowUpError names the signed t
    of the first step at which that happens, the forward t when both directions cross on the
    same step.  The norms are checked once per block of _BLOCK_ROWS steps, so the march may run
    up to a block past the crossing; numpy's overflow and invalid-value warnings are off while
    it runs, as the sentinel is what reports growth.
    """
    n, dt_eff = _check_dt(t_span, dt)
    grid, z = u0.grid, u0.grid.zero_index
    coeffs = np.empty((2 * n + 1, grid.n_modes), dtype=complex)
    coeffs[n, z:] = u0.coeffs[z:]
    _mirror(coeffs[n], z)
    max_u = float(np.max(np.abs(_inverse_raw(coeffs[n], grid.box_length))))
    cfl = dt_eff * grid.nyquist * max_u
    if cfl > 1.0:
        warnings.warn(
            f"dt*max|xi|*max|u| = {cfl:.3g} exceeds 1; the nonlinear substep "
            "may be under-resolved",
            RuntimeWarning,
            stacklevel=2,
        )
    steps = np.array([[dt_eff], [-dt_eff]])
    step = _stepper(grid, steps, alpha, scheme)
    limit = blowup_factor * max(_l2_raw(coeffs[n], grid.spacing), np.finfo(float).tiny)
    c = np.stack([coeffs[n, z:], coeffs[n, z:]])
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _row_blocks(n):
            lo, hi = block.start, min(block.stop, n)
            for i in range(lo, hi):
                step(c)
                # rows n+1+i and n-1-i, forward first, as one view of the trajectory
                coeffs[n - 1 - i : n + 2 + i : 2 * i + 2][::-1, z:] = c
            # the block's rows made real, and their norms, forward first; nan counts as grown
            norms = []
            for rows in (coeffs[n + 1 + lo : n + 1 + hi], coeffs[n - hi : n - lo][::-1]):
                _mirror(rows, z)
                norms.append(_l2_raw(rows, grid.spacing))
            grown = ~(np.stack(norms, axis=1) <= limit)
            if grown.any():
                i, direction = divmod(int(np.argmax(grown)), 2)
                t = steps[direction, 0] * (lo + i + 1)
                raise BlowUpError(
                    f"L2 norm grew past {blowup_factor}x the initial value at t={t:.6g}"
                )
    return Trajectory(grid, np.arange(-n, n + 1) * dt_eff, _freeze(coeffs), float(alpha))


def duhamel_apply(
    u_guess: Trajectory, u0: SpectralField, T: float, alpha: float
) -> Trajectory:
    """One application of the cutoff Duhamel operator.

    Returns t -> psi(t / max(T, 1)) W(t) u0 + psi_T(t) * integral_0^t
    W(t-t') N(u)(t') dt' on the guess trajectory's own time grid, where
    N(u) = -(1/2) d/dx (u^2) and the time integral is trapezoidal with the
    exact propagator inside.  The free term's cutoff is 1 on |t| <= max(T, 1),
    so on |t| <= T the fixed point is the flow.
    """
    if not (T > 0.0):
        raise ValueError(f"T must be positive, got {T}")
    if u_guess.grid != u0.grid:
        raise ValueError("guess trajectory and data live on different grids")
    window = 2.0 * max(T, 1.0)
    t = u_guess.times
    if t[0] > -window + 1e-9 or t[-1] < window - 1e-9:
        raise ValueError(
            f"guess window [{t[0]:.6g}, {t[-1]:.6g}] does not cover "
            f"[-{window:.6g}, {window:.6g}]"
        )
    grid = u0.grid
    dt = u_guess.dt
    symbol = dispersion_symbol(grid.frequencies, alpha)
    # W(t-t') = W(t) W(-t'): accumulate the t'-integral of W(-t') N(u(t'))
    # cumulatively from t=0 in both directions, then apply W(t) once.  Held:
    # the phases, h = W(-t') N(u) (a block at a time; then the output) and acc.
    back_phase = np.exp(-1j * np.outer(t, symbol))
    h = np.empty_like(back_phase)
    for rows in _row_blocks(u_guess.n_times):
        h[rows] = _nonlinearity_raw(u_guess.coeffs[rows], grid)
        np.multiply(back_phase[rows], h[rows], out=h[rows])
    i0 = u_guess.index_of_time(0.0)
    # Trapezoid panels outward from the zero row at i0, then running sums
    # forward and running differences backward: accumulate adds in order,
    # so each row rounds as a step-by-step sum from t=0 does.
    acc = np.zeros_like(h)
    np.multiply(0.5 * dt, np.add(h[i0:-1], h[i0 + 1 :], out=acc[i0 + 1 :]), out=acc[i0 + 1 :])
    np.multiply(0.5 * dt, np.add(h[:i0], h[1 : i0 + 1], out=acc[:i0]), out=acc[:i0])
    np.cumsum(acc[i0:], axis=0, out=acc[i0:])
    np.subtract.accumulate(acc[i0::-1], axis=0, out=acc[i0::-1])
    psi_free = bump(t / max(T, 1.0))[:, None]
    psi_T = bump(t / T)[:, None]
    # conj(W(-t)) (psi_free u0 + psi_T acc), written over h
    np.add(np.multiply(psi_free, u0.coeffs, out=h), np.multiply(psi_T, acc, out=acc), out=h)
    np.multiply(np.conjugate(back_phase, out=back_phase), h, out=h)
    # the unpaired mode N/2 as the real flow turns it, as solve_reference writes it
    h[:, -1] = h[:, -1].real
    return Trajectory(grid, t, _freeze(h), float(alpha))


def picard_solve(
    u0: SpectralField,
    T: float,
    alpha: float,
    tol: float = 1e-8,
    max_iter: int = 30,
    *,
    dt: float,
) -> tuple[Trajectory, PicardHistory]:
    """Iterate the Duhamel operator from the zero trajectory toward a fixed point.

    The time grid is solve_reference's: the step is T / max(1, round(T/dt)),
    taken over the fewest whole steps that cover [-W, W], W = 2 max(T, 1),
    so every time of solve_reference(u0, T, dt, ...) is a time here.  The
    grid may reach past W by less than one step.
    Stops when the sup-in-time L2 gap between successive iterates drops to
    tol; non-convergence is reported through the history, not raised, and
    a gap that is not finite raises BlowUpError (numpy's overflow and
    invalid-value warnings are off meanwhile, as that check reports it).
    """
    if not (T > 0.0 and tol > 0.0 and max_iter >= 1):
        raise ValueError("need T > 0, tol > 0 and max_iter >= 1")
    window = 2.0 * max(T, 1.0)
    dt_eff = _check_dt(T, dt)[1]
    n = math.ceil(window / dt_eff - 1e-9)  # an exact fit is not rounded up by a step
    times = np.arange(-n, n + 1) * dt_eff
    grid = u0.grid
    current = Trajectory(grid, times, np.zeros((times.size, grid.n_modes), complex), float(alpha))
    gaps: list[float] = []
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, max_iter + 1):
            new = duhamel_apply(current, u0, T, alpha)
            gap = float(np.max(_l2_raw(new.coeffs - current.coeffs, grid.spacing)))
            if not math.isfinite(gap):
                raise BlowUpError(f"Picard iterate difference {i} is {gap}: the iteration diverged")
            gaps.append(gap)
            current = new
            if gap <= tol:
                converged = True
                break
    return current, PicardHistory(tuple(gaps), converged, len(gaps))


# ---------------------------------------------------------------------------
# Trajectory export (schemas documented in FORMATS.md)

_BINARY_MAGIC = b"FBOTRAJ\x00"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<8sIIddI")  # magic, version, N, L, dt, count


def retained_mode_indices(grid: FrequencyGrid, max_modes: int | None) -> np.ndarray:
    """Indices of the modes kept in CSV exports: smallest |xi| first, then sign."""
    if max_modes is not None and max_modes < 0:
        raise ValueError(f"max_modes must be at least 0, got {max_modes}")
    if max_modes is None or max_modes >= grid.n_modes:
        return np.arange(grid.n_modes)
    xi = grid.frequencies
    order = np.lexsort((xi < 0, np.abs(xi)))
    return np.sort(order[:max_modes])


def export_trajectory_csv(traj: Trajectory, path, max_modes: int | None = None) -> None:
    """CSV columns: t, then |coeff| and phase per retained mode, xi ascending.

    The lines are written a block of _BLOCK_ROWS times at a time.
    """
    idx = retained_mode_indices(traj.grid, max_modes)
    header = ["t"]
    for f in traj.grid.frequencies[idx]:
        header += [f"abs[xi={float(f)!r}]", f"phase[xi={float(f)!r}]"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for rows in _row_blocks(traj.n_times):
            sub = traj.coeffs[rows, idx]
            table = np.empty((sub.shape[0], 1 + 2 * idx.size))
            table[:, 0] = traj.times[rows]
            table[:, 1::2], table[:, 2::2] = np.abs(sub), np.angle(sub)
            # a list of floats prints as their reprs joined by ", "
            fh.writelines(repr(row)[1:-1].replace(", ", ",") + "\n" for row in table.tolist())


def export_trajectory_binary(traj: Trajectory, path) -> None:
    """Compact dump: fixed header, then times (f8) and coeffs (c16, C order)."""
    header = _HEADER.pack(
        _BINARY_MAGIC,
        _BINARY_VERSION,
        traj.grid.n_modes,
        traj.grid.box_length,
        traj.dt,
        traj.n_times,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        # written straight from the arrays, with no bytes copy of the trajectory
        np.ascontiguousarray(traj.times, dtype="<f8").tofile(fh)
        np.ascontiguousarray(traj.coeffs, dtype="<c16").tofile(fh)


def load_trajectory_binary(path, alpha: float = float("nan")) -> Trajectory:
    """Read a binary dump.  alpha is not stored in the header; pass it if known.

    A file whose size does not match its header's count of times and modes
    (a truncated dump, say) is rejected, naming both byte counts.  The
    coefficients are read straight into the array the trajectory holds.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"trajectory dump holds {size} bytes, fewer than its header")
        magic, version, n_modes, box_length, _dt, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _BINARY_MAGIC:
            raise ValueError(f"not a trajectory dump (magic {magic!r})")
        if version != _BINARY_VERSION:
            raise ValueError(f"unsupported trajectory dump version {version}")
        expected = _HEADER.size + (8 + 16 * n_modes) * count
        if size != expected:
            raise ValueError(
                f"trajectory dump of {count} times x {n_modes} modes needs {expected} "
                f"bytes, found {size}"
            )
        times, coeffs = np.empty(count, "<f8"), np.empty((count, n_modes), "<c16")
        for array in (times, coeffs):
            if fh.readinto(array) != array.nbytes:
                raise ValueError("trajectory dump changed while it was read")
    return Trajectory(FrequencyGrid(n_modes, box_length), times, _freeze(coeffs), alpha)
