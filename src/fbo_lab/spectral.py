"""Periodic spectral representation: grids, transforms, propagator.

Conventions used throughout the package:

* The spatial box is [-L/2, L/2) sampled at N equispaced nodes
  x_j = -L/2 + j*L/N.
* Frequencies are xi_k = 2*pi*k/L for mode numbers k = -N/2+1, ..., N/2,
  stored in ascending order.  The extreme mode k = N/2 is unpaired (it is
  its own conjugate on the grid).
* The forward transform is the discrete analogue of
  (2*pi)^(-1/2) * integral exp(-i*x*xi) u(x) dx, i.e. a Riemann sum with
  measure dx = L/N.  With the inverse using measure dxi = 2*pi/L the round
  trip is exact and Parseval holds exactly:
  sum |u_j|^2 dx == sum |c_k|^2 dxi.
* The japanese bracket is <xi> = (1 + xi^2)^(1/2).

All container types are immutable after construction and every operation is
a pure function, so everything here is safe to use concurrently.  An array
container (SpectralField here, SpaceTimeField and Trajectory elsewhere) holds
a read-only complex array that owns its memory as it is and a frozen copy of
any other array (_held), and two containers are equal only when they are the
same object.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: Human-readable identifier of the bump construction, echoed into run
#: manifests so the exact cutoff shape is pinned for reproducibility.
BUMP_PROFILE = "exp(-1/x) glue: S(x)=g(x)/(g(x)+g(1-x)), psi(t)=S(2-|t|)"


def _bump_step(x: np.ndarray) -> np.ndarray:
    """Smooth step S with S=0 for x<=0, S=1 for x>=1, built from exp(-1/x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        h = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return g / (g + h)


def bump(t) -> np.ndarray | float:
    """Smooth even bump: 1 on [-1, 1], 0 outside [-2, 2], values in [0, 1]."""
    t = np.asarray(t, dtype=float)
    out = _bump_step(2.0 - np.abs(t))
    if out.ndim == 0:
        return float(out)
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _held(a) -> np.ndarray:
    """The array a container holds for a: a itself when it is a read-only
    complex ndarray that owns its memory, as producers hand theirs over, else
    a frozen complex copy in a's memory order."""
    if (isinstance(a, np.ndarray) and a.dtype == complex
            and a.flags.owndata and not a.flags.writeable):
        return a
    return _freeze(np.array(a, dtype=complex))


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequency lattice xi_k = 2*pi*k/L, k = -N/2+1 ... N/2, ascending.

    Also reused for the tau axis of space-time fields, with box_length equal
    to the time-window length.
    """

    n_modes: int
    box_length: float
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, L = self.n_modes, self.box_length
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_modes must be an integer, got {n!r}")
        if n % 2 != 0:
            raise ValueError(f"n_modes must be even, got {n}")
        if n < 8:
            raise ValueError(f"n_modes must be at least 8, got {n}")
        if not (np.isfinite(L) and L > 0.0):
            raise ValueError(f"box_length must be positive, got {L}")
        k = np.arange(-n // 2 + 1, n // 2 + 1)
        object.__setattr__(self, "n_modes", int(n))
        object.__setattr__(self, "box_length", float(L))
        object.__setattr__(self, "frequencies", _freeze(TWO_PI * k / L))

    @property
    def spacing(self) -> float:
        """Frequency spacing dxi = 2*pi/L, the Riemann measure for norms."""
        return TWO_PI / self.box_length

    @property
    def nyquist(self) -> float:
        """Largest grid frequency 2*pi*(N/2)/L (the unpaired extreme mode)."""
        return float(self.frequencies[-1])

    @property
    def largest_band(self) -> float:
        """The largest band the grid holds, its largest paired frequency."""
        return self.nyquist - self.spacing

    def band_modes(self, band: float) -> int:
        """The one band rule: band admits the modes |k| <= band_modes(band), |xi| <= band up
        to 1e-9 spacings, and must admit k = 1; a band the grid holds is at most largest_band."""
        modes = band / self.spacing + 1e-9
        if not modes >= 1.0:  # nan fails it too
            raise ValueError(f"band {band!r} admits no nonzero mode: the smallest band that "
                             f"does is the grid spacing {self.spacing!r}")
        return math.floor(modes)

    @property
    def mode_numbers(self) -> np.ndarray:
        return np.arange(-self.n_modes // 2 + 1, self.n_modes // 2 + 1)

    @property
    def zero_index(self) -> int:
        return self.n_modes // 2 - 1

    def nodes(self) -> np.ndarray:
        """Physical sample points x_j = -L/2 + j*L/N."""
        n, L = self.n_modes, self.box_length
        return -0.5 * L + L * np.arange(n) / n


def make_grid(n_modes: int, box_length: float) -> FrequencyGrid:
    """Build a frequency grid; rejects odd or tiny n_modes and L <= 0."""
    return FrequencyGrid(n_modes, box_length)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A band-limited periodic function stored as complex Fourier coefficients."""

    grid: FrequencyGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = _held(self.coeffs)
        if c.shape != (self.grid.n_modes,):
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid with "
                f"{self.grid.n_modes} modes"
            )
        object.__setattr__(self, "coeffs", c)


# The plan of a size N caches the slot permutation between ascending mode
# order and numpy's fft order and the (-1)^k phase of the half-box origin,
# held as the complex values a multiply would cast it to, so that no call
# casts; coefficients stay ascending at the API because every symbol, weight
# and export indexes them by xi.


@functools.lru_cache(maxsize=64)
def _plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(numpy slot k mod N of each ascending mode k, its inverse, (-1)^k)."""
    k = np.arange(-n // 2 + 1, n // 2 + 1)
    fft_slot = k % n
    signs = np.where(k % 2 == 0, 1.0, -1.0) + 0j
    return _freeze(fft_slot), _freeze(np.argsort(fft_slot)), _freeze(signs)


def _along(vector: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vector.size
    return vector.reshape(shape)


def _forward_raw(samples: np.ndarray, box_length: float, axis: int = -1) -> np.ndarray:
    """Ascending coefficients of samples along axis."""
    n = samples.shape[axis]
    z = n // 2 - 1
    # +-1 times the scale is exact, so this rounds as sign-then-scale does
    signs = _along(_plan(n)[2] * (box_length / (n * math.sqrt(TWO_PI))), samples.ndim, axis)
    spectrum = np.fft.fft(samples, axis=axis)
    out = np.empty(spectrum.shape, complex)
    # numpy's slots 0..N/2 hold k >= 0, the ascending slice [z:], the rest k < 0
    head = (slice(None),) * (axis % samples.ndim)
    pos, neg = head + (slice(z, None),), head + (slice(z),)
    np.multiply(spectrum[head + (slice(n - z),)], signs[pos], out=out[pos])
    np.multiply(spectrum[head + (slice(n - z, None),)], signs[neg], out=out[neg])
    return out


def _inverse_raw(coeffs: np.ndarray, box_length: float, axis: int = -1) -> np.ndarray:
    """Samples of the ascending coefficients along axis."""
    n = coeffs.shape[axis]
    z = n // 2 - 1
    out = np.empty(coeffs.shape, complex)
    signs = _along(_plan(n)[2], coeffs.ndim, axis)
    # the modes are signed straight into numpy's slots: k >= 0 (the ascending
    # slice [z:]) into slots 0..N/2, k < 0 into the last z
    head = (slice(None),) * (axis % coeffs.ndim)
    pos, neg = head + (slice(z, None),), head + (slice(z),)
    np.multiply(coeffs[pos], signs[pos], out=out[head + (slice(n - z),)])
    np.multiply(coeffs[neg], signs[neg], out=out[head + (slice(n - z, None),)])
    np.fft.ifft(out, axis=axis, out=out)
    out *= n * math.sqrt(TWO_PI) / box_length
    return out


def _slot_fft(a: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
    """out_s = sum_j a_j exp(-+2 pi i j s / n) along the last axis, the sign +
    when inverse: unscaled, in numpy's slot order, out may be a; for a caller
    whose weights hold the (-1)^k origin phase and the scales."""
    return np.fft.ifft(a, norm="forward", out=out) if inverse else np.fft.fft(a, out=out)


# A real field is synthesised from its k >= 0 modes alone, the ascending slice
# [z:] with z the zero index: the k < 0 modes are their conjugates.


def _real_synthesis_table(half: np.ndarray, box_length: float, out: np.ndarray | None = None,
                          n: int | None = None) -> np.ndarray:
    """The half-spectrum table of a multiplier on n ascending modes, from
    half, its first K columns k = 0..K-1 (in rows or one row; all N/2+1 when
    n is None): times the (-1)^k origin phase and the synthesis scale, into
    out (which may be half) when given, to be passed to _real_synthesis."""
    n = 2 * (half.shape[-1] - 1) if n is None else n
    signs = _plan(n)[2][n // 2 - 1 :][: half.shape[-1]]
    return np.multiply(half, signs * (n * math.sqrt(TWO_PI) / box_length), out=out)


def _real_synthesis(table: np.ndarray, coeffs: np.ndarray, product: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of weights * coeffs along the last axis, table being
    _real_synthesis_table(weights, box_length, n=N) of K columns: one real
    inverse FFT of the k >= 0 modes, which must vanish past K-1 (else
    ValueError), through the buffers product (N/2+1 complex columns, zero
    past K-1) and out (the samples') when given, so that a loop over fields
    allocates neither.  Each row of weights * coeffs must be Hermitian (the
    field is declared real); this is then the real part of _inverse_raw."""
    n, k = coeffs.shape[-1], table.shape[-1]
    half = coeffs[..., n // 2 - 1 :]
    if np.any(half[..., k:]):
        raise ValueError(f"coefficients are nonzero past the table's K={k} columns k = 0..{k - 1}")
    if product is None:
        product = np.zeros(np.broadcast_shapes(table.shape[:-1], half.shape[:-1]) + half.shape[-1:], complex)
    np.multiply(table, half[..., :k], out=product[..., :k])
    return np.fft.irfft(product, n=n, axis=-1, out=out)


def _even_time_spectrum(half: np.ndarray, dt: float, n_slots: int) -> np.ndarray:
    """Real ascending coefficients on n_slots tau modes of signals that are
    conjugate-even in t (u(-t) = conj u(t)), sampled dt apart, from half,
    their samples at t >= 0 along the last axis, t = 0 first, at most
    n_slots/2 of them: one Hermitian FFT each, with the scale dt / sqrt(2 pi)
    folded into the samples.  Such a signal, zero-padded into the window of
    n_slots * dt centred on t = 0, has a real transform, the real part of
    _forward_raw's, whose imaginary part is roundoff; the imaginary part of
    the t = 0 sample is taken as 0."""
    spectrum = np.fft.hfft(half * (dt / math.sqrt(TWO_PI)), n=n_slots, axis=-1)
    # numpy's slots 0..n/2 hold tau >= 0, the ascending slice from n/2 - 1 on
    return np.roll(spectrum, n_slots // 2 - 1, axis=-1)


def forward_transform(samples: np.ndarray, grid: FrequencyGrid) -> SpectralField:
    """Physical samples on grid.nodes() -> spectral coefficients."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n_modes,):
        raise ValueError(
            f"sample count {samples.shape} does not match grid with "
            f"{grid.n_modes} modes"
        )
    return SpectralField(grid, _forward_raw(samples.astype(complex), grid.box_length))


def inverse_transform(u: SpectralField) -> np.ndarray:
    """Spectral coefficients -> complex physical samples on grid.nodes()."""
    return _inverse_raw(u.coeffs, u.grid.box_length)


def l2_norm(u: SpectralField) -> float:
    """Parseval-normalized L2 norm: sqrt(sum |c_k|^2 * dxi)."""
    return float(_l2_raw(u.coeffs, u.grid.spacing))


def _l2_raw(coeffs: np.ndarray, dxi: float) -> np.floating | np.ndarray:
    """Parseval L2 norm along the last axis: of a field, or of each row of fields."""
    return np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=-1) * dxi)


def japanese_bracket(xi: np.ndarray) -> np.ndarray:
    """<xi> = (1 + xi^2)^(1/2)."""
    return np.sqrt(1.0 + np.asarray(xi, dtype=float) ** 2)


def _singular_power(xi: np.ndarray, power: float) -> np.ndarray:
    """|xi|^power off the zero mode and 0 on it, for the singular low-frequency weights."""
    nz = xi != 0.0
    return np.where(nz, np.abs(np.where(nz, xi, 1.0)) ** power, 0.0)


def _require_zero_mean(coeffs: np.ndarray, zero_index: int, what: str, first: int = 0) -> None:
    """Reject a field whose zero mode exceeds 1e-13 of its largest coefficient;
    for rows of fields, numbered from first, name the first such row.  The
    restriction norms pass a row of per-column maxima of |coeffs| instead."""
    rows = np.atleast_2d(coeffs)
    zero = np.abs(rows[:, zero_index])
    bad = np.flatnonzero(zero > 1e-13 * np.max(np.abs(rows), axis=-1))
    if bad.size:
        state = f" at state {first + bad[0]}" if coeffs.ndim == 2 else ""
        raise ValueError(
            f"{what} requires a mean-zero field (singular weight at xi=0); "
            f"zero-mode amplitude is {zero[bad[0]]:.3e}{state}"
        )


def dispersion_symbol(xi: np.ndarray, alpha: float) -> np.ndarray:
    """Phase speed symbol xi*|xi|^alpha of the free group."""
    xi = np.asarray(xi, dtype=float)
    return xi * np.abs(xi) ** alpha


def propagate(u: SpectralField, t: float, alpha: float) -> SpectralField:
    """Exact free propagator: multiply each coefficient by exp(i*t*xi*|xi|^alpha).

    Unit-modulus phases make this exactly norm preserving for every weighted
    norm that depends only on |coeffs|.
    """
    if not (np.isfinite(t) and np.isfinite(alpha)):
        raise ValueError(f"t and alpha must be finite, got t={t}, alpha={alpha}")
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha={alpha} outside the supported open interval (1, 2)")
    phase = np.exp(1j * t * dispersion_symbol(u.grid.frequencies, alpha))
    return SpectralField(u.grid, u.coeffs * phase)


_FAMILIES = ("gaussian", "wave_packet", "random_bandlimited")


def make_test_field(
    grid: FrequencyGrid,
    family: str,
    *,
    seed: int = 0,
    amplitude: float = 1.0,
    width: float = 1.0,
    center: float = 0.0,
    carrier: float = 0.0,
    band: float | None = None,
    complex_field: bool = False,
    zero_mean: bool = False,
) -> SpectralField:
    """Deterministic stand-ins for rapidly decaying data.

    gaussian:           amplitude * exp(-((x-center)/width)^2)
    wave_packet:        gaussian envelope times cos(carrier*(x-center))
    random_bandlimited: random coefficients supported in |xi| <= band,
                        conjugate-symmetric unless complex_field is set.

    zero_mean zeroes the xi=0 coefficient (needed wherever the singular
    low-frequency weight |xi|^(-omega) appears).
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if family == "random_bandlimited":
        if band is None:
            raise ValueError("random_bandlimited requires a band")
        if not band <= grid.largest_band:  # nan fails it too
            raise ValueError(
                f"band {band} exceeds the largest paired grid frequency {grid.largest_band:.6g}")
        rng = np.random.default_rng(seed)
        n = grid.n_modes
        coeffs = np.zeros(n, dtype=complex)
        k = grid.mode_numbers
        inside = np.abs(k) <= grid.band_modes(band)
        if complex_field:
            draws = rng.standard_normal((n, 2))
            coeffs[inside] = draws[inside, 0] + 1j * draws[inside, 1]
        else:
            # draw positive-frequency modes, mirror conjugates, real zero mode
            pos = inside & (k > 0)
            draws = rng.standard_normal((n, 2))
            coeffs[pos] = draws[pos, 0] + 1j * draws[pos, 1]
            zero = grid.zero_index
            coeffs[:zero] = np.conj(coeffs[zero + 1 : -1][::-1])
            coeffs[zero] = rng.standard_normal() if inside[zero] else 0.0
        coeffs *= amplitude
    else:
        if not (width > 0.0):
            raise ValueError(f"width must be positive, got {width}")
        x = grid.nodes()
        envelope = amplitude * np.exp(-(((x - center) / width) ** 2))
        if family == "wave_packet":
            if abs(carrier) > grid.largest_band:
                raise ValueError(
                    f"carrier {carrier} exceeds the largest paired grid frequency "
                    f"{grid.largest_band:.6g}"
                )
            ratio = carrier / grid.spacing
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    f"carrier {carrier} is not on the frequency grid (spacing "
                    f"{grid.spacing:.6g})"
                )
            envelope = envelope * np.cos(carrier * (x - center))
        coeffs = _forward_raw(envelope.astype(complex), grid.box_length)
    if zero_mean:
        coeffs[grid.zero_index] = 0.0
    return SpectralField(grid, _freeze(coeffs))
