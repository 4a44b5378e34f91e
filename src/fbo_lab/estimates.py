"""Resonance function, region classifier, bilinear operators, and ratio sweeps.

The inequalities exercised here all have existential constants, so nothing
is "verified" in the proof sense.  Instead each sampled inequality kind is
turned into an empirical sup of left-side/right-side ratios over a declared,
seeded family of test inputs, reported together with a refinement trend
across at least two resolutions.  A stable, finite trend is the evidence; a
growing one is the red flag.  The two pointwise lower bounds, resonance and
smoothing, depend on one number each and are found by a scan over it.

Discrete bilinear convolutions act on the symmetric sublattice |k| <= N/2-1,
|m| <= M/2-1: the unpaired extreme modes are annihilated on input and
output.  This makes the convolution index set symmetric, which in turn makes
the adjoint identity between the two bilinear operators exact up to
roundoff: the two sides sum the same terms in different orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import Trajectory
from .norms import (
    EstimateParams,
    SpaceTimeField,
    _lebesgue_of_samples,
    _padded_time_dft,
    _time_window,
    _weighted_norm,
    bourgain_weights,
)
from .spectral import (
    TWO_PI,
    FrequencyGrid,
    SpectralField,
    _FAMILIES,
    _even_time_spectrum,
    _freeze,
    _plan,
    _real_synthesis,
    _real_synthesis_table,
    _require_zero_mean,
    _slot_fft,
    bump,
    dispersion_symbol,
    japanese_bracket,
    make_test_field,
)

# ---------------------------------------------------------------------------
# pointwise symbols


def resonance(xi1, xi2, alpha: float):
    """h(xi1, xi2) = xi|xi|^a - xi1|xi1|^a - xi2|xi2|^a with xi = xi1 + xi2."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    xi = xi1 + xi2
    out = (
        dispersion_symbol(xi, alpha)
        - dispersion_symbol(xi1, alpha)
        - dispersion_symbol(xi2, alpha)
    )
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# region classifier

_D_PARTS = ("D11", "D12", "D21", "D22")
_A_PARTS = ("A", "A1", "A2")


@dataclass(frozen=True)
class RegionLabel:
    """Frequency-region and dominant-modulation labels on the half |xi1| <= |xi2|."""

    d_part: str
    a_part: str

    def __post_init__(self):
        if self.d_part not in _D_PARTS:
            raise ValueError(f"d_part must be one of {_D_PARTS}, got {self.d_part!r}")
        if self.a_part not in _A_PARTS:
            raise ValueError(f"a_part must be one of {_A_PARTS}, got {self.a_part!r}")


def _classify_arrays(xi1, xi2, lam, lam1, lam2):
    """Vectorized classifier returning (d_codes, a_codes) as small ints.

    d codes index _D_PARTS, a codes index _A_PARTS.  Boundary ties are
    deterministic: the frequency split prefers the first-listed region
    (D1 over D2, D11 over D12) while D22 keeps its closed defining
    inequalities; modulation ties break toward A, then A1.
    """
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    lam = np.asarray(lam, dtype=float)
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    if np.any(np.abs(xi1) > np.abs(xi2)):
        raise ValueError("classifier requires the symmetric half |xi1| <= |xi2|")
    xi = xi1 + xi2
    a1, a2, ax = np.abs(xi1), np.abs(xi2), np.abs(xi)
    in_d1 = 4.0 * a1 <= a2
    d11 = a1 <= 2.0
    d22 = (xi1 * xi2 < 0.0) & (ax <= 0.5 * a1) & (a2 >= 1.0)
    d_codes = np.where(in_d1, np.where(d11, 0, 1), np.where(d22, 3, 2))
    bl = japanese_bracket(lam)
    bl1 = japanese_bracket(lam1)
    bl2 = japanese_bracket(lam2)
    a_codes = np.where(
        (bl >= bl1) & (bl >= bl2), 0, np.where(bl1 >= bl2, 1, 2)
    )
    return d_codes, a_codes


def classify_region(
    xi1: float, xi2: float, lam: float, lam1: float, lam2: float
) -> RegionLabel:
    """Assign the unique (d_part, a_part) pair of an admissible tuple."""
    d, a = _classify_arrays(
        np.asarray([xi1]), np.asarray([xi2]), np.asarray([lam]),
        np.asarray([lam1]), np.asarray([lam2]),
    )
    return RegionLabel(_D_PARTS[int(d[0])], _A_PARTS[int(a[0])])


# ---------------------------------------------------------------------------
# ratio reports


@dataclass(frozen=True)
class RatioReport:
    """Outcome of a sampled estimate sweep: the sup of the side ratios plus
    reproducibility data.  refinement_trend pairs a resolution label with the
    sup measured there, coarsest first.
    """

    kind: str
    sample_count: int
    seed: int
    refinement_trend: tuple[tuple[str, float], ...]
    sup_ratio: float
    extremal_sample: dict = field(default_factory=dict)
    region_histogram: dict | None = None
    skipped: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sup_ratio) and self.sup_ratio >= 0.0):
            raise ValueError(f"ratio must be finite and nonnegative, got {self.sup_ratio}")
        if len(self.refinement_trend) == 0:
            raise ValueError("refinement trend must be nonempty")

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "refinement_trend": [
                {"resolution": label, "value": value}
                for label, value in self.refinement_trend
            ],
            "extremal_sample": self.extremal_sample,
            "skipped": self.skipped,
            "sup_ratio": self.sup_ratio,
        }
        if self.region_histogram is not None:
            out["region_histogram"] = self.region_histogram
        return out


# ---------------------------------------------------------------------------
# pointwise lower bounds


def _resonance_ratio(beta, alpha: float):
    """The resonance ratio |h(xi1, xi2)| / (|xi|_min |xi|_max^alpha), the
    min and max over the moduli of xi1, xi2 and xi = xi1 + xi2, as a function
    of beta = -|xi|_min / |xi|_max in [-1/2, 0).

    With phi(x) = x|x|^alpha odd, h = phi(xi) - phi(xi1) - phi(xi2) is
    -(phi(a) + phi(b) + phi(c)) for the zero-sum triple (a, b, c) =
    (xi1, xi2, -xi).  So the ratio is symmetric in the triple, unchanged when
    the triple is negated, and homogeneous of degree 0: scaling the triple by
    lambda > 0 scales |h| and the right side by lambda^(1+alpha).  Scale and
    sign it so that its entry of largest modulus is 1.  The other two then
    sum to -1 and have moduli at most 1, so both lie in [-1, 0]: they are
    beta and -(1 + beta), beta the one of smaller modulus, so |beta| <=
    1 - |beta| and beta lies in [-1/2, 0) (at 0 the right side vanishes).
    So the ratio is

        R(beta) = |h(beta, 1)| / |beta| = g(|beta|) / |beta|,
        g(t) = 1 - t^(1+alpha) - (1 - t)^(1+alpha).

    g is concave with g(0) = 0, so g(t)/t, the slope of its chord from 0,
    falls as t grows.  The minimum is at beta = -1/2, the triple of
    xi1 = xi2: R(-1/2) = 2 g(1/2) = 2 - 2^(1-alpha).  As beta -> 0, R tends
    to g'(0) = 1 + alpha.
    """
    return np.abs(resonance(beta, 1.0, alpha)) / np.abs(beta)


def _smoothing_ratio(beta, alpha: float):
    """The smoothing ratio ||xi1|^alpha - |xi2|^alpha|^(1/2) /
    ((1/2) |xi|^(1/2) |xi2|^((alpha-1)/2)) on its family xi1 = beta xi2,
    beta in (-1, -1/4], as a function of beta.

    Both sides scale by |xi2|^(alpha/2), so with b = |beta| = -beta the ratio
    is homogeneous of degree 0:

        R(beta) = 2 sqrt((1 - b^alpha) / (1 + beta)) = 2 sqrt((1 - b^alpha) / (1 - b)).

    (1 - b^alpha)/(1 - b) is the slope of the chord of x^alpha over [b, 1],
    the mean of alpha x^(alpha-1) there, which grows with b as x^(alpha-1)
    does.  So R grows as beta falls: the minimum is at the family's edge
    beta = -1/4, 2 sqrt((1 - 4^(-alpha)) / (3/4)), and R tends to
    2 sqrt(alpha) as beta -> -1, where xi = 0 and the right side vanishes.
    The minimum reports where the family ends, not the lemma's constant.
    """
    return 2.0 * np.sqrt((1.0 - np.abs(beta) ** alpha) / (1.0 + beta))


#: Per pointwise kind: its ratio as a function of (beta, alpha), the ends of
#: its beta range (the closed end first, the open one second) and its closed
#: form as a function of alpha.
_POINTWISE = {
    "resonance": (_resonance_ratio, (-0.5, 0.0), lambda alpha: 2.0 - 2.0 ** (1.0 - alpha)),
    "smoothing": (
        _smoothing_ratio, (-0.25, -1.0), lambda alpha: 2.0 * math.sqrt((1.0 - 4.0**-alpha) / 0.75)
    ),
}

#: Points of each of pointwise_infimum's two grids.
_SCAN_POINTS = 1025


def pointwise_infimum(kind: str, alpha: float) -> dict:
    """The infimum over its beta range of a pointwise kind's ratio
    ('resonance' or 'smoothing'), each of which depends on beta alone (see
    _resonance_ratio and _smoothing_ratio for the reductions).

    The ratio is evaluated on a grid of the range, from its closed end up to
    its open one (excluded), and on a finer grid of the two cells about the
    grid's argmin.  Returns kind, alpha, inf_ratio and its beta, the closed
    form and beta_range, ascending; the open end is resonance's 0 and
    smoothing's -1.
    """
    if kind not in _POINTWISE:
        raise ValueError(f"unknown pointwise kind {kind!r}; expected one of {tuple(_POINTWISE)}")
    ratio, (closed, open_end), closed_form = _POINTWISE[kind]
    beta = closed + (open_end - closed) * (np.arange(_SCAN_POINTS) / _SCAN_POINTS)
    i = int(np.argmin(ratio(beta, alpha)))
    fine = np.linspace(beta[max(i - 1, 0)], beta[min(i + 1, beta.size - 1)], _SCAN_POINTS)
    beta = np.concatenate((beta, fine))
    values = ratio(beta, alpha)
    i = int(np.argmin(values))
    return {
        "kind": kind, "alpha": alpha, "inf_ratio": float(values[i]), "beta": float(beta[i]),
        "closed_form": closed_form(alpha), "beta_range": sorted((closed, open_end)),
    }


# ---------------------------------------------------------------------------
# bilinear operators


def _masked_sublattice(U: SpaceTimeField) -> np.ndarray:
    c = np.array(U.coeffs)
    c[-1, :] = 0.0
    c[:, -1] = 0.0
    return c


def _matching_sublattices(U1: SpaceTimeField, U2: SpaceTimeField) -> tuple:
    """The masked sublattice coefficients of two factors on the same grids."""
    if U1.space_grid != U2.space_grid or U1.time_grid != U2.time_grid:
        raise ValueError("bilinear operators need matching space and time grids")
    return _masked_sublattice(U1), _masked_sublattice(U2)


def _conj_reverse(c: np.ndarray) -> np.ndarray:
    """Coefficients of the complex conjugate: conj(c) at (-tau, -xi).

    The unpaired extreme modes have no reflection slot and are dropped;
    they are zero on the working sublattice anyway.
    """
    out = np.zeros_like(c)
    out[: c.shape[0] - 1, : c.shape[1] - 1] = np.conj(
        c[c.shape[0] - 2 :: -1, c.shape[1] - 2 :: -1]
    )
    return out


def _bilinear_convolve(a: np.ndarray, b: np.ndarray, kernel, grids: SpaceTimeField):
    """Direct weighted (tau, xi) convolution of the masked sublattice
    coefficients a and b, truncated to the space and time grids of grids.

    kernel[j1, j2] is the weight of first-factor column j1 against
    second-factor column j2, over the (n-1) x (n-1) sublattice columns.  The
    xi convolution is a sum over column pairs and the tau convolution a
    product of zero-padded time transforms; the operator being linear, the
    pairs are summed in the time-Fourier domain and transformed back once.
    Each column's transform is a row here, so a block of columns is one
    contiguous slab.

    The loop runs over the second factor's nonzero columns j2, each against
    the first factor's nonzero column span (dual_bilinear's second factor
    fills only |xi| <= band, no more columns than its first).  The pairs it
    skips add exact zeros, which change no bit of an accumulator that starts
    at +0 (a sum is -0 only when both terms are).  Every output cell adds its
    terms (a * kernel) * b in ascending j1, so j2 runs descending, and the
    bytes are those of the plain loop over every j1.
    """
    m, n = a.shape
    z_t, z_x = m // 2 - 1, n // 2 - 1
    a_fft = np.fft.fft(a.T, n=2 * m, axis=1, out=np.empty((n, 2 * m), complex))
    b_fft = np.fft.fft(b.T, n=2 * m, axis=1, out=np.empty((n, 2 * m), complex))
    a_cols = np.flatnonzero(np.any(a_fft[: n - 1], axis=1)).tolist()
    # an all-zero first factor has no column span, and adds no term
    b_cols = np.flatnonzero(np.any(b_fft[: n - 1], axis=1)).tolist() if a_cols else []
    acc = np.zeros((n, 2 * m), dtype=complex)
    term = np.empty((n - 1, 2 * m), dtype=complex)
    for j2 in reversed(b_cols):
        # first-factor columns whose sum with j2 lands on the sublattice
        lo, hi = max(a_cols[0], z_x - j2), min(a_cols[-1], n - 2 + z_x - j2)
        if lo <= hi:
            t = term[: hi - lo + 1]
            np.multiply(a_fft[lo : hi + 1], kernel[lo : hi + 1, j2, None], out=t)
            np.multiply(t, b_fft[j2], out=t)
            acc[lo + j2 - z_x : hi + 1 + j2 - z_x] += t
    np.fft.ifft(acc, axis=1, out=acc)
    measure = grids.time_grid.spacing * grids.space_grid.spacing
    # back to C-ordered (tau, xi) rows, whose reductions sum in the usual order
    out = np.multiply(measure, acc[:, z_t : z_t + m].T, out=np.empty((m, n), complex))
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return SpaceTimeField(grids.space_grid, grids.time_grid, _freeze(out))


def _I_weight(grid: FrequencyGrid, s: float) -> np.ndarray:
    """bilinear_I's kernel ||xi1|^(2s) - |xi2|^(2s)|^(1/2) over the (n-1) x (n-1)
    sublattice column pairs of grid."""
    power = np.abs(grid.frequencies[:-1]) ** (2 * s)
    return np.sqrt(np.abs(power[:, None] - power[None, :]))


def bilinear_I(U1: SpaceTimeField, U2: SpaceTimeField, s: float) -> SpaceTimeField:
    """Convolution against the kernel ||xi1|^(2s) - |xi2|^(2s)|^(1/2)."""
    a, b = _matching_sublattices(U1, U2)
    return _bilinear_convolve(a, b, _I_weight(U1.space_grid, s), U1)


def bilinear_K(U1: SpaceTimeField, U2: SpaceTimeField, alpha: float) -> SpaceTimeField:
    """Convolution of conj-u1 against u2 with kernel ||xi|^a - |xi1|^a|^(1/2).

    This is the formal space-time L2 adjoint of u2 -> bilinear_I(u1, u2, a/2).
    """
    a, b = _matching_sublattices(U1, U2)
    power = np.abs(U1.space_grid.frequencies) ** alpha
    j = np.arange(power.size - 1)
    # the output column of the pair (j1, j2); pairs off the grid are never read
    j_out = j[:, None] + j[None, :] - U1.space_grid.zero_index
    kernel = np.sqrt(np.abs(power.take(j_out, mode="clip") - power[:-1, None]))
    return _bilinear_convolve(_conj_reverse(a), b, kernel, U1)


def spacetime_inner(U: SpaceTimeField, V: SpaceTimeField) -> complex:
    """L2 space-time inner product <u, v> via Parseval on the (tau, xi) grid."""
    if U.space_grid != V.space_grid or U.time_grid != V.time_grid:
        raise ValueError("inner product needs matching grids")
    return complex(
        np.sum(U.coeffs * np.conj(V.coeffs))
        * U.time_grid.spacing
        * U.space_grid.spacing
    )


# ---------------------------------------------------------------------------
# sampled test inputs shared across resolutions


def _draw_band_modes(rng: np.random.Generator, n_band: int) -> np.ndarray:
    """Hermitian coefficient draws for mode numbers -n_band..n_band."""
    pos = rng.standard_normal((n_band, 2))
    pos = pos[:, 0] + 1j * pos[:, 1]
    zero = complex(rng.standard_normal())
    return np.concatenate([np.conj(pos[::-1]), [zero], pos])


def _envelope(rng: np.random.Generator, family: str) -> dict:
    """A descriptor of family with drawn amplitude, width and center."""
    return {"family": family, "amplitude": float(rng.uniform(0.5, 1.5)),
            "width": float(rng.uniform(0.8, 2.0)), "center": float(rng.uniform(-2.0, 2.0))}


def _draw_descriptor(rng: np.random.Generator, n_band: int, dxi: float) -> dict:
    family = _FAMILIES[int(rng.integers(0, len(_FAMILIES)))]
    if family == "random_bandlimited":
        return {"family": family, "modes": _draw_band_modes(rng, n_band)}
    desc = _envelope(rng, family)
    if family == "wave_packet":
        j = int(rng.integers(1, n_band + 1)) * (1 if rng.random() < 0.5 else -1)
        desc["carrier"] = j * dxi
    return desc


def _packet_descriptor(rng: np.random.Generator, j: int, dxi: float) -> dict:
    return {**_envelope(rng, "wave_packet"), "carrier": j * dxi}


def _draw_pair(rng: np.random.Generator, n_band: int, dxi: float, correlated=True) -> tuple:
    """A pair of field descriptors, enriched with correlated carrier draws.

    Independent draws mostly land in the comparable-frequency and
    low-vs-high regions; the two correlated branches target the separated
    (D12-style) and opposite-sign near-cancelling (D22-style) interactions
    that random pairs almost never dominate.  correlated=False draws only
    the independent pair, as does a band of under 3 modes.
    """
    branch = rng.random() if correlated and n_band >= 3 else 1.0
    if branch < 0.25:
        # separated carriers: 4|xi1| <= |xi2|
        j1 = int(rng.integers(1, max(2, n_band // 4) + 1))
        j2 = int(rng.integers(min(4 * j1, n_band), n_band + 1))
        s1 = 1 if rng.random() < 0.5 else -1
        s2 = 1 if rng.random() < 0.5 else -1
        return _packet_descriptor(rng, s1 * j1, dxi), _packet_descriptor(rng, s2 * j2, dxi)
    if branch < 0.5:
        # opposite signs, comparable size, small output frequency
        j2 = int(rng.integers(3, n_band + 1))
        d = int(rng.integers(0, min(3, j2 // 2) + 1))
        s2 = 1 if rng.random() < 0.5 else -1
        return _packet_descriptor(rng, -s2 * (j2 - d), dxi), _packet_descriptor(rng, s2 * j2, dxi)
    return _draw_descriptor(rng, n_band, dxi), _draw_descriptor(rng, n_band, dxi)


def _draw_samples(kind: str, rng: np.random.Generator, n_samples: int, n_band: int, dxi: float):
    """The descriptors of each sample of a sampled kind, in one fixed draw order."""
    if kind == "strichartz":
        draws = [_draw_band_modes(rng, n_band) for _ in range(n_samples)]
        return [{"family": "random_bandlimited", "modes": modes} for modes in draws]
    if kind == "main_bilinear":
        return [_draw_pair(rng, n_band, dxi) for _ in range(n_samples)]
    pairs = [_draw_pair(rng, n_band, dxi, correlated=False) for _ in range(n_samples)]
    if kind == "bilinear_str":
        return pairs
    # dual_bilinear: the first factor, and a seed for the random second factor
    seeds = rng.integers(0, 2**63 - 1, size=n_samples)
    return [(pair[0], int(seed)) for pair, seed in zip(pairs, seeds)]


def _random_spacetime(rng, grid, time_grid, band):
    """Random coefficients on the (tau, xi) sub-band |k_tau| <= m/3, xi in band,
    extreme modes zero.  The sub-band is a rectangle of rows and columns,
    filled row by row."""
    m, n = time_grid.n_modes, grid.n_modes
    coeffs = np.zeros((m, n), dtype=complex)
    rows = np.flatnonzero(np.abs(time_grid.mode_numbers[:-1]) <= m // 3)
    cols = np.flatnonzero(np.abs(grid.mode_numbers[:-1]) <= grid.band_modes(band))
    block = coeffs[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    draws = rng.standard_normal(block.shape + (2,))
    block[...] = draws[..., 0] + 1j * draws[..., 1]
    return SpaceTimeField(grid, time_grid, _freeze(coeffs))


def _field_from_descriptor(
    grid: FrequencyGrid, desc: dict, zero_mean: bool
) -> SpectralField:
    if desc["family"] == "random_bandlimited":
        modes = desc["modes"]
        n_band = modes.size // 2
        coeffs = np.zeros(grid.n_modes, dtype=complex)
        z = grid.zero_index
        coeffs[z - n_band : z + n_band + 1] = modes
        if zero_mean:
            coeffs[z] = 0.0
        return SpectralField(grid, _freeze(coeffs))
    kwargs = {k: v for k, v in desc.items() if k != "family"}
    return make_test_field(grid, desc["family"], zero_mean=zero_mean, **kwargs)


def _free_cutoff_times(T: float, n_time: int) -> np.ndarray:
    """The sample times of a free evolution whose cutoff lift has n_time tau
    modes: the window is twice the cutoff support [-2T, 2T], pad factor 2."""
    window = 8.0 * T
    dt = window / n_time
    n = int(round(2.0 * T / dt))
    if abs(n * dt - 2.0 * T) > 1e-9:
        raise ValueError(
            f"n_time={n_time} does not place the cutoff support on the time grid"
        )
    return np.arange(-n, n + 1) * dt


#: Columns per block of _FreeLifts' profile: a block's spectra, weights and
#: cells (32 x 801 at the strichartz defaults, 0.2 MB each) stay small, and
#: the blocks are few enough that the loop costs nothing to speak of.
_PROFILE_BLOCK = 32


class _FreeLifts:
    """Free cutoff evolutions on one grid, their lifts and restriction norms.

    Free evolution acts on each spatial frequency alone, so the cutoff lift of
    u0 is kernel * u0[None, :], the kernel being the lift of the all-ones
    field, and its squared restriction norm under p is the sum over xi of
    profile(xi) |u0(xi)|^2, where profile(xi) is the tau sum of
    w |kernel|^2 dtau dxi with w = bourgain_weights at b = p.b.  A norm then
    costs O(N) per sample.  One instance serves one resolution of a bilinear
    harness call, or every strichartz resolution from the band grid: on one
    box and times a coarser grid's tables are a finer one's middle columns,
    bit for bit.  One cutoff psi = bump(times / T) serves its tables, lifts
    and product field.

    The tables are built from the N/2+1 columns k >= 0: phases, the free
    group at times (exponentiated at t >= 0 only), w and |kernel|^2.  psi
    being even, each column psi(t) e^{i t phi(xi)} is conjugate-even in t,
    so its kernel column is real: |kernel|^2 is the square of the real
    spectrum of its t >= 0 samples (_even_time_spectrum), half the samples
    and half the arithmetic of the complex transform.  The profile and
    column_max are built _PROFILE_BLOCK columns at a time, with w per block,
    so no m x N/2 table is held.  The k < 0 entries come
    from the mirror (tau, -xi) <-> (-tau, xi), under which w is invariant
    and |kernel| is up to roundoff.  Mirrored, the tau grid reaches -m/2, not
    m/2, so w gets the extra row tau = -taus[-1] and |kernel|^2 a copy of row
    m/2 there (the transform is periodic in tau): profile(xi) sums rows 1..m
    and profile(-xi) rows 0..m-1.  column_max, a max over a period, is even.
    paths, the free group over all N columns, and kernel, its complex lift
    (_padded_time_dft, which the bilinear region search reads bit for bit),
    are built on first use; strichartz never builds them.  phi being odd,
    the columns xi < 0 of paths are bitwise the conjugates of the columns
    -xi, but at t = 0, where the conjugate is 1 - 0j and the formula's
    1 + 0j is set.
    """

    def __init__(self, grid: FrequencyGrid, p: EstimateParams, T: float, n_time: int):
        self.grid, self.p, self.T, self.n_time = grid, p, T, n_time
        z = grid.zero_index
        self.times = _free_cutoff_times(T, n_time)
        self.psi = bump(self.times / T)[:, None]
        xis = grid.frequencies[z:]
        phi = dispersion_symbol(xis, p.alpha)
        # the times are symmetric, and the row at -t is bitwise the conjugate
        # of the row at t, but at xi = 0, where the formula gives 1 + 0j
        n = self.times.size // 2
        self.phases = np.empty((self.times.size, phi.size), complex)
        np.exp(1j * np.outer(self.times[n:], phi), out=self.phases[n:])
        np.conjugate(self.phases[:n:-1, 1:], out=self.phases[:n, 1:])
        self.phases[:n, 0] = 1.0
        dt = float(self.times[1] - self.times[0])
        self.time_grid = FrequencyGrid(n_time, n_time * dt)
        taus = self.time_grid.frequencies
        taus = np.concatenate(([-taus[-1]], taus))
        # per block of columns: their t >= 0 samples, contiguous in t, the
        # squares of their spectra with row m/2 copied to -m/2, and the cells
        half = np.empty((min(_PROFILE_BLOCK, xis.size), n + 1), complex)
        squares = np.empty((half.shape[0], taus.size))
        pos, neg, column_max = np.empty((3, xis.size))
        for lo in range(0, xis.size, _PROFILE_BLOCK):
            cols = slice(lo, lo + _PROFILE_BLOCK)
            k = xis[cols].size
            np.multiply(self.phases[n:, cols].T, self.psi[n:, 0], out=half[:k])
            sq = squares[:k]
            np.square(_even_time_spectrum(half[:k], dt, n_time), out=sq[:, 1:])
            sq[:, 0] = sq[:, -1]
            column_max[cols] = np.sqrt(np.max(sq[:, 1:], axis=1))
            cells = np.multiply(bourgain_weights(taus, xis[cols], p, p.b).T, sq, out=sq)
            np.sum(cells[:, 1:], axis=1, out=pos[cols])
            np.sum(cells[:, :-1], axis=1, out=neg[cols])
        measure = self.time_grid.spacing * grid.spacing
        self.profile = np.concatenate((neg[z:0:-1], pos)) * measure
        self.column_max = np.concatenate((column_max[z:0:-1], column_max))

    @functools.cached_property
    def paths(self) -> np.ndarray:
        z = self.grid.zero_index
        paths = np.concatenate((np.conjugate(self.phases[:, z:0:-1]), self.phases), axis=1)
        paths[self.times.size // 2, :z] = 1.0
        return _freeze(paths)

    @functools.cached_property
    def kernel(self) -> SpaceTimeField:
        coeffs, _ = _padded_time_dft(self.psi * self.paths, self.times, self.n_time)
        return SpaceTimeField(self.grid, self.time_grid, _freeze(coeffs))

    def lift(self, u0: SpectralField) -> SpaceTimeField:
        """localized_lift of the free evolution of u0."""
        coeffs = _freeze(self.kernel.coeffs * u0.coeffs[None, :])
        return SpaceTimeField(u0.grid, self.time_grid, coeffs)

    def norm(self, u0: SpectralField) -> float:
        """bourgain_norm of the lift of u0, a field on this grid, and its zero-mode check."""
        mags = np.abs(u0.coeffs)
        if self.p.omega > 0.0:
            _require_zero_mean(self.column_max * mags, self.grid.zero_index, "bourgain norm with omega > 0")
        return math.sqrt(float(np.sum(self.profile * mags**2)))


def _x_params(p: EstimateParams) -> EstimateParams:
    """The (s=0, omega=0) bundle used by the linear and bilinear space-time scales."""
    return EstimateParams(p.alpha, 0.0, 0.0, p.b, -0.25, 0.0)


# ---------------------------------------------------------------------------
# products on the doubled spatial lattice


class _ProductField:
    """d/dx [ (psi u1)(psi u2) ] of two trajectories on grid, sampled at
    times, psi being the cutoff's column at times, on n_slots tau modes, in
    numpy's slot order and in buffers built once: one instance serves one
    resolution of one harness call.

    Factor i is paths * u_i on the samples in the window (paths a table on
    times and grid, or a column that broadcasts; u_i a row of coefficients
    or a table on those samples).  weight * u_i, the weight psi paths (-1)^k
    sqrt(2 pi)/L in the doubled grid's slots and zero in its padding slots,
    is the factor's field under an unscaled inverse transform.  The
    product's transform along x goes, transposed, into the time window of
    signal, and along tau into spectrum, x slots by tau slots, which the
    next call overwrites.  The derivative field C is (-1)^m (-1)^k sx st i xi
    spectrum reordered by ascending, sx and st the analysis scales; so its
    cells w |C|^2 are cell_weight(w) |spectrum|^2.
    """

    def __init__(self, grid: FrequencyGrid, times: np.ndarray, psi: np.ndarray, paths, n_slots: int):
        n, box = grid.n_modes, grid.box_length
        self.ext = FrequencyGrid(2 * n, box)
        self.time_grid, self.samples, self.window = _time_window(times, n_slots, psi)
        (self.x_slot, self.x_rank, _), (self.t_slot, self.t_rank, _) = _plan(2 * n), _plan(n_slots)
        slots = self.x_slot[n // 2 : n // 2 + n]  # the doubled grid's slots of grid's modes
        factors = psi[self.samples] * paths[self.samples]
        self.weight = np.zeros((factors.shape[0], 2 * n), complex)
        self.weight[:, slots] = factors * (_plan(n)[2] * (math.sqrt(TWO_PI) / box))
        self.gather = np.clip(self.x_rank - n // 2, 0, n - 1)  # a padding slot meets a zero weight
        self.scales = (box / (2 * n * math.sqrt(TWO_PI)),
                       self.time_grid.box_length / (n_slots * math.sqrt(TWO_PI)))
        self.rows = np.empty((2,) + self.weight.shape, complex)
        self.signal = np.zeros((2 * n, n_slots), complex)  # columns outside window stay zero
        self.spectrum = np.empty((2 * n, n_slots), complex)

    def __call__(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        rows = self.rows
        for u, row in zip((u1, u2), rows):
            np.multiply(self.weight, np.take(u, self.gather, axis=-1), out=row)
        _slot_fft(rows, rows, inverse=True)
        product = np.multiply(rows[0], rows[1], out=rows[0])
        self.signal[:, self.window] = _slot_fft(product, product).T
        return _slot_fft(self.signal, self.spectrum)

    def ascending(self, table: np.ndarray) -> np.ndarray:
        """A table in spectrum's layout as a fresh one on (time_grid, ext), ascending."""
        return table.T[np.ix_(self.t_slot, self.x_slot)]

    def cell_weight(self, w: np.ndarray) -> np.ndarray:
        """w, on (time_grid, ext) ascending, times (sx st xi)^2, in spectrum's layout."""
        scaled = w * np.square(self.scales[0] * self.scales[1] * self.ext.frequencies)
        return scaled.T[np.ix_(self.x_rank, self.t_rank)]


def product_derivative_field(
    traj1: Trajectory, traj2: Trajectory, T: float, n_slots: int
) -> SpaceTimeField:
    """Space-time transform of d/dx [ (psi_T u1)(psi_T u2) ] on the doubled xi grid.

    The spatial product is formed pointwise on the refined physical grid, so
    the xi convolution is exact (no aliasing) for the retained modes.  This is
    one use of a _ProductField whose paths are ones, finished by one multiply
    and a reorder to ascending order; the ratio harness keeps one per
    resolution.
    """
    if traj1.grid != traj2.grid or traj1.n_times != traj2.n_times:
        raise ValueError("product factors need matching grids and time samples")
    times, n = traj1.times, traj1.grid.n_modes
    product = _ProductField(traj1.grid, times, bump(times / T)[:, None], np.ones((times.size, 1)), n_slots)
    spectrum = product(traj1.coeffs[product.samples], traj2.coeffs[product.samples])
    # (-1)^k sx i xi (-1)^m st in spectrum's layout, written over the spent signal
    (sx, st), xi = product.scales, product.ext.frequencies
    finish = np.outer((_plan(2 * n)[2] * (sx * 1j * xi))[product.x_rank],
                      (_plan(n_slots)[2] * st)[product.t_rank], out=product.signal)
    coeffs = product.ascending(np.multiply(spectrum, finish, out=spectrum))
    return SpaceTimeField(product.ext, product.time_grid, _freeze(coeffs))


# ---------------------------------------------------------------------------
# the ratio harness

_BILINEAR_INPUTS = dict(
    n_samples=100, resolutions=((48, 48), (64, 64)), box_length=16.0, band=3.0, T=0.5
)

#: The input keys each kind reads, with their defaults; a kind accepts exactly these.
_KIND_INPUTS = {
    "strichartz": dict(n_samples=200, resolutions=(256, 512), box_length=64.0, band=8.0, T=1.0),
    "bilinear_str": _BILINEAR_INPUTS,
    "dual_bilinear": _BILINEAR_INPUTS,
    "main_bilinear": dict(
        _BILINEAR_INPUTS, n_samples=200, resolutions=((56, 448), (64, 512)), band=10.0,
        band_fraction=None,
    ),
}


#: How many of each main_bilinear sample's heaviest output cells have their regions tallied.
TOP_CELLS = 8

#: The floor eps of the lift entries _DominantRegions searches, relative to the lift's peak.
_SUPPORT_FLOOR = 1e-3


def _top_cells(cells: np.ndarray, k: int, ranks: tuple) -> np.ndarray:
    """The ranks of the k heaviest cells, heaviest first, an exact tie going
    to the smaller rank; cell (r, c) has the rank ranks[0][r] + ranks[1][c],
    which for ranks (arange(rows) * cols, arange(cols)) is its flat index.

    The k-th largest column maximum is at most the k-th largest cell, so each
    of the k heaviest cells reaches it, in a column whose maximum reaches it:
    only the cells of those columns that reach it are sorted.  (Column maxima
    of a C-ordered table reduce row by row, faster than row maxima.)
    """
    col_max = np.max(cells, axis=0)
    floor = np.partition(col_max, -k)[-k] if k <= col_max.size else -math.inf
    cols = np.flatnonzero(col_max >= floor)
    block = cells[:, cols]
    at = np.flatnonzero(block >= floor)
    r, j = np.divmod(at, cols.size)
    rank = ranks[0][r] + ranks[1][cols[j]]
    return rank[np.lexsort((rank, -block.ravel()[at]))[:k]]


class _DominantRegions:
    """The regions of the dominant convolution terms of a main_bilinear
    sample's heaviest output cells.  One instance serves one resolution.

    Both lifts are the kernel K (on time_grid and space_grid) times a
    coefficient row, column by column: L1 = K u1 and L2 = K u2.  The terms of
    an output cell c of the product (on time_grid and the doubled space_grid)
    are L1(e) L2(c - e) over the lifts' entries e = (tau1, xi1) whose partner
    c - e lies on the lattice, and the dominant one is the first largest in
    modulus in (tau1, xi1) row-major order, as a block argmax finds it.

    It is searched on the lifts' supports Si = {e : |K(e)|^2 >= eps^2 Mi /
    |ui|^2}, with Mi = max_q colmax(q) |ui(q)|^2, colmax the column maxima of
    |K|^2, the squared modulus of Li's largest entry.  A term with a factor
    outside its support has modulus below eps sqrt(M1 M2), and so below
    B = eps sqrt(M1 M2) (1 + 1e-6) as rounded: the slack covers the few ulps
    between the support's test and |fl(K u)|^2.  So if the largest term over
    the entries of S1 whose partner lies in S2 exceeds B, it is the cell's
    largest, and every term that ties with it is among them: the first of
    them in row-major order is the cell's.  A term is formed as (K(e) u1)
    (K(c - e) u2), the operands and order of the lifts' products.  S2 is a
    mask framed by False, so that a partner off the lattice reads False.
    The cell tables are in _ProductField's layout; _top_cells ranks their
    cells by the ascending (tau, xi) flat index, an exact tie going to the
    smaller.

    The search runs at eps = _SUPPORT_FLOOR, then at eps = 0 on the cells
    left open, where S1 holds every entry whose coefficient is nonzero (a
    zero coefficient's column gives 0/0): the search reads every nonzero
    term of the block, and B = 0 leaves out a cell whose terms are all zero.
    The cells go in groups of at most a lattice of (cell, entry) pairs, so
    that a call holds about what a pair of lifts does, and a group reads S1
    only in the rows and columns that its blocks span (at eps = 0, where a
    group is mostly one cell, its block).
    Any eps in (0, 1) gives the same terms.
    """

    def __init__(self, kernel: np.ndarray, time_grid: FrequencyGrid, space_grid: FrequencyGrid, p):
        self.kernel, self.time_grid, self.space_grid, self.p = kernel, time_grid, space_grid, p
        self.power = np.square(np.abs(kernel))
        self.column_max = np.max(self.power, axis=0)
        self.xi_out = FrequencyGrid(2 * space_grid.n_modes, space_grid.box_length).frequencies
        m_t, n_x = kernel.shape
        self.framed = np.zeros((3 * m_t, 3 * n_x), bool)
        # a cell table's slots of the ascending cells, and the ascending flat index of its slots
        (x_slot, x_rank, _), (t_slot, t_rank, _) = _plan(2 * n_x), _plan(m_t)
        self.slots, self.ranks = (t_slot, x_slot), (x_rank, t_rank * (2 * n_x))

    def terms(self, cells: np.ndarray, u1: np.ndarray, u2: np.ndarray, top_cells=TOP_CELLS) -> tuple:
        """The output rows and columns of the top_cells heaviest of cells (the
        table w_out |C|^2 of the product field C, in _ProductField's layout)
        and the rows of tau1 and columns of xi1 of their dominant terms, all
        ascending, as four arrays in no particular order; a cell that is
        zero, at xi = 0 or whose terms are all zero is left out."""
        power, kernel, (m_t, n_x) = self.power, self.kernel, self.kernel.shape
        a1, a2 = np.square(np.abs(u1)), np.square(np.abs(u2))
        peak1, peak2 = np.max(self.column_max * a1), np.max(self.column_max * a2)
        if peak1 == 0.0 or peak2 == 0.0:  # every term is zero
            return (np.zeros(0, int),) * 4
        n_out, (t_slot, x_slot) = 2 * n_x, self.slots
        mi, ki = np.divmod(_top_cells(cells, min(top_cells, cells.size), self.ranks), n_out)
        kept = (cells[x_slot[ki], t_slot[mi]] > 0.0) & (self.xi_out[ki] != 0.0)
        mi, ki = mi[kept], ki[kept]
        # the partner of L1's entry (r, q) in a cell is L2's (c_t - r, c_x - q)
        c_t = mi + self.time_grid.zero_index
        c_x = ki - (n_out // 2 - 1) + 2 * self.space_grid.zero_index
        framed_c, flat_c = (c_t + m_t) * (3 * n_x) + c_x + n_x, c_t * n_x + c_x
        first_t, first_x = np.maximum(c_t - m_t + 1, 0), np.maximum(c_x - n_x + 1, 0)  # of each block
        rows, cols, todo = np.full_like(mi, -1), np.zeros_like(mi), np.arange(mi.size)
        for eps in (_SUPPORT_FLOOR, 0.0):
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero coefficient's column is empty
                support = power >= eps**2 * peak1 / a1
                np.greater_equal(power, eps**2 * peak2 / a2, out=self.framed[m_t : 2 * m_t, n_x : 2 * n_x])
            bound = eps * math.sqrt(peak1 * peak2) * (1.0 + 1e-6)
            size = max(1, power.size // max(1, np.count_nonzero(support)))
            for group in (todo[lo : lo + size] for lo in range(0, todo.size, size)):
                # e1, the entries of S1 in the rows and columns that the group's
                # blocks span; L1 there; e1's offsets in the framed mask
                r0, q0 = first_t[group].min(), first_x[group].min()
                box = support[r0 : c_t[group].max() + 1, q0 : c_x[group].max() + 1]
                r1, q1 = np.divmod(np.flatnonzero(box), box.shape[1])
                if r1.size == 0:  # no cell of the group has a term on S1
                    continue
                r1, q1 = r1 + r0, q1 + q0
                e1 = r1 * n_x + q1
                lift1, framed_e1 = kernel.take(e1) * u1[q1], e1 + 2 * n_x * r1
                on = np.flatnonzero(self.framed.take(framed_c[group, None] - framed_e1))
                cell, j = np.divmod(on, e1.size)
                at = group[cell]
                terms = lift1[j] * (kernel.take(flat_c[at] - e1[j]) * u2[c_x[at] - q1[j]])
                mods = np.zeros((group.size, e1.size))
                mods.ravel()[on] = np.abs(terms)
                best = np.argmax(mods, axis=1)
                sure = mods[np.arange(group.size), best] > bound
                rows[group[sure]], cols[group[sure]] = np.divmod(e1[best[sure]], n_x)
            todo = todo[rows[todo] < 0]
            if todo.size == 0:
                break
        found = rows >= 0
        return mi[found], ki[found], rows[found], cols[found]

    def __call__(self, cells, u1, u2, top_cells=TOP_CELLS) -> list[RegionLabel]:
        """The regions of terms(cells, u1, u2, top_cells), classified together
        on the half |xi1| <= |xi2|; a term at xi1 = 0 or xi2 = 0 is dropped."""
        mi, ki, mi1, ki1 = self.terms(cells, u1, u2, top_cells)
        taus, alpha = self.time_grid.frequencies, self.p.alpha
        xi1, tau1 = self.space_grid.frequencies[ki1], taus[mi1]
        xi2, tau2 = self.xi_out[ki] - xi1, taus[mi] - tau1
        keep = (xi1 != 0.0) & (xi2 != 0.0)
        xi1, xi2, tau1, tau2 = xi1[keep], xi2[keep], tau1[keep], tau2[keep]
        swap = np.abs(xi1) > np.abs(xi2)
        xi1, xi2 = np.where(swap, xi2, xi1), np.where(swap, xi1, xi2)
        tau1, tau2 = np.where(swap, tau2, tau1), np.where(swap, tau1, tau2)
        lam = tau1 + tau2 - dispersion_symbol(xi1 + xi2, alpha)
        lam1 = tau1 - dispersion_symbol(xi1, alpha)
        lam2 = tau2 - dispersion_symbol(xi2, alpha)
        d_codes, a_codes = _classify_arrays(xi1, xi2, lam, lam1, lam2)
        return [RegionLabel(_D_PARTS[d], _A_PARTS[a])
                for d, a in zip(d_codes.tolist(), a_codes.tolist())]


def _strichartz_table(p, grids, T, n_time, descs):
    """The L4t Linfx norm of <D>^gamma psi_T W(t) u0 and the norm of its lift,
    as two (resolutions x samples) tables, the rows as grids.

    Every draw is Hermitian, in the coarsest grid's band of n_band modes, and
    the free group keeps it so (phi is odd): the cut evolution is one real
    trigonometric polynomial on every grid of the box.  So one _FreeLifts on
    the band grid, the smallest holding the band, serves every resolution,
    whose right side sums its profile zero-padded to N columns.  A sample is
    synthesised once at the finest grid from its modes k = 0..n_band, with
    the cutoff, the group, <D>^gamma and the synthesis constants in one table
    of n_band + 1 columns, through two buffers allocated once per call; a
    grid of N modes reads every (N_f/N)-th node.
    """
    fine = max(grids, key=lambda grid: grid.n_modes)
    n_band = max(desc["modes"].size for desc in descs) // 2
    band = FrequencyGrid(max(8, 2 * n_band + 2), fine.box_length)
    free = _FreeLifts(band, _x_params(p), T, n_time)
    table = free.psi * free.phases[:, : n_band + 1]
    table *= japanese_bracket(band.frequencies[band.zero_index :][: n_band + 1]) ** ((p.alpha - 1.0) / 4.0)
    _real_synthesis_table(table, fine.box_length, out=table, n=fine.n_modes)
    product = np.zeros((free.times.size, fine.n_modes // 2 + 1), complex)
    samples = np.empty((free.times.size, fine.n_modes))
    profiles = [np.pad(free.profile, (grid.n_modes - band.n_modes) // 2) for grid in grids]
    dt = float(free.times[1] - free.times[0])
    lhs, rhs = np.empty((2, len(grids), len(descs)))
    for j, desc in enumerate(descs):
        _real_synthesis(table, _field_from_descriptor(fine, desc, False).coeffs, product, samples)
        # each sample's synthesis overwrites the last, and its moduli overwrite it
        mags = np.abs(samples, out=samples)
        for i, grid in enumerate(grids):
            lhs[i, j] = _lebesgue_of_samples(mags[:, :: fine.n_modes // grid.n_modes], grid, dt, 4.0, math.inf)
            coeffs = _field_from_descriptor(grid, desc, False).coeffs
            rhs[i, j] = math.sqrt(float(np.sum(profiles[i] * np.abs(coeffs) ** 2)))
    return lhs, rhs


def _bilinear_str_sides(p, free, inputs, histogram):
    """The L2 norm of bilinear_I of two lifts and the product of their norms.

    Every lift is kernel * u0, so column j of a masked lift is u0[j] times
    column j of the masked kernel, and its zero-padded time transform is
    u0[j] F[j].  The output column o = j1 + j2 - z_x of bilinear_I is then
    the sum over the pairs (j1, j2) of u1[j1] u2[j2] P(j1, j2), with
    P(j1, j2) = dtau dxi weight[j1, j2] (the window [z_t, z_t + m) of
    ifft(F[j1] F[j2])) and its last tau row zero.  P is symmetric and
    vanishes on j1 = j2 with the weight, so each output column sums the pairs
    j1 < j2 against u1[j1] u2[j2] + u1[j2] u2[j1].  The table H[o, :, k],
    k < z_x, holds P of the k-th such pair of column o, and zero past the
    last; it is built once per resolution, and a sample's left side is one
    batched product of H with those sums.  The product is an einsum, which
    calls no BLAS: on a 2-core box with OpenBLAS's default threads, a batched
    matmul of this size stalled in some runs, at about 25 ms per sample
    against 0.4 ms.
    """
    grid, c = free.grid, _masked_sublattice(free.kernel)
    m, n = c.shape
    z_t, z_x = m // 2 - 1, n // 2 - 1
    spectra = np.fft.fft(c.T[: n - 1], n=2 * m, axis=1)
    j1, j2 = np.triu_indices(n - 1, k=1)
    on_grid = (j1 + j2 >= z_x) & (j1 + j2 <= n - 2 + z_x)
    j1, j2 = j1[on_grid], j2[on_grid]
    measure = free.time_grid.spacing * grid.spacing
    weight = measure * _I_weight(grid, p.alpha / 2.0)
    # the first j1 of output column o; the pair (j1, j2) of o is its column
    # j1 - first[o], and no column has more than z_x pairs
    first = np.maximum(0, np.arange(n) + z_x - (n - 2))
    table = np.zeros((n, m, z_x), complex)
    # 128 pairs at a time, so that the build holds little beside the table
    for lo in range(0, j1.size, 128):
        i1, i2 = j1[lo : lo + 128], j2[lo : lo + 128]
        pairs = spectra[i1]
        pairs *= spectra[i2]
        np.fft.ifft(pairs, axis=1, out=pairs)
        window = pairs[:, z_t : z_t + m]
        window *= weight[i1, i2][:, None]
        window[:, -1] = 0.0
        o = i1 + i2 - z_x
        table[o, :, i1 - first[o]] = window
    # the pair of each (o, k); a pair past the last of o is clipped onto a zero of the table
    pair1 = first[:, None] + np.arange(z_x)
    pair2 = np.clip(np.arange(n)[:, None] + z_x - pair1, 0, n - 1)
    pair1 = np.clip(pair1, 0, n - 1)

    def sides(pair):
        u1, u2 = (_field_from_descriptor(grid, d, False) for d in pair)
        a, b = u1.coeffs, u2.coeffs
        v = a[pair1] * b[pair2] + a[pair2] * b[pair1]
        out = np.einsum("otk,ok->ot", table, v)
        lhs = math.sqrt(float(np.sum(np.abs(out) ** 2)) * measure)
        return lhs, free.norm(u1) * free.norm(u2)

    return sides


def _dual_bilinear_sides(p, free, inputs, histogram):
    """The norm at modulation exponent -b of bilinear_K of a lift and a random
    field, and the product of the lift's norm and the field's L2 norm."""
    grid, time_grid = free.grid, free.time_grid
    w_dual = bourgain_weights(time_grid.frequencies, grid.frequencies, free.p, -p.b)

    def sides(desc):
        u1 = _field_from_descriptor(grid, desc[0], False)
        v = _random_spacetime(np.random.default_rng(desc[1]), grid, time_grid, float(inputs["band"]))
        lhs = _weighted_norm(bilinear_K(free.lift(u1), v, p.alpha), w_dual, free.p.omega)
        return lhs, free.norm(u1) * v.l2_norm()

    return sides


def _main_bilinear_sides(p, free, inputs, histogram):
    """The b' norm of d/dx of the cut product and twice the norms' product; unless
    histogram is None, each kept sample's dominant regions are tallied in it.

    The buffers of one resolution are allocated here, once: a _ProductField
    on the lifts' tau grid and the doubled xi grid, with the free paths in
    its weight, and the cell table W |spectrum|^2 = w_out |C|^2, in its
    layout, which gives the norm and the heaviest cells (d/dx zeroes the
    cells at xi = 0, so the b' norm's zero mean holds by construction).  The
    regions are read from the kernel and the two coefficient rows, by one
    _DominantRegions per resolution.
    """
    grid, zero_mean = free.grid, p.omega > 0.0
    product = _ProductField(grid, free.times, free.psi, free.paths, free.n_time)
    w_out = bourgain_weights(free.time_grid.frequencies, product.ext.frequencies, p, p.b_prime)
    weight = product.cell_weight(w_out)
    cells = np.empty(weight.shape)
    if histogram is not None:
        regions = _DominantRegions(free.kernel.coeffs, product.time_grid, grid, p)
    dtau, dxi = product.time_grid.spacing, product.ext.spacing

    def sides(pair):
        u1, u2 = (_field_from_descriptor(grid, d, zero_mean) for d in pair)
        mags = np.abs(product(u1.coeffs, u2.coeffs), out=cells)
        np.multiply(weight, np.square(mags, out=mags), out=mags)
        lhs = math.sqrt(float(np.sum(cells)) * dtau * dxi)
        rhs = 2.0 * free.norm(u1) * free.norm(u2)
        if histogram is not None and rhs > 0.0:
            for label in regions(cells, u1.coeffs, u2.coeffs):
                histogram["d_part"][label.d_part] += 1
                histogram["a_part"][label.a_part] += 1
        return lhs, rhs

    return sides


#: Per bilinear kind: (p, one resolution's _FreeLifts, inputs, histogram) -> the
#: function taking one sample's descriptors to its (lhs, rhs).
_SIDES = {"bilinear_str": _bilinear_str_sides, "dual_bilinear": _dual_bilinear_sides,
          "main_bilinear": _main_bilinear_sides}


def _strichartz_tau(T: float, band: float, alpha: float) -> int:
    """strichartz's tau count at cutoff T for draws within band, on a pad-2
    window of 8T, whose tau Nyquist is pi n_time/(8T).

    A lift's energy sits at tau = phi(xi) = xi|xi|^alpha, spread over a few
    1/T by the cutoff; at the Nyquist it would wrap round and be weighted at
    the wrong modulation.  So the count is the one whose step is nearest
    0.01 that divides 2T while the centre phi(band) + 4/T stays below its
    Nyquist, and otherwise the smallest multiple of 4 whose Nyquist the
    centre stays below (the loop corrects the rounding of its floor).
    """
    centre = float(dispersion_symbol(band, alpha)) + 4.0 / T
    n_time = max(4 * round(2.0 * T / 0.01), 8, 4 * math.floor(2.0 * T * centre / math.pi))
    while not centre < math.pi * n_time / (8.0 * T):
        n_time += 4
    return n_time


def _kind_inputs(kind: str) -> dict:
    """kind's inputs and their defaults; an unknown kind names the known ones."""
    if kind not in _KIND_INPUTS:
        raise ValueError(
            f"unknown estimate kind {kind!r}; expected one of {tuple(_KIND_INPUTS)} "
            "(verify-resonance computes the pointwise resonance and smoothing bounds)"
        )
    return _KIND_INPUTS[kind]


def _checked_inputs(kind: str, inputs: dict | None, p: EstimateParams) -> tuple:
    """The checks of estimate_ratio that need no compute, which the CLI runs
    before it writes anything.  Returns kind's inputs with their defaults and
    its resolutions as (label, spatial modes, tau modes), coarsest first.

    Each strichartz resolution samples one synthesis at the finest grid, so
    must divide the finest; all share the tau count of _strichartz_tau,
    derived from T and the band once both are checked.
    """
    keys = _kind_inputs(kind)
    given = inputs or {}
    unknown = set(given) - set(keys)
    if unknown:
        raise ValueError(
            f"unknown input keys for kind {kind!r}: {sorted(unknown)}; it reads {sorted(keys)}"
        )
    if "band" in given and given.get("band_fraction") is not None:
        raise ValueError(
            "band and band_fraction are exclusive: set band for draws shared by every "
            "resolution, or band_fraction for a band that grows with the grid, not both"
        )
    inputs = {**keys, **given}
    n_samples = int(inputs["n_samples"])
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    L, band, T = (float(inputs[key]) for key in ("box_length", "band", "T"))
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}: pass T={keys['T']!r}")
    if kind == "strichartz":
        resolutions = [(f"N={n}", int(n), None) for n in inputs["resolutions"]]
    else:
        resolutions = [(f"{n}x{m}", int(n), int(m)) for n, m in inputs["resolutions"]]
    band_fraction = inputs.get("band_fraction")
    coarsest = FrequencyGrid(min(n for _, n, _ in resolutions), L)
    finest = max(n for _, n, _ in resolutions)
    if kind == "strichartz" and any(finest % n for _, n, _ in resolutions):
        raise ValueError(f"strichartz resolutions {tuple(inputs['resolutions'])} must each divide the finest, "
                         f"{finest}, whose synthesis they sample: pass resolutions=({finest // 2}, {finest})")
    fits = coarsest.largest_band
    if band_fraction is not None and not 0.0 < float(band_fraction) <= 1.0:
        raise ValueError(f"band_fraction must lie in (0, 1], got {band_fraction}")
    if band_fraction is None and not band > 0.0:  # nan fails it too
        raise ValueError(
            f"band must be positive, got {band!r}: pass band={min(keys['band'], fits)!r}, say")
    if band_fraction is None and band > fits:
        raise ValueError(
            f"band {band} does not fit the coarsest grid, {coarsest.n_modes} modes on a "
            f"box of {L}: the largest band that fits is {fits!r}"
        )
    # the coarsest grid's band must admit a nonzero mode, else band_modes raises
    coarsest.band_modes(band if band_fraction is None else float(band_fraction) * fits)
    if kind == "strichartz":
        n_time = _strichartz_tau(T, band, p.alpha)
        resolutions = [(label, n, n_time) for label, n, _ in resolutions]
    return inputs, resolutions


def estimate_ratio(
    kind: str, inputs: dict | None, p: EstimateParams, seed: int = 0
) -> RatioReport:
    """Empirical sup of an estimate's side ratio.

    kind selects the inequality: 'strichartz' (L4t Linfx against the b-scale;
    its resolutions, each dividing the finest, sample one real synthesis per
    draw at the finest grid, from tables on the draws' band alone),
    'bilinear_str' and 'dual_bilinear' (the two weighted convolutions),
    'main_bilinear' (the derivative product estimate, with a histogram of the
    regions of each sample's TOP_CELLS dominant contributions at the last
    resolution).  inputs may set only these keys (defaults shown):

    - strichartz: n_samples=200, resolutions=(256, 512) (spatial modes, at
      the tau count that _strichartz_tau derives from T and band),
      box_length=64.0, band=8.0, T=1.0
    - bilinear_str, dual_bilinear: n_samples=100, resolutions=((48, 48),
      (64, 64)) (spatial x tau modes), box_length=16.0, band=3.0, T=0.5
    - main_bilinear: n_samples=200, resolutions=((56, 448), (64, 512)),
      box_length=16.0, band=10.0, band_fraction=None, T=0.5

    The sample descriptors are drawn once, within band, and shared by every
    resolution; band must fit the coarsest grid.  A field is built from its
    descriptor on each grid, though: a packet's envelope is sampled on that
    grid's nodes and transformed, so a packet near the band edge aliases
    differently on each grid, and the trend then compares slightly different
    inputs.  A band_fraction in (0, 1] instead gives each resolution that
    fraction of its largest paired frequency as band, with fresh draws; band
    and band_fraction are exclusive, so inputs may set at most one of them.
    n_samples is at least 1, T positive and finite.  Samples where the
    right side vanishes are skipped and counted.
    """
    inputs, resolutions = _checked_inputs(kind, inputs, p)
    n_samples = int(inputs["n_samples"])
    L, band, T = (float(inputs[key]) for key in ("box_length", "band", "T"))
    band_fraction = inputs.get("band_fraction")
    tallies = {"d_part": dict.fromkeys(_D_PARTS, 0), "a_part": dict.fromkeys(_A_PARTS, 0)}
    histogram = tallies if kind == "main_bilinear" else None
    free_params = p if kind == "main_bilinear" else _x_params(p)
    grids = [FrequencyGrid(n_space, L) for _, n_space, _ in resolutions]
    grows = band_fraction is not None  # with fresh draws per resolution; a band's are shared
    draws = [_draw_samples(kind, np.random.default_rng((seed, g.n_modes) if grows else seed), n_samples,
                           g.band_modes(float(band_fraction) * g.largest_band if grows else band), g.spacing)
             for g in (grids if grows else grids[:1])]
    if kind == "strichartz":
        lhs, rhs = _strichartz_table(p, grids, T, resolutions[0][2], draws[0])
        table = np.divide(lhs, rhs, out=np.full(lhs.shape, np.nan), where=rhs > 0.0)
    else:
        table = []
        for grid, (_, _, n_time), descs in zip(grids, resolutions, draws if grows else draws * len(grids)):
            free = _FreeLifts(grid, free_params, T, n_time)
            sides = _SIDES[kind](p, free, inputs, histogram if grid is grids[-1] else None)
            table.append(np.array([lhs / rhs if rhs > 0.0 else np.nan for lhs, rhs in map(sides, descs)]))
            del free, sides  # so that one resolution's lift tables are held at a time
    trend = []
    for (label, _, _), ratios in zip(resolutions, table):
        finite = ratios[np.isfinite(ratios)]
        if finite.size == 0:
            raise ValueError(f"all samples were skipped at resolution {label}")
        trend.append((label, float(np.max(finite))))
    i_max = int(np.nanargmax(ratios))
    return RatioReport(
        kind, n_samples, seed, tuple(trend), sup_ratio=float(ratios[i_max]),
        extremal_sample={"sample_index": i_max, "ratio": float(ratios[i_max])},
        region_histogram=histogram, skipped=int(np.sum(~np.isfinite(ratios))),
    )
