"""Resonance function, region classifier, bilinear operators, and ratio sweeps.

The inequalities exercised here all have existential constants, so nothing
is "verified" in the proof sense.  Instead each inequality kind is turned
into an empirical sup (or inf) of left-side/right-side ratios over a
declared, seeded family of test inputs, reported together with a refinement
trend across at least two resolutions.  A stable, finite trend is the
evidence; a growing one is the red flag.

Discrete bilinear convolutions act on the symmetric sublattice |k| <= N/2-1,
|m| <= M/2-1: the unpaired extreme modes are annihilated on input and
output.  This makes the convolution index set symmetric, which in turn makes
the adjoint identity between the two bilinear operators exact up to
roundoff: the two sides sum the same terms in different orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import Trajectory
from .norms import (
    EstimateParams,
    SpaceTimeField,
    _lebesgue_of_samples,
    _weighted_cells,
    _weighted_norm,
    bourgain_weights,
    localized_lift,
)
from .spectral import (
    TWO_PI,
    FrequencyGrid,
    SpectralField,
    _FAMILIES,
    _freeze,
    _plan,
    _real_synthesis,
    _real_synthesis_table,
    _require_zero_mean,
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


@dataclass(frozen=True)
class SymbolWeights:
    """Elliptic weight sigma = |tau| + |xi|^(1+a) and modulation lam = tau - xi|xi|^a.

    The per-factor entries are populated only when built for a convolution
    triple (tau, xi) = (tau1, xi1) + (tau2, xi2).
    """

    sigma: float
    lam: float
    sigma_1: float | None = None
    lam_1: float | None = None
    sigma_2: float | None = None
    lam_2: float | None = None

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma is nonnegative by construction")


def modulation_weights(tau: float, xi: float, alpha: float) -> SymbolWeights:
    """Evaluate sigma and lambda at a single (tau, xi) point."""
    sigma = abs(tau) + abs(xi) ** (1.0 + alpha)
    lam = tau - float(dispersion_symbol(np.asarray(xi, float), alpha))
    return SymbolWeights(float(sigma), float(lam))


def convolution_weights(
    tau1: float, xi1: float, tau2: float, xi2: float, alpha: float
) -> SymbolWeights:
    """Weights for a constrained triple; lam - lam1 - lam2 = -resonance(xi1, xi2)."""
    w = modulation_weights(tau1 + tau2, xi1 + xi2, alpha)
    w1 = modulation_weights(tau1, xi1, alpha)
    w2 = modulation_weights(tau2, xi2, alpha)
    return SymbolWeights(w.sigma, w.lam, w1.sigma, w1.lam, w2.sigma, w2.lam)


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
    """Outcome of an estimate sweep: extremal ratio plus reproducibility data.

    Exactly one of sup_ratio / inf_ratio is set, matching the direction of
    the inequality being probed.  refinement_trend pairs a resolution label
    with the extremal ratio measured there, coarsest first.
    """

    kind: str
    sample_count: int
    seed: int
    refinement_trend: tuple[tuple[str, float], ...]
    sup_ratio: float | None = None
    inf_ratio: float | None = None
    extremal_sample: dict = field(default_factory=dict)
    region_histogram: dict | None = None
    skipped: int = 0

    def __post_init__(self):
        if (self.sup_ratio is None) == (self.inf_ratio is None):
            raise ValueError("exactly one of sup_ratio / inf_ratio must be set")
        value = self.sup_ratio if self.sup_ratio is not None else self.inf_ratio
        if not (np.isfinite(value) and value >= 0.0):
            raise ValueError(f"ratio must be finite and nonnegative, got {value}")
        if len(self.refinement_trend) == 0:
            raise ValueError("refinement trend must be nonempty")

    @property
    def ratio(self) -> float:
        return self.sup_ratio if self.sup_ratio is not None else self.inf_ratio

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
        }
        if self.sup_ratio is not None:
            out["sup_ratio"] = self.sup_ratio
        else:
            out["inf_ratio"] = self.inf_ratio
        if self.region_histogram is not None:
            out["region_histogram"] = self.region_histogram
        return out


def _infimum_report(kind: str, ratios, seed: int, skipped: int, extremal: dict) -> RatioReport:
    """Report of the smallest of the admissible ratios.

    The trend compares the first half of the samples with all of them;
    extremal maps a name to per-sample values, reported at the argmin.
    """
    half = ratios.size // 2
    trend = (
        (f"n={half}", float(np.min(ratios[:half]))),
        (f"n={ratios.size}", float(np.min(ratios))),
    )
    i_min = int(np.argmin(ratios))
    sample = {name: float(values[i_min]) for name, values in extremal.items()}
    sample["ratio"] = float(ratios[i_min])
    return RatioReport(
        kind, int(ratios.size), seed, trend, inf_ratio=sample["ratio"], extremal_sample=sample,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# resonance lower-bound scan


def _check_inputs(what: str, given: dict, keys) -> None:
    """Reject input keys outside keys, naming them and the keys that are read."""
    unknown = set(given) - set(keys)
    if unknown:
        raise ValueError(
            f"unknown input keys for {what}: {sorted(unknown)}; it reads {sorted(keys)}"
        )


def resonance_infimum(
    alpha: float, sampler_spec: dict | None = None, seed: int = 0
) -> RatioReport:
    """inf over sampled tuples of |h(xi1, xi2)| / (|xi_min| |xi_max|^alpha).

    sampler_spec may set only n_samples (default 1000000).  The sampler mixes
    the full dyadic ladder (+-2^e for e in -10..10, crossed with itself) with
    uniform draws over the square [-1000, 1000]^2; tuples with any vanishing
    frequency are excluded since the right side degenerates there.
    """
    spec = sampler_spec or {}
    _check_inputs("resonance_infimum", spec, ("n_samples",))
    n_samples = int(spec.get("n_samples", 1_000_000))
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")

    ladder = 2.0 ** np.arange(-10, 11, dtype=float)
    ladder = np.concatenate([-ladder[::-1], ladder])
    d1, d2 = np.meshgrid(ladder, ladder, indexing="ij")
    xi1 = d1.ravel()
    xi2 = d2.ravel()
    n_random = max(0, n_samples - xi1.size)
    rng = np.random.default_rng(seed)
    if n_random:
        draws = rng.uniform(-1e3, 1e3, size=(n_random, 2))
        xi1 = np.concatenate([xi1, draws[:, 0]])
        xi2 = np.concatenate([xi2, draws[:, 1]])
    xi1, xi2 = xi1[:n_samples], xi2[:n_samples]
    xi = xi1 + xi2
    valid = (xi1 != 0.0) & (xi2 != 0.0) & (xi != 0.0)
    skipped = int(np.sum(~valid))
    xi1, xi2, xi = xi1[valid], xi2[valid], xi[valid]
    if xi1.size == 0:
        raise ValueError("sampler produced no admissible tuples")
    mags = np.vstack([np.abs(xi1), np.abs(xi2), np.abs(xi)])
    lo = np.min(mags, axis=0)
    hi = np.max(mags, axis=0)
    ratios = np.abs(resonance(xi1, xi2, alpha)) / (lo * hi**alpha)
    return _infimum_report("resonance", ratios, seed, skipped, {"xi1": xi1, "xi2": xi2})


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

    The loop runs over the nonzero columns of the factor that has fewer, each
    against the other factor's nonzero column span.  The pairs it skips add
    exact zeros, which change no bit of an accumulator that starts at +0 (a
    sum is -0 only when both terms are).  Every output cell adds its terms
    (a * kernel) * b in ascending j1, so the loop over the second factor's
    columns runs j2 descending; either way the bytes are those of the plain
    loop over every j1.
    """
    m, n = a.shape
    z_t, z_x = m // 2 - 1, n // 2 - 1
    a_fft = np.fft.fft(a.T, n=2 * m, axis=1, out=np.empty((n, 2 * m), complex))
    b_fft = np.fft.fft(b.T, n=2 * m, axis=1, out=np.empty((n, 2 * m), complex))
    a_cols = np.flatnonzero(np.any(a_fft[: n - 1], axis=1)).tolist()
    b_cols = np.flatnonzero(np.any(b_fft[: n - 1], axis=1)).tolist()
    acc = np.zeros((n, 2 * m), dtype=complex)
    term = np.empty((n - 1, 2 * m), dtype=complex)
    if len(b_cols) < len(a_cols):
        for j2 in reversed(b_cols):
            # first-factor columns whose sum with j2 lands on the sublattice
            lo, hi = max(a_cols[0], z_x - j2), min(a_cols[-1], n - 2 + z_x - j2)
            if lo <= hi:
                t = term[: hi - lo + 1]
                np.multiply(a_fft[lo : hi + 1], kernel[lo : hi + 1, j2, None], out=t)
                np.multiply(t, b_fft[j2], out=t)
                acc[lo + j2 - z_x : hi + 1 + j2 - z_x] += t
    else:
        for j1 in a_cols:
            lo, hi = max(b_cols[0], z_x - j1), min(b_cols[-1], n - 2 + z_x - j1)
            if lo <= hi:
                t = term[: hi - lo + 1]
                np.multiply(a_fft[j1], kernel[j1, lo : hi + 1, None], out=t)
                np.multiply(t, b_fft[lo : hi + 1], out=t)
                acc[j1 + lo - z_x : j1 + hi + 1 - z_x] += t
    np.fft.ifft(acc, axis=1, out=acc)
    measure = grids.time_grid.spacing * grids.space_grid.spacing
    # back to C-ordered (tau, xi) rows, whose reductions sum in the usual order
    out = np.multiply(measure, acc[:, z_t : z_t + m].T, out=np.empty((m, n), complex))
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return SpaceTimeField(grids.space_grid, grids.time_grid, _freeze(out))


def bilinear_I(U1: SpaceTimeField, U2: SpaceTimeField, s: float) -> SpaceTimeField:
    """Convolution against the kernel ||xi1|^(2s) - |xi2|^(2s)|^(1/2)."""
    a, b = _matching_sublattices(U1, U2)
    power = np.abs(U1.space_grid.frequencies[:-1]) ** (2 * s)
    return _bilinear_convolve(a, b, np.sqrt(np.abs(power[:, None] - power[None, :])), U1)


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


def _n_band(band: float, dxi: float) -> int:
    """The largest mode number with |xi| <= band, at least 1."""
    return max(1, int(math.floor(band / dxi + 1e-9)))


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
    the independent pair.
    """
    k_max = max(2, n_band)
    branch = rng.random() if correlated else 1.0
    if branch < 0.25:
        # separated carriers: 4|xi1| <= |xi2|
        j1 = int(rng.integers(1, max(2, k_max // 4) + 1))
        j2 = int(rng.integers(min(4 * j1, k_max), k_max + 1))
        s1 = 1 if rng.random() < 0.5 else -1
        s2 = 1 if rng.random() < 0.5 else -1
        return _packet_descriptor(rng, s1 * j1, dxi), _packet_descriptor(rng, s2 * j2, dxi)
    if branch < 0.5:
        # opposite signs, comparable size, small output frequency
        j2 = int(rng.integers(3, k_max + 1))
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
    """Random coefficients on the (tau, xi) sub-band |k_tau| <= m/3, |xi| <= band,
    extreme modes zero.  The sub-band is a rectangle of rows and columns,
    filled row by row."""
    m, n = time_grid.n_modes, grid.n_modes
    coeffs = np.zeros((m, n), dtype=complex)
    rows = np.flatnonzero(np.abs(time_grid.mode_numbers[:-1]) <= m // 3)
    cols = np.flatnonzero(np.abs(grid.frequencies[:-1]) <= band)
    if cols.size:
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


def _free_cutoff_trajectory(
    u0: SpectralField, alpha: float, T: float, n_time: int, pad_factor: float
) -> Trajectory:
    """Exact free evolution sampled so the cutoff lift has n_time tau modes."""
    window = 2.0 * pad_factor * 2.0 * T
    dt = window / n_time
    n = int(round(2.0 * T / dt))
    if abs(n * dt - 2.0 * T) > 1e-9:
        raise ValueError(
            f"n_time={n_time} does not place the cutoff support on the time grid"
        )
    times = np.arange(-n, n + 1) * dt
    phases = np.exp(
        1j * np.outer(times, dispersion_symbol(u0.grid.frequencies, alpha))
    )
    return Trajectory(u0.grid, times, _freeze(phases * u0.coeffs[None, :]), alpha)


class _FreeLifts:
    """Free cutoff evolutions on one grid, their lifts and restriction norms.

    Free evolution acts on each spatial frequency alone, so the cutoff lift of
    u0 is kernel * u0[None, :], the kernel being the lift of the all-ones
    field, and its squared restriction norm under p is the sum over xi of
    profile(xi) |u0(xi)|^2, where profile(xi) is the tau sum of
    w |kernel|^2 dtau dxi with w = bourgain_weights at b = p.b.  A norm then
    costs O(N) per sample.  One instance serves one resolution of one harness
    call.
    """

    def __init__(self, grid: FrequencyGrid, p: EstimateParams, T: float, n_time: int):
        self.grid, self.p, self.T, self.n_time = grid, p, T, n_time
        ones = SpectralField(grid, np.ones(grid.n_modes, dtype=complex))
        self.paths = _free_cutoff_trajectory(ones, p.alpha, T, n_time, 2.0)
        self.kernel = localized_lift(self.paths, T, pad_factor=2.0)
        mags = np.abs(self.kernel.coeffs)
        w = bourgain_weights(self.kernel.taus, grid.frequencies, p, p.b)
        measure = self.kernel.time_grid.spacing * grid.spacing
        self.profile = np.sum(w * mags**2, axis=0) * measure
        self.column_max = np.max(mags, axis=0)

    def lift(self, u0: SpectralField) -> SpaceTimeField:
        """localized_lift of the free evolution of u0."""
        coeffs = _freeze(self.kernel.coeffs * u0.coeffs[None, :])
        return SpaceTimeField(u0.grid, self.kernel.time_grid, coeffs)

    def norm(self, u0: SpectralField) -> float:
        """bourgain_norm of the lift of u0, with its omega > 0 zero-mode check."""
        mags = np.abs(u0.coeffs)
        if self.p.omega > 0.0:
            zero = u0.grid.zero_index
            _require_zero_mean(self.column_max * mags, zero, "bourgain norm with omega > 0")
        return math.sqrt(float(np.sum(self.profile * mags**2)))


def _x_params(p: EstimateParams) -> EstimateParams:
    """The (s=0, omega=0) bundle used by the linear and bilinear space-time scales."""
    return EstimateParams(p.alpha, 0.0, 0.0, p.b, -0.25, 0.0)


# ---------------------------------------------------------------------------
# products on the doubled spatial lattice


def _extended_grid(grid: FrequencyGrid) -> FrequencyGrid:
    return FrequencyGrid(2 * grid.n_modes, grid.box_length)


class _ProductField:
    """Buffers for d/dx [ (psi_T u1)(psi_T u2) ] of two trajectories on grid,
    sampled at times, on n_slots tau modes.  They are allocated once, and
    each product is transformed in place in them: one instance serves one
    resolution of one harness call.

    A caller writes the two factors' coefficient rows into rows and calls the
    instance, which overwrites rows and returns the coefficients on
    (time_grid, ext), a buffer the next call overwrites.  The steps are those
    of _inverse_raw of the spectrum zero-padded to the doubled grid, the
    pointwise product, _forward_raw along x and _padded_time_dft, with the
    same operands in the same order, so the bytes are theirs.  The
    permutations between ascending and numpy's slot order are one sign
    multiply per half of the modes, and a slot of the doubled grid that no
    mode of grid reaches holds the zero that zero-padding and signing gives.
    """

    def __init__(self, grid: FrequencyGrid, times: np.ndarray, T: float, n_slots: int):
        n, L = grid.n_modes, grid.box_length
        self.n, self.ext = n, _extended_grid(grid)
        dt = float(times[1] - times[0])
        self.time_grid = FrequencyGrid(n_slots, n_slots * dt)
        j0 = n_slots // 2 + int(round(float(times[0]) / dt))  # slot of the first sample
        lo = max(0, -j0)
        hi = max(lo, min(times.size, n_slots - j0))
        psi = bump(times / T)[:, None]
        if np.any(psi[:lo]) or np.any(psi[hi:]):
            raise ValueError("time samples extend beyond the padded window")
        self.samples, self.window = slice(lo, hi), slice(j0 + lo, j0 + hi)
        # the real tables are held as the complex values a multiply would
        # cast them to, so that no call casts
        self.psi = psi[lo:hi] + 0j
        self.signs = _plan(n)[2] + 0j
        ext_slot, _, ext_signs = _plan(2 * n)
        # the slots of modes N/2+1 .. 3N/2 of the doubled grid, one run
        self.dead = slice(n // 2 + 1, 3 * n // 2 + 1)
        dead_in = np.empty(2 * n, complex)
        dead_in[ext_slot] = np.zeros(2 * n, complex) * ext_signs
        self.dead_in = dead_in[self.dead]
        self.x_scale = 2 * n * math.sqrt(TWO_PI) / L
        self.x_signs = ext_signs * (L / (2 * n * math.sqrt(TWO_PI))) + 0j
        t_signs = _plan(n_slots)[2] * (self.time_grid.box_length / (n_slots * math.sqrt(TWO_PI)))
        self.t_signs = t_signs[:, None] + 0j
        self.derivative = 1j * self.ext.frequencies
        self.rows = np.empty((2, times.size, n), complex)
        self.physical = np.empty((2, hi - lo, 2 * n), complex)
        self.signal = np.zeros((n_slots, 2 * n), complex)  # rows outside window stay zero
        self.spectrum = np.empty((n_slots, 2 * n), complex)
        self.coeffs = np.empty((n_slots, 2 * n), complex)

    def __call__(self) -> np.ndarray:
        n, z, zz = self.n, self.n // 2 - 1, self.n - 1  # zz: zero index of the doubled grid
        rows, f = self.rows[:, self.samples], self.physical
        np.multiply(self.psi, rows, out=rows)
        f[..., self.dead] = self.dead_in
        # modes k >= 0 into slots 0..N/2, k < 0 into the last N/2-1 slots
        np.multiply(rows[..., z:], self.signs[z:], out=f[..., : n - z])
        np.multiply(rows[..., :z], self.signs[:z], out=f[..., 2 * n - z :])
        np.fft.ifft(f, axis=-1, out=f)
        f *= self.x_scale
        product = np.multiply(f[0], f[1], out=f[0])
        np.fft.fft(product, axis=-1, out=product)
        signal = self.signal[self.window]
        np.multiply(product[:, : 2 * n - zz], self.x_signs[zz:], out=signal[:, zz:])
        np.multiply(product[:, 2 * n - zz :], self.x_signs[:zz], out=signal[:, :zz])
        spectrum, coeffs = self.spectrum, self.coeffs
        m, zt = spectrum.shape[0], self.time_grid.zero_index
        np.fft.fft(self.signal, axis=0, out=spectrum)
        np.multiply(spectrum[: m - zt], self.t_signs[zt:], out=coeffs[zt:])
        np.multiply(spectrum[m - zt :], self.t_signs[:zt], out=coeffs[:zt])
        return np.multiply(coeffs, self.derivative, out=coeffs)


def product_derivative_field(
    traj1: Trajectory, traj2: Trajectory, T: float, n_slots: int
) -> SpaceTimeField:
    """Space-time transform of d/dx [ (psi_T u1)(psi_T u2) ] on the doubled xi grid.

    The spatial product is formed pointwise on the refined physical grid, so
    the xi convolution is exact (no aliasing) for the retained modes.  This is
    one use of a _ProductField, which then hands its buffer over; the ratio
    harness keeps one per resolution.
    """
    if traj1.grid != traj2.grid or traj1.n_times != traj2.n_times:
        raise ValueError("product factors need matching grids and time samples")
    product = _ProductField(traj1.grid, traj1.times, T, n_slots)
    product.rows[0], product.rows[1] = traj1.coeffs, traj2.coeffs
    return SpaceTimeField(product.ext, product.time_grid, _freeze(product()))


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
        band_fraction=None, top_cells=8,
    ),
    "smoothing": dict(n_samples=100_000),
}


def _kind_inputs(kind: str) -> dict:
    """The input keys and defaults of kind; an unknown kind is a ValueError."""
    if kind not in _KIND_INPUTS:
        raise ValueError(f"unknown estimate kind {kind!r}; expected one of {tuple(_KIND_INPUTS)}")
    return _KIND_INPUTS[kind]


def _dominant_regions(cells, lifts, time_grid, space_grid, p, top_cells):
    """Classify the dominant convolution cells of the heaviest output cells.

    cells is the table w_out |C|^2 of the product field C on time_grid and
    the doubled space_grid, w_out its b' weights, and lifts the coefficients
    U1, U2 of the two lifts on time_grid and space_grid.  The heaviest cells
    are taken in no particular order.  For each, the terms U1(tau1, xi1)
    U2(tau - tau1, xi - xi1) are formed on the block of (tau1, xi1) whose
    partner lies on the lifts' lattice, as the product of a block of U1 with
    a reversed block of U2.  The dominant cell is the first argmax of their
    moduli, so near-ties between the two factors' terms are broken by
    roundoff.  The cells kept are classified together, on the half
    |xi1| <= |xi2| and off xi1 = 0 and xi2 = 0.
    """
    u1, u2 = lifts
    k = min(top_cells, cells.size)
    flat = np.argpartition(cells, cells.size - k, axis=None)[cells.size - k :]
    xi_out, n_out = _extended_grid(space_grid).frequencies, cells.shape[1]
    z_t, z_x, z_x_out = time_grid.zero_index, space_grid.zero_index, n_out // 2 - 1
    m_t, n_x = u1.shape
    # U2 reversed in both axes: row m_t-1-i2 holds row i2 of U2
    u2_rev = u2[::-1, ::-1]
    found = []  # (output row, output column, row of tau1, column of xi1)
    for cell in flat:
        mi, ki = divmod(int(cell), n_out)
        if cells[mi, ki] <= 0.0 or xi_out[ki] == 0.0:
            continue
        # the partner of U1's row i1 is U2's row c_t - i1, and so for columns
        c_t = mi + z_t
        c_x = ki - z_x_out + 2 * z_x
        r_lo, r_hi = max(0, c_t - m_t + 1), min(m_t - 1, c_t)
        q_lo, q_hi = max(0, c_x - n_x + 1), min(n_x - 1, c_x)
        if r_lo > r_hi or q_lo > q_hi:
            continue
        terms = u1[r_lo : r_hi + 1, q_lo : q_hi + 1] * u2_rev[
            m_t - 1 - c_t + r_lo : m_t - c_t + r_hi, n_x - 1 - c_x + q_lo : n_x - c_x + q_hi
        ]
        i, j = divmod(int(np.argmax(np.abs(terms))), terms.shape[1])
        if terms[i, j] != 0.0:
            found.append((mi, ki, r_lo + i, q_lo + j))
    if not found:
        return []
    mi, ki, mi1, ki1 = np.array(found).T
    taus = time_grid.frequencies
    xi1, tau1 = space_grid.frequencies[ki1], taus[mi1]
    xi2, tau2 = xi_out[ki] - xi1, taus[mi] - tau1
    keep = (xi1 != 0.0) & (xi2 != 0.0)
    xi1, xi2, tau1, tau2 = xi1[keep], xi2[keep], tau1[keep], tau2[keep]
    swap = np.abs(xi1) > np.abs(xi2)
    xi1, xi2 = np.where(swap, xi2, xi1), np.where(swap, xi1, xi2)
    tau1, tau2 = np.where(swap, tau2, tau1), np.where(swap, tau1, tau2)
    lam = tau1 + tau2 - dispersion_symbol(xi1 + xi2, p.alpha)
    lam1 = tau1 - dispersion_symbol(xi1, p.alpha)
    lam2 = tau2 - dispersion_symbol(xi2, p.alpha)
    d_codes, a_codes = _classify_arrays(xi1, xi2, lam, lam1, lam2)
    return [RegionLabel(_D_PARTS[d], _A_PARTS[a])
            for d, a in zip(d_codes.tolist(), a_codes.tolist())]


def _strichartz_sides(p, free, inputs, histogram):
    """The L4t Linfx norm of <D>^gamma psi_T W(t) u0 and the norm of its lift.

    Every draw is Hermitian and the free group keeps it so (phi is odd), so
    the left side is synthesised as a real field from its k >= 0 modes, with
    the cutoff, the group, <D>^gamma and the synthesis constants in one table.
    """
    grid, paths = free.grid, free.paths
    gamma = (p.alpha - 1.0) / 4.0
    psi = bump(paths.times / free.T)[:, None]
    cut_paths = psi * paths.coeffs * japanese_bracket(grid.frequencies) ** gamma
    table = _real_synthesis_table(cut_paths, grid.box_length)

    def sides(desc):
        u0 = _field_from_descriptor(grid, desc, False)
        samples = _real_synthesis(table, u0.coeffs)
        return _lebesgue_of_samples(samples, grid, paths.dt, 4.0, math.inf), free.norm(u0)

    return sides


def _bilinear_str_sides(p, free, inputs, histogram):
    """The L2 norm of bilinear_I of two lifts and the product of their norms."""
    def sides(pair):
        u1, u2 = (_field_from_descriptor(free.grid, d, False) for d in pair)
        lhs = bilinear_I(free.lift(u1), free.lift(u2), p.alpha / 2.0).l2_norm()
        return lhs, free.norm(u1) * free.norm(u2)

    return sides


def _dual_bilinear_sides(p, free, inputs, histogram):
    """The norm at modulation exponent -b of bilinear_K of a lift and a random
    field, and the product of the lift's norm and the field's L2 norm."""
    grid, time_grid = free.grid, free.kernel.time_grid
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

    The buffers of one resolution are allocated here, once: a _ProductField,
    whose rows take each sample's free evolutions and whose field lives on
    the lifts' tau grid and the doubled xi grid; the cell table w_out |C|^2,
    which gives the norm and the heaviest cells; and the two lifts the
    regions are read from.
    """
    grid, zero_mean, paths = free.grid, p.omega > 0.0, free.paths
    product = _ProductField(grid, paths.times, free.T, free.n_time)
    w_out = bourgain_weights(free.kernel.taus, product.ext.frequencies, p, p.b_prime)
    cells = np.empty(w_out.shape)
    lifts = np.empty((2,) + free.kernel.coeffs.shape, complex)
    dtau, dxi = product.time_grid.spacing, product.ext.spacing

    def sides(pair):
        u1, u2 = (_field_from_descriptor(grid, d, zero_mean) for d in pair)
        for u0, rows in zip((u1, u2), product.rows):
            np.multiply(paths.coeffs, u0.coeffs, out=rows)
        _weighted_cells(product(), w_out, p.omega, out=cells)
        lhs = math.sqrt(float(np.sum(cells)) * dtau * dxi)
        rhs = 2.0 * free.norm(u1) * free.norm(u2)
        if histogram is not None and rhs > 0.0:
            for u0, out in zip((u1, u2), lifts):
                np.multiply(free.kernel.coeffs, u0.coeffs, out=out)
            top_cells = int(inputs["top_cells"])
            for label in _dominant_regions(cells, lifts, product.time_grid, grid, p, top_cells):
                histogram["d_part"][label.d_part] += 1
                histogram["a_part"][label.a_part] += 1
        return lhs, rhs

    return sides


#: Per sampled kind: (p, one resolution's _FreeLifts, inputs, histogram) -> the
#: function taking one sample's descriptors to its (lhs, rhs).
_SIDES = {"strichartz": _strichartz_sides, "bilinear_str": _bilinear_str_sides,
          "dual_bilinear": _dual_bilinear_sides, "main_bilinear": _main_bilinear_sides}


def _smoothing_report(p: EstimateParams, n_samples: int, seed: int) -> RatioReport:
    rng = np.random.default_rng(seed)
    beta = np.concatenate(
        [np.array([-1.0, -0.5, -0.25]), rng.uniform(-1.0, -0.25, size=max(0, n_samples - 3))]
    )[:n_samples]
    exps = rng.integers(-6, 7, size=n_samples)
    xi2 = np.where(rng.random(n_samples) < 0.5, 1.0, -1.0) * 2.0 ** exps.astype(float)
    xi1 = beta * xi2
    xi = xi1 + xi2
    lhs = np.sqrt(np.abs(np.abs(xi1) ** p.alpha - np.abs(xi2) ** p.alpha))
    rhs = 0.5 * np.sqrt(np.abs(xi)) * np.abs(xi2) ** ((p.alpha - 1.0) / 2.0)
    valid = rhs > 0.0
    ratios = lhs[valid] / rhs[valid]
    return _infimum_report("smoothing", ratios, seed, int(np.sum(~valid)), {"beta": beta[valid]})


def estimate_ratio(
    kind: str, inputs: dict | None, p: EstimateParams, seed: int = 0
) -> RatioReport:
    """Empirical sup (or inf, for lower bounds) of an estimate's side ratio.

    kind selects the inequality: 'strichartz' (L4t Linfx against the b-scale;
    its draws are Hermitian, so the L4t Linfx side synthesises each one as a
    real field from its k >= 0 modes), 'bilinear_str' and 'dual_bilinear'
    (the two weighted convolutions), 'main_bilinear' (the derivative product
    estimate, with a histogram of the regions of each sample's top_cells
    dominant contributions at the last resolution), or 'smoothing' (the
    pointwise frequency lower bound, reported as an infimum).  inputs may set
    only these keys (defaults shown):

    - strichartz: n_samples=200, resolutions=(256, 512) (spatial modes, at
      time step 0.01), box_length=64.0, band=8.0, T=1.0
    - bilinear_str, dual_bilinear: n_samples=100, resolutions=((48, 48),
      (64, 64)) (spatial x tau modes), box_length=16.0, band=3.0, T=0.5
    - main_bilinear: n_samples=200, resolutions=((56, 448), (64, 512)),
      box_length=16.0, band=10.0, band_fraction=None, T=0.5, top_cells=8
    - smoothing: n_samples=100000

    The samples are drawn once, within band, and shared by every resolution,
    so the trend isolates discretization effects; band must fit the coarsest
    grid.  A band_fraction in (0, 1] instead gives each resolution that
    fraction of its largest paired frequency as band, with fresh draws; band
    and band_fraction are exclusive, so inputs may set at most one of them.
    top_cells is at least 1.  Samples where the right side vanishes are
    skipped and counted.
    """
    keys = _kind_inputs(kind)
    given = inputs or {}
    _check_inputs(f"kind {kind!r}", given, keys)
    if "band" in given and given.get("band_fraction") is not None:
        raise ValueError(
            "band and band_fraction are exclusive: set band for draws shared by every "
            "resolution, or band_fraction for a band that grows with the grid, not both"
        )
    if int(given.get("top_cells", 1)) < 1:
        raise ValueError(
            f"top_cells must be at least 1, got {given['top_cells']}: set it to the number "
            "of heaviest output cells to classify per sample, or leave it out for 8"
        )
    inputs = {**keys, **given}
    n_samples = int(inputs["n_samples"])
    if kind == "smoothing":
        return _smoothing_report(p, n_samples, seed)

    L, band, T = (float(inputs[key]) for key in ("box_length", "band", "T"))
    if kind == "strichartz":
        n_time = int(round(8.0 * T / 0.01 / 2)) * 2  # dt = 0.01 on a pad-2 window
        resolutions = [(f"N={n}", int(n), n_time) for n in inputs["resolutions"]]
    else:
        resolutions = [(f"{n}x{m}", int(n), int(m)) for n, m in inputs["resolutions"]]
    band_fraction = inputs.get("band_fraction")
    coarsest = FrequencyGrid(min(n for _, n, _ in resolutions), L)
    fits = coarsest.nyquist - coarsest.spacing
    if band_fraction is not None and not 0.0 < float(band_fraction) <= 1.0:
        raise ValueError(f"band_fraction must lie in (0, 1], got {band_fraction}")
    if band_fraction is None and band > fits:
        raise ValueError(
            f"band {band} does not fit the coarsest grid, {coarsest.n_modes} modes on a "
            f"box of {L}: the largest band that fits is {fits!r}"
        )

    dxi = 2.0 * math.pi / L
    if band_fraction is None:
        descs = _draw_samples(kind, np.random.default_rng(seed), n_samples, _n_band(band, dxi), dxi)
    tallies = {"d_part": dict.fromkeys(_D_PARTS, 0), "a_part": dict.fromkeys(_A_PARTS, 0)}
    histogram = tallies if kind == "main_bilinear" else None
    free_params = p if kind == "main_bilinear" else _x_params(p)
    trend = []
    for res_index, (label, n_space, n_time) in enumerate(resolutions):
        grid = FrequencyGrid(n_space, L)
        if band_fraction is not None:  # the band grows with the grid, with fresh draws
            n_band = _n_band(float(band_fraction) * (grid.nyquist - grid.spacing), dxi)
            rng = np.random.default_rng((seed, n_space))
            descs = _draw_samples(kind, rng, n_samples, n_band, dxi)
        free = _FreeLifts(grid, free_params, T, n_time)
        finest = res_index == len(resolutions) - 1
        sides = _SIDES[kind](p, free, inputs, histogram if finest else None)
        ratios = np.array([lhs / rhs if rhs > 0.0 else np.nan for lhs, rhs in map(sides, descs)])
        del free, sides  # so that one resolution's lift tables are held at a time
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
