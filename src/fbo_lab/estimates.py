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
the adjoint identity between the two bilinear operators exact in floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import Trajectory
from .norms import (
    EstimateParams,
    SpaceTimeField,
    _padded_time_dft,
    bourgain_norm,
    bourgain_weights,
    localized_lift,
    mixed_lebesgue_norm,
)
from .spectral import (
    FrequencyGrid,
    SpectralField,
    _forward_raw,
    _inverse_raw,
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


# ---------------------------------------------------------------------------
# resonance lower-bound scan

_RESONANCE_SPEC_KEYS = {"n_samples", "freq_limit", "dyadic_exponent_range"}


def resonance_infimum(
    alpha: float, sampler_spec: dict | None = None, seed: int = 0
) -> RatioReport:
    """inf over sampled tuples of |h(xi1, xi2)| / (|xi_min| |xi_max|^alpha).

    The sampler mixes the full dyadic ladder (+-2^e for e in the configured
    range, crossed with itself) with uniform draws over the square of side
    2*freq_limit; tuples with any vanishing frequency are excluded since the
    right side degenerates there.
    """
    spec = dict(sampler_spec or {})
    unknown = set(spec) - _RESONANCE_SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown sampler_spec keys: {sorted(unknown)}")
    n_samples = int(spec.get("n_samples", 1_000_000))
    freq_limit = float(spec.get("freq_limit", 1e3))
    e_lo, e_hi = spec.get("dyadic_exponent_range", (-10, 10))
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")

    ladder = 2.0 ** np.arange(e_lo, e_hi + 1, dtype=float)
    ladder = np.concatenate([-ladder[::-1], ladder])
    d1, d2 = np.meshgrid(ladder, ladder, indexing="ij")
    xi1 = d1.ravel()
    xi2 = d2.ravel()
    n_random = max(0, n_samples - xi1.size)
    rng = np.random.default_rng(seed)
    if n_random:
        draws = rng.uniform(-freq_limit, freq_limit, size=(n_random, 2))
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
    half = ratios.size // 2
    trend = (
        (f"n={half}", float(np.min(ratios[:half]))),
        (f"n={ratios.size}", float(np.min(ratios))),
    )
    i_min = int(np.argmin(ratios))
    return RatioReport(
        kind="resonance",
        sample_count=int(ratios.size),
        seed=seed,
        refinement_trend=trend,
        inf_ratio=float(ratios[i_min]),
        extremal_sample={
            "xi1": float(xi1[i_min]),
            "xi2": float(xi2[i_min]),
            "ratio": float(ratios[i_min]),
        },
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# bilinear operators


def _masked_sublattice(U: SpaceTimeField) -> np.ndarray:
    c = np.array(U.coeffs)
    c[-1, :] = 0.0
    c[:, -1] = 0.0
    return c


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


def _bilinear_convolve(
    U1: SpaceTimeField, U2: SpaceTimeField, kernel_for_column
) -> SpaceTimeField:
    """Direct weighted (tau, xi) convolution, truncated to the common grid.

    kernel_for_column(j1, j2_slice) returns the kernel values for input
    column j1 against the slice of second-factor columns j2.
    """
    if U1.space_grid != U2.space_grid or U1.time_grid != U2.time_grid:
        raise ValueError("bilinear operators need matching space and time grids")
    a = _masked_sublattice(U1)
    b = _masked_sublattice(U2)
    m, n = a.shape
    z_t, z_x = m // 2 - 1, n // 2 - 1
    measure = U1.time_grid.spacing * U1.space_grid.spacing
    p = 2 * m
    a_fft = np.fft.fft(a, n=p, axis=0)
    b_fft = np.fft.fft(b, n=p, axis=0)
    out = np.zeros((m, n), dtype=complex)
    for j1 in range(n - 1):
        col = a_fft[:, j1 : j1 + 1]
        if not np.any(col):
            continue
        conv = np.fft.ifft(col * b_fft, axis=0)[z_t : z_t + m, :]
        j2_lo = max(0, z_x - j1)
        j2_hi = min(n - 2, n - 2 + z_x - j1)
        if j2_lo > j2_hi:
            continue
        j2 = np.arange(j2_lo, j2_hi + 1)
        weights = kernel_for_column(j1, j2)
        out[:, j1 + j2 - z_x] += measure * weights[None, :] * conv[:, j2]
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return SpaceTimeField(U1.space_grid, U1.time_grid, out)


def bilinear_I(U1: SpaceTimeField, U2: SpaceTimeField, s: float) -> SpaceTimeField:
    """Convolution against the kernel ||xi1|^(2s) - |xi2|^(2s)|^(1/2)."""
    xi = U1.space_grid.frequencies

    def kernel(j1, j2):
        return np.sqrt(np.abs(np.abs(xi[j1]) ** (2 * s) - np.abs(xi[j2]) ** (2 * s)))

    return _bilinear_convolve(U1, U2, kernel)


def bilinear_K(U1: SpaceTimeField, U2: SpaceTimeField, alpha: float) -> SpaceTimeField:
    """Convolution of conj-u1 against u2 with kernel ||xi|^a - |xi1|^a|^(1/2).

    This is the formal space-time L2 adjoint of u2 -> bilinear_I(u1, u2, a/2).
    """
    if U1.space_grid != U2.space_grid or U1.time_grid != U2.time_grid:
        raise ValueError("bilinear operators need matching space and time grids")
    xi = U1.space_grid.frequencies
    z_x = U1.space_grid.zero_index
    conj1 = SpaceTimeField(
        U1.space_grid, U1.time_grid, _conj_reverse(_masked_sublattice(U1))
    )

    def kernel(j1, j2):
        xi_out = xi[j1 + j2 - z_x]
        return np.sqrt(np.abs(np.abs(xi_out) ** alpha - np.abs(xi[j1]) ** alpha))

    return _bilinear_convolve(conj1, U2, kernel)


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


def _draw_descriptor(rng: np.random.Generator, families, band: float, dxi: float) -> dict:
    family = families[int(rng.integers(0, len(families)))]
    if family == "random_bandlimited":
        n_band = max(1, int(math.floor(band / dxi + 1e-9)))
        return {"family": family, "modes": _draw_band_modes(rng, n_band)}
    desc = {
        "family": family,
        "amplitude": float(rng.uniform(0.5, 1.5)),
        "width": float(rng.uniform(0.8, 2.0)),
        "center": float(rng.uniform(-2.0, 2.0)),
    }
    if family == "wave_packet":
        n_band = max(1, int(math.floor(band / dxi + 1e-9)))
        j = int(rng.integers(1, n_band + 1)) * (1 if rng.random() < 0.5 else -1)
        desc["carrier"] = j * dxi
    return desc


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
        return SpectralField(grid, coeffs)
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
    return Trajectory(u0.grid, times, phases * u0.coeffs[None, :], alpha)


def _x_params(p: EstimateParams) -> EstimateParams:
    """The (s=0, omega=0) bundle used by the linear and bilinear space-time scales."""
    return EstimateParams(p.alpha, 0.0, 0.0, p.b, -0.25, 0.0)


# ---------------------------------------------------------------------------
# products on the doubled spatial lattice


def _extended_grid(grid: FrequencyGrid) -> FrequencyGrid:
    return FrequencyGrid(2 * grid.n_modes, grid.box_length)


def _physical_on_extended(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Samples of the field on the doubled spatial grid (rows = time)."""
    n = grid.n_modes
    ext = np.zeros((coeffs.shape[0], 2 * n), dtype=complex)
    # modes -N/2+1..N/2 sit at offset N/2 of the extended layout -N+1..N
    ext[:, n // 2 : n // 2 + n] = coeffs
    return _inverse_raw(ext, grid.box_length, axis=1)


def product_derivative_field(
    traj1: Trajectory, traj2: Trajectory, T: float, n_slots: int
) -> SpaceTimeField:
    """Space-time transform of d/dx [ (psi_T u1)(psi_T u2) ] on the doubled xi grid.

    The spatial product is formed pointwise on the refined physical grid, so
    the xi convolution is exact (no aliasing) for the retained modes.
    """
    if traj1.grid != traj2.grid or traj1.n_times != traj2.n_times:
        raise ValueError("product factors need matching grids and time samples")
    psi = bump(traj1.times / T)[:, None]
    f1 = _physical_on_extended(psi * traj1.coeffs, traj1.grid)
    f2 = _physical_on_extended(psi * traj2.coeffs, traj2.grid)
    ext = _extended_grid(traj1.grid)
    rows = _forward_raw(f1 * f2, ext.box_length, axis=1)
    coeffs, time_grid = _padded_time_dft(rows, traj1.times, n_slots)
    coeffs = coeffs * (1j * ext.frequencies)[None, :]
    return SpaceTimeField(ext, time_grid, coeffs)


# ---------------------------------------------------------------------------
# the ratio harness

_ESTIMATE_KINDS = ("strichartz", "bilinear_str", "dual_bilinear", "main_bilinear", "smoothing")

_COMMON_KEYS = {"n_samples", "resolutions", "box_length", "band", "T", "top_cells"}
_MAIN_KEYS = _COMMON_KEYS | {"band_fraction"}


def _check_keys(inputs: dict, allowed: set, kind: str) -> None:
    unknown = set(inputs) - allowed
    if unknown:
        raise ValueError(f"unknown input keys for kind {kind!r}: {sorted(unknown)}")


def _strichartz_ratios(p, inputs, seed):
    n_samples = int(inputs.get("n_samples", 200))
    resolutions = list(inputs.get("resolutions", (256, 512)))
    L = float(inputs.get("box_length", 64.0))
    band = float(inputs.get("band", 8.0))
    T = float(inputs.get("T", 1.0))
    rng = np.random.default_rng(seed)
    dxi = 2.0 * math.pi / L
    n_band = max(1, int(math.floor(band / dxi + 1e-9)))
    draws = [_draw_band_modes(rng, n_band) for _ in range(n_samples)]
    gamma = (p.alpha - 1.0) / 4.0
    p0 = _x_params(p)
    per_resolution = []
    for n_modes in resolutions:
        grid = FrequencyGrid(int(n_modes), L)
        n_time = int(round(8.0 * T / 0.01 / 2)) * 2  # dt = 0.01 on a pad-2 window
        ratios = np.empty(n_samples)
        jweights = japanese_bracket(grid.frequencies) ** gamma
        for i, modes in enumerate(draws):
            u0 = _field_from_descriptor(grid, {"family": "random_bandlimited", "modes": modes}, False)
            traj = _free_cutoff_trajectory(u0, p.alpha, T, n_time, 2.0)
            psi = bump(traj.times / T)[:, None]
            cut = Trajectory(grid, traj.times, psi * traj.coeffs * jweights[None, :], p.alpha)
            lhs = mixed_lebesgue_norm(cut, 4.0, math.inf)
            rhs = bourgain_norm(localized_lift(traj, T, pad_factor=2.0), p0)
            ratios[i] = lhs / rhs if rhs > 0.0 else np.nan
        per_resolution.append((f"N={n_modes}", ratios))
    return per_resolution, draws


def _lifted_pair(descs, grid, p, T, n_time, zero_mean):
    fields = [_field_from_descriptor(grid, d, zero_mean) for d in descs]
    trajs = [_free_cutoff_trajectory(f, p.alpha, T, n_time, 2.0) for f in fields]
    lifts = [localized_lift(t, T, pad_factor=2.0) for t in trajs]
    return trajs, lifts


def _random_spacetime(rng, grid, time_grid, band, tau_fraction=1.0 / 3.0):
    """Random coefficients on a (tau, xi) sub-band, extreme modes zero."""
    m, n = time_grid.n_modes, grid.n_modes
    coeffs = np.zeros((m, n), dtype=complex)
    tau_ok = np.abs(time_grid.mode_numbers) <= int(m * tau_fraction)
    xi_ok = np.abs(grid.frequencies) <= band
    sel = np.outer(tau_ok, xi_ok)
    sel[-1, :] = False
    sel[:, -1] = False
    k = int(np.sum(sel))
    draws = rng.standard_normal((k, 2))
    coeffs[sel] = draws[:, 0] + 1j * draws[:, 1]
    return SpaceTimeField(grid, time_grid, coeffs)


def _bilinear_kind_ratios(kind, p, inputs, seed):
    n_samples = int(inputs.get("n_samples", 100))
    resolutions = [tuple(r) for r in inputs.get("resolutions", ((48, 48), (64, 64)))]
    L = float(inputs.get("box_length", 16.0))
    band = float(inputs.get("band", 3.0))
    T = float(inputs.get("T", 0.5))
    rng = np.random.default_rng(seed)
    dxi = 2.0 * math.pi / L
    families = ("gaussian", "wave_packet", "random_bandlimited")
    descs = [
        (
            _draw_descriptor(rng, families, band, dxi),
            _draw_descriptor(rng, families, band, dxi),
        )
        for _ in range(n_samples)
    ]
    # pre-draw the random second factors of the dual kind per (sample, resolution)
    dual_seeds = rng.integers(0, 2**63 - 1, size=n_samples)
    p0 = _x_params(p)
    per_resolution = []
    for n_space, n_time in resolutions:
        grid = FrequencyGrid(int(n_space), L)
        ratios = np.empty(n_samples)
        for i, pair in enumerate(descs):
            trajs, lifts = _lifted_pair(pair, grid, p, T, int(n_time), False)
            if kind == "bilinear_str":
                lhs = bilinear_I(lifts[0], lifts[1], p.alpha / 2.0).l2_norm()
                rhs = bourgain_norm(lifts[0], p0) * bourgain_norm(lifts[1], p0)
            else:  # dual_bilinear
                rng_i = np.random.default_rng(int(dual_seeds[i]))
                u2 = _random_spacetime(rng_i, grid, lifts[0].time_grid, band)
                lhs = bourgain_norm(
                    bilinear_K(lifts[0], u2, p.alpha), p0, b=-p.b
                )
                rhs = bourgain_norm(lifts[0], p0) * u2.l2_norm()
            ratios[i] = lhs / rhs if rhs > 0.0 else np.nan
        per_resolution.append((f"{n_space}x{n_time}", ratios))
    return per_resolution, descs


def _dominant_regions(lhs_field, lifts, p, top_cells):
    """Classify the dominant convolution cells of the heaviest output cells."""
    U1, U2 = lifts
    w = bourgain_weights(
        lhs_field.taus, lhs_field.space_grid.frequencies, p, p.b_prime
    )
    contrib = w * np.abs(lhs_field.coeffs) ** 2
    flat = np.argsort(contrib, axis=None)[::-1][:top_cells]
    m_out, n_out = contrib.shape
    z_x_out = lhs_field.space_grid.zero_index
    z_t_out = lhs_field.time_grid.zero_index
    taus = U1.taus
    xis = U1.space_grid.frequencies
    z_x, z_t = U1.space_grid.zero_index, U1.time_grid.zero_index
    alpha = p.alpha
    labels = []
    for cell in flat:
        mi, ki = divmod(int(cell), n_out)
        if contrib[mi, ki] <= 0.0:
            continue
        tau_out = lhs_field.taus[mi]
        xi_out = lhs_field.space_grid.frequencies[ki]
        if xi_out == 0.0:
            continue
        # term matrix over the (tau1, xi1) lattice for this output cell
        m_mode = mi - z_t_out
        k_mode = ki - z_x_out
        m1 = np.arange(U1.time_grid.n_modes) - z_t
        k1 = np.arange(U1.space_grid.n_modes) - z_x
        m2 = m_mode - m1
        k2 = k_mode - k1
        ok_t = (m2 >= m1.min()) & (m2 <= m1.max())
        ok_x = (k2 >= k1.min()) & (k2 <= k1.max())
        a = np.where(ok_t, 1, 0)[:, None] * np.where(ok_x, 1, 0)[None, :]
        m2c = np.clip(m2 - m1.min(), 0, U1.time_grid.n_modes - 1)
        k2c = np.clip(k2 - k1.min(), 0, U1.space_grid.n_modes - 1)
        terms = a * U1.coeffs * U2.coeffs[np.ix_(m2c, k2c)]
        j = int(np.argmax(np.abs(terms)))
        mi1, ki1 = divmod(j, U1.space_grid.n_modes)
        if terms[mi1, ki1] == 0.0 or not (ok_t[mi1] and ok_x[ki1]):
            continue
        xi1 = xis[ki1]
        xi2 = xi_out - xi1
        tau1 = taus[mi1]
        tau2 = tau_out - tau1
        if xi1 == 0.0 or xi2 == 0.0:
            continue
        if abs(xi1) > abs(xi2):
            xi1, xi2 = xi2, xi1
            tau1, tau2 = tau2, tau1
        weights = convolution_weights(tau1, xi1, tau2, xi2, alpha)
        labels.append(
            classify_region(xi1, xi2, weights.lam, weights.lam_1, weights.lam_2)
        )
    return labels


def _packet_descriptor(rng: np.random.Generator, j: int, dxi: float) -> dict:
    return {
        "family": "wave_packet",
        "amplitude": float(rng.uniform(0.5, 1.5)),
        "width": float(rng.uniform(0.8, 2.0)),
        "center": float(rng.uniform(-2.0, 2.0)),
        "carrier": j * dxi,
    }


def _draw_pair(rng: np.random.Generator, families, band: float, dxi: float) -> tuple:
    """A pair of field descriptors, enriched with correlated carrier draws.

    Independent draws mostly land in the comparable-frequency and
    low-vs-high regions; the two correlated branches target the separated
    (D12-style) and opposite-sign near-cancelling (D22-style) interactions
    that random pairs almost never dominate.
    """
    k_max = max(2, int(math.floor(band / dxi + 1e-9)))
    branch = rng.random()
    if branch < 0.25:
        # separated carriers: 4|xi1| <= |xi2|
        j1 = int(rng.integers(1, max(2, k_max // 4) + 1))
        j2 = int(rng.integers(min(4 * j1, k_max), k_max + 1))
        s1 = 1 if rng.random() < 0.5 else -1
        s2 = 1 if rng.random() < 0.5 else -1
        return (
            _packet_descriptor(rng, s1 * j1, dxi),
            _packet_descriptor(rng, s2 * j2, dxi),
        )
    if branch < 0.5:
        # opposite signs, comparable size, small output frequency
        j2 = int(rng.integers(3, k_max + 1))
        d = int(rng.integers(0, min(3, j2 // 2) + 1))
        s2 = 1 if rng.random() < 0.5 else -1
        return (
            _packet_descriptor(rng, -s2 * (j2 - d), dxi),
            _packet_descriptor(rng, s2 * j2, dxi),
        )
    return (
        _draw_descriptor(rng, families, band, dxi),
        _draw_descriptor(rng, families, band, dxi),
    )


def _main_bilinear_ratios(p, inputs, seed):
    n_samples = int(inputs.get("n_samples", 200))
    resolutions = [tuple(r) for r in inputs.get("resolutions", ((56, 448), (64, 512)))]
    L = float(inputs.get("box_length", 16.0))
    band = float(inputs.get("band", 10.0))
    band_fraction = inputs.get("band_fraction")
    T = float(inputs.get("T", 0.5))
    top_cells = int(inputs.get("top_cells", 8))
    rng = np.random.default_rng(seed)
    dxi = 2.0 * math.pi / L
    families = ("gaussian", "wave_packet", "random_bandlimited")
    zero_mean = p.omega > 0.0
    # Fixed band: one descriptor set shared across resolutions, so the trend
    # isolates pure discretization effects.  band_fraction mode instead lets
    # the band grow with the grid (fresh per-resolution draws), which is the
    # relevant refinement for threshold exploration.
    descs = [_draw_pair(rng, families, band, dxi) for _ in range(n_samples)]
    per_resolution = []
    histogram = None
    for res_index, (n_space, n_time) in enumerate(resolutions):
        finest = res_index == len(resolutions) - 1
        grid = FrequencyGrid(int(n_space), L)
        if band_fraction is not None:
            band_r = float(band_fraction) * (grid.nyquist - grid.spacing)
            rng_r = np.random.default_rng((seed, int(n_space)))
            pairs = [_draw_pair(rng_r, families, band_r, dxi) for _ in range(n_samples)]
        else:
            pairs = descs
        ratios = np.empty(n_samples)
        d_hist = {name: 0 for name in _D_PARTS}
        a_hist = {name: 0 for name in _A_PARTS}
        for i, pair in enumerate(pairs):
            trajs, lifts = _lifted_pair(pair, grid, p, T, int(n_time), zero_mean)
            lhs_field = product_derivative_field(trajs[0], trajs[1], T, int(n_time))
            lhs = bourgain_norm(lhs_field, p, b=p.b_prime)
            norms = [bourgain_norm(u, p, b=p.b) for u in lifts]
            rhs = 2.0 * norms[0] * norms[1]
            ratios[i] = lhs / rhs if rhs > 0.0 else np.nan
            if finest and rhs > 0.0:
                for label in _dominant_regions(lhs_field, lifts, p, top_cells):
                    d_hist[label.d_part] += 1
                    a_hist[label.a_part] += 1
        if finest:
            histogram = {"d_part": d_hist, "a_part": a_hist}
        per_resolution.append((f"{n_space}x{n_time}", ratios))
    return per_resolution, descs, histogram


def _smoothing_ratios(p, inputs, seed):
    n_samples = int(inputs.get("n_samples", 100_000))
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
    skipped = int(np.sum(~valid))
    ratios = lhs[valid] / rhs[valid]
    half = ratios.size // 2
    trend = (
        (f"n={half}", float(np.min(ratios[:half]))),
        (f"n={ratios.size}", float(np.min(ratios))),
    )
    i_min = int(np.argmin(ratios))
    beta_v = beta[valid]
    return ratios, trend, i_min, beta_v, skipped


def estimate_ratio(
    kind: str, inputs: dict | None, p: EstimateParams, seed: int = 0
) -> RatioReport:
    """Empirical sup (or inf, for lower bounds) of an estimate's side ratio.

    kind selects the inequality: 'strichartz' (L4t Linfx against the b-scale),
    'bilinear_str' and 'dual_bilinear' (the two weighted convolutions),
    'main_bilinear' (the derivative product estimate, with a per-region
    histogram of dominant contributions), or 'smoothing' (the pointwise
    frequency lower bound, reported as an infimum).

    Samples where the right side vanishes are skipped and counted.
    """
    if kind not in _ESTIMATE_KINDS:
        raise ValueError(f"unknown estimate kind {kind!r}; expected one of {_ESTIMATE_KINDS}")
    inputs = dict(inputs or {})
    if kind == "smoothing":
        _check_keys(inputs, {"n_samples"}, kind)
        ratios, trend, i_min, beta_v, skipped = _smoothing_ratios(p, inputs, seed)
        return RatioReport(
            kind=kind,
            sample_count=int(ratios.size),
            seed=seed,
            refinement_trend=trend,
            inf_ratio=float(ratios[i_min]),
            extremal_sample={"beta": float(beta_v[i_min]), "ratio": float(ratios[i_min])},
            skipped=skipped,
        )

    if kind == "strichartz":
        _check_keys(inputs, _COMMON_KEYS, kind)
        per_resolution, _ = _strichartz_ratios(p, inputs, seed)
        histogram = None
    elif kind in ("bilinear_str", "dual_bilinear"):
        _check_keys(inputs, _COMMON_KEYS, kind)
        per_resolution, _ = _bilinear_kind_ratios(kind, p, inputs, seed)
        histogram = None
    else:  # main_bilinear
        _check_keys(inputs, _MAIN_KEYS, kind)
        per_resolution, _, histogram = _main_bilinear_ratios(p, inputs, seed)

    trend = []
    for label, ratios in per_resolution:
        finite = ratios[np.isfinite(ratios)]
        if finite.size == 0:
            raise ValueError(f"all samples were skipped at resolution {label}")
        trend.append((label, float(np.max(finite))))
    label, ratios = per_resolution[-1]
    finite_mask = np.isfinite(ratios)
    skipped = int(np.sum(~finite_mask))
    i_max = int(np.nanargmax(ratios))
    return RatioReport(
        kind=kind,
        sample_count=int(ratios.size),
        seed=seed,
        refinement_trend=tuple(trend),
        sup_ratio=float(ratios[i_max]),
        extremal_sample={"sample_index": i_max, "ratio": float(ratios[i_max])},
        region_histogram=histogram,
        skipped=skipped,
    )
