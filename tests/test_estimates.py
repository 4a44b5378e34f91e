import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbo_lab import (
    EstimateParams,
    RatioReport,
    SpaceTimeField,
    bilinear_I,
    bilinear_K,
    bourgain_norm,
    classify_region,
    convolution_weights,
    estimate_ratio,
    modulation_weights,
    resonance,
    resonance_infimum,
    spacetime_inner,
)
from fbo_lab import estimates
from fbo_lab.estimates import (
    _classify_arrays,
    _draw_band_modes,
    _draw_samples,
    _envelope,
    _field_from_descriptor,
    _free_cutoff_trajectory,
    _FreeLifts,
    _n_band,
    _ProductField,
    _random_spacetime,
    _strichartz_sides,
    _x_params,
    product_derivative_field,
)
from fbo_lab.evolution import Trajectory
from fbo_lab.norms import _padded_time_dft, _weighted_cells, localized_lift, mixed_lebesgue_norm
from fbo_lab.spectral import (
    _FAMILIES,
    FrequencyGrid,
    SpectralField,
    _forward_raw,
    _inverse_raw,
    bump,
    japanese_bracket,
    make_test_field,
)

TWO_PI = 2.0 * math.pi


class TestResonance:
    def test_zero_frequency_cancels(self):
        assert resonance(0.0, 3.0, 1.5) == 0.0

    def test_evaluable_endpoint(self):
        assert resonance(1.0, 1.0, 2.0) == pytest.approx(6.0, abs=1e-14)

    def test_equal_pair_frozen_value(self):
        assert resonance(1.0, 1.0, 1.5) == pytest.approx(
            3.6568542494923801952, abs=1e-14
        )

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(0)
        xi1 = rng.uniform(-50, 50, 1000)
        xi2 = rng.uniform(-50, 50, 1000)
        h = resonance(xi1, xi2, 1.4)
        assert np.array_equal(np.abs(h), np.abs(resonance(-xi1, -xi2, 1.4)))


class TestResonanceInfimum:
    def test_equal_pair_ratio_closed_form(self):
        # algebraic simplification: ratio at xi1=xi2 equals 2 - 2^(1-alpha)
        for alpha, expected in [
            (1.1, 1.066967008463192584),
            (1.5, 1.2928932188134524756),
            (1.9, 1.4641132687318534179),
        ]:
            a = abs(resonance(1.0, 1.0, alpha)) / (1.0 * 2.0**alpha)
            assert a == pytest.approx(expected, abs=1e-12)

    def test_report_matches_equal_pair_minimum(self):
        report = resonance_infimum(1.5, {"n_samples": 100_000}, seed=3)
        assert report.inf_ratio == pytest.approx(2.0 - 2.0**-0.5, abs=1e-12)
        assert report.sup_ratio is None

    def test_seed_stability(self):
        a = resonance_infimum(1.3, {"n_samples": 50_000}, seed=1)
        b = resonance_infimum(1.3, {"n_samples": 50_000}, seed=2)
        assert abs(a.inf_ratio - b.inf_ratio) <= 0.01 * a.inf_ratio

    def test_enlarging_sample_set_does_not_decrease_inf(self):
        small = resonance_infimum(1.7, {"n_samples": 20_000}, seed=5)
        large = resonance_infimum(1.7, {"n_samples": 200_000}, seed=5)
        assert large.inf_ratio >= small.inf_ratio - 1e-12

    def test_trend_and_argmin_present(self):
        report = resonance_infimum(1.5, {"n_samples": 20_000}, seed=0)
        assert len(report.refinement_trend) == 2
        assert {"xi1", "xi2", "ratio"} <= set(report.extremal_sample)
        assert report.skipped > 0  # the dyadic ladder contains xi1+xi2=0 pairs

    def test_unknown_sampler_keys_rejected(self):
        with pytest.raises(ValueError):
            resonance_infimum(1.5, {"n": 10}, seed=0)

    @pytest.mark.parametrize("key", ["freq_limit", "dyadic_exponent_range"])
    def test_sampler_reads_only_n_samples(self, key):
        message = rf"unknown input keys for resonance_infimum: \['{key}'\]; it reads \['n_samples'\]"
        with pytest.raises(ValueError, match=message):
            resonance_infimum(1.5, {"n_samples": 10, key: 1.0}, seed=0)


class TestSymbolWeights:
    def test_pointwise_example(self):
        w = modulation_weights(2.0, -1.0, 1.5)
        assert w.sigma == pytest.approx(3.0)
        assert w.lam == pytest.approx(3.0)

    def test_origin(self):
        w = modulation_weights(0.0, 0.0, 1.5)
        assert w.sigma == 0.0
        assert w.lam == 0.0

    def test_on_characteristic(self):
        xi = 1.7
        tau = xi * abs(xi) ** 1.5
        assert modulation_weights(tau, xi, 1.5).lam == pytest.approx(0.0, abs=1e-14)

    def test_convolution_identity(self):
        # on the constraint, lam - lam1 - lam2 = -h, so the absolute values
        # agree exactly with the resonance function
        rng = np.random.default_rng(1)
        for _ in range(200):
            tau1, xi1, tau2, xi2 = rng.uniform(-20, 20, 4)
            w = convolution_weights(tau1, xi1, tau2, xi2, 1.5)
            h = resonance(xi1, xi2, 1.5)
            assert w.lam - w.lam_1 - w.lam_2 == pytest.approx(-h, abs=1e-11)
            assert abs(w.lam - w.lam_1 - w.lam_2) == pytest.approx(abs(h), abs=1e-11)

    def test_negative_sigma_rejected(self):
        from fbo_lab import SymbolWeights

        with pytest.raises(ValueError):
            SymbolWeights(-1.0, 0.0)


class TestClassifyRegion:
    def test_spec_examples(self):
        assert classify_region(1, 8, 0, 0, 0).d_part == "D11"
        assert classify_region(3, 13, 0, 0, 0).d_part == "D12"
        assert classify_region(-2, 2.5, 0, 0, 0).d_part == "D22"
        assert classify_region(1, 2, 5, 1, 2).a_part == "A"

    def test_modulation_ties_break_toward_a_then_a1(self):
        assert classify_region(1, 8, 1, 1, 1).a_part == "A"
        assert classify_region(1, 8, 0, 1, 1).a_part == "A1"
        assert classify_region(1, 8, 0, 1, 2).a_part == "A2"

    def test_frequency_tie_goes_to_d1(self):
        assert classify_region(2, 8, 0, 0, 0).d_part == "D11"
        assert classify_region(2.5, 10, 0, 0, 0).d_part == "D12"

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            classify_region(3, 1, 0, 0, 0)

    def test_partition_properties(self):
        rng = np.random.default_rng(7)
        n = 200_000
        a = rng.uniform(-100, 100, n)
        b = rng.uniform(-100, 100, n)
        xi1 = np.where(np.abs(a) <= np.abs(b), a, b)
        xi2 = np.where(np.abs(a) <= np.abs(b), b, a)
        lam, lam1, lam2 = rng.uniform(-50, 50, (3, n))
        d, acode = _classify_arrays(xi1, xi2, lam, lam1, lam2)
        assert d.shape == (n,)
        assert np.all((d >= 0) & (d <= 3))
        assert np.all((acode >= 0) & (acode <= 2))
        # D22 membership implies its three defining inequalities
        mask = d == 3
        assert np.all(xi1[mask] * xi2[mask] < 0)
        assert np.all(np.abs(xi1[mask] + xi2[mask]) <= 0.5 * np.abs(xi1[mask]))
        assert np.all(np.abs(xi2[mask]) >= 1.0)

    # boundary values of the region inequalities, mixed with generic ones
    _coords = st.one_of(
        st.floats(-100.0, 100.0),
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 8.0, -8.0]),
    )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_coords, _coords, _coords, _coords, _coords), min_size=1, max_size=20))
    def test_partition_over_generated_tuples(self, tuples):
        # criterion 9: each tuple on the half |xi1| <= |xi2| gets exactly one D
        # part and one A part, and its tuple satisfies that part's definition
        a, b, lam, lam1, lam2 = (np.array(col) for col in zip(*tuples))
        xi1 = np.where(np.abs(a) <= np.abs(b), a, b)
        xi2 = np.where(np.abs(a) <= np.abs(b), b, a)
        d, acode = _classify_arrays(xi1, xi2, lam, lam1, lam2)
        assert d.shape == acode.shape == (len(tuples),)
        a1, a2 = np.abs(xi1), np.abs(xi2)
        d1 = 4.0 * a1 <= a2
        d22 = (xi1 * xi2 < 0.0) & (np.abs(xi1 + xi2) <= 0.5 * a1) & (a2 >= 1.0)
        assert np.array_equal(d == 0, d1 & (a1 <= 2.0))
        assert np.array_equal(d == 1, d1 & (a1 > 2.0))
        assert np.array_equal(d == 3, ~d1 & d22)
        assert np.array_equal(d == 2, ~d1 & ~d22)
        brackets = np.sqrt(1.0 + np.stack([lam, lam1, lam2]) ** 2)
        assert np.all(np.isin(acode, (0, 1, 2)))
        chosen = brackets[acode, np.arange(acode.size)]
        assert np.all(chosen == brackets.max(axis=0))
        # ties go to the first-listed modulation
        assert np.all(np.argmax(brackets == chosen, axis=0) == acode)
        for i in range(len(tuples)):
            label = classify_region(xi1[i], xi2[i], lam[i], lam1[i], lam2[i])
            assert (label.d_part, label.a_part) == (
                ("D11", "D12", "D21", "D22")[d[i]], ("A", "A1", "A2")[acode[i]]
            )

    def test_scalar_agrees_with_vectorized(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, b = rng.uniform(-20, 20, 2)
            xi1, xi2 = (a, b) if abs(a) <= abs(b) else (b, a)
            lam, lam1, lam2 = rng.uniform(-30, 30, 3)
            label = classify_region(xi1, xi2, lam, lam1, lam2)
            d, acode = _classify_arrays(
                np.asarray([xi1]), np.asarray([xi2]), np.asarray([lam]),
                np.asarray([lam1]), np.asarray([lam2]),
            )
            assert ("D11", "D12", "D21", "D22")[int(d[0])] == label.d_part
            assert ("A", "A1", "A2")[int(acode[0])] == label.a_part


def delta_field(gs, gt, entries):
    c = np.zeros((gt.n_modes, gs.n_modes), complex)
    for (m, k), amp in entries.items():
        c[gt.zero_index + m, gs.zero_index + k] = amp
    return SpaceTimeField(gs, gt, c)


def direct_convolution(gs, gt, c1, c2, weight):
    """dtau dxi times the sum of weight(xi1, xi2) c1(q1, k1) c2(q2, k2) over pairs
    of cells of the symmetric sublattice |q| <= M/2-1, |k| <= N/2-1 whose sum
    (q1 + q2, k1 + k2) lies on it too; zero off the sublattice."""
    zt, zx = gt.zero_index, gs.zero_index
    out = np.zeros_like(c1)
    cells = [(q, k) for q in range(-zt, zt + 1) for k in range(-zx, zx + 1)]
    for q1, k1 in cells:
        for q2, k2 in cells:
            q, k = q1 + q2, k1 + k2
            if abs(q) <= zt and abs(k) <= zx:
                w = weight(k1 * gs.spacing, k2 * gs.spacing)
                out[zt + q, zx + k] += w * c1[zt + q1, zx + k1] * c2[zt + q2, zx + k2]
    return out * gt.spacing * gs.spacing


class TestBilinearOperators:
    def setup_method(self):
        self.gs = FrequencyGrid(16, TWO_PI)
        self.gt = FrequencyGrid(16, TWO_PI)

    def test_I_vanishes_on_equal_moduli(self):
        u1 = delta_field(self.gs, self.gt, {(1, 2): 1.0})
        u2 = delta_field(self.gs, self.gt, {(2, -2): 1.0})
        out = bilinear_I(u1, u2, 0.75)
        assert np.max(np.abs(out.coeffs)) <= 1e-15

    def test_I_delta_kernel_value(self):
        u1 = delta_field(self.gs, self.gt, {(1, 1): 2.0})
        u2 = delta_field(self.gs, self.gt, {(2, 2): 3.0})
        out = bilinear_I(u1, u2, 0.75)
        expected = abs(1.0 - 2.0**1.5) ** 0.5 * 6.0 * self.gt.spacing * self.gs.spacing
        cell = out.coeffs[self.gt.zero_index + 3, self.gs.zero_index + 3]
        assert cell == pytest.approx(expected, rel=1e-13)
        mask = np.abs(out.coeffs) > 1e-14
        assert mask.sum() == 1

    def test_I_symmetric_in_factors(self):
        rng = np.random.default_rng(2)
        c1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        c2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        u1 = SpaceTimeField(self.gs, self.gt, c1)
        u2 = SpaceTimeField(self.gs, self.gt, c2)
        a = bilinear_I(u1, u2, 0.6).coeffs
        b = bilinear_I(u2, u1, 0.6).coeffs
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_K_delta_kernel_value(self):
        # real first factor: hermitian pair so its conjugate transform is itself
        u1 = delta_field(self.gs, self.gt, {(1, 1): 2.0, (-1, -1): 2.0})
        u2 = delta_field(self.gs, self.gt, {(2, 2): 3.0})
        out = bilinear_K(u1, u2, 1.5)
        expected = abs(3.0**1.5 - 1.0) ** 0.5 * 6.0 * self.gt.spacing * self.gs.spacing
        cell = out.coeffs[self.gt.zero_index + 3, self.gs.zero_index + 3]
        assert cell == pytest.approx(expected, rel=1e-13)

    def test_K_vanishes_when_output_matches_first_frequency(self):
        u1 = delta_field(self.gs, self.gt, {(1, 1): 1.0, (-1, -1): 1.0})
        u2 = delta_field(self.gs, self.gt, {(1, 0): 1.0})  # xi2 = 0 contribution
        out = bilinear_K(u1, u2, 1.5)
        assert np.max(np.abs(out.coeffs)) <= 1e-15

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)

        def rand_field():
            c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            return SpaceTimeField(self.gs, self.gt, c)

        for _ in range(25):
            u1, u2, w = rand_field(), rand_field(), rand_field()
            lhs = spacetime_inner(bilinear_I(u1, u2, 0.75), w)
            rhs = spacetime_inner(u2, bilinear_K(u1, w, 1.5))
            scale = u1.l2_norm() * u2.l2_norm() * w.l2_norm()
            assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=15, deadline=None)
    @given(
        n_space=st.sampled_from([8, 16, 32]),
        n_time=st.sampled_from([8, 16]),
        box=st.floats(2.0, 40.0),
        window=st.floats(0.5, 10.0),
        alpha=st.floats(1.05, 1.95),
        seed=st.integers(0, 2**16),
        scales=st.tuples(*[st.floats(1e-3, 1e3)] * 3),
    )
    def test_adjoint_identity_over_generated_fields(
        self, n_space, n_time, box, window, alpha, seed, scales
    ):
        # criterion 4: <I(u1, u2, alpha/2), w> = <u2, K(u1, w, alpha)>
        gs, gt = FrequencyGrid(n_space, box), FrequencyGrid(n_time, window)
        rng = np.random.default_rng(seed)
        u1, u2, w = (
            SpaceTimeField(gs, gt, k * (rng.standard_normal((n_time, n_space, 2)) @ [1, 1j]))
            for k in scales
        )
        lhs = spacetime_inner(bilinear_I(u1, u2, alpha / 2.0), w)
        rhs = spacetime_inner(u2, bilinear_K(u1, w, alpha))
        scale = u1.l2_norm() * u2.l2_norm() * w.l2_norm()
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_kernel_positivity(self):
        rng = np.random.default_rng(4)
        c1 = rng.uniform(0.0, 1.0, (16, 16)).astype(complex)
        c2 = rng.uniform(0.0, 1.0, (16, 16)).astype(complex)
        u1 = SpaceTimeField(self.gs, self.gt, c1)
        u2 = SpaceTimeField(self.gs, self.gt, c2)
        out = bilinear_I(u1, u2, 0.75).coeffs
        assert np.min(out.real) >= -1e-13
        assert np.max(np.abs(out.imag)) <= 1e-13

    def test_grid_mismatch_rejected(self):
        other = FrequencyGrid(16, 5.0)
        u1 = delta_field(self.gs, self.gt, {(0, 1): 1.0})
        u2 = delta_field(other, self.gt, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            bilinear_I(u1, u2, 0.5)
        with pytest.raises(ValueError):
            bilinear_K(u1, u2, 1.5)

    @pytest.mark.parametrize("n_time, n_space, box", [(8, 12, 5.0), (12, 8, 3.0), (8, 8, TWO_PI)])
    def test_I_and_K_match_the_direct_sum(self, n_time, n_space, box):
        gs, gt = FrequencyGrid(n_space, box), FrequencyGrid(n_time, 1.7)
        rng = np.random.default_rng(n_time * n_space)

        def rand_field(zero_columns=()):
            c = rng.standard_normal((n_time, n_space)) + 1j * rng.standard_normal((n_time, n_space))
            c[:, list(zero_columns)] = 0.0
            return SpaceTimeField(gs, gt, c)

        # the first factor has empty columns at both ends and inside
        u1 = rand_field((0, 2, gs.zero_index + 1, n_space - 2))
        u2 = rand_field()
        s, alpha = 0.6, 1.4

        def weight_I(xi1, xi2):
            return math.sqrt(abs(abs(xi1) ** (2 * s) - abs(xi2) ** (2 * s)))

        def weight_K(xi1, xi2):
            return math.sqrt(abs(abs(xi1 + xi2) ** alpha - abs(xi1) ** alpha))

        # K convolves the conjugate of u1, whose (q, k) coefficient is conj u1(-q, -k)
        zt, zx = gt.zero_index, gs.zero_index
        conj1 = np.zeros_like(u1.coeffs)
        for q in range(-zt, zt + 1):
            for k in range(-zx, zx + 1):
                conj1[zt + q, zx + k] = np.conj(u1.coeffs[zt - q, zx - k])
        scale = u1.l2_norm() * u2.l2_norm()
        for out, first, weight in (
            (bilinear_I(u1, u2, s), u1.coeffs, weight_I),
            (bilinear_K(u1, u2, alpha), conj1, weight_K),
        ):
            expected = direct_convolution(gs, gt, first, u2.coeffs, weight)
            assert np.max(np.abs(out.coeffs - expected)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_space=st.sampled_from([8, 12, 16, 32]),
        n_time=st.sampled_from([8, 12, 16]),
        s=st.floats(0.1, 1.0),
        alpha=st.floats(1.05, 1.95),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_match_the_per_column_loop(self, data, n_space, n_time, s, alpha, seed):
        # the loop over the sparser factor's columns skips only exact zeros and
        # keeps each cell's ascending-j1 order, so not one bit may move
        gs, gt = FrequencyGrid(n_space, 9.0), FrequencyGrid(n_time, 1.3)
        rng = np.random.default_rng(seed)

        def rand_field():
            c = rng.standard_normal((n_time, n_space)) + 1j * rng.standard_normal((n_time, n_space))
            c[rng.random(c.shape) < 0.2] = 0.0
            c[:, ~data.draw(column_support(n_space))] = 0.0
            return SpaceTimeField(gs, gt, c)

        u1, u2 = rand_field(), rand_field()
        a, b = masked(u1.coeffs), masked(u2.coeffs)
        power_I = np.abs(gs.frequencies[:-1]) ** (2 * s)
        kernel_I = np.sqrt(np.abs(power_I[:, None] - power_I[None, :]))
        power_K = np.abs(gs.frequencies) ** alpha
        j = np.arange(n_space - 1)
        j_out = j[:, None] + j[None, :] - gs.zero_index
        kernel_K = np.sqrt(np.abs(power_K.take(j_out, mode="clip") - power_K[:-1, None]))
        conj_a = np.zeros_like(a)
        conj_a[:-1, :-1] = np.conj(a[-2::-1, -2::-1])
        for out, expected in (
            (bilinear_I(u1, u2, s), per_column_convolution(a, b, kernel_I, gs, gt)),
            (bilinear_K(u1, u2, alpha), per_column_convolution(conj_a, b, kernel_K, gs, gt)),
        ):
            assert out.coeffs.tobytes() == expected.tobytes()


@st.composite
def column_support(draw, n):
    """The kept xi columns of a factor: all, a narrow band, any subset (so
    interior zero columns), or none."""
    kind = draw(st.sampled_from(["all", "band", "subset", "none"]))
    if kind == "band":
        lo = draw(st.integers(0, n - 1))
        return (np.arange(n) >= lo) & (np.arange(n) <= draw(st.integers(lo, lo + 3)))
    if kind == "subset":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return np.full(n, kind == "all")


def masked(c):
    """The coefficients on the symmetric sublattice: the extreme row and column zeroed."""
    c = np.array(c)
    c[-1, :] = 0.0
    c[:, -1] = 0.0
    return c


def per_column_convolution(a, b, kernel, gs, gt):
    """The weighted convolution of masked sublattice coefficients as a loop
    over every nonzero first-factor column j1 in the (tau, xi) layout, each
    against every second-factor column whose sum with it lands on the
    sublattice: the reference whose bytes bilinear_I and bilinear_K keep."""
    m, n = a.shape
    z_t, z_x = m // 2 - 1, n // 2 - 1
    a_fft = np.fft.fft(a, n=2 * m, axis=0)
    b_fft = np.fft.fft(b, n=2 * m, axis=0)
    acc = np.zeros((2 * m, n), dtype=complex)
    for j1 in np.flatnonzero(np.any(a_fft[:, : n - 1], axis=0)).tolist():
        j2_lo = max(0, z_x - j1)
        j2_hi = min(n - 2, n - 2 + z_x - j1)
        acc[:, j1 + j2_lo - z_x : j1 + j2_hi + 1 - z_x] += (
            a_fft[:, j1 : j1 + 1] * kernel[j1, j2_lo : j2_hi + 1] * b_fft[:, j2_lo : j2_hi + 1]
        )
    out = gt.spacing * gs.spacing * np.fft.ifft(acc, axis=0)[z_t : z_t + m]
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return out


class TestEstimateRatio:
    @pytest.fixture
    def no_free_lifts(self, monkeypatch):
        def no_compute(*args):
            raise AssertionError("free lifts built before the inputs were checked")

        monkeypatch.setattr(estimates, "_FreeLifts", no_compute)

    def test_unknown_kind(self):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError):
            estimate_ratio("sobolev", None, p, 0)

    def test_unknown_input_keys(self):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError):
            estimate_ratio("strichartz", {"bogus": 1}, p, 0)
        # top_cells is read by main_bilinear alone
        for kind in ("strichartz", "bilinear_str", "dual_bilinear"):
            with pytest.raises(ValueError, match=r"unknown input keys .*\['top_cells'\]"):
                estimate_ratio(kind, {"n_samples": 2, "top_cells": 4}, p, 0)

    @pytest.mark.parametrize(
        "kind, inputs, message",
        [
            ("strichartz", {"n_samples": 2, "resolutions": (128, 256)},
             r"band 8.0 does not fit .* 128 modes .* largest band that fits is 6.185"),
            ("main_bilinear", {"n_samples": 2, "resolutions": ((32, 256), (64, 512))},
             r"band 10.0 does not fit .* 32 modes .* largest band that fits is 5.890"),
            ("bilinear_str", {"resolutions": ((64, 64), (16, 16))},
             r"band 3.0 does not fit .* 16 modes .* largest band that fits is 2.748"),
            ("main_bilinear", {"band_fraction": 0.0}, r"band_fraction must lie in \(0, 1\]"),
            ("main_bilinear", {"band_fraction": 1.2}, r"band_fraction must lie in \(0, 1\]"),
        ],
        ids=["strichartz", "main_bilinear", "unordered_resolutions", "fraction_0", "fraction_1.2"],
    )
    def test_band_outside_the_coarsest_grid_rejected_before_compute(
        self, no_free_lifts, kind, inputs, message
    ):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError, match=message):
            estimate_ratio(kind, inputs, p, 0)

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ({"top_cells": 0}, r"top_cells must be at least 1, got 0: set it to the number"),
            ({"top_cells": -3}, r"top_cells must be at least 1, got -3"),
            ({"band": 4.0, "band_fraction": 0.7}, r"band and band_fraction are exclusive"),
        ],
        ids=["top_cells_0", "top_cells_negative", "band_and_band_fraction"],
    )
    def test_main_bilinear_inputs_rejected_before_compute(self, no_free_lifts, inputs, message):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError, match=message):
            estimate_ratio("main_bilinear", {"n_samples": 2, **inputs}, p, 0)

    def test_band_at_the_largest_paired_frequency_runs(self):
        p = EstimateParams.default_admissible(1.5)
        grid = FrequencyGrid(32, 16.0)
        inputs = {"n_samples": 2, "resolutions": (32, 64), "box_length": 16.0, "T": 0.5}
        report = estimate_ratio("strichartz", {**inputs, "band": grid.nyquist - grid.spacing}, p, 3)
        assert np.isfinite(report.sup_ratio)

    def test_smoothing_inf_matches_derived_minimum(self):
        # the chord slope (1-x^alpha)/(1-x) is smallest at x = 1/4, giving
        # inf ratio 2 sqrt((1-4^(-alpha))/(3/4)); beta=-1 samples are skipped
        p = EstimateParams.default_admissible(1.5)
        report = estimate_ratio("smoothing", {"n_samples": 50_000}, p, seed=9)
        expected = 2.0 * math.sqrt((1.0 - 0.25**1.5) / 0.75)
        assert report.inf_ratio == pytest.approx(expected, rel=1e-12)
        assert report.skipped >= 1
        assert report.extremal_sample["beta"] == pytest.approx(-0.25)

    def test_smoothing_lower_bound_holds(self):
        for alpha in (1.1, 1.5, 1.9):
            p = EstimateParams.default_admissible(alpha, epsilon=(alpha - 1) / 8)
            report = estimate_ratio("smoothing", {"n_samples": 20_000}, p, seed=2)
            assert report.inf_ratio >= 1.0

    def test_ratio_invariant_under_rescaling(self):
        # equal homogeneity on both sides: scaling a factor by 2 scales the
        # bilinear left side and the norm product identically
        gs = FrequencyGrid(16, TWO_PI)
        gt = FrequencyGrid(16, TWO_PI)
        rng = np.random.default_rng(5)
        c1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        c2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        u1 = SpaceTimeField(gs, gt, c1)
        u2 = SpaceTimeField(gs, gt, c2)
        p0 = EstimateParams(1.5, 0.0, 0.0, 0.52, -0.25, 0.0)

        def ratio(a, b):
            lhs = bilinear_I(a, b, 0.75).l2_norm()
            return lhs / (bourgain_norm(a, p0) * bourgain_norm(b, p0))

        scaled = SpaceTimeField(gs, gt, 2.0 * c1)
        assert ratio(u1, u2) == pytest.approx(ratio(scaled, u2), rel=1e-12)

    def test_strichartz_report_structure(self):
        p = EstimateParams.default_admissible(1.5)
        report = estimate_ratio(
            "strichartz",
            {"n_samples": 4, "resolutions": (128, 256), "band": 4.0},
            p,
            seed=11,
        )
        assert report.sup_ratio is not None and np.isfinite(report.sup_ratio)
        assert len(report.refinement_trend) == 2
        assert report.sample_count == 4
        payload = report.to_json_dict()
        assert payload["kind"] == "strichartz"
        assert "sup_ratio" in payload and "inf_ratio" not in payload

    def test_main_bilinear_histogram_and_trend(self):
        p = EstimateParams.default_admissible(1.5)
        report = estimate_ratio(
            "main_bilinear",
            {"n_samples": 12, "resolutions": ((56, 448), (64, 512))},
            p,
            seed=13,
        )
        assert report.region_histogram is not None
        d = report.region_histogram["d_part"]
        assert set(d) == {"D11", "D12", "D21", "D22"}
        assert sum(d.values()) > 0
        coarse, fine = (v for _, v in report.refinement_trend)
        assert abs(fine - coarse) <= 0.15 * max(coarse, fine)

    def test_dual_bilinear_runs(self):
        p = EstimateParams.default_admissible(1.5)
        report = estimate_ratio(
            "dual_bilinear",
            {"n_samples": 3, "resolutions": ((48, 48),)},
            p,
            seed=1,
        )
        assert np.isfinite(report.sup_ratio)


def full_matrix_dominant_regions(lhs_field, w_out, lifts, p, top_cells):
    """_dominant_regions with the term matrix over the whole (tau1, xi1)
    lattice, masked to the cells whose partner lies on the lifts' lattice."""
    U1, U2 = lifts
    contrib = w_out * np.abs(lhs_field.coeffs) ** 2
    flat = np.argsort(contrib, axis=None)[::-1][:top_cells]
    n_out = contrib.shape[1]
    z_t_out, z_x_out = lhs_field.time_grid.zero_index, lhs_field.space_grid.zero_index
    m_t, n_x = U1.coeffs.shape
    m1 = np.arange(m_t) - U1.time_grid.zero_index
    k1 = np.arange(n_x) - U1.space_grid.zero_index
    labels = []
    for cell in flat:
        mi, ki = divmod(int(cell), n_out)
        xi_out = lhs_field.space_grid.frequencies[ki]
        if contrib[mi, ki] <= 0.0 or xi_out == 0.0:
            continue
        m2 = mi - z_t_out - m1
        k2 = ki - z_x_out - k1
        ok_t = (m2 >= m1.min()) & (m2 <= m1.max())
        ok_x = (k2 >= k1.min()) & (k2 <= k1.max())
        a = np.where(ok_t, 1, 0)[:, None] * np.where(ok_x, 1, 0)[None, :]
        m2c = np.clip(m2 - m1.min(), 0, m_t - 1)
        k2c = np.clip(k2 - k1.min(), 0, n_x - 1)
        terms = a * U1.coeffs * U2.coeffs[np.ix_(m2c, k2c)]
        mi1, ki1 = divmod(int(np.argmax(np.abs(terms))), n_x)
        if terms[mi1, ki1] == 0.0 or not (ok_t[mi1] and ok_x[ki1]):
            continue
        xi1, tau1 = U1.space_grid.frequencies[ki1], U1.taus[mi1]
        xi2, tau2 = xi_out - xi1, lhs_field.taus[mi] - tau1
        if xi1 == 0.0 or xi2 == 0.0:
            continue
        if abs(xi1) > abs(xi2):
            xi1, xi2, tau1, tau2 = xi2, xi1, tau2, tau1
        weights = convolution_weights(tau1, xi1, tau2, xi2, p.alpha)
        labels.append(classify_region(xi1, xi2, weights.lam, weights.lam_1, weights.lam_2))
    return labels


@pytest.mark.parametrize("seed", range(6))
def test_dominant_regions_match_the_full_term_matrix(seed):
    rng = np.random.default_rng(seed)
    n_x, m_t, box, window = 16, 24, 16.0, 0.8
    gs, gt, ext = FrequencyGrid(n_x, box), FrequencyGrid(m_t, window), FrequencyGrid(2 * n_x, box)

    def rand_coeffs(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # band-limited like real lifts, so some output cells see only zero terms
    band = np.abs(gs.mode_numbers) <= 6
    lifts = tuple(SpaceTimeField(gs, gt, rand_coeffs((m_t, n_x)) * band) for _ in range(2))
    # the heaviest output cells sit on and next to the lattice's edges, where
    # the block of (tau1, xi1) with a partner on the lifts' lattice is partial
    lhs = 1e-3 * rand_coeffs((m_t, 2 * n_x))
    rows = rng.choice([0, 1, 2, m_t // 2, m_t - 3, m_t - 2, m_t - 1], size=14)
    cols = rng.choice([0, 3, 4, 6, n_x, 2 * n_x - 6, 2 * n_x - 4, 2 * n_x - 1], size=14)
    lhs[rows, cols] = rng.uniform(1.0, 2.0, size=14)
    lhs_field = SpaceTimeField(ext, gt, lhs)
    w_out = rng.uniform(0.5, 1.5, size=lhs.shape)
    p = EstimateParams.default_admissible(1.5)
    top_cells = int(np.unique(rows * 2 * n_x + cols).size)

    def key(label):
        return label.d_part, label.a_part

    # main_bilinear's cell table, filled as the harness fills it (omega = 0,
    # as this random field is not mean-zero)
    cells = _weighted_cells(lhs_field.coeffs, w_out, 0.0, out=np.empty(w_out.shape))
    assert cells.tobytes() == (w_out * np.abs(lhs_field.coeffs) ** 2).tobytes()
    arrays = tuple(lift.coeffs for lift in lifts)
    got = estimates._dominant_regions(cells, arrays, gt, gs, p, top_cells)
    expected = full_matrix_dominant_regions(lhs_field, w_out, lifts, p, top_cells)
    assert len(expected) > 0
    assert sorted(got, key=key) == sorted(expected, key=key)


def ascending_product_field(traj1, traj2, T, n_slots):
    """product_derivative_field through the ascending transforms, each factor
    zero-padded to the doubled grid: the reference whose bytes _ProductField
    keeps.  Returns the coefficients and the tau grid."""
    n, box = traj1.grid.n_modes, traj1.grid.box_length
    psi = bump(traj1.times / T)[:, None]

    def physical(c):
        padded = np.zeros((c.shape[0], 2 * n), dtype=complex)
        padded[:, n // 2 : n // 2 + n] = c
        return _inverse_raw(padded, box, axis=1)

    rows = _forward_raw(physical(psi * traj1.coeffs) * physical(psi * traj2.coeffs), box, axis=1)
    coeffs, time_grid = _padded_time_dft(rows, traj1.times, n_slots)
    return coeffs * (1j * FrequencyGrid(2 * n, box).frequencies)[None, :], time_grid


class TestProductField:
    """main_bilinear's per-resolution product field against the ascending
    formula it replaced, byte for byte."""

    L, T = 16.0, 0.5

    @staticmethod
    @st.composite
    def factor(draw, grid):
        """A draw of any family, zero mean on or off; a wave packet may sit
        at the largest paired carrier, where its envelope reaches the
        unpaired N/2 mode; or a zero factor, whose product is all signed
        zeros."""
        family = draw(st.sampled_from(_FAMILIES + ("zero",)))
        if family == "zero":
            return SpectralField(grid, np.zeros(grid.n_modes, dtype=complex))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        top = grid.n_modes // 2 - 1
        if family == "random_bandlimited":
            desc = {"family": family, "modes": _draw_band_modes(rng, draw(st.integers(1, top)))}
        else:
            desc = _envelope(rng, family)
            if family == "wave_packet":
                j = draw(st.one_of(st.sampled_from([top, -top]), st.integers(-top, top)))
                desc["carrier"] = j * grid.spacing
        return _field_from_descriptor(grid, desc, draw(st.booleans()))

    @settings(max_examples=30, deadline=None)
    @given(res=st.sampled_from(estimates._KIND_INPUTS["main_bilinear"]["resolutions"]), data=st.data())
    def test_bytes_match_the_ascending_formula(self, res, data):
        n_space, n_time = res
        grid = FrequencyGrid(n_space, self.L)
        ones = SpectralField(grid, np.ones(n_space, dtype=complex))
        paths = _free_cutoff_trajectory(ones, 1.5, self.T, n_time, 2.0)
        product = _ProductField(grid, paths.times, self.T, n_time)
        for _ in range(2):  # sample B after sample A, on one workspace
            u1, u2 = (data.draw(self.factor(grid)) for _ in range(2))
            trajs = [Trajectory(grid, paths.times, paths.coeffs * u.coeffs, 1.5) for u in (u1, u2)]
            expected, time_grid = ascending_product_field(*trajs, self.T, n_time)
            for u, rows in zip((u1, u2), product.rows):
                np.multiply(paths.coeffs, u.coeffs, out=rows)
            assert product().tobytes() == expected.tobytes()
            assert product.time_grid == time_grid
            # the public one-shot builds a fresh workspace
            fresh = product_derivative_field(*trajs, self.T, n_time)
            assert fresh.coeffs.tobytes() == product.coeffs.tobytes()
            assert (fresh.space_grid, fresh.time_grid) == (product.ext, time_grid)

    def test_the_unpaired_mode_is_reached(self):
        # the top-of-band packets above put weight on the N/2 mode, even with
        # the widest envelope (the narrowest spectrum) the draws use
        grid = FrequencyGrid(56, self.L)
        top = grid.n_modes // 2 - 1
        u = make_test_field(grid, "wave_packet", width=2.0, carrier=top * grid.spacing)
        assert abs(u.coeffs[-1]) > 1e-3 * np.max(np.abs(u.coeffs))

    def test_rejects_a_cutoff_beyond_the_window(self):
        grid = FrequencyGrid(16, self.L)
        times = np.linspace(-1.0, 1.0, 41)  # psi_T reaches |t| = 1, the window holds 16 slots
        with pytest.raises(ValueError, match="beyond the padded window"):
            _ProductField(grid, times, self.T, 16)


def masked_random_spacetime(rng, grid, time_grid, band):
    """_random_spacetime through a boolean mask over the whole (tau, xi)
    grid: the reference whose bytes the rectangle fill keeps."""
    m, n = time_grid.n_modes, grid.n_modes
    coeffs = np.zeros((m, n), dtype=complex)
    sel = np.outer(np.abs(time_grid.mode_numbers) <= m // 3, np.abs(grid.frequencies) <= band)
    sel[-1, :] = False
    sel[:, -1] = False
    draws = rng.standard_normal((int(np.sum(sel)), 2))
    coeffs[sel] = draws[:, 0] + 1j * draws[:, 1]
    return coeffs


@pytest.mark.parametrize("n_space, n_time", [(8, 8), (16, 24), (48, 48), (64, 64), (64, 512)])
@pytest.mark.parametrize("band", [-1.0, 0.1, 3.0, 100.0])
def test_random_spacetime_fills_the_masked_block(n_space, n_time, band):
    grid, time_grid = FrequencyGrid(n_space, 16.0), FrequencyGrid(n_time, 0.5 * n_time)
    for seed in range(3):
        v = _random_spacetime(np.random.default_rng(seed), grid, time_grid, band)
        expected = masked_random_spacetime(np.random.default_rng(seed), grid, time_grid, band)
        assert v.coeffs.tobytes() == expected.tobytes()
        assert np.any(expected) == (band >= 0.0)


class TestFreeLifts:
    """One kernel per resolution stands for the per-sample lift and norm."""

    GRIDS = ((FrequencyGrid(32, 16.0), 64), (FrequencyGrid(48, 12.0), 96))
    T = 0.5

    def fields(self, grid, zero_mean):
        real = make_test_field(grid, "random_bandlimited", seed=3, band=3.0, zero_mean=zero_mean)
        rng = np.random.default_rng(4)
        c = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
        if zero_mean:
            c[grid.zero_index] = 0.0
        return real, SpectralField(grid, c)

    def direct_lift(self, u0, alpha, n_time):
        traj = _free_cutoff_trajectory(u0, alpha, self.T, n_time, 2.0)
        return traj, localized_lift(traj, self.T, pad_factor=2.0)

    @pytest.mark.parametrize("grid_index", [0, 1])
    def test_kernel_times_u0_is_the_lift(self, grid_index):
        grid, n_time = self.GRIDS[grid_index]
        p = EstimateParams.default_admissible(1.5)
        free = _FreeLifts(grid, p, self.T, n_time)
        for u0 in self.fields(grid, zero_mean=False):
            traj, lift = self.direct_lift(u0, p.alpha, n_time)
            # the trajectory rows main_bilinear writes into its product field
            assert np.array_equal(free.paths.times, traj.times)
            assert np.array_equal(free.paths.coeffs * u0.coeffs, traj.coeffs)
            ours = free.lift(u0)
            assert ours.time_grid == lift.time_grid
            err = np.max(np.abs(ours.coeffs - lift.coeffs))
            assert err <= 1e-13 * np.max(np.abs(lift.coeffs))

    @pytest.mark.parametrize("grid_index", [0, 1])
    def test_profile_norm_is_the_restriction_norm(self, grid_index):
        grid, n_time = self.GRIDS[grid_index]
        p = EstimateParams.default_admissible(1.5)
        assert p.omega > 0.0
        at_b_prime = p.replace(b=p.b_prime, admissible=False)
        for params, zero_mean in ((p, True), (at_b_prime, True), (_x_params(p), False)):
            free = _FreeLifts(grid, params, self.T, n_time)
            for u0 in self.fields(grid, zero_mean):
                _, lift = self.direct_lift(u0, p.alpha, n_time)
                expected = bourgain_norm(lift, params)
                assert free.norm(u0) == pytest.approx(expected, rel=1e-12)

    def test_zero_mode_check_matches_bourgain_norm(self):
        grid, n_time = self.GRIDS[0]
        p = EstimateParams.default_admissible(1.5)
        free = _FreeLifts(grid, p, self.T, n_time)
        u0, _ = self.fields(grid, zero_mean=True)
        scale = np.max(np.abs(u0.coeffs))
        for zero_mode, rejected in ((1e-3 * scale, True), (1e-17 * scale, False)):
            c = np.array(u0.coeffs)
            c[grid.zero_index] = zero_mode
            field = SpectralField(grid, c)
            _, lift = self.direct_lift(field, p.alpha, n_time)
            if rejected:
                for norm in (lambda: free.norm(field), lambda: bourgain_norm(lift, p)):
                    with pytest.raises(ValueError, match="bourgain norm with omega > 0 requires a mean-zero field"):
                        norm()
            else:
                assert free.norm(field) == pytest.approx(bourgain_norm(lift, p), rel=1e-12)


class TestStrichartzSides:
    """The real half-spectrum synthesis of the left side against the complex
    path it replaces: mixed_lebesgue_norm of the cut free evolution."""

    L, T, N_TIME = 64.0, 1.0, 800  # the kind's defaults: dt = 0.01 on a pad-2 window

    def complex_path(self, p, free, u0):
        gamma = (p.alpha - 1.0) / 4.0
        paths = free.paths
        psi = bump(paths.times / self.T)[:, None]
        cut = psi * paths.coeffs * japanese_bracket(free.grid.frequencies) ** gamma * u0.coeffs
        return mixed_lebesgue_norm(Trajectory(free.grid, paths.times, cut, p.alpha), 4.0, math.inf)

    @pytest.mark.parametrize("n", [256, 512])
    def test_matches_the_complex_path(self, n):
        p = EstimateParams.default_admissible(1.5)
        grid, coarsest = FrequencyGrid(n, self.L), FrequencyGrid(256, self.L)
        free = _FreeLifts(grid, _x_params(p), self.T, self.N_TIME)
        sides = _strichartz_sides(p, free, {}, None)
        dxi = grid.spacing
        # the default band, a band at the coarsest grid's largest paired
        # frequency, and band_fraction=1 draws, which reach this grid's
        n_bands = (_n_band(8.0, dxi), _n_band(coarsest.nyquist - coarsest.spacing, dxi),
                   _n_band(grid.nyquist - grid.spacing, dxi))
        assert n_bands[-1] == n // 2 - 1
        for i, n_band in enumerate(n_bands):
            for desc in _draw_samples("strichartz", np.random.default_rng((n, i)), 3, n_band, dxi):
                u0 = _field_from_descriptor(grid, desc, False)
                lhs, rhs = sides(desc)
                assert lhs == pytest.approx(self.complex_path(p, free, u0), rel=1e-13, abs=0.0)
                assert rhs == free.norm(u0)


# Trends of small fixed configs, recorded before the free lifts were factored
# through one kernel per resolution; the factoring changes them by roundoff.
# Each entry also pins the extremal sample's index and the skipped count,
# recorded before the kinds shared one sampling loop.
_RECORDED_TRENDS = {
    "strichartz": (
        {"n_samples": 4, "resolutions": (32, 64), "box_length": 16.0, "band": 4.0, "T": 0.5},
        3,
        (0.4296610358757873, 0.45033228008413506),
        (2, 0),
    ),
    "bilinear_str": (
        {"n_samples": 4, "resolutions": ((32, 32), (48, 48)), "band": 3.0},
        4,
        (1.3327469669293912, 1.442934631796948),
        (1, 0),
    ),
    "dual_bilinear": (
        {"n_samples": 4, "resolutions": ((32, 32), (48, 48)), "band": 3.0},
        4,
        (0.3711618097301418, 0.3308027190410253),
        (1, 0),
    ),
    "main_bilinear": (
        {"n_samples": 6, "resolutions": ((32, 256), (40, 320)), "band": 4.0},
        6,
        (0.056313983012743256, 0.056313564849340754),
        (5, 0),
    ),
}


@pytest.mark.parametrize("kind", sorted(_RECORDED_TRENDS))
def test_trend_matches_recorded_values(kind):
    inputs, seed, expected, (sample_index, skipped) = _RECORDED_TRENDS[kind]
    report = estimate_ratio(kind, inputs, EstimateParams.default_admissible(1.5), seed)
    values = tuple(v for _, v in report.refinement_trend)
    assert values == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert report.extremal_sample["sample_index"] == sample_index
    assert report.skipped == skipped
    if kind == "main_bilinear":
        hist = report.region_histogram
        assert hist["d_part"] == {"D11": 30, "D12": 0, "D21": 18, "D22": 0}
        # A1 and A2 trade labels where the two factors' terms tie to roundoff
        assert hist["a_part"]["A"] == 40
        assert hist["a_part"]["A1"] + hist["a_part"]["A2"] == 8


class TestRatioReport:
    def test_exactly_one_ratio_required(self):
        with pytest.raises(ValueError):
            RatioReport("x", 1, 0, (("r", 1.0),), sup_ratio=1.0, inf_ratio=1.0)
        with pytest.raises(ValueError):
            RatioReport("x", 1, 0, (("r", 1.0),))

    def test_trend_nonempty(self):
        with pytest.raises(ValueError):
            RatioReport("x", 1, 0, (), sup_ratio=1.0)

    def test_ratio_finite(self):
        with pytest.raises(ValueError):
            RatioReport("x", 1, 0, (("r", 1.0),), sup_ratio=math.inf)
