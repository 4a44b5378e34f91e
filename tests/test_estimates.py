import math

import numpy as np
import pytest

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
from fbo_lab.estimates import (
    _classify_arrays,
    _free_cutoff_trajectory,
    _FreeLifts,
    _x_params,
)
from fbo_lab.norms import localized_lift
from fbo_lab.spectral import FrequencyGrid, SpectralField, make_test_field

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


class TestEstimateRatio:
    def test_unknown_kind(self):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError):
            estimate_ratio("sobolev", None, p, 0)

    def test_unknown_input_keys(self):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError):
            estimate_ratio("strichartz", {"bogus": 1}, p, 0)

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
            assert np.array_equal(free.trajectory(u0).coeffs, traj.coeffs)
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
                    with pytest.raises(ValueError, match="vanishing zero spatial mode"):
                        norm()
            else:
                assert free.norm(field) == pytest.approx(bourgain_norm(lift, p), rel=1e-12)


# Trends of small fixed configs, recorded before the free lifts were factored
# through one kernel per resolution; the factoring changes them by roundoff.
_RECORDED_TRENDS = {
    "strichartz": (
        {"n_samples": 4, "resolutions": (32, 64), "box_length": 16.0, "band": 4.0, "T": 0.5},
        3,
        (0.4296610358757873, 0.45033228008413506),
    ),
    "bilinear_str": (
        {"n_samples": 4, "resolutions": ((32, 32), (48, 48)), "band": 3.0},
        4,
        (1.3327469669293912, 1.442934631796948),
    ),
    "dual_bilinear": (
        {"n_samples": 4, "resolutions": ((32, 32), (48, 48)), "band": 3.0},
        4,
        (0.3711618097301418, 0.3308027190410253),
    ),
    "main_bilinear": (
        {"n_samples": 6, "resolutions": ((32, 256), (40, 320)), "band": 4.0},
        6,
        (0.056313983012743256, 0.056313564849340754),
    ),
}


@pytest.mark.parametrize("kind", sorted(_RECORDED_TRENDS))
def test_trend_matches_recorded_values(kind):
    inputs, seed, expected = _RECORDED_TRENDS[kind]
    report = estimate_ratio(kind, inputs, EstimateParams.default_admissible(1.5), seed)
    values = tuple(v for _, v in report.refinement_trend)
    assert values == pytest.approx(expected, rel=1e-12, abs=0.0)
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
