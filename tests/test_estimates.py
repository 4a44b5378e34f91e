import dataclasses
import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbo_lab import (
    EstimateParams,
    RatioReport,
    SpaceTimeField,
    bilinear_I,
    bilinear_K,
    bourgain_norm,
    classify_region,
    estimate_ratio,
    pointwise_infimum,
    resonance,
    spacetime_inner,
)
from fbo_lab import estimates
from fbo_lab.estimates import (
    _SUPPORT_FLOOR,
    TOP_CELLS,
    _bilinear_str_sides,
    _classify_arrays,
    _DominantRegions,
    _draw_band_modes,
    _draw_pair,
    _draw_samples,
    _envelope,
    _field_from_descriptor,
    _free_cutoff_times,
    _FreeLifts,
    _packet_descriptor,
    _ProductField,
    _random_spacetime,
    _strichartz_table,
    _x_params,
    product_derivative_field,
)
from fbo_lab.evolution import Trajectory
from fbo_lab.norms import (
    _padded_time_dft,
    _time_window,
    bourgain_weights,
    localized_lift,
    mixed_lebesgue_norm,
)
from fbo_lab.spectral import (
    _FAMILIES,
    FrequencyGrid,
    SpectralField,
    _even_time_spectrum,
    _forward_raw,
    _inverse_raw,
    bump,
    dispersion_symbol,
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


class TestPointwiseInfimum:
    def test_equal_pair_ratio_closed_form(self):
        # algebraic simplification: ratio at xi1=xi2 equals 2 - 2^(1-alpha)
        for alpha, expected in [
            (1.1, 1.066967008463192584),
            (1.5, 1.2928932188134524756),
            (1.9, 1.4641132687318534179),
        ]:
            a = abs(resonance(1.0, 1.0, alpha)) / (1.0 * 2.0**alpha)
            assert a == pytest.approx(expected, abs=1e-12)

    #: Per kind: its ratio of beta, its minimiser and its closed form of alpha.
    _MINIMA = {
        "resonance": (estimates._resonance_ratio, -0.5, lambda alpha: 2.0 - 2.0 ** (1.0 - alpha)),
        "smoothing": (
            estimates._smoothing_ratio, -0.25,
            lambda alpha: 2.0 * math.sqrt((1.0 - 0.25**alpha) / 0.75),
        ),
    }

    @pytest.mark.parametrize("kind", list(_MINIMA))
    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    def test_closed_form_is_the_ratio_at_the_minimiser(self, kind, alpha):
        # R(-1/2) = 2 g(1/2) and R(-1/4) = 2 sqrt((1 - 4^-alpha) / (3/4)), to roundoff
        ratio, minimiser, closed_form = self._MINIMA[kind]
        assert ratio(minimiser, alpha) == pytest.approx(closed_form(alpha), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kind", list(_MINIMA))
    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    def test_scan_finds_each_closed_form(self, kind, alpha):
        _, minimiser, closed_form = self._MINIMA[kind]
        result = pointwise_infimum(kind, alpha)
        assert result["closed_form"] == pytest.approx(closed_form(alpha), rel=1e-15, abs=0.0)
        assert result["inf_ratio"] == pytest.approx(closed_form(alpha), rel=1e-12, abs=0.0)
        assert result["beta"] == minimiser

    def test_result_keys_and_ranges(self):
        resonance_result = pointwise_infimum("resonance", 1.5)
        assert resonance_result == {
            "kind": "resonance", "alpha": 1.5, "inf_ratio": 2.0 - 2.0**-0.5, "beta": -0.5,
            "closed_form": 2.0 - 2.0**-0.5, "beta_range": [-0.5, 0.0],
        }
        assert pointwise_infimum("smoothing", 1.5)["beta_range"] == [-1.0, -0.25]

    @pytest.mark.parametrize("kind", list(_MINIMA))
    def test_infimum_is_below_the_ratio_over_its_range(self, kind):
        """The reported infimum is the ratio at its beta (to the ulp by which
        numpy's scalar and array powers may differ), and no point of an
        independent grid of the open range lies below it."""
        ratio = self._MINIMA[kind][0]
        for alpha in (1.1, 1.5, 1.9):
            result = pointwise_infimum(kind, alpha)
            lo, hi = result["beta_range"]
            assert lo <= result["beta"] <= hi
            at_beta = ratio(result["beta"], alpha)
            assert result["inf_ratio"] == pytest.approx(at_beta, rel=1e-15, abs=0.0)
            beta = np.linspace(lo, hi, 10_001)[1:-1]
            assert ratio(beta, alpha).min() >= result["inf_ratio"]

    @pytest.mark.parametrize("kind", list(_MINIMA))
    def test_ratio_grows_away_from_its_minimiser(self, kind):
        """Resonance: g(t)/t falls as t = |beta| grows to 1/2, so the ratio
        falls as beta goes from 0 to -1/2.  Smoothing: the chord slope grows
        with |beta|, so the ratio grows as beta falls from -1/4 to -1."""
        ratio, minimiser, _ = self._MINIMA[kind]
        open_end = 0.0 if kind == "resonance" else -1.0
        # from the minimiser out to (not at) the open end
        beta = minimiser + (open_end - minimiser) * np.linspace(0.0, 1.0, 2001)[:-1]
        for alpha in (1.1, 1.5, 1.9):
            assert np.all(np.diff(ratio(beta, alpha)) > 0.0)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_ratios_reach_their_limits_at_the_open_ends(self, alpha):
        near_zero = estimates._resonance_ratio(-1e-9, alpha)
        assert near_zero == pytest.approx(1.0 + alpha, rel=1e-6)
        near_minus_one = estimates._smoothing_ratio(-1.0 + 1e-7, alpha)
        assert near_minus_one == pytest.approx(2.0 * math.sqrt(alpha), rel=1e-6)

    _frequency = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
        xi1=_frequency,
        xi2=_frequency,
        scale=st.floats(1e-2, 1e2),
    )
    def test_resonance_is_symmetric_odd_and_homogeneous(self, alpha, xi1, xi2, scale):
        """The premises of the reduction: |h| is the same for each pair of
        the zero-sum triple (xi1, xi2, -(xi1 + xi2)), unchanged when the pair
        is negated, and scales by lambda^(1 + alpha)."""
        xi = xi1 + xi2
        h = abs(resonance(xi1, xi2, alpha))
        assume(h > 0.0)
        for a, b in ((xi2, xi1), (xi1, -xi), (-xi, xi1), (xi2, -xi), (-xi, xi2), (-xi1, -xi2)):
            assert abs(resonance(a, b, alpha)) == pytest.approx(h, rel=1e-9, abs=0.0)
        scaled = abs(resonance(scale * xi1, scale * xi2, alpha))
        assert scaled == pytest.approx(scale ** (1.0 + alpha) * h, rel=1e-9, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), xi1=_frequency, xi2=_frequency)
    def test_resonance_ratio_depends_on_beta_alone(self, alpha, xi1, xi2):
        """The 2-D ratio over (xi1, xi2) is the 1-D one at beta = -smallest/largest
        modulus of (xi1, xi2, xi1 + xi2).  Below a smallest/largest of 1e-3,
        roundoff in h grows like eps/|beta|, so those pairs are left out."""
        mags = np.abs([xi1, xi2, xi1 + xi2])
        lo, hi = mags.min(), mags.max()
        assume(lo > 0.0 and lo >= 1e-3 * hi)
        two_d = abs(resonance(xi1, xi2, alpha)) / (lo * hi**alpha)
        assert two_d == pytest.approx(estimates._resonance_ratio(-lo / hi, alpha), rel=1e-11, abs=0.0)
        # at least the closed form, but for the few ulps of roundoff at beta = -1/2
        assert two_d >= (2.0 - 2.0 ** (1.0 - alpha)) * (1.0 - 1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
        beta=st.floats(-0.999, -0.25),
        exponent=st.integers(-6, 6),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_smoothing_ratio_depends_on_beta_alone(self, alpha, beta, exponent, sign):
        """The 2-D ratio over the family xi1 = beta xi2, xi2 = +-2^exponent, is
        the 1-D one at beta.  Within 1e-3 of beta = -1, 1 - |beta|^alpha
        cancels and roundoff grows like eps/(1 + beta), so beta stays above."""
        xi2 = sign * 2.0**exponent
        xi1 = beta * xi2
        xi = xi1 + xi2
        lhs = math.sqrt(abs(abs(xi1) ** alpha - abs(xi2) ** alpha))
        rhs = 0.5 * math.sqrt(abs(xi)) * abs(xi2) ** ((alpha - 1.0) / 2.0)
        assert lhs / rhs == pytest.approx(estimates._smoothing_ratio(beta, alpha), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_smoothing_lower_bound_holds(self, alpha):
        assert pointwise_infimum("smoothing", alpha)["inf_ratio"] >= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"unknown pointwise kind 'strichartz'; expected one of"):
            pointwise_infimum("strichartz", 1.5)


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
        # the loop over the second factor's columns skips only exact zeros and
        # keeps each cell's ascending-j1 order, so not one bit may move
        gs, gt = FrequencyGrid(n_space, 9.0), FrequencyGrid(n_time, 1.3)
        rng = np.random.default_rng(seed)

        def rand_field():
            c = rng.standard_normal((n_time, n_space)) + 1j * rng.standard_normal((n_time, n_space))
            c[rng.random(c.shape) < 0.2] = 0.0
            c[:, ~data.draw(column_support(n_space))] = 0.0
            return SpaceTimeField(gs, gt, c)

        assert_bytes_match_the_per_column_loop(rand_field(), rand_field(), s, alpha)

    @pytest.mark.parametrize(
        "first, second",
        [((2, 3), (0, 1, 2, 3, 4, 5, 8, 10)), ((), (1, 4, 7)), ((1, 4, 7), ())],
        ids=["first-has-fewer", "first-zero", "second-zero"],
    )
    def test_bytes_match_the_per_column_loop_on_fixed_columns(self, first, second):
        # the loop takes the second factor's columns whichever factor has fewer
        gs, gt = FrequencyGrid(12, 9.0), FrequencyGrid(8, 1.3)
        rng = np.random.default_rng(len(first) + 10 * len(second))

        def field(columns):
            c = np.zeros((gt.n_modes, gs.n_modes), complex)
            draws = rng.standard_normal((gt.n_modes, len(columns), 2))
            c[:, list(columns)] = draws[..., 0] + 1j * draws[..., 1]
            return SpaceTimeField(gs, gt, c)

        assert_bytes_match_the_per_column_loop(field(first), field(second), 0.6, 1.4)


def assert_bytes_match_the_per_column_loop(u1, u2, s, alpha):
    """bilinear_I(u1, u2, s) and bilinear_K(u1, u2, alpha) hold the bytes of
    per_column_convolution with their kernels."""
    gs, gt, n_space = u1.space_grid, u1.time_grid, u1.space_grid.n_modes
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
        # no kind reads top_cells: main_bilinear classifies TOP_CELLS cells per sample
        for kind in estimates._KIND_INPUTS:
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
            # a band that is not positive names the default band, or the largest that fits
            ("strichartz", {"band": -1.0}, r"band must be positive, got -1.0: pass band=8.0, say"),
            ("dual_bilinear", {"band": math.nan}, r"band must be positive, got nan: pass band=3.0,"),
            ("main_bilinear", {"band": 0.0}, r"band must be positive, got 0.0: pass band=10.0,"),
            ("bilinear_str", {"band": -math.inf, "resolutions": ((16, 16), (32, 32))},
             r"band must be positive, got -inf: pass band=2.748"),
            # a band below one spacing admits no nonzero mode, and names the spacing
            ("dual_bilinear", {"band": 0.39},
             r"band 0.39 admits no nonzero mode: .* the grid spacing 0.39269908169872414"),
            ("main_bilinear", {"band_fraction": 1 / 28},
             r"band 0.378\d* admits no nonzero mode: .* spacing 0.39269908169872414"),
        ],
        ids=["strichartz", "main_bilinear", "unordered_resolutions", "fraction_0", "fraction_1.2",
             "strichartz_negative", "dual_bilinear_nan", "main_bilinear_zero", "bilinear_str_minus_inf",
             "dual_bilinear_below_spacing", "fraction_below_spacing"],
    )
    def test_band_outside_the_coarsest_grid_rejected_before_compute(
        self, no_free_lifts, kind, inputs, message
    ):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError, match=message):
            estimate_ratio(kind, inputs, p, 0)

    @pytest.mark.parametrize("T", [0.0, -0.5, math.nan, math.inf])
    def test_a_cutoff_that_is_not_positive_is_rejected_before_compute(self, no_free_lifts, T):
        p = EstimateParams.default_admissible(1.5)
        for kind in ("strichartz", "bilinear_str", "dual_bilinear", "main_bilinear"):
            with pytest.raises(ValueError, match=r"T must be positive"):
                estimate_ratio(kind, {"n_samples": 2, "T": T}, p, 0)

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ({"band": 4.0, "band_fraction": 0.7}, r"band and band_fraction are exclusive"),
        ],
        ids=["band_and_band_fraction"],
    )
    def test_main_bilinear_inputs_rejected_before_compute(self, no_free_lifts, inputs, message):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError, match=message):
            estimate_ratio("main_bilinear", {"n_samples": 2, **inputs}, p, 0)

    @pytest.mark.parametrize("key, value, n_time", [
        # the default step, dt = 0.01, has pi/dt = 314.16: band 9.9227 keeps
        # it, while 12^2.5 + 4 = 502.8 needs 8 T 502.8 / pi = 1280.4, so 1284
        ("band", 8.0, 800), ("band", 9.9227, 800), ("band", 12.0, 1284), ("band", 12.4, 1392),
        ("band", 12.468195843934492, 1408),
        # from T = 0.0274 down, phi(8) + 4/T reaches the default count's Nyquist
        ("T", 0.0275, 24), ("T", 0.0274, 24), ("T", 0.004, 16), ("T", 0.001, 12),
    ])
    def test_a_strichartz_centre_past_the_default_tau_nyquist_gets_more_tau_modes(
        self, no_free_lifts, key, value, n_time
    ):
        p = EstimateParams.default_admissible(1.5)
        _, resolutions = estimates._checked_inputs("strichartz", {key: value}, p)
        assert resolutions == [("N=256", 256, n_time), ("N=512", 512, n_time)]

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(1.05, 1.95), T=st.floats(1e-3, 4.0), data=st.data())
    def test_the_strichartz_tau_count_is_the_smallest_that_clears_the_centre(self, alpha, T, data):
        # the rule, checked against the centre-vs-Nyquist inequality itself:
        # the default count n0 wherever the inequality holds at n0, else the
        # smallest multiple of 4 at which it does
        p = EstimateParams(alpha, 0.0, 0.0, 0.6, -0.25)  # only alpha is read
        coarsest = FrequencyGrid(256, 64.0)
        band = data.draw(st.floats(coarsest.spacing, coarsest.largest_band), label="band")
        _, resolutions = estimates._checked_inputs("strichartz", {"band": band, "T": T}, p)
        (n_time,) = {n for _, _, n in resolutions}
        n0 = max(4 * round(2.0 * T / 0.01), 8)
        centre = float(dispersion_symbol(band, alpha)) + 4.0 / T

        def clears(n):
            return centre < math.pi * n / (8.0 * T)

        assert n_time % 4 == 0 and n_time >= n0
        assert clears(n_time)
        assert n_time == n0 or not clears(n_time - 4)
        assert (n_time == n0) == clears(n0)

    def test_a_strichartz_band_past_the_default_tau_nyquist_converges_in_tau(self):
        # band 12 at T = 1 runs on 1284 tau modes; doubling them moves each
        # resolution's sup by under 0.5% (0.15% and 0.17% measured)
        p = EstimateParams.default_admissible(1.5)
        inputs, resolutions = estimates._checked_inputs("strichartz", {"band": 12.0}, p)
        n_time = resolutions[0][2]
        grids = [FrequencyGrid(n, inputs["box_length"]) for _, n, _ in resolutions]
        n_band = grids[0].band_modes(12.0)
        descs = _draw_samples("strichartz", np.random.default_rng(7), 5, n_band, grids[0].spacing)
        sups = []
        for count in (n_time, 2 * n_time):
            lhs, rhs = _strichartz_table(p, grids, inputs["T"], count, descs)
            sups.append(np.max(lhs / rhs, axis=1))
        np.testing.assert_allclose(sups[1], sups[0], rtol=5e-3)

    @pytest.mark.parametrize("resolutions, finest", [((256, 384), 384), ((192, 256, 512), 512),
                                                     ((512, 96), 512)])
    def test_strichartz_resolutions_that_do_not_divide_the_finest_rejected_before_compute(
        self, no_free_lifts, resolutions, finest
    ):
        p = EstimateParams.default_admissible(1.5)
        message = (rf"strichartz resolutions \({', '.join(map(str, resolutions))}\) must each divide "
                   rf"the finest, {finest}, .*: pass resolutions=\({finest // 2}, {finest}\)")
        with pytest.raises(ValueError, match=message):
            estimate_ratio("strichartz", {"n_samples": 2, "resolutions": resolutions}, p, 0)

    def test_a_strichartz_cutoff_off_the_hundredth_grid_runs(self):
        # 2T = 2/3 is no multiple of 0.01: the step nearest 0.01 that divides it is 2T/67
        p = EstimateParams.default_admissible(1.5)
        _, resolutions = estimates._checked_inputs("strichartz", {"T": 1 / 3}, p)
        assert [n_time for _, _, n_time in resolutions] == [268, 268]
        report = estimate_ratio("strichartz", {"n_samples": 2, "T": 1 / 3}, p, 0)
        assert np.isfinite(report.sup_ratio) and report.skipped == 0
        # the defaults, and T = 0.5, keep their tau modes and so their bytes
        _, resolutions = estimates._checked_inputs("strichartz", {}, p)
        assert resolutions == [("N=256", 256, 800), ("N=512", 512, 800)]
        _, resolutions = estimates._checked_inputs("strichartz", {"T": 0.5}, p)
        assert [n_time for _, _, n_time in resolutions] == [400, 400]

    def test_band_at_the_largest_paired_frequency_runs(self):
        p = EstimateParams.default_admissible(1.5)
        grid = FrequencyGrid(32, 16.0)
        inputs = {"n_samples": 2, "resolutions": (32, 64), "box_length": 16.0, "T": 0.5}
        report = estimate_ratio("strichartz", {**inputs, "band": grid.nyquist - grid.spacing}, p, 3)
        assert np.isfinite(report.sup_ratio)

    def test_no_samples_rejected_up_front(self, no_free_lifts):
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError, match=r"n_samples must be positive, got 0"):
            estimate_ratio("strichartz", {"n_samples": 0}, p, 0)

    def test_smoothing_is_no_sampled_kind(self):
        p = EstimateParams.default_admissible(1.5)
        message = r"unknown estimate kind 'smoothing'; .* \(verify-resonance computes the pointwise"
        with pytest.raises(ValueError, match=message):
            estimate_ratio("smoothing", None, p, 0)

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


def slot_layout(cells):
    """An ascending (tau, xi) table in _ProductField's layout, x slots by tau
    slots: numpy's slot s of n ascending modes holds index (s + n/2 - 1) mod n."""
    m, n = cells.shape
    return np.roll(cells, (1 - m // 2, 1 - n // 2), axis=(0, 1)).T.copy()


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
        lam, lam1, lam2 = (
            tau - float(dispersion_symbol(xi, p.alpha))
            for tau, xi in ((tau1 + tau2, xi1 + xi2), (tau1, xi1), (tau2, xi2))
        )
        labels.append(classify_region(xi1, xi2, lam, lam1, lam2))
    return labels


@pytest.mark.parametrize("seed", range(6))
def test_dominant_regions_match_the_full_term_matrix(seed):
    rng = np.random.default_rng(seed)
    n_x, m_t, box, window = 16, 24, 16.0, 0.8
    gs, gt, ext = FrequencyGrid(n_x, box), FrequencyGrid(m_t, window), FrequencyGrid(2 * n_x, box)

    def rand_coeffs(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # a kernel times band-limited coefficients, like real lifts, so some
    # output cells see only zero terms
    band = np.abs(gs.mode_numbers) <= 6
    kernel = rand_coeffs((m_t, n_x))
    coeffs = tuple(rand_coeffs(n_x) * band for _ in range(2))
    lifts = tuple(SpaceTimeField(gs, gt, kernel * c) for c in coeffs)
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

    # main_bilinear's cell table w_out |C|^2, in the product field's layout
    cells = slot_layout(w_out * np.abs(lhs_field.coeffs) ** 2)
    got = estimates._DominantRegions(kernel, gt, gs, p)(cells, *coeffs, top_cells)
    expected = full_matrix_dominant_regions(lhs_field, w_out, lifts, p, top_cells)
    assert len(expected) > 0
    assert sorted(got, key=key) == sorted(expected, key=key)


def block_dominant_terms(cells, lifts, top_cells):
    """The search _DominantRegions.terms replaced, kept as its oracle: for
    each of the top_cells heaviest cells (an exact tie going to the smaller
    flat index), the first argmax of |U1 U2| over the whole block of
    (tau1, xi1) whose partner lies on the lifts' lattice, as sorted
    (output row, output column, row of tau1, column of xi1) tuples."""
    u1, u2 = lifts
    flat = np.lexsort((np.arange(cells.size), -cells.ravel()))[:top_cells]
    n_out, (m_t, n_x) = cells.shape[1], u1.shape
    xi_out = FrequencyGrid(n_out, 1.0).mode_numbers
    u2_rev = u2[::-1, ::-1]
    found = []
    for cell in flat:
        mi, ki = divmod(int(cell), n_out)
        if cells[mi, ki] <= 0.0 or xi_out[ki] == 0:
            continue
        c_t = mi + m_t // 2 - 1
        c_x = ki - (n_out // 2 - 1) + 2 * (n_x // 2 - 1)
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
    return sorted(found)


@functools.cache
def main_bilinear_resolution(n_space, n_time):
    """The per-resolution objects of main_bilinear at alpha = 1.5 and its
    default box and T: the params, the free lifts, the product field, the
    cell weight of the b' weights and the region search."""
    p, grid = EstimateParams.default_admissible(1.5), FrequencyGrid(n_space, 16.0)
    free = _FreeLifts(grid, p, 0.5, n_time)
    product = _ProductField(grid, free.times, free.psi, free.paths, n_time)
    w_out = bourgain_weights(free.time_grid.frequencies, product.ext.frequencies, p, p.b_prime)
    search = _DominantRegions(free.kernel.coeffs, product.time_grid, grid, p)
    return p, free, product, product.cell_weight(w_out), search


def harness_cells(product, weight, u1, u2):
    """A sample's cell table, in the product field's layout, as main_bilinear fills it."""
    return weight * np.square(np.abs(product(u1, u2)))


class TestDominantTerms:
    """The support search of the dominant terms against the block search."""

    @staticmethod
    def found(search, cells, u1, u2, top_cells=TOP_CELLS):
        """The terms search finds for cells, a table in the product field's layout."""
        return sorted(zip(*(a.tolist() for a in search.terms(cells, u1, u2, top_cells))))

    @settings(max_examples=40, deadline=None)
    @given(
        res=st.sampled_from(estimates._KIND_INPUTS["main_bilinear"]["resolutions"]),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.tuples(*[st.sampled_from(["drawn", "drawn", "top", "zero"])] * 2),
        zero_mean=st.booleans(),
        floor=st.sampled_from([_SUPPORT_FLOOR, 1.0]),
    )
    def test_terms_match_the_block_search(self, res, seed, kinds, zero_mean, floor):
        p, free, product, weight, search = main_bilinear_resolution(*res)
        grid, dxi = free.grid, free.grid.spacing
        rng = np.random.default_rng(seed)
        pair = list(_draw_pair(rng, grid.band_modes(10.0), dxi))
        top = grid.n_modes // 2 - 1
        for i, kind in enumerate(kinds):
            if kind != "drawn":
                # a packet at the largest paired carrier reaches the unpaired mode
                pair[i] = _packet_descriptor(rng, top if rng.random() < 0.5 else -top, dxi)
        fields = [_field_from_descriptor(grid, d, zero_mean) for d in pair]
        cells = harness_cells(product, weight, *(u.coeffs for u in fields))
        # a zero factor meets the cells of the field it stands in for, so
        # that the heaviest cells are positive
        u1, u2 = (np.zeros(grid.n_modes, complex) if kind == "zero" else u.coeffs
                  for u, kind in zip(fields, kinds))
        lifts = (free.kernel.coeffs * u1, free.kernel.coeffs * u2)
        expected = block_dominant_terms(product.ascending(cells), lifts, TOP_CELLS)
        # at a first floor of 1 no term clears the first pass's bound, so
        # every cell is settled by the pass at eps = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimates, "_SUPPORT_FLOOR", floor)
            assert self.found(search, cells, u1, u2) == expected
        assert (len(expected) == 0) == ("zero" in kinds)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(8, 8), (24, 16), (10, 12)]),
        seed=st.integers(0, 2**32 - 1),
        top_cells=st.integers(1, 12),
        floor=st.sampled_from([_SUPPORT_FLOOR, 1.0]),
    )
    def test_terms_match_the_block_search_over_generated_cells(self, shape, seed, top_cells, floor):
        # coefficients spread over ten decades with zeros among them, and cells
        # anywhere on the lattice, its edges and corners included, with ties
        rng = np.random.default_rng(seed)
        m_t, n_x = shape
        gs, gt = FrequencyGrid(n_x, 16.0), FrequencyGrid(m_t, 0.8)
        kernel = rng.standard_normal((m_t, n_x)) + 1j * rng.standard_normal((m_t, n_x))
        u1, u2 = (10.0 ** rng.uniform(-10, 0, n_x) * rng.choice([0.0, 1.0, 1j], n_x) for _ in range(2))
        cells = rng.choice([0.0, 1.0, 2.0, 3.0], (m_t, 2 * n_x))
        if rng.random() < 0.5:  # ties broken
            cells *= rng.uniform(1.0, 1.01, cells.shape)
        search = _DominantRegions(kernel, gt, gs, EstimateParams.default_admissible(1.5))
        expected = block_dominant_terms(cells, (kernel * u1, kernel * u2), top_cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimates, "_SUPPORT_FLOOR", floor)
            assert self.found(search, slot_layout(cells), u1, u2, top_cells) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        k=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_top_cells_match_a_full_sort(self, shape, k, seed):
        # small integer values, so that most tables have ties at the k-th cell
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, 4, size=shape).astype(float)
        (rows, cols), k = shape, min(k, cells.size)
        expected = np.lexsort((np.arange(cells.size), -cells.ravel()))[:k].tolist()
        flat = (np.arange(rows) * cols, np.arange(cols))
        assert estimates._top_cells(cells, k, flat).tolist() == expected
        # the same cells transposed, rows and columns permuted, ranked by their flat index above
        perm_r, perm_c = rng.permutation(rows), rng.permutation(cols)
        table = cells[np.ix_(perm_r, perm_c)].T.copy()
        assert estimates._top_cells(table, k, (perm_c, perm_r * cols)).tolist() == expected

    def test_a_cell_off_the_supports_is_settled_by_the_second_pass(self):
        rng = np.random.default_rng(5)
        n_x, m_t = 16, 24
        gs, gt = FrequencyGrid(n_x, 16.0), FrequencyGrid(m_t, 0.8)
        kernel = rng.standard_normal((m_t, n_x)) + 1j * rng.standard_normal((m_t, n_x))
        u1, u2 = np.zeros(n_x, complex), np.zeros(n_x, complex)
        u1[3], u1[6], u2[10] = 1.0, 1e-5, 1.0
        # the output column of lift columns 6 and 10 sees only terms of u1[6],
        # far below the first lift's peak at column 3, so outside its support
        cells = np.zeros((m_t, 2 * n_x))
        cells[m_t // 2, 6 + 10 + 1] = 1.0
        search = _DominantRegions(kernel, gt, gs, EstimateParams.default_admissible(1.5))
        found = self.found(search, slot_layout(cells), u1, u2, top_cells=1)
        assert found == block_dominant_terms(cells, (kernel * u1, kernel * u2), 1)
        ((_, _, r1, q1),) = found
        power = np.abs(kernel) ** 2
        assert q1 == 6
        assert power[r1, q1] * abs(u1[q1]) ** 2 < _SUPPORT_FLOOR**2 * np.max(power * np.abs(u1) ** 2)
        assert len(search(slot_layout(cells), u1, u2, top_cells=1)) == 1

    def test_one_call_settles_cells_in_either_pass_and_leaves_out_zero_ones(self):
        rng = np.random.default_rng(11)
        n_x, m_t = 16, 24
        gs, gt = FrequencyGrid(n_x, 16.0), FrequencyGrid(m_t, 0.8)
        kernel = rng.standard_normal((m_t, n_x)) + 1j * rng.standard_normal((m_t, n_x))
        u1, u2 = np.zeros(n_x, complex), np.zeros(n_x, complex)
        u1[3], u1[6], u2[10] = 1.0, 1e-5, 1.0
        # output column k holds the lift column pairs q1 + q2 = k - 1: 14 only
        # 3 + 10, on the supports; 17 only 6 + 10, far below the first lift's
        # peak; 16 no pair of nonzero coefficients.  Heaviest first: a zero
        # cell, a second-pass cell, a first-pass cell, a second-pass cell, so
        # that the cells left open are not the first ones.
        cells = np.zeros((m_t, 2 * n_x))
        cells[m_t // 2, 16], cells[m_t // 2, 17], cells[4, 14], cells[7, 17] = 4.0, 3.0, 2.0, 1.0
        search = _DominantRegions(kernel, gt, gs, EstimateParams.default_admissible(1.5))
        found = self.found(search, slot_layout(cells), u1, u2, top_cells=4)
        assert found == block_dominant_terms(cells, (kernel * u1, kernel * u2), 4)
        assert [(mi, ki, q1) for mi, ki, _, q1 in found] == [(4, 14, 3), (7, 17, 6), (m_t // 2, 17, 6)]
        # the first-pass term clears the first pass's bound, the others do not
        column_max = np.max(np.abs(kernel) ** 2, axis=0)
        peak1, peak2 = (np.max(column_max * np.abs(u) ** 2) for u in (u1, u2))
        bound = _SUPPORT_FLOOR * math.sqrt(peak1 * peak2) * (1.0 + 1e-6)
        lift1, lift2 = kernel * u1, kernel * u2
        mods = [abs(lift1[r1, q1] * lift2[mi + m_t // 2 - 1 - r1, ki - 1 - q1])
                for mi, ki, r1, q1 in found]
        assert mods[0] > bound > max(mods[1:]) > 0.0
        assert len(search(slot_layout(cells), u1, u2, top_cells=4)) == 3

    @pytest.mark.parametrize("seed, index", [(0, 0), (1, 0), (2, 0), (0, 3)])
    def test_the_working_set_is_about_a_pair_of_lifts(self, seed, index):
        p, free, product, weight, search = main_bilinear_resolution(64, 512)
        grid, kernel = free.grid, free.kernel.coeffs
        rng = np.random.default_rng(seed)
        n_band = grid.band_modes(10.0)
        pair = _draw_samples("main_bilinear", rng, index + 1, n_band, grid.spacing)[index]
        u1, u2 = (_field_from_descriptor(grid, d, p.omega > 0.0).coeffs for d in pair)
        cells = harness_cells(product, weight, u1, u2)
        search.terms(cells, u1, u2)
        tracemalloc.start()
        mi, ki, r1, q1 = search.terms(cells, u1, u2)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        found = sorted(zip(mi.tolist(), ki.tolist(), r1.tolist(), q1.tolist()))
        expected = block_dominant_terms(product.ascending(cells), (kernel * u1, kernel * u2), TOP_CELLS)
        assert found == expected
        (m_t, n_x), n_out = kernel.shape, cells.shape[0]
        column_max = np.max(np.abs(kernel) ** 2, axis=0)
        peak1, peak2 = (np.max(column_max * np.abs(u) ** 2) for u in (u1, u2))
        r2 = mi + m_t // 2 - 1 - r1
        q2 = ki - (n_out // 2 - 1) + 2 * (n_x // 2 - 1) - q1
        mods = np.abs(kernel[r1, q1] * u1[q1] * (kernel[r2, q2] * u2[q2]))
        sure = mods > _SUPPORT_FLOOR * math.sqrt(peak1 * peak2) * (1.0 + 1e-6)
        assert mi.size == TOP_CELLS
        if index == 0:
            # every term clears the first pass's bound, so the call stays on
            # the supports, under a pair of lifts, 1 MiB (0.13-0.49 MB; the
            # whole lattice searched for every cell took 2.7 MB and more)
            assert sure.all() and peak < 2 * kernel.nbytes
        else:
            # every cell goes on to eps = 0, where they go one by one: 1.48 MB,
            # under two pairs of lifts (5.5 MB for the 8 cells as one table)
            assert not sure.any() and peak < 4 * kernel.nbytes

    def test_an_exact_tie_goes_to_the_first_in_row_major_order(self):
        # a kernel of ones: every term of a cell has the same modulus
        n_x, m_t = 8, 8
        gs, gt = FrequencyGrid(n_x, 8.0), FrequencyGrid(m_t, 0.8)
        u = np.zeros(n_x, complex)
        u[2:6] = 1.0
        cells = np.zeros((m_t, 2 * n_x))
        cells[3, 10] = 2.0
        cells[5, 9] = 1.0
        search = _DominantRegions(np.ones((m_t, n_x), complex), gt, gs, EstimateParams.default_admissible(1.5))
        found = self.found(search, slot_layout(cells), u, u)
        assert found == block_dominant_terms(cells, (np.ones((m_t, n_x)) * u,) * 2, TOP_CELLS)
        # the first row with a partner on the lattice, then the first column
        assert found == [(3, 10, 0, 4), (5, 9, 1, 3)]


def ascending_product_field(traj1, traj2, T, n_slots):
    """product_derivative_field through the ascending transforms, each factor
    zero-padded to the doubled grid: the formula that _ProductField's folded
    arithmetic restates, kept as a cross-check.  Returns the coefficients
    and the tau grid."""
    n, box = traj1.grid.n_modes, traj1.grid.box_length
    psi = bump(traj1.times / T)[:, None]

    def physical(c):
        padded = np.zeros((c.shape[0], 2 * n), dtype=complex)
        padded[:, n // 2 : n // 2 + n] = c
        return _inverse_raw(padded, box, axis=1)

    rows = _forward_raw(physical(psi * traj1.coeffs) * physical(psi * traj2.coeffs), box, axis=1)
    coeffs, time_grid = _padded_time_dft(rows, traj1.times, n_slots)
    return coeffs * (1j * FrequencyGrid(2 * n, box).frequencies)[None, :], time_grid


def folded_product_field(psi, paths, factors, box, times, n_slots):
    """_ProductField's folded arithmetic in ascending order, the reference
    whose bytes it keeps: factor i is paths * factors[i] (a row, or a table
    on times) on the samples in the window, under the weight psi paths
    (-1)^k sqrt(2 pi)/L in the doubled grid's modes of the grid, and zero
    in its other modes, where the factor reads its first mode.  numpy's
    unscaled transforms run in slot order, np.roll's shift by N/2 - 1 of
    ascending: the inverse and then the forward one along x, and the
    forward one along tau on axis 0.  Returns the spectrum X and the field
    C = (-1)^m st (-1)^k sx i xi X, ascending, and (sx st xi)^2, with sx and
    st the analysis scales of the doubled grid and the tau grid."""
    n = paths.shape[1]
    time_grid, samples, window = _time_window(times, n_slots, psi)
    xi = FrequencyGrid(2 * n, box).frequencies

    def signs(count):
        k = np.arange(1 - count // 2, count // 2 + 1)
        return np.where(k % 2 == 0, 1.0, -1.0) + 0j

    weight = np.zeros((psi[samples].shape[0], 2 * n), complex)
    weight[:, n // 2 : n // 2 + n] = psi[samples] * paths[samples] * (signs(n) * (math.sqrt(TWO_PI) / box))
    mode = np.zeros(2 * n, int)
    mode[n // 2 : n // 2 + n] = np.arange(n)
    f1, f2 = (np.fft.ifft(np.roll(weight * (u[samples] if u.ndim == 2 else u)[..., mode], 1 - n, axis=-1),
                          norm="forward") for u in factors)
    signal = np.zeros((n_slots, 2 * n), complex)
    signal[window] = np.fft.fft(f1 * f2)
    spectrum = np.roll(np.fft.fft(signal, axis=0), (n_slots // 2 - 1, n - 1), axis=(0, 1))
    sx, st = box / (2 * n * math.sqrt(TWO_PI)), time_grid.box_length / (n_slots * math.sqrt(TWO_PI))
    coeffs = spectrum * np.outer(signs(n_slots) * st, signs(2 * n) * (sx * 1j * xi))
    return spectrum, coeffs, np.square(sx * st * xi)


class TestProductField:
    """main_bilinear's per-resolution product field against the folded
    arithmetic it runs, byte for byte, and against the ascending formula
    it restates, to 1e-13."""

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
    def test_bytes_match_the_folded_formula(self, res, data):
        n_space, n_time = res
        grid = FrequencyGrid(n_space, self.L)
        ones = SpectralField(grid, np.ones(n_space, dtype=complex))
        paths = free_cutoff_trajectory(ones, 1.5, self.T, n_time)
        psi = bump(paths.times / self.T)[:, None]
        p = EstimateParams.default_admissible(1.5)
        product = _ProductField(grid, paths.times, psi, paths.coeffs, n_time)
        w_out = bourgain_weights(product.time_grid.frequencies, product.ext.frequencies, p, p.b_prime)
        weight = product.cell_weight(w_out)
        measure = product.time_grid.spacing * product.ext.spacing
        for _ in range(2):  # sample B after sample A, on one workspace
            u1, u2 = (data.draw(self.factor(grid)) for _ in range(2))
            spectrum, _, scale = folded_product_field(
                psi, paths.coeffs, (u1.coeffs, u2.coeffs), self.L, paths.times, n_time)
            assert product.ascending(product(u1.coeffs, u2.coeffs)).tobytes() == spectrum.tobytes()
            cells = product.ascending(harness_cells(product, weight, u1.coeffs, u2.coeffs))
            assert cells.tobytes() == (w_out * scale * np.square(np.abs(spectrum))).tobytes()
            # the ascending formula's cells and b' norm
            trajs = [Trajectory(grid, paths.times, paths.coeffs * u.coeffs, 1.5) for u in (u1, u2)]
            old, time_grid = ascending_product_field(*trajs, self.T, n_time)
            old_cells = w_out * np.abs(old) ** 2
            assert product.time_grid == time_grid
            assert np.max(np.abs(cells - old_cells)) <= 1e-13 * np.max(old_cells)
            assert math.isclose(math.sqrt(np.sum(cells) * measure), math.sqrt(np.sum(old_cells) * measure),
                                rel_tol=1e-13, abs_tol=0.0)
            # the public one-shot builds a fresh workspace, whose paths are ones
            fresh = product_derivative_field(*trajs, self.T, n_time)
            _, expected, _ = folded_product_field(
                psi, np.ones(paths.coeffs.shape), [t.coeffs for t in trajs], self.L, paths.times, n_time)
            assert fresh.coeffs.tobytes() == expected.tobytes()
            assert (fresh.space_grid, fresh.time_grid) == (product.ext, time_grid)
            assert np.max(np.abs(fresh.coeffs - old)) <= 1e-13 * np.max(np.abs(old))

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
            _ProductField(grid, times, bump(times / self.T)[:, None], np.ones((41, 16)), 16)


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
    if band < grid.spacing:  # 0.39: the band admits no nonzero mode
        with pytest.raises(ValueError, match="admits no nonzero mode"):
            _random_spacetime(np.random.default_rng(0), grid, time_grid, band)
        return
    for seed in range(3):
        v = _random_spacetime(np.random.default_rng(seed), grid, time_grid, band)
        expected = masked_random_spacetime(np.random.default_rng(seed), grid, time_grid, band)
        assert v.coeffs.tobytes() == expected.tobytes()
        assert np.any(expected)


def free_cutoff_trajectory(u0, alpha, T, n_time):
    """Exact free evolution of u0 sampled so that its cutoff lift has n_time
    tau modes, by the full formula exp(i t phi(xi)) over every column: the
    reference whose bytes _FreeLifts keeps."""
    times = _free_cutoff_times(T, n_time)
    phases = np.exp(1j * np.outer(times, dispersion_symbol(u0.grid.frequencies, alpha)))
    return Trajectory(u0.grid, times, phases * u0.coeffs[None, :], alpha)


class TestDrawsWithinTheBand:
    """Every draw of every sampled kind lies within its band on every
    resolution: a shared band's draws, and a band_fraction's, which take
    that fraction of each grid's largest band.  A band that admits no
    nonzero mode of the coarsest grid is rejected before any draw."""

    @staticmethod
    def within(grid, band, desc):
        tol = 1e-9 * grid.spacing
        if desc["family"] == "wave_packet":
            assert 0.0 < abs(desc["carrier"]) <= band + tol
        elif desc["family"] == "random_bandlimited":
            assert desc["modes"].size >= 3  # a nonzero mode
            coeffs = _field_from_descriptor(grid, desc, False).coeffs
            assert np.all(np.abs(grid.frequencies[coeffs != 0.0]) <= band + tol)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["strichartz", "bilinear_str", "dual_bilinear", "main_bilinear"]),
        data=st.data(),
    )
    def test_every_draw_lies_within_the_band(self, kind, data):
        p = EstimateParams.default_admissible(1.5)
        inputs, resolutions = estimates._checked_inputs(kind, {}, p)
        coarsest = FrequencyGrid(min(n for _, n, _ in resolutions), inputs["box_length"])
        top = coarsest.largest_band
        modes = st.integers(1, coarsest.band_modes(top)).map(lambda k: k * coarsest.spacing)
        band = data.draw(st.one_of(st.floats(1e-3, top), modes), label="band")
        inputs = {"n_samples": data.draw(st.integers(1, 20), label="n_samples"), "band": band}
        if kind == "main_bilinear" and data.draw(st.booleans(), label="band_fraction"):
            del inputs["band"]
            inputs["band_fraction"] = fraction = band / top
        seen = []

        def record(p, free, inputs, histogram):
            def sides(desc):
                seen.append((free.grid, desc))
                return 1.0, 1.0

            return sides

        def record_table(p, grids, T, n_time, descs):
            seen.extend((grid, desc) for grid in grids for desc in descs)
            return np.ones((2, len(grids), len(descs)))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimates, "_FreeLifts", lambda grid, *args: SimpleNamespace(grid=grid))
            patch.setitem(estimates._SIDES, kind, record)
            patch.setattr(estimates, "_strichartz_table", record_table)
            if band + 1e-9 * coarsest.spacing < coarsest.spacing:
                with pytest.raises(ValueError, match="admits no nonzero mode"):
                    estimate_ratio(kind, inputs, p, data.draw(st.integers(0, 2**32 - 1)))
                assert not seen
                return
            estimate_ratio(kind, inputs, p, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        assert len(seen) == inputs["n_samples"] * len(resolutions)
        for grid, desc in seen:
            drawn = fraction * grid.largest_band if "band_fraction" in inputs else band
            if kind == "dual_bilinear":
                time_grid = FrequencyGrid(32, 16.0)
                v = _random_spacetime(np.random.default_rng(desc[1]), grid, time_grid, band)
                columns = np.any(v.coeffs != 0.0, axis=0)
                assert np.all(np.abs(grid.frequencies[columns]) <= drawn + 1e-9 * grid.spacing)
                desc = desc[:1]
            for one in [desc] if kind == "strichartz" else desc:
                self.within(grid, drawn, one)


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
        traj = free_cutoff_trajectory(u0, alpha, self.T, n_time)
        return traj, localized_lift(traj, self.T, pad_factor=2.0)

    @pytest.mark.parametrize("grid_index", [0, 1])
    def test_kernel_times_u0_is_the_lift(self, grid_index):
        grid, n_time = self.GRIDS[grid_index]
        p = EstimateParams.default_admissible(1.5)
        free = _FreeLifts(grid, p, self.T, n_time)
        for u0 in self.fields(grid, zero_mean=False):
            traj, lift = self.direct_lift(u0, p.alpha, n_time)
            # the trajectory rows main_bilinear writes into its product field
            assert np.array_equal(free.times, traj.times)
            assert np.array_equal(free.paths * u0.coeffs, traj.coeffs)
            ours = free.lift(u0)
            assert ours.time_grid == lift.time_grid
            err = np.max(np.abs(ours.coeffs - lift.coeffs))
            assert err <= 1e-13 * np.max(np.abs(lift.coeffs))

    @pytest.mark.parametrize("grid_index", [0, 1])
    def test_profile_norm_is_the_restriction_norm(self, grid_index):
        grid, n_time = self.GRIDS[grid_index]
        p = EstimateParams.default_admissible(1.5)
        assert p.omega > 0.0
        at_b_prime = dataclasses.replace(p, b=p.b_prime, admissible=False)
        for params, zero_mean in ((p, True), (at_b_prime, True), (_x_params(p), False)):
            free = _FreeLifts(grid, params, self.T, n_time)
            for u0 in self.fields(grid, zero_mean):
                _, lift = self.direct_lift(u0, p.alpha, n_time)
                expected = bourgain_norm(lift, params)
                assert free.norm(u0) == pytest.approx(expected, rel=1e-12)

    def full_profile(self, grid, p, T, n_time):
        """The kernel and the profile from the tables over all N columns."""
        ones = SpectralField(grid, np.ones(grid.n_modes, complex))
        kernel = localized_lift(free_cutoff_trajectory(ones, p.alpha, T, n_time), T, 2.0)
        w = bourgain_weights(kernel.taus, grid.frequencies, p, p.b)
        measure = kernel.time_grid.spacing * grid.spacing
        return kernel, np.sum(w * np.abs(kernel.coeffs) ** 2, axis=0) * measure

    @settings(max_examples=40, deadline=None)
    @given(
        n_space=st.sampled_from([8, 12, 16, 32, 48]),
        quarter_time=st.integers(2, 24),
        T=st.sampled_from([0.25, 0.5, 1.0, 1.7]),
        alpha=st.floats(1.05, 1.95),
        b=st.floats(0.3, 0.9),
        omega=st.floats(0.01, 0.45),
        box=st.floats(4.0, 40.0),
        seed=st.integers(0, 2**16),
    )
    def test_half_tables_match_the_full_formula(
        self, n_space, quarter_time, T, alpha, b, omega, box, seed
    ):
        # small tau counts put the top columns' energy past the tau Nyquist
        grid, n_time, z = FrequencyGrid(n_space, box), 4 * quarter_time, n_space // 2 - 1
        p = EstimateParams(alpha, -0.2, omega, b, -0.4)
        free = _FreeLifts(grid, p, T, n_time)
        ones = SpectralField(grid, np.ones(n_space, complex))
        paths = free_cutoff_trajectory(ones, p.alpha, T, n_time)
        # the k < 0 columns are the mirror of the k > 0 ones, bit for bit
        assert free.paths.tobytes() == paths.coeffs.tobytes()
        assert free.times.tobytes() == paths.times.tobytes()
        # the t = 0 row is exactly 1 + 0j, where a conjugate would be 1 - 0j
        t0 = free.times.size // 2
        assert free.times[t0] == 0.0
        assert free.paths[t0].tobytes() == np.ones(n_space, complex).tobytes()
        kernel, profile = self.full_profile(grid, p, T, n_time)
        assert free.kernel.coeffs.tobytes() == kernel.coeffs.tobytes()
        assert free.time_grid == kernel.time_grid
        # the profile comes from the real spectrum of the t >= 0 samples, the
        # oracle from the complex transform of all of them: equal to roundoff
        np.testing.assert_allclose(free.profile, profile, rtol=1e-13, atol=0.0)
        column_max = np.max(np.abs(kernel.coeffs), axis=0)
        np.testing.assert_allclose(free.column_max, column_max, rtol=1e-13, atol=0.0)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n_space) + 1j * rng.standard_normal(n_space)
        c[z] = 0.0
        u0 = SpectralField(grid, c)
        lift = localized_lift(free_cutoff_trajectory(u0, p.alpha, T, n_time), T, 2.0)
        assert free.norm(u0) == pytest.approx(bourgain_norm(lift, p), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        quarter_time=st.integers(2, 100),
        n_columns=st.integers(1, 40),
        T=st.floats(0.05, 2.0),
        alpha=st.floats(1.05, 1.95),
        box=st.floats(4.0, 64.0),
    )
    def test_the_real_spectrum_is_the_padded_transform(self, quarter_time, n_columns, T, alpha, box):
        # columns psi(t) e^{i t phi(xi)}, conjugate-even in t, from their t >= 0 samples
        n_time = 4 * quarter_time
        times = _free_cutoff_times(T, n_time)
        xis = TWO_PI * np.arange(n_columns) / box
        rows = bump(times / T)[:, None] * np.exp(1j * np.outer(times, dispersion_symbol(xis, alpha)))
        n = times.size // 2
        real = _even_time_spectrum(np.ascontiguousarray(rows[n:].T), times[1] - times[0], n_time)
        full, _ = _padded_time_dft(rows, times, n_time)
        bound = 1e-14 * np.max(np.abs(full), axis=0)
        assert np.all(np.max(np.abs(np.abs(real.T) - np.abs(full)), axis=0) <= bound)
        assert np.all(np.max(np.abs(real.T - full.real), axis=0) <= bound)

    @pytest.mark.parametrize("res", [(48, 48), (64, 64), (64, 512)])
    def test_the_mirror_takes_the_extra_tau_row(self, res):
        # bilinear_str's and main_bilinear's grids alias their top columns in
        # tau, and there profile(-xi) is far from profile(xi): mirroring the
        # k >= 0 profile without the row tau = -taus[-1] would miss that
        (n_space, n_time), T = res, 0.5
        grid, z = FrequencyGrid(n_space, 16.0), n_space // 2 - 1
        admissible = EstimateParams.default_admissible(1.5)
        for p in (admissible, _x_params(admissible)):
            _, profile = self.full_profile(grid, p, T, n_time)
            pos, neg = profile[z + 1 : 2 * z + 1], profile[z - 1 :: -1]
            assert np.max(np.abs(pos - neg) / pos) > 0.5
            free = _FreeLifts(grid, p, T, n_time)
            np.testing.assert_allclose(free.profile, profile, rtol=1e-13, atol=0.0)

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


class TestStrichartzTable:
    """One synthesis at the finest grid serves every resolution: each
    resolution's left side against the complex path it replaces,
    mixed_lebesgue_norm of the cut free evolution on that grid, and its right
    side against that grid's own _FreeLifts."""

    @staticmethod
    def n_time(ns, L, T):
        inputs = {"resolutions": ns, "box_length": L, "T": T, "band": 1.0}
        _, resolutions = estimates._checked_inputs("strichartz", inputs, EstimateParams.default_admissible(1.5))
        return resolutions[0][2]

    def complex_path(self, p, free, u0):
        gamma = (p.alpha - 1.0) / 4.0
        psi = bump(free.times / free.T)[:, None]
        cut = psi * free.paths * japanese_bracket(free.grid.frequencies) ** gamma * u0.coeffs
        return mixed_lebesgue_norm(Trajectory(free.grid, free.times, cut, p.alpha), 4.0, math.inf)

    @settings(max_examples=12, deadline=None)
    @given(
        # one grid alone draws up to its own largest paired frequency
        box=st.sampled_from([((32, 64), 16.0, 0.5), ((64, 128, 256), 16.0, 0.5),
                             ((256, 512), 64.0, 1.0), ((64,), 16.0, 0.5)]),
        data=st.data(),
    )
    def test_each_resolution_matches_its_own_grid(self, box, data):
        ns, L, T = box
        p = EstimateParams.default_admissible(1.5)
        n_time = self.n_time(ns, L, T)
        grids = [FrequencyGrid(n, L) for n in ns]
        # up to the coarsest grid's largest paired frequency
        n_band = data.draw(st.integers(1, ns[0] // 2 - 1), label="n_band")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        descs = _draw_samples("strichartz", rng, 2, n_band, grids[0].spacing)
        lhs, rhs = _strichartz_table(p, grids, T, n_time, descs)
        for i, grid in enumerate(grids):
            free = _FreeLifts(grid, _x_params(p), T, n_time)
            for j, desc in enumerate(descs):
                u0 = _field_from_descriptor(grid, desc, False)
                assert lhs[i, j] == pytest.approx(self.complex_path(p, free, u0), rel=1e-13, abs=0.0)
                assert rhs[i, j] == free.norm(u0)

    # the band grids of max(8, 2 n_band + 2) modes: at the 8-mode floor
    # (n_band 1 to 3), at the defaults (n_band 40) and at odd sizes
    @pytest.mark.parametrize("ns, L, T", [((32, 64), 16.0, 0.5), ((64, 256), 16.0, 0.5),
                                          ((256, 512), 64.0, 1.0), ((8, 64), 16.0, 0.5),
                                          ((8, 512), 64.0, 1.0), ((82, 512), 64.0, 1.0),
                                          ((82, 256), 64.0, 1.0), ((46, 64), 16.0, 0.5)])
    def test_a_coarse_profile_is_the_middle_of_the_finest(self, ns, L, T):
        p = EstimateParams.default_admissible(1.5)
        n_time = self.n_time(ns[1:], L, T)
        coarse, fine = (_FreeLifts(FrequencyGrid(n, L), _x_params(p), T, n_time) for n in ns)
        lo = fine.grid.zero_index - coarse.grid.zero_index
        cols = slice(lo, lo + coarse.grid.n_modes)
        assert fine.profile[cols].tobytes() == coarse.profile.tobytes()
        assert fine.column_max[cols].tobytes() == coarse.column_max.tobytes()
        # the k >= 0 columns the synthesis table is built from
        assert fine.phases[:, : coarse.phases.shape[1]].tobytes() == coarse.phases.tobytes()

    def test_the_working_set_is_a_few_tables(self):
        # at the defaults (n_band 40, band grid of 82 modes): the phases (401 x
        # 42 complex, 0.27 MB), the synthesis table (401 x 41, 0.26 MB), the
        # zeroed product buffer (401 x 257 complex, 1.6 MB) and the samples
        # (401 x 512 real, 1.6 MB), each allocated once, with the profile
        # built in blocks: a traced peak of 4.7 MB, against 6.8 MB when the
        # free lifts and the table had all 257 columns
        p = EstimateParams.default_admissible(1.5)
        inputs, resolutions = estimates._checked_inputs("strichartz", {"n_samples": 25}, p)
        grids = [FrequencyGrid(n, inputs["box_length"]) for _, n, _ in resolutions]
        n_band = grids[0].band_modes(inputs["band"])
        descs = _draw_samples("strichartz", np.random.default_rng(0), 25, n_band, grids[0].spacing)
        args = (p, grids, inputs["T"], resolutions[0][2], descs)
        _strichartz_table(*args)
        tracemalloc.start()
        try:
            _strichartz_table(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5e6


class TestBilinearStrSides:
    """The left side from the per-resolution pair table against its oracle,
    the L2 norm of bilinear_I of the two lifts."""

    L, T = 16.0, 0.5  # the kind's defaults

    @staticmethod
    def modes(rng, kind, n_band):
        if kind == "real":
            return _draw_band_modes(rng, n_band)
        if kind == "complex":
            draws = rng.standard_normal((2 * n_band + 1, 2))
            return draws[:, 0] + 1j * draws[:, 1]
        return np.zeros(2 * n_band + 1, complex)

    @settings(max_examples=40, deadline=None)
    @given(
        res=st.sampled_from([(32, 32), (48, 48), (64, 64)]),
        kinds=st.tuples(*[st.sampled_from(["real", "complex", "zero"])] * 2),
        data=st.data(),
    )
    def test_matches_bilinear_I_of_the_lifts(self, res, kinds, data):
        (n_space, n_time), p = res, EstimateParams.default_admissible(1.5)
        grid = FrequencyGrid(n_space, self.L)
        free = _FreeLifts(grid, _x_params(p), self.T, n_time)
        sides = _bilinear_str_sides(p, free, {}, None)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # up to the largest paired mode, so the whole sublattice is reached
        n_bands = [data.draw(st.integers(1, n_space // 2 - 1), label="n_band") for _ in kinds]
        pair = [{"family": "random_bandlimited", "modes": self.modes(rng, kind, n_band)}
                for kind, n_band in zip(kinds, n_bands)]
        u1, u2 = (_field_from_descriptor(grid, d, False) for d in pair)
        lhs, rhs = sides(pair)
        expected = bilinear_I(free.lift(u1), free.lift(u2), p.alpha / 2.0).l2_norm()
        if "zero" in kinds:
            assert lhs == 0.0
        assert lhs == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert rhs == free.norm(u1) * free.norm(u2)


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
    def test_sup_ratio_required(self):
        with pytest.raises(TypeError):
            RatioReport("x", 1, 0, (("r", 1.0),), sup_ratio=1.0, inf_ratio=1.0)
        with pytest.raises(TypeError):
            RatioReport("x", 1, 0, (("r", 1.0),))

    def test_trend_nonempty(self):
        with pytest.raises(ValueError):
            RatioReport("x", 1, 0, (), sup_ratio=1.0)

    def test_ratio_finite(self):
        with pytest.raises(ValueError):
            RatioReport("x", 1, 0, (("r", 1.0),), sup_ratio=math.inf)
