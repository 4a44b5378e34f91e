import dataclasses
import math

import numpy as np
import pytest

from fbo_lab import (
    EstimateParams,
    SpectralField,
    Trajectory,
    bourgain_norm,
    bump,
    l2_norm,
    localized_lift,
    make_grid,
    make_test_field,
    mixed_lebesgue_norm,
    propagate,
    sobolev_norm,
)
from fbo_lab.norms import _padded_time_dft, admissible_b_prime_bound, bourgain_weights
from fbo_lab.spectral import _forward_raw, _singular_power, dispersion_symbol, japanese_bracket

TWO_PI = 2.0 * math.pi


def trapezoid_transform(f, t, lams):
    """[np.trapezoid(f * np.exp(-1j * lam * t), t) for lam in lams] for uniformly
    spaced t and lams, as one Bluestein chirp-z sum: with t_k = t_0 + k h and
    lam_j = lam_0 + j d, jk = (j^2 + k^2 - (j - k)^2) / 2 turns the sum over k
    into a convolution with the chirp exp(i d h r^2 / 2), taken by FFT."""
    n_t, n_lam = t.size, lams.size
    h, d = (t[-1] - t[0]) / (n_t - 1), (lams[-1] - lams[0]) / (n_lam - 1)
    weights = np.full(n_t, h)
    weights[[0, -1]] = 0.5 * h
    k, j = np.arange(n_t, dtype=float), np.arange(n_lam, dtype=float)
    theta = d * h
    b = weights * f * np.exp(-1j * (lams[0] * h * k + 0.5 * theta * k**2))
    r = np.arange(-(n_t - 1), n_lam, dtype=float)
    conv = np.fft.ifft(np.fft.fft(b, r.size) * np.fft.fft(np.exp(0.5j * theta * r**2)))
    lam = lams[0] + j * d
    return np.exp(-1j * (lam * t[0] + 0.5 * theta * j**2)) * conv[n_t - 1 :]


def assert_matches_the_quadrature_loop(values, f, t, lams, picks):
    """The chirp-z values against np.trapezoid at the frequencies picks."""
    loop = np.array([np.trapezoid(f * np.exp(-1j * lams[i] * t), t) for i in picks])
    assert np.max(np.abs(values[picks] - loop)) <= 1e-12 * np.max(np.abs(values))


def free_trajectory(u0, alpha, t_span, dt):
    n = int(round(t_span / dt))
    times = np.arange(-n, n + 1) * dt
    phases = np.exp(1j * np.outer(times, dispersion_symbol(u0.grid.frequencies, alpha)))
    return Trajectory(u0.grid, times, phases * u0.coeffs[None, :], alpha)


class TestSobolevNorm:
    def test_omega_zero_is_l2(self):
        g = make_grid(64, 20.0)
        u = make_test_field(g, "random_bandlimited", seed=0, band=5.0)
        assert sobolev_norm(u, 0.0, 0.0) == pytest.approx(l2_norm(u), rel=1e-13)

    def test_cosine_against_quadrature_oracle(self):
        # ||cos(k x)||^2 = (L/2) <k>^(2s+2w) k^(-2w): two modes of squared
        # amplitude L^2/(8 pi) each, times the weight and measure 2 pi / L.
        L, k, s, w = 8.0 * math.pi, 1.25, -0.3, 0.2
        g = make_grid(256, L)
        u = SpectralField(g, np.zeros(256, complex))
        c = np.array(u.coeffs)
        idx = g.zero_index + 5
        assert g.frequencies[idx] == pytest.approx(k)
        c[idx] = L / (2.0 * math.sqrt(TWO_PI))
        c[g.zero_index - 5] = L / (2.0 * math.sqrt(TWO_PI))
        u = SpectralField(g, c)
        oracle = math.sqrt((L / 2.0) * (1 + k * k) ** (s + w) * k ** (-2 * w))
        assert sobolev_norm(u, s, w) == pytest.approx(oracle, rel=1e-12)

    def test_nonzero_mean_rejected_for_positive_omega(self):
        g = make_grid(64, 20.0)
        u = make_test_field(g, "gaussian")
        with pytest.raises(ValueError):
            sobolev_norm(u, 0.0, 0.1)

    def test_omega_out_of_range(self):
        g = make_grid(64, 20.0)
        u = make_test_field(g, "gaussian", zero_mean=True)
        for bad in (-0.1, 0.5, 0.7):
            with pytest.raises(ValueError):
                sobolev_norm(u, 0.0, bad)

    def test_bessel_multiplier_route_agrees(self):
        g = make_grid(128, 30.0)
        u = make_test_field(g, "random_bandlimited", seed=1, band=8.0)
        direct = sobolev_norm(u, 0.8, 0.0)
        via = l2_norm(SpectralField(g, japanese_bracket(g.frequencies) ** 0.8 * u.coeffs))
        assert via == pytest.approx(direct, rel=1e-12)


class TestEstimateParams:
    def test_default_admissible_at_three_halves(self):
        p = EstimateParams.default_admissible(1.5)
        assert p.omega == pytest.approx(1.0 / 6.0)
        assert p.s == pytest.approx(-0.275)
        assert p.b_prime == pytest.approx(-0.5 + 0.1 / 3.0)
        assert p.b == pytest.approx(0.52)
        assert p.admissible

    def test_b_prime_bound_binding_constraints(self):
        # within the admissible epsilon range the -1/2+eps/3 branch binds
        assert admissible_b_prime_bound(1.5, 0.1) == pytest.approx(-0.5 + 0.1 / 3.0)
        assert admissible_b_prime_bound(1.1, 0.02) == pytest.approx(-0.5 + 0.02 / 3.0)
        # with eps pushed far beyond its admissible ceiling other branches win
        assert admissible_b_prime_bound(1.5, 0.9) == pytest.approx(-0.5 + 0.375 - 0.9)

    def test_omega_must_match_when_admissible(self):
        with pytest.raises(ValueError):
            EstimateParams(1.5, -0.2, 0.2, 0.52, -0.4, 0.1, admissible=True)

    def test_s_floor_enforced(self):
        with pytest.raises(ValueError):
            EstimateParams(1.5, -0.5, 1 / 6, 0.52, -0.4667, 0.1, admissible=True)

    def test_b_window(self):
        with pytest.raises(ValueError):
            EstimateParams(1.5, -0.2, 1 / 6, 0.6, -0.4667, 0.1, admissible=True)
        with pytest.raises(ValueError):
            EstimateParams(1.5, -0.2, 1 / 6, 0.5, -0.4667, 0.1, admissible=True)

    def test_given_exponents_kept_and_s_below_floor_not_admissible(self):
        p = EstimateParams.default_admissible(1.5, s=-0.5, b_prime=-0.48)
        assert (p.s, p.b_prime) == (-0.5, -0.48)
        assert p.b == pytest.approx(0.5 + 0.6 * 0.02)
        assert not p.admissible

    def test_non_admissible_allows_free_exponents(self):
        p = EstimateParams(1.5, -2.0, 0.0, -0.52, -0.9, 0.0)
        assert p.b == -0.52

    def test_omega_range_always_checked(self):
        with pytest.raises(ValueError):
            EstimateParams(1.5, 0.0, 0.6, 0.52, -0.25, 0.0)

    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_defaults_admissible_across_alpha(self, alpha):
        p = EstimateParams.default_admissible(alpha, epsilon=(alpha - 1.0) / 8.0)
        assert 0.5 < p.b < p.b_prime + 1.0
        assert p.b_prime <= min(-0.25, -p.omega) + 1e-12


class TestLocalizedLift:
    def test_zero_trajectory_lifts_to_zero(self):
        g = make_grid(32, 10.0)
        times = np.linspace(-2.0, 2.0, 81)
        traj = Trajectory(g, times, np.zeros((81, 32), complex), 1.5)
        U = localized_lift(traj, 1.0)
        assert np.max(np.abs(U.coeffs)) == 0.0

    def test_constant_mode_gives_bump_transform(self):
        # oracle: independent quadrature of the cutoff's time transform
        g = make_grid(32, 10.0)
        T, dt = 1.0, 0.01
        n = int(round(2 * T / dt))
        times = np.arange(-n, n + 1) * dt
        coeffs = np.zeros((times.size, 32), complex)
        mode = g.zero_index + 3
        coeffs[:, mode] = 1.0
        traj = Trajectory(g, times, coeffs, 1.5)
        U = localized_lift(traj, T)
        tf = np.linspace(-2 * T, 2 * T, 40001)
        psi = bump(tf / T)
        taus = U.taus
        transform = trapezoid_transform(psi, tf, taus)
        assert_matches_the_quadrature_loop(transform, psi, tf, taus, [0, 517, 800, 1203, -1])
        oracle = transform / math.sqrt(TWO_PI)
        peak = np.max(np.abs(oracle))
        assert np.max(np.abs(U.coeffs[:, mode] - oracle)) <= 1e-7 * peak
        other = np.delete(U.coeffs, mode, axis=1)
        assert np.max(np.abs(other)) == 0.0

    def test_padding_doubling_changes_norms_below_threshold(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=5, band=3.0)
        traj = free_trajectory(u0, 1.5, 2.0, 0.02)
        p0 = EstimateParams(1.5, 0.0, 0.0, 0.52, -0.25, 0.0)
        n_default = bourgain_norm(localized_lift(traj, 1.0), p0)
        n_doubled = bourgain_norm(localized_lift(traj, 1.0, pad_factor=8.0), p0)
        assert abs(n_doubled - n_default) / n_default < 1e-6

    def test_padding_invariance_is_exact_at_flat_weights(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=6, band=3.0)
        traj = free_trajectory(u0, 1.5, 2.0, 0.02)
        flat = EstimateParams(1.5, 0.0, 0.0, 0.0, -0.25, 0.0)
        a = bourgain_norm(localized_lift(traj, 1.0, pad_factor=2.0), flat, b=0.0)
        b = bourgain_norm(localized_lift(traj, 1.0, pad_factor=4.0), flat, b=0.0)
        assert a == pytest.approx(b, rel=1e-13)

    def test_window_too_short_rejected(self):
        g = make_grid(32, 10.0)
        times = np.linspace(-1.0, 1.0, 41)
        traj = Trajectory(g, times, np.zeros((41, 32), complex), 1.5)
        with pytest.raises(ValueError):
            localized_lift(traj, 1.0)

    def test_padded_time_dft_places_samples_and_rejects_overflow(self):
        dt = 0.05
        times = np.arange(-20, 21) * dt
        rows = np.zeros((41, 3), complex)
        rows[15:26] = np.random.default_rng(0).standard_normal((11, 3))  # |t| <= 0.25
        coeffs, time_grid = _padded_time_dft(rows, times, 16)  # slots t = -0.4 .. 0.35
        signal = np.zeros((16, 3), complex)
        for i, t in enumerate(times):
            j = 8 + int(round(t / dt))
            if 0 <= j < 16:
                signal[j] = rows[i]
        assert time_grid.box_length == pytest.approx(16 * dt)
        assert np.array_equal(coeffs, _forward_raw(signal, time_grid.box_length, axis=0))
        for outside in (0, 40):
            bad = rows.copy()
            bad[outside, 1] = 1.0
            with pytest.raises(ValueError, match="beyond the padded window"):
                _padded_time_dft(bad, times, 16)

    def test_pad_factor_floor(self):
        g = make_grid(32, 10.0)
        times = np.linspace(-2.0, 2.0, 81)
        traj = Trajectory(g, times, np.zeros((81, 32), complex), 1.5)
        with pytest.raises(ValueError):
            localized_lift(traj, 1.0, pad_factor=1.5)


class TestBourgainNorm:
    def test_flat_weights_give_spacetime_l2(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=7, band=3.0)
        traj = free_trajectory(u0, 1.5, 2.0, 0.02)
        U = localized_lift(traj, 1.0)
        flat = EstimateParams(1.5, 0.0, 0.0, 0.0, -0.25, 0.0)
        assert bourgain_norm(U, flat, b=0.0) == pytest.approx(U.l2_norm(), rel=1e-13)
        # and Parseval ties that to the time-domain mixed (2,2) norm
        psi = bump(traj.times / 1.0)[:, None]
        cut = Trajectory(g, traj.times, psi * traj.coeffs, 1.5)
        assert U.l2_norm() == pytest.approx(
            mixed_lebesgue_norm(cut, 2.0, 2.0), rel=1e-12
        )

    def test_characteristic_concentration_b_insensitivity(self):
        # a lifted free solution sits on tau = xi|xi|^alpha up to the cutoff
        # bandwidth; the b-dependence is then governed by the 1-D profile
        # integral of the cutoff transform, computed here independently.
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=8, band=3.0)
        T = 1.0
        traj = free_trajectory(u0, 1.5, 2.0, 0.01)
        U = localized_lift(traj, T)
        p0 = EstimateParams(1.5, 0.0, 0.0, 0.52, -0.25, 0.0)
        ratio = bourgain_norm(U, p0, b=0.52) / bourgain_norm(U, p0, b=0.0)
        tf = np.linspace(-2 * T, 2 * T, 20001)
        psi = bump(tf / T)
        lam = np.linspace(-60.0, 60.0, 4001)
        transform = trapezoid_transform(psi, tf, lam)
        assert_matches_the_quadrature_loop(transform, psi, tf, lam, [0, 1377, 2000, 3999])
        prof = np.abs(transform)
        oracle = math.sqrt(
            np.trapezoid((1 + lam**2) ** 0.52 * prof**2, lam)
            / np.trapezoid(prof**2, lam)
        )
        assert ratio == pytest.approx(oracle, rel=5e-3)

    def test_homogeneity(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=9, band=3.0)
        traj = free_trajectory(u0, 1.5, 2.0, 0.02)
        U = localized_lift(traj, 1.0)
        p = dataclasses.replace(EstimateParams.default_admissible(1.5), omega=0.0, admissible=False)
        doubled = type(U)(U.space_grid, U.time_grid, 2.0 * np.asarray(U.coeffs))
        assert bourgain_norm(doubled, p) == pytest.approx(
            2.0 * bourgain_norm(U, p), rel=1e-13
        )

    def test_monotone_in_b_and_s(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=10, band=3.0)
        traj = free_trajectory(u0, 1.5, 2.0, 0.02)
        U = localized_lift(traj, 1.0)
        base = EstimateParams(1.5, 0.0, 0.0, 0.3, -0.25, 0.0)
        assert bourgain_norm(U, base, b=0.4) >= bourgain_norm(U, base, b=0.3)
        hi_s = dataclasses.replace(base, s=0.5)
        assert bourgain_norm(U, hi_s) >= bourgain_norm(U, base)

    def test_translation_invariance(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=11, band=3.0)
        shift = np.exp(-1j * g.frequencies * 2.345)
        u0s = SpectralField(g, u0.coeffs * shift)
        p = dataclasses.replace(EstimateParams.default_admissible(1.5), omega=0.0, admissible=False)
        norms = []
        for field in (u0, u0s):
            traj = free_trajectory(field, 1.5, 2.0, 0.02)
            norms.append(bourgain_norm(localized_lift(traj, 1.0), p))
        assert norms[0] == pytest.approx(norms[1], rel=1e-12)

    @pytest.mark.parametrize("omega", [0.0, 1.0 / 6.0])
    def test_weights_are_the_bytes_of_the_full_formula(self, omega):
        # at omega = 0 the <|tau| + |xi|^(1+a)>^(2 omega) factor is skipped:
        # it is exactly 1, and w * 1.0 is w
        taus = make_grid(96, 7.0).frequencies
        xis = make_grid(64, 16.0).frequencies
        p = EstimateParams(1.5, -0.275, omega, 0.52, -0.4, 0.0)
        for b in (p.b, p.b_prime):
            tau, xi = taus[:, None], xis[None, :]
            sigma = np.abs(tau) + np.abs(xi) ** (1.0 + p.alpha)
            w = japanese_bracket(xi) ** (2.0 * p.s - 2.0 * p.alpha * omega)
            w = w * japanese_bracket(sigma) ** (2.0 * omega)
            w = w * japanese_bracket(tau - dispersion_symbol(xi, p.alpha)) ** (2.0 * b)
            if omega > 0.0:
                w = w * _singular_power(xi, -2.0 * omega)
            assert bourgain_weights(taus, xis, p, b).tobytes() == w.tobytes()

    def test_zero_mode_check_with_positive_omega(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian")  # nonzero mean
        traj = free_trajectory(u0, 1.5, 2.0, 0.02)
        U = localized_lift(traj, 1.0)
        p = EstimateParams.default_admissible(1.5)
        with pytest.raises(ValueError):
            bourgain_norm(U, p)


class TestMixedLebesgue:
    def test_two_two_is_spacetime_l2(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=12, band=3.0)
        traj = free_trajectory(u0, 1.5, 1.0, 0.01)
        # unitary flow: ||u(t)||_L2 constant, so L2_t L2_x = sqrt(2 t_span)*||u0||
        expected = math.sqrt(2.0) * l2_norm(u0)
        assert mixed_lebesgue_norm(traj, 2.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_constant_in_time_p4_window_factor(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian")
        times = np.linspace(-1.0, 1.0, 201)
        traj = Trajectory(g, times, np.tile(u0.coeffs, (201, 1)), 1.5)
        q = 2.0
        expected = 2.0 ** 0.25 * l2_norm(u0)
        assert mixed_lebesgue_norm(traj, 4.0, q) == pytest.approx(expected, rel=1e-12)

    def test_sup_norm_of_cosine(self):
        g = make_grid(64, TWO_PI)
        u0 = SpectralField(
            g,
            np.eye(64, dtype=complex)[g.zero_index + 1] * g.box_length
            / (2 * math.sqrt(TWO_PI)),
        )
        c = np.array(u0.coeffs)
        c[g.zero_index - 1] = c[g.zero_index + 1]
        u0 = SpectralField(g, c)  # cos(x)
        times = np.linspace(-1.0, 1.0, 11)
        traj = Trajectory(g, times, np.tile(u0.coeffs, (11, 1)), 1.5)
        assert mixed_lebesgue_norm(traj, math.inf, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_exponent_validation(self):
        g = make_grid(64, 16.0)
        traj = Trajectory(g, np.linspace(-1, 1, 11), np.zeros((11, 64), complex), 1.5)
        with pytest.raises(ValueError):
            mixed_lebesgue_norm(traj, 0.5, 2.0)
        with pytest.raises(ValueError):
            mixed_lebesgue_norm(traj, 2.0, 0.0)
