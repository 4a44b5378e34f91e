import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbo_lab import (
    SpectralField,
    Trajectory,
    apriori_check,
    l2_drift,
    make_grid,
    make_test_field,
    propagate,
    solve_reference,
    sobolev_norm,
)
from fbo_lab.evolution import _BLOCK_ROWS


class TestL2Drift:
    def test_zero_trajectory(self):
        g = make_grid(32, 8.0)
        traj = Trajectory(g, np.linspace(-1, 1, 21), np.zeros((21, 32), complex), 1.5)
        assert l2_drift(traj) == 0.0

    def test_nonlinear_run_at_default_resolution(self):
        g = make_grid(256, 64.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.5)
        traj = solve_reference(u0, 1.0, 1e-3, 1.5)
        assert l2_drift(traj) <= 1e-6

    def test_invariance_under_translation_and_sign_flip(self):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.4)
        shift = np.exp(-1j * g.frequencies * 3.1)
        variants = [
            SpectralField(g, u0.coeffs * shift),
            SpectralField(g, -u0.coeffs),
        ]
        base = l2_drift(solve_reference(u0, 0.2, 2e-3, 1.5))
        for v in variants:
            d = l2_drift(solve_reference(v, 0.2, 2e-3, 1.5))
            assert d == pytest.approx(base, abs=1e-12)


class TestAprioriCheck:
    def test_zero_data_convention(self):
        g = make_grid(32, 8.0)
        traj = Trajectory(g, np.linspace(-1, 1, 21), np.zeros((21, 32), complex), 1.5)
        rep = apriori_check(traj, 1.0 / 6.0)
        assert rep.fitted_C == 0.0
        assert rep.sup_norm == 0.0

    def test_small_T_limit_approaches_one(self):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=1.0, zero_mean=True)
        traj = solve_reference(u0, 0.01, 1e-3, 1.5)
        rep = apriori_check(traj, 1.0 / 6.0)
        expected = rep.sup_norm / (rep.initial_norm * (1.0 + 0.01 * rep.initial_norm))
        assert rep.fitted_C == pytest.approx(expected, rel=1e-12)
        assert rep.fitted_C == pytest.approx(1.0, abs=0.05)

    def test_fitted_c_non_increasing_with_resolution(self):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=1.0, zero_mean=True)
        coarse = apriori_check(solve_reference(u0, 0.5, 0.05, 1.5), 1.0 / 6.0)
        fine = apriori_check(solve_reference(u0, 0.5, 0.005, 1.5), 1.0 / 6.0)
        assert fine.fitted_C <= coarse.fitted_C + 1e-12

    def test_report_floor_invariant(self):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.8, zero_mean=True)
        traj = solve_reference(u0, 0.3, 2e-3, 1.5)
        rep = apriori_check(traj, 1.0 / 6.0)
        floor = rep.sup_norm / (rep.initial_norm + rep.T * rep.initial_norm**2)
        assert rep.fitted_C >= floor - 1e-12


def _field_rows(grid, family, seed, amplitude, n_times, i0, omega):
    """A trajectory of n_times states with t = 0 at row i0: the data freely
    propagated and rescaled row by row, mean-zero where omega > 0 needs it."""
    band = 0.5 * grid.nyquist if family == "random_bandlimited" else None
    u0 = make_test_field(
        grid, family, seed=seed, amplitude=amplitude, band=band, zero_mean=omega > 0.0
    )
    dt = 0.01
    times = (np.arange(n_times) - i0) * dt
    rows = [
        (1.0 + 0.5 * np.sin(7.0 * t)) * propagate(u0, t, 1.5).coeffs for t in times
    ]
    return Trajectory(grid, times, np.array(rows), 1.5)


class TestBatchedApriori:
    """apriori_check takes the states in blocks of rows; it must give what a
    loop over the states with sobolev_norm gives."""

    @pytest.mark.parametrize(
        "n_times", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5]
    )
    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "random_bandlimited"]),
        seed=st.integers(0, 2**16),
        amplitude=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
        omega=st.sampled_from([0.0, 1.0 / 6.0, 0.3]),
        i0_frac=st.floats(0.0, 1.0),
    )
    def test_matches_per_state_loop(self, n_times, family, seed, amplitude, omega, i0_frac):
        g = make_grid(64, 16.0)
        i0 = min(n_times - 1, int(i0_frac * n_times))
        traj = _field_rows(g, family, seed, amplitude, n_times, i0, omega)
        norms = [sobolev_norm(traj.state(i), 0.0, omega) for i in range(n_times)]
        rep = apriori_check(traj, omega)
        # the same arithmetic row by row; a reduction over the rows of a block
        # may still group its sum apart from a 1-D one, so 4.5 ulp are allowed
        assert rep.sup_norm == pytest.approx(max(norms), rel=1e-15, abs=0.0)
        assert rep.initial_norm == pytest.approx(norms[i0], rel=1e-15, abs=0.0)
        initial = norms[i0]
        if amplitude == 0.0:
            assert rep.sup_norm == rep.fitted_C == 0.0
        else:
            expected = max(norms) / (initial + rep.T * initial**2)
            assert rep.fitted_C == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_mean_zero_check_names_first_offending_state(self):
        g = make_grid(64, 16.0)
        n_times = 2 * _BLOCK_ROWS + 5
        traj = _field_rows(g, "gaussian", 0, 1.0, n_times, n_times // 2, 1.0 / 6.0)
        bad = _BLOCK_ROWS + 7  # inside the second block
        coeffs = np.array(traj.coeffs)
        for i in (bad, bad + 20):
            coeffs[i, g.zero_index] = 1e-3 * (i - bad + 1)
        traj = Trajectory(g, traj.times, coeffs, 1.5)
        assert apriori_check(traj, 0.0).sup_norm > 0.0  # omega = 0 needs no mean zero
        with pytest.raises(ValueError) as per_state:
            sobolev_norm(traj.state(bad), 0.0, 1.0 / 6.0)
        with pytest.raises(ValueError) as batched:
            apriori_check(traj, 1.0 / 6.0)
        assert str(batched.value) == f"{per_state.value} at state {bad}"
        assert "zero-mode amplitude is 1.000e-03" in str(batched.value)
