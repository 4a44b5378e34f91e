import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbo_lab import (
    BlowUpError,
    SpectralField,
    SpaceTimeField,
    Trajectory,
    duhamel_apply,
    export_trajectory_binary,
    export_trajectory_csv,
    forward_transform,
    inverse_transform,
    l2_norm,
    load_trajectory_binary,
    make_grid,
    make_test_field,
    nonlinearity,
    picard_solve,
    propagate,
    solve_reference,
)
from fbo_lab.conservation import apriori_check, l2_drift
from fbo_lab import evolution
from fbo_lab.evolution import (
    _BLOCK_ROWS,
    _dealias_mask,
    _etdrk4_coeffs,
    _half_kernel,
    _nonlinearity_raw,
    retained_mode_indices,
)
from fbo_lab.spectral import _forward_raw, _inverse_raw, _l2_raw, bump, dispersion_symbol
from realdata import hermitian_error, real_fields

TWO_PI = 2.0 * math.pi


def _transform_pair_nonlinearity(c, grid):
    """-(1/2) d/dx (u^2) in ascending mode order through the package's
    transform pair, the square of the masked field masked again."""
    mask = _dealias_mask(grid)
    samples = _inverse_raw(np.where(mask, c, 0.0), grid.box_length)
    squared = np.where(mask, _forward_raw(samples * samples, grid.box_length), 0.0)
    return -0.5j * grid.frequencies * squared


def _reference_weights(grid):
    """The kernel's two weights on the k >= 0 modes k = 0..N/2:
    w_in = (-1)^k sqrt(2 pi)/L * mask, w_out = (-1)^k L/(N sqrt(2 pi)) (-(i/2) xi) mask."""
    n, box, z = grid.n_modes, grid.box_length, grid.zero_index
    mask = _dealias_mask(grid)[z:]
    signs = (-1.0) ** np.arange(n // 2 + 1) + 0j
    w_in = signs * (math.sqrt(TWO_PI) / box) * mask
    w_out = signs * (box / (n * math.sqrt(TWO_PI))) * (-0.5j * grid.frequencies[z:]) * mask
    return w_in, w_out


def _reference_half(h, grid, w_out=None):
    """The kernel's result on the k >= 0 modes h of real fields, numpy's rfft
    bins: numpy's unscaled inverse real transform of h w_in on N points,
    squared, transformed forward and times w_out, by default the weight that
    gives -(1/2) d/dx (u^2)."""
    w_in, plain = _reference_weights(grid)
    w_out = plain if w_out is None else w_out
    samples = np.fft.irfft(h * w_in, n=grid.n_modes, norm="forward")
    return np.fft.rfft(samples * samples) * w_out


def _real_rows(h):
    """Ascending rows of the real fields whose k >= 0 modes are h: the k < 0
    modes the conjugates of the k > 0 ones, the unpaired mode N/2 its real part."""
    h = np.array(h)
    h[..., -1] = h[..., -1].real
    return np.concatenate([np.conj(h[..., -2:0:-1]), h], axis=-1)


def _reference_nonlinearity(c, grid):
    """-(1/2) d/dx (u^2) of ascending rows of real fields, by the half-spectrum formula."""
    return _real_rows(_reference_half(c[..., grid.zero_index :], grid))


def _reference_split_step(h, grid, dt, half):
    """half * rk4(half * h) with stages k' = (dt/2) N(u), a weight of (dt/2) w_out."""
    w = (0.5 * dt) * _reference_weights(grid)[1]
    h = half * h
    k0 = _reference_half(h, grid, w)
    k1 = _reference_half(h + k0, grid, w)
    k2 = _reference_half(h + k1, grid, w)
    k3 = _reference_half(h + 2.0 * k2, grid, w)
    return half * (h + (k0 + 2.0 * k1 + 2.0 * k2 + k3) / 3.0)


class TestNonlinearity:
    def test_constant_field_maps_to_zero(self):
        g = make_grid(32, 9.0)
        u = forward_transform(np.full(32, 1.7), g)
        out = nonlinearity(u)
        assert np.max(np.abs(out.coeffs)) <= 1e-14

    def test_cosine_identity(self):
        g = make_grid(64, TWO_PI)
        u = forward_transform(np.cos(g.nodes()), g)
        out = inverse_transform(nonlinearity(u))
        assert np.max(np.abs(out.real - 0.5 * np.sin(2 * g.nodes()))) <= 1e-13
        assert np.max(np.abs(out.imag)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(u0=real_fields())
    def test_reality_preserved(self, u0):
        assert hermitian_error(u0.coeffs) <= 1e-12
        # Relative to a bound on every coefficient of -(1/2) d/dx (u^2), as
        # |(u^2)^(xi)| <= (2 pi)^(-1/2) ||u||^2: the dealiasing leaves only
        # roundoff of a packet near the Nyquist, so its own size is no scale.
        bound = 0.5 * u0.grid.nyquist * l2_norm(u0) ** 2 / math.sqrt(2.0 * math.pi)
        assert hermitian_error(nonlinearity(u0).coeffs, bound) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        n_modes=st.sampled_from([10, 30, 64, 256]),
        rows=st.sampled_from([None, 1, 3]),
        data=st.data(),
    )
    def test_byte_equal_to_ascending_formula(self, n_modes, rows, data):
        # the half-spectrum kernel must give the half-spectrum formula's bytes,
        # signed zeros included, for one real field and for rows of them
        g = make_grid(n_modes, 11.0)
        shape = (n_modes // 2 + 1, 2) if rows is None else (rows, n_modes // 2 + 1, 2)
        parts = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
        parts[..., 0, 1] = 0.0  # a real zero mode
        c = _real_rows(parts.view(complex)[..., 0])  # Hermitian, signed zeros kept
        got, want = _nonlinearity_raw(c, g), _reference_nonlinearity(c, g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if rows is None:
            assert nonlinearity(SpectralField(g, c)).coeffs.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n_modes=st.sampled_from([10, 30, 64, 256]),
        rows=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_matches_the_transform_pair_formula(self, n_modes, rows, data):
        # rows of the coefficients of real samples, against the complex
        # transform pair.  The tolerance is relative to the bound of
        # test_reality_preserved, row by row.
        g = make_grid(n_modes, 11.0)
        samples = data.draw(arrays(np.float64, (rows, n_modes), elements=st.floats(-1e3, 1e3)))
        c = _forward_raw(samples, g.box_length)
        bound = 0.5 * g.nyquist * _l2_raw(c, g.spacing) ** 2 / math.sqrt(2.0 * math.pi)
        err = np.max(np.abs(_nonlinearity_raw(c, g) - _transform_pair_nonlinearity(c, g)), axis=-1)
        assert np.all(err <= 1e-13 * bound)

    def test_value_that_is_not_finite_in_a_dropped_mode_gives_nan(self):
        # the mask multiplies by 0, and inf * 0 is nan, which the transform spreads
        g = make_grid(32, 8.0)
        c = make_test_field(g, "gaussian", amplitude=0.2).coeffs.copy()
        c[np.flatnonzero(~_dealias_mask(g) & (g.mode_numbers > 0))[0]] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.all(np.isnan(_nonlinearity_raw(c, g)))


def _solitary_wave(grid, alpha, c=1.0):
    """Q^ of the solitary wave u(t, x) = Q(x - ct) of the dealiased flow:
    (c + |xi|^alpha) Q^ = (1/2) P (Q^2)^, P the 2/3 mask, by Petviashvili's
    iteration from 2c exp(-x^2), each iterate taken real in physical space
    (else it drifts complex and does not converge), to 1e-14 relative change.
    Returns Q^ and its residual relative to max|Q^|."""
    mask, symbol = _dealias_mask(grid), c + np.abs(grid.frequencies) ** alpha

    def half_square(q):
        return np.where(mask, 0.5 * _forward_raw(q * q + 0j, grid.box_length), 0.0)

    q = 2.0 * c * np.exp(-grid.nodes() ** 2)
    for _ in range(200):
        coeffs, square = _forward_raw(q + 0j, grid.box_length), half_square(q)
        stabiliser = np.vdot(coeffs, symbol * coeffs).real / np.vdot(coeffs, square).real
        new = _inverse_raw(stabiliser**2 * square / symbol, grid.box_length).real
        change = np.max(np.abs(new - q)) / np.max(np.abs(q))
        q = new
        if change < 1e-14:
            break
    coeffs = _forward_raw(q + 0j, grid.box_length)
    return coeffs, np.max(np.abs(symbol * coeffs - half_square(q))) / np.max(np.abs(coeffs))


class TestSolveReference:
    def test_zero_data_zero_trajectory(self):
        g = make_grid(64, 16.0)
        u0 = SpectralField(g, np.zeros(64, complex))
        traj = solve_reference(u0, 0.3, 0.01, 1.5)
        assert np.max(np.abs(traj.coeffs)) == 0.0
        assert traj.times[0] == pytest.approx(-0.3)
        assert traj.times[-1] == pytest.approx(0.3)

    @pytest.mark.parametrize("scheme", ["split_step", "exponential_integrator"])
    def test_self_convergence(self, scheme):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.5)
        fine = solve_reference(u0, 0.25, 1e-4, 1.5, scheme=scheme).coeffs[-1]
        errs = []
        for dt in (4e-3, 2e-3):
            traj = solve_reference(u0, 0.25, dt, 1.5, scheme=scheme)
            errs.append(np.max(np.abs(traj.coeffs[-1] - fine)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9  # Strang is 2; the exponential scheme is higher

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_solitary_wave_oracle_gives_each_scheme_its_order(self, alpha):
        # the exact solution Q^ e^(-i xi t) at t = +-1, c = 1, against each
        # scheme at dt = 2e-2 and 1e-2: Strang splitting is second order and
        # ETDRK4 fourth (measured 2.00-2.04 and 4.00-4.01); 256 modes on this
        # box would trip the CFL warning at dt = 2e-2
        grid = make_grid(128, 32.0)
        coeffs, residual = _solitary_wave(grid, alpha)
        assert residual <= 1e-13
        exact = [coeffs * np.exp(-1j * grid.frequencies * t) for t in (-1.0, 1.0)]
        for scheme, (low, high) in (("split_step", (1.9, 2.1)), ("exponential_integrator", (3.8, 4.2))):
            errs = []
            for dt in (2e-2, 1e-2):
                states = solve_reference(SpectralField(grid, coeffs), 1.0, dt, alpha, scheme=scheme).coeffs
                errs.append(max(np.max(np.abs(states[i] - e)) for i, e in zip((0, -1), exact)))
            assert low <= math.log2(errs[0] / errs[1]) <= high

    @settings(max_examples=20, deadline=None)
    @given(u0=real_fields(), alpha=st.floats(1.1, 1.9))
    def test_reality_preserved_along_flow(self, u0, alpha):
        states = solve_reference(u0, 0.5, 5e-3, alpha).coeffs
        # the unpaired mode N/2 too: the rows hold the real flow's cos(t phi) there
        assert hermitian_error(states) <= 1e-11

    def test_scaling_symmetry(self):
        # if u solves the flow then lam^alpha u(lam^(alpha+1) t, lam x) does;
        # on the half-box the coefficient arrays obey
        # c2(t', k) = lam^(alpha-1) c1(lam^(alpha+1) t', k).
        alpha, lam = 1.5, 2.0
        g1 = make_grid(128, 32.0)
        u1 = make_test_field(g1, "gaussian", amplitude=0.4, width=2.0)
        g2 = make_grid(128, 16.0)
        u2 = SpectralField(g2, lam ** (alpha - 1.0) * u1.coeffs)
        T1 = 0.4
        T2 = T1 / lam ** (alpha + 1.0)
        traj1 = solve_reference(u1, T1, T1 / 400, alpha)
        traj2 = solve_reference(u2, T2, T2 / 400, alpha)
        scaled = lam ** (alpha - 1.0) * traj1.coeffs[-1]
        err = np.max(np.abs(traj2.coeffs[-1] - scaled)) / np.max(np.abs(scaled))
        assert err <= 1e-4

    @pytest.mark.parametrize("scheme", ["split_step", "exponential_integrator"])
    def test_blowup_sentinel(self, scheme):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=80.0)
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(BlowUpError, match="t=0.05$"):
                solve_reference(u0, 5.0, 0.05, 1.5, scheme=scheme)
        # the steps marched past the crossing leak no overflow warning
        assert [str(w.message)[:22] for w in record] == ["dt*max|xi|*max|u| = 50"]

    def test_state_that_is_not_a_number_trips_the_sentinel(self):
        # the square overflows on the first step, and the norm is then nan
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=1e100)
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(BlowUpError, match="t=0.01$"):
                solve_reference(u0, 0.1, 0.01, 1.5)
        assert [str(w.message)[:17] for w in record] == ["dt*max|xi|*max|u|"]

    def test_blowup_names_first_crossing_in_either_direction(self, monkeypatch):
        # a stand-in step grows the backward norm by 0.2% and the forward one
        # by 0.1%, so the backward norm passes 1.005 times its initial value
        # on step 3, before the forward one on step 5
        monkeypatch.setattr(evolution, "_stepper", _scaling_stepper(1.001, 1.002))
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=0, band=3.0, amplitude=0.3)
        free = solve_reference(u0, 0.5, 0.01, 1.5, blowup_factor=1e9)
        norms = _l2_raw(free.coeffs, g.spacing)
        n = free.n_times // 2
        grown = norms > 1.005 * norms[n]
        i_fwd = int(np.argmax(grown[n + 1 :])) + 1
        i_bwd = int(np.argmax(grown[n - 1 :: -1])) + 1
        assert grown[n + i_fwd] and grown[n - i_bwd] and i_bwd < i_fwd
        expected = f"t={free.times[n - i_bwd]:.6g}"
        assert expected.startswith("t=-")
        with pytest.raises(BlowUpError, match=re.escape(expected) + "$"):
            solve_reference(u0, 0.5, 0.01, 1.5, blowup_factor=1.005)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_blowup_on_the_final_step(self, direction, monkeypatch):
        # a stand-in step grows the L2 norm by 1% toward t = direction * t_span
        # only, so a sentinel between the last two norms of that direction
        # trips on the last step
        factors = (1.01, 1.0) if direction > 0 else (1.0, 1.01)
        monkeypatch.setattr(evolution, "_stepper", _scaling_stepper(*factors))
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "random_bandlimited", seed=0, band=3.0, amplitude=0.3)
        free = solve_reference(u0, 0.2, 0.01, 1.5, blowup_factor=1e9)
        norms = _l2_raw(free.coeffs, g.spacing) / l2_norm(u0)
        final, rest = (norms[-1], norms[:-1]) if direction > 0 else (norms[0], norms[1:])
        assert final > rest.max()
        with pytest.raises(BlowUpError, match=f"t={direction * 0.2:.6g}$"):
            solve_reference(u0, 0.2, 0.01, 1.5, blowup_factor=0.5 * (final + rest.max()))

    @pytest.mark.parametrize("case", ["forward", "backward", "tie"])
    @pytest.mark.parametrize("step", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 130])
    def test_blowup_checked_per_block_names_the_per_step_crossing(self, case, step, monkeypatch):
        # the L2 norm grows step by step toward +t, toward -t or toward both
        # at once, so a sentinel between a step's norm and every earlier one
        # is first crossed on that step
        free, u0 = _growing_run(case, monkeypatch)
        norms = _l2_raw(free.coeffs, free.grid.spacing)
        n = free.n_times // 2
        rows = {"forward": [n + step], "backward": [n - step], "tie": [n + step, n - step]}
        earlier = norms[n - step + 1 : n + step].max()
        crossing = norms[rows[case]].min()
        assert crossing > earlier
        initial = _l2_raw(u0.coeffs, free.grid.spacing)
        factor = 0.5 * (crossing + earlier) / initial
        t = _per_step_crossing(free, factor * initial)  # the solver's limit
        assert t == free.times[rows[case][0]]
        with pytest.raises(BlowUpError, match=re.escape(f"t={t:.6g}") + "$"):
            solve_reference(u0, free.times[-1], free.dt, 1.5, blowup_factor=factor)

    @settings(max_examples=8, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "random_bandlimited"]),
        seed=st.integers(0, 2**16),
        amplitude=st.floats(0.05, 1.0),
        width=st.floats(0.8, 2.5),
        scheme=st.sampled_from(["split_step", "exponential_integrator"]),
    )
    def test_l2_conserved_over_generated_data(self, family, seed, amplitude, width, scheme):
        # real data, N = 64; criterion 2's relative drift tolerance
        g = make_grid(64, 16.0)
        if family == "gaussian":
            u0 = make_test_field(g, family, amplitude=amplitude, width=width)
        else:
            u0 = make_test_field(g, family, seed=seed, band=3.0, amplitude=amplitude)
        traj = solve_reference(u0, 0.2, 1e-3, 1.5, scheme)
        assert l2_drift(traj) <= 1e-6

    def test_cfl_warning(self):
        g = make_grid(128, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=5.0)
        with pytest.warns(RuntimeWarning):
            solve_reference(u0, 0.02, 0.02, 1.5)

    def test_dt_larger_than_span_rejected(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian")
        # the CLI's wording, from the one check both use
        with pytest.raises(ValueError, match=re.escape("dt=0.2 exceeds t_span=0.1; use dt <= 0.1")):
            solve_reference(u0, 0.1, 0.2, 1.5)
        with pytest.raises(ValueError, match="t_span and dt must be positive, got 0.1, 0.0"):
            solve_reference(u0, 0.1, 0.0, 1.5)
        # the scheme is checked before any step
        with pytest.raises(ValueError, match="unknown scheme"):
            solve_reference(u0, 0.1, 0.05, 1.5, scheme="euler")


def _scaling_stepper(forward, backward):
    """A stand-in for evolution._stepper whose step multiplies the forward row
    by forward and the backward row by backward: real data stay real, and the
    L2 norm of each direction grows, or stays, by its factor at every step."""
    factors = np.array([[forward], [backward]])

    def stepper(grid, dt, alpha, scheme):
        return lambda c: np.multiply(c, factors, out=c)

    return stepper


def _growing_run(case, monkeypatch):
    """A run of 130 steps each way, with no sentinel, and its real data, under
    a stand-in step that grows the L2 norm by 1% forward, backward or both
    ("tie"); the stand-in stays in place for the rest of the test."""
    factors = {"forward": (1.01, 1.0), "backward": (1.0, 1.01), "tie": (1.01, 1.01)}[case]
    monkeypatch.setattr(evolution, "_stepper", _scaling_stepper(*factors))
    g = make_grid(64, 16.0)
    u0 = make_test_field(g, "random_bandlimited", seed=0, band=3.0, amplitude=0.3)
    return solve_reference(u0, 0.26, 0.002, 1.5, blowup_factor=1e9), u0


def _per_step_crossing(traj, limit):
    """The t of the first step at which a row's norm is not within limit,
    the forward row first: the sentinel checked after every step."""
    norms = _l2_raw(traj.coeffs, traj.grid.spacing)
    n = traj.n_times // 2
    for i in range(1, n + 1):
        for row in (n + i, n - i):
            if not norms[row] <= limit:
                return traj.times[row]
    return None


def _march_one_direction(c0, grid, n_steps, dt, alpha, scheme):
    """n_steps of signed size dt, one real field at a time on its k >= 0
    modes, all states incl. the first as ascending rows of real fields; the
    schemes written out as plain expressions."""
    z = grid.zero_index
    lin = 1j * dispersion_symbol(grid.frequencies[z:], alpha)

    def nl(c):
        return _reference_half(c, grid)

    half, full = np.exp(0.5 * dt * lin), np.exp(dt * lin)
    q, f1, f2, f3 = _etdrk4_coeffs(lin, dt)

    def step(c):
        if scheme == "split_step":
            return _reference_split_step(c, grid, dt, half)
        n0 = nl(c)
        a = half * c + q * n0
        na = nl(a)
        b = half * c + q * na
        nb = nl(b)
        cc = half * a + q * (2.0 * nb - n0)
        nc = nl(cc)
        return full * c + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc

    out = [c0[z:].copy()]
    out[0][-1] = out[0][-1].real
    for _ in range(n_steps):
        out.append(step(out[-1]))
    return _real_rows(np.array(out))


class TestPairedMarch:
    """solve_reference marches both time directions as one pair of rows; it
    must give, byte for byte, what one march per direction gives."""

    @pytest.mark.parametrize("n_steps", [1, 2, 5])
    @settings(max_examples=6, deadline=None)
    @given(
        scheme=st.sampled_from(["split_step", "exponential_integrator"]),
        family=st.sampled_from(["gaussian", "random_bandlimited"]),
        n_modes=st.sampled_from([32, 64]),
        seed=st.integers(0, 2**16),
        amplitude=st.floats(0.05, 1.0),
        dt=st.floats(1e-3, 0.02),
    )
    def test_bit_identical_to_per_direction_march(
        self, n_steps, scheme, family, n_modes, seed, amplitude, dt
    ):
        g = make_grid(n_modes, 16.0)
        if family == "gaussian":
            u0 = make_test_field(g, family, amplitude=amplitude, center=0.3)
        else:
            u0 = make_test_field(g, family, seed=seed, band=3.0, amplitude=amplitude)
        t_span = n_steps * dt
        traj = solve_reference(u0, t_span, dt, 1.5, scheme)
        dt_eff = t_span / n_steps  # the step solve_reference takes
        fwd = _march_one_direction(u0.coeffs, g, n_steps, dt_eff, 1.5, scheme)
        bwd = _march_one_direction(u0.coeffs, g, n_steps, -dt_eff, 1.5, scheme)
        expected = np.vstack([bwd[::-1], fwd[1:]])
        assert traj.coeffs.tobytes() == expected.tobytes()



def _complex_and_real(n_modes):
    """A complex field (k < 0 modes drawn apart from the k > 0 ones, a complex
    unpaired mode N/2) and the real field of its k >= 0 modes and their mirror."""
    g = make_grid(n_modes, 16.0)
    z = g.zero_index
    c = make_test_field(
        g, "random_bandlimited", seed=3, band=3.0, amplitude=0.3, complex_field=True
    ).coeffs.copy()
    c[z], c[-1] = c[z].real, 1e-3 - 2e-3j
    real = c.copy()
    real[:z], real[-1] = np.conj(c[2 * z : z : -1]), c[-1].real
    return SpectralField(g, c), SpectralField(g, real)


class TestDeclaredReal:
    """Real is declared: the solver and the nonlinearity read a field's k >= 0
    modes only, so a complex field gives, byte for byte, what the real field
    of those modes and their mirror gives."""

    @pytest.mark.parametrize("scheme", ["split_step", "exponential_integrator"])
    def test_solve_reference_marches_the_real_field(self, scheme):
        u0, real = _complex_and_real(64)
        assert hermitian_error(u0.coeffs) > 0.1
        got = solve_reference(u0, 0.2, 0.01, 1.5, scheme).coeffs
        assert got.tobytes() == solve_reference(real, 0.2, 0.01, 1.5, scheme).coeffs.tobytes()
        assert got[got.shape[0] // 2].tobytes() == real.coeffs.tobytes()  # t = 0

    @pytest.mark.parametrize("n_modes", [32, 64])
    def test_nonlinearity_of_the_real_field(self, n_modes):
        u0, real = _complex_and_real(n_modes)
        assert nonlinearity(u0).coeffs.tobytes() == nonlinearity(real).coeffs.tobytes()
        rows = np.stack([u0.coeffs, 2.0 * u0.coeffs])
        mirrored = np.stack([real.coeffs, 2.0 * real.coeffs])
        got = _nonlinearity_raw(rows, u0.grid)
        assert got.tobytes() == _nonlinearity_raw(mirrored, u0.grid).tobytes()


class TestTrajectory:
    def test_public_constructor_copies_the_callers_arrays(self):
        g = make_grid(16, 8.0)
        times = np.linspace(-0.1, 0.1, 5)
        coeffs = np.ones((5, 16), complex)
        traj = Trajectory(g, times, coeffs, 1.5)
        coeffs[2, 3] = 7.0
        times[0] = -9.0
        assert np.all(traj.coeffs == 1.0) and traj.times[0] == -0.1
        assert not (traj.coeffs.flags.writeable or traj.times.flags.writeable)

    def test_solver_result_is_not_copied(self):
        # the traced peak of a solve stays near one trajectory, not two
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.2)
        solve_reference(u0, 0.01, 1e-3, 1.5)
        tracemalloc.start()
        try:
            traj = solve_reference(u0, 0.3, 1e-3, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * traj.coeffs.nbytes


#: Each array container: the shape of its coefficients and how to build it from them.
_GRID = make_grid(16, 8.0)
CONTAINERS = {
    "SpectralField": ((16,), lambda c: SpectralField(_GRID, c)),
    "SpaceTimeField": ((8, 16), lambda c: SpaceTimeField(_GRID, make_grid(8, 4.0), c)),
    "Trajectory": ((8, 16), lambda c: Trajectory(_GRID, np.linspace(-0.1, 0.1, 8), c, 1.5)),
}


def owned(shape, write=True):
    """A fresh complex array of ones that owns its memory."""
    a = np.ones(shape, complex)
    a.setflags(write=write)
    return a


class TestArrayContainers:
    @pytest.mark.parametrize("name", list(CONTAINERS))
    def test_frozen_array_that_owns_its_memory_is_held_as_is(self, name):
        shape, build = CONTAINERS[name]
        frozen = owned(shape, write=False)
        assert build(frozen).coeffs is frozen
        wide = owned(shape[:-1] + (32,))
        frozen_view = owned(shape[:-1] + (32,), write=False)[..., :16]
        for given in (owned(shape), wide[..., :16], frozen_view, np.ones(shape)):
            held = build(given).coeffs
            assert held is not given and held.base is None
            assert held.dtype == complex and not held.flags.writeable
        for given in (owned(shape), wide[..., :16]):
            held = build(given).coeffs
            given[...] = 7.0
            assert np.all(held == 1.0)

    @pytest.mark.parametrize("name", ["SpectralField", "SpaceTimeField"])
    def test_fields_with_different_coefficients_are_unequal(self, name):
        shape, build = CONTAINERS[name]
        ones, zeros = build(owned(shape)), build(np.zeros(shape, complex))
        assert ones != zeros and ones == ones

    def test_trajectory_is_hashable_and_compares_by_identity(self):
        shape, build = CONTAINERS["Trajectory"]
        a, b = build(owned(shape)), build(owned(shape))
        assert a == a and a != b and len({a, b, a}) == 2

    def test_equal_grids_are_equal_and_share_the_half_kernel(self):
        g, h = make_grid(64, 16.0), make_grid(64, 16.0)
        assert g is not h and g == h and hash(g) == hash(h)
        assert g != make_grid(64, 32.0) and g != make_grid(32, 16.0)
        assert _half_kernel(h) is _half_kernel(g)


class TestDuhamel:
    def make_zero_guess(self, grid, T, dt=0.01):
        window = 2.0 * max(T, 1.0)
        n = int(round(window / dt))
        times = np.arange(-n, n + 1) * dt
        return Trajectory(grid, times, np.zeros((times.size, grid.n_modes), complex), 1.5)

    def test_zero_guess_gives_cutoff_free_evolution(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.3)
        T = 0.5
        guess = self.make_zero_guess(g, T)
        out = duhamel_apply(guess, u0, T, 1.5)
        from fbo_lab.spectral import bump

        for t in (-1.5, -0.2, 0.7, 2.0):
            i = out.index_of_time(t)
            expected = bump(np.asarray(t)) * propagate(u0, t, 1.5).coeffs
            assert np.max(np.abs(out.coeffs[i] - expected)) <= 1e-12

    def test_free_term_is_uncut_up_to_t_span_above_one(self):
        g = make_grid(32, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.3)
        T = 1.5
        out = duhamel_apply(self.make_zero_guess(g, T), u0, T, 1.5)
        for t in (-1.5, 1.25, 2.0, 3.0):
            i = out.index_of_time(t)
            expected = bump(np.asarray(t / T)) * propagate(u0, t, 1.5).coeffs
            expected[-1] = expected[-1].real  # the real flow at the unpaired mode N/2
            assert np.max(np.abs(out.coeffs[i] - expected)) <= 1e-12

    def test_all_zero(self):
        g = make_grid(64, 16.0)
        u0 = SpectralField(g, np.zeros(64, complex))
        guess = self.make_zero_guess(g, 0.5)
        out = duhamel_apply(guess, u0, 0.5, 1.5)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_time_zero_returns_data_exactly(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.3)
        guess = self.make_zero_guess(g, 0.5)
        rng = np.random.default_rng(3)
        noisy = Trajectory(
            g,
            guess.times,
            rng.standard_normal(guess.coeffs.shape) * 0.05 + 0j,
            1.5,
        )
        out = duhamel_apply(noisy, u0, 0.5, 1.5)
        i0 = out.index_of_time(0.0)
        assert np.max(np.abs(out.coeffs[i0] - u0.coeffs)) <= 1e-13

    def test_bit_identical_to_per_time_loop(self):
        # t = 0 sits at row 230, 38 rows into its block of 64, and the row
        # count 441 is no multiple of the block size
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.3)
        T, alpha = 0.5, 1.5
        t = np.arange(-230, 211) * 0.01
        assert 230 % _BLOCK_ROWS not in (0, _BLOCK_ROWS // 2) and t.size % _BLOCK_ROWS
        rng = np.random.default_rng(5)
        noisy = rng.standard_normal((t.size, 64)) + 1j * rng.standard_normal((t.size, 64))
        guess = Trajectory(g, t, 0.05 * noisy, alpha)
        out = duhamel_apply(guess, u0, T, alpha)
        dt = guess.dt  # the step the operator reads off the samples

        # the operator as a loop over the time samples
        forcing = np.empty_like(guess.coeffs)
        for i in range(t.size):
            forcing[i] = _nonlinearity_raw(guess.coeffs[i], g)
        back_phase = np.exp(-1j * np.outer(t, dispersion_symbol(g.frequencies, alpha)))
        h = back_phase * forcing
        acc = np.zeros_like(h)
        for i in range(231, t.size):
            acc[i] = acc[i - 1] + (0.5 * dt) * (h[i - 1] + h[i])
        for i in range(229, -1, -1):
            acc[i] = acc[i + 1] - (0.5 * dt) * (h[i] + h[i + 1])
        psi_1, psi_T = bump(t)[:, None], bump(t / T)[:, None]
        expected = np.conj(back_phase) * (psi_1 * u0.coeffs[None, :] + psi_T * acc)
        expected[:, -1] = expected[:, -1].real
        assert out.coeffs.tobytes() == expected.tobytes()

    def test_working_set_is_three_trajectories(self):
        # the phases, h (then the output) and the running sums, at picard's
        # 801 x 256 grid for t_span 0.5 and dt 0.005 (3.3 MB each); the
        # full-array form held about seven
        g = make_grid(256, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.1)
        t = np.arange(-400, 401) * 0.005
        guess = Trajectory(g, t, np.tile(u0.coeffs, (t.size, 1)), 1.5)
        duhamel_apply(guess, u0, 0.5, 1.5)
        tracemalloc.start()
        try:
            duhamel_apply(guess, u0, 0.5, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * guess.coeffs.nbytes

    def test_window_and_grid_validation(self):
        g = make_grid(64, 16.0)
        u0 = make_test_field(g, "gaussian")
        short = Trajectory(
            g, np.linspace(-1.0, 1.0, 41), np.zeros((41, 64), complex), 1.5
        )
        with pytest.raises(ValueError):
            duhamel_apply(short, u0, 0.5, 1.5)
        other = make_grid(64, 20.0)
        guess = self.make_zero_guess(g, 0.5)
        with pytest.raises(ValueError):
            duhamel_apply(guess, make_test_field(other, "gaussian"), 0.5, 1.5)


class TestPicard:
    def test_zero_data_converges_immediately(self):
        g = make_grid(64, 16.0)
        u0 = SpectralField(g, np.zeros(64, complex))
        traj, hist = picard_solve(u0, 0.5, 1.5, tol=1e-10, max_iter=5, dt=0.02)
        assert hist.converged
        assert hist.iterations == 1
        assert np.max(np.abs(traj.coeffs)) == 0.0

    def test_small_data_geometric_decay_and_cross_validation(self):
        g = make_grid(128, 32.0)
        raw = make_test_field(g, "gaussian")
        u0 = SpectralField(g, raw.coeffs * (0.1 / l2_norm(raw)))
        traj, hist = picard_solve(u0, 0.5, 1.5, tol=1e-9, max_iter=25, dt=0.005)
        assert hist.converged
        gaps = hist.iterate_differences
        for i in range(2, len(gaps) - 1):
            assert gaps[i + 1] <= 0.7 * gaps[i]
        ref = solve_reference(u0, 0.5, 1e-3, 1.5)
        sup_gap = 0.0
        for i in range(traj.n_times):
            t = float(traj.times[i])
            if abs(t) <= 0.5 + 1e-12:
                j = ref.index_of_time(t)
                sup_gap = max(
                    sup_gap, _l2_raw(traj.coeffs[i] - ref.coeffs[j], g.spacing)
                )
        assert sup_gap <= 1e-4

    @pytest.mark.parametrize(
        "T, dt, n",
        # 2 max(T, 1) over the step is 333.33, then 420, 30 and 122 in whole
        # steps, each computed a few ulps above the whole number
        [(0.3, 0.006, 334), (0.3, 0.3 / 63, 420), (1.1, 1.1 / 15, 30), (2.5, 2.5 / 61, 122)],
    )
    def test_grid_steps_as_the_reference_over_the_fewest_covering_steps(self, T, dt, n):
        g = make_grid(16, 8.0)
        u0 = SpectralField(g, np.zeros(16, complex))
        traj, _ = picard_solve(u0, T, 1.5, max_iter=1, dt=dt)
        ref = solve_reference(u0, T, dt, 1.5)
        m = ref.n_times // 2
        assert traj.n_times == 2 * n + 1
        assert np.array_equal(traj.times[n - m : n + m + 1], ref.times)

    def test_contraction_factor_grows_with_amplitude(self):
        g = make_grid(128, 32.0)

        def factor(amplitude):
            u0 = make_test_field(g, "gaussian", amplitude=amplitude)
            _, hist = picard_solve(u0, 0.5, 1.5, tol=1e-11, max_iter=25, dt=0.01)
            gaps = hist.iterate_differences
            return max(gaps[i + 1] / gaps[i] for i in range(1, len(gaps) - 1))

        assert factor(0.2) < factor(0.4)

    def test_non_convergence_reported_not_raised(self):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.5)
        _, hist = picard_solve(u0, 0.5, 1.5, tol=1e-14, max_iter=2, dt=0.02)
        assert not hist.converged
        assert hist.iterations == 2

    def test_fixed_point_consistency(self):
        g = make_grid(128, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.2)
        tol = 1e-8
        traj, hist = picard_solve(u0, 0.5, 1.5, tol=tol, max_iter=25, dt=0.01)
        assert hist.converged
        again = duhamel_apply(traj, u0, 0.5, 1.5)
        residual = max(
            _l2_raw(again.coeffs[i] - traj.coeffs[i], g.spacing)
            for i in range(traj.n_times)
        )
        assert residual <= 2.0 * tol


class TestExports:
    def make_traj(self):
        g = make_grid(16, 8.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.2)
        return solve_reference(u0, 0.1, 0.05, 1.5)

    def test_csv_layout(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "traj.csv"
        export_trajectory_csv(traj, path, max_modes=4)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 1 + 2 * 4
        assert len(lines) == 1 + traj.n_times
        xi = [-math.pi / 4, 0.0, math.pi / 4, math.pi / 2]  # smallest |xi|, ascending
        assert header[1:] == [f"{part}[xi={x!r}]" for x in xi for part in ("abs", "phase")]

    def test_csv_bytes_match_per_cell_repr(self, tmp_path):
        # negative times and phases, a subnormal, signed zeros, inf and nan
        g = make_grid(8, 4.0)
        times = np.array([-0.5, -0.25, 0.0, 0.25])
        coeffs = np.full((4, 8), 0.3 - 0.7j)
        coeffs[0, :4] = [-1.5 + 0j, 5e-324 + 0j, complex(-0.0, -0.0), complex(0.0, -0.0)]
        coeffs[1, :3] = [complex(np.inf, 1.0), complex(np.nan, 0.0), -2.0 - 1e-300j]
        coeffs[2] = np.linspace(-3.0, 3.0, 8) * (1 - 2j) / 3.0
        traj = Trajectory(g, times, coeffs, 1.5)
        for max_modes in (None, 3):
            path = tmp_path / "traj.csv"
            export_trajectory_csv(traj, path, max_modes=max_modes)
            idx = np.arange(8) if max_modes is None else np.array([2, 3, 4])
            lines = [path.read_text().split("\n")[0]]
            for i, t in enumerate(times):
                row = [repr(float(t))]
                for j in idx:
                    row.append(repr(float(np.abs(coeffs[i, j]))))
                    row.append(repr(float(np.angle(coeffs[i, j]))))
                lines.append(",".join(row))
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
            if max_modes is None:
                cells = ",".join(lines[1:3]).split(",")
                assert {"inf", "nan", "-0.0", "5e-324", "-3.141592653589793"} <= set(cells)

    def test_negative_max_modes_rejected(self, tmp_path):
        # a negative slice bound would drop modes from the far end
        traj = self.make_traj()
        assert retained_mode_indices(traj.grid, 0).size == 0
        path = tmp_path / "traj.csv"
        for bad in (-1, -5):
            with pytest.raises(ValueError, match=f"max_modes must be at least 0, got {bad}"):
                retained_mode_indices(traj.grid, bad)
            with pytest.raises(ValueError, match="max_modes must be at least 0"):
                export_trajectory_csv(traj, path, bad)
        assert not path.exists()

    def test_binary_round_trip(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "traj.bin"
        export_trajectory_binary(traj, path)
        back = load_trajectory_binary(path, alpha=traj.alpha)
        assert back.grid == traj.grid
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.coeffs, traj.coeffs)
        assert back.alpha == traj.alpha

    def test_binary_load_holds_one_trajectory(self, tmp_path):
        # the coefficients are read into the array the trajectory keeps
        g = make_grid(256, 32.0)
        u0 = make_test_field(g, "gaussian", amplitude=0.2)
        path = tmp_path / "traj.bin"
        export_trajectory_binary(solve_reference(u0, 0.2, 1e-3, 1.5), path)
        tracemalloc.start()
        try:
            back = load_trajectory_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not back.coeffs.flags.writeable
        assert peak < 1.2 * back.coeffs.nbytes

    def test_binary_bytes_match_packed_reference(self, tmp_path):
        # version 1 layout: header, then times (<f8) and coeffs (<c16, C order)
        g = make_grid(32, 8.0)
        u0 = make_test_field(g, "random_bandlimited", seed=2, band=3.0)
        traj = solve_reference(u0, 0.1, 0.01, 1.5)
        path = tmp_path / "traj.bin"
        export_trajectory_binary(traj, path)
        header = struct.pack(
            "<8sIIddI", b"FBOTRAJ\x00", 1, 32, 8.0, traj.dt, traj.n_times
        )
        expected = (
            header + traj.times.astype("<f8").tobytes() + traj.coeffs.astype("<c16").tobytes()
        )
        assert path.read_bytes() == expected

    def test_truncated_binary_rejected_with_byte_counts(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "traj.bin"
        export_trajectory_binary(traj, path)
        raw = path.read_bytes()
        size = len(raw)
        assert size == 36 + (8 + 16 * traj.grid.n_modes) * traj.n_times
        for cut in (size - 1, size - 16 * traj.grid.n_modes, 40):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"needs {size} bytes, found {cut}$"):
                load_trajectory_binary(path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match=f"needs {size} bytes, found {size + 1}$"):
            load_trajectory_binary(path)
        path.write_bytes(raw[:20])
        with pytest.raises(ValueError, match="holds 20 bytes, fewer than its header"):
            load_trajectory_binary(path)

    def test_binary_header_contract(self, tmp_path):
        import struct

        traj = self.make_traj()
        path = tmp_path / "traj.bin"
        export_trajectory_binary(traj, path)
        raw = path.read_bytes()
        magic, version, n, L, dt, count = struct.unpack("<8sIIddI", raw[: 8 + 4 + 4 + 8 + 8 + 4])
        assert magic == b"FBOTRAJ\x00"
        assert version == 1
        assert n == traj.grid.n_modes
        assert L == pytest.approx(traj.grid.box_length)
        assert dt == pytest.approx(traj.dt)
        assert count == traj.n_times


def _random_trajectory(n_times, n_modes, seed):
    """Random coefficients over five decades each way, with signed zeros,
    on uniform times through t = 0: no solve."""
    rng = np.random.default_rng(seed)
    shape = (n_times, n_modes)
    scale = 10.0 ** rng.uniform(-5.0, 5.0, shape)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    zeros = rng.random(shape) < 0.05
    coeffs[zeros] = np.where(rng.random(zeros.sum()) < 0.5, complex(-0.0, -0.0), 0j)
    times = (np.arange(n_times) - rng.integers(n_times)) * rng.uniform(1e-4, 0.1)
    return Trajectory(make_grid(n_modes, 8.0), times, coeffs, 1.5)


def _whole_table_csv(traj, max_modes):
    """The CSV bytes from one table of every time, as one join."""
    idx = retained_mode_indices(traj.grid, max_modes)
    header = ["t"]
    for f in traj.grid.frequencies[idx]:
        header += [f"abs[xi={float(f)!r}]", f"phase[xi={float(f)!r}]"]
    sub = traj.coeffs[:, idx]
    table = np.empty((traj.n_times, 1 + 2 * idx.size))
    table[:, 0], table[:, 1::2], table[:, 2::2] = traj.times, np.abs(sub), np.angle(sub)
    rows = [repr(row)[1:-1].replace(", ", ",") for row in table.tolist()]
    return ("\n".join([",".join(header)] + rows) + "\n").encode()


def _whole_array_drift(traj):
    """l2_drift from the norms of every time at once."""
    norms = _l2_raw(traj.coeffs, traj.grid.spacing)
    ref = norms[traj.index_of_time(0.0)]
    return float(np.max(np.abs(norms - ref)) / max(ref, np.finfo(float).tiny))


class TestRowBlocks:
    """l2_drift and export_trajectory_csv take the trajectory a block of
    _BLOCK_ROWS times at a time; they must give the bytes of the whole-array
    forms, and hold no more than a block."""

    # the one file is rewritten by every example
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        n_times=st.builds(
            lambda blocks, offset: max(2, blocks * _BLOCK_ROWS + offset),
            st.integers(0, 3),
            st.integers(-2, 2),
        ),
        n_modes=st.sampled_from([16, 32, 48]),
        max_modes=st.sampled_from([None, 0, 1, 16, "N"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_the_whole_array_forms(self, tmp_path, n_times, n_modes, max_modes, seed):
        traj = _random_trajectory(n_times, n_modes, seed)
        max_modes = n_modes if max_modes == "N" else max_modes
        path = tmp_path / "traj.csv"
        export_trajectory_csv(traj, path, max_modes)
        assert path.read_bytes() == _whole_table_csv(traj, max_modes)
        assert repr(l2_drift(traj)) == repr(_whole_array_drift(traj))

    def test_working_set_is_a_block(self, tmp_path):
        # 1025 times of 512 modes hold 8.4 MB; a block of 64 is 0.5 MB
        traj = _random_trajectory(2 * 8 * _BLOCK_ROWS + 1, 512, 0)
        zero_mean = np.array(traj.coeffs)
        zero_mean[:, traj.grid.zero_index] = 0.0
        zero_mean = Trajectory(traj.grid, traj.times, zero_mean, 1.5)
        calls = {
            "l2_drift": lambda: l2_drift(traj),
            "apriori_check": lambda: apriori_check(traj, 0.0),
            "apriori_check zero mean": lambda: apriori_check(zero_mean, 1.0 / 6.0),
            # at the CLI's default of 16 retained modes
            "export_trajectory_csv": lambda: export_trajectory_csv(traj, tmp_path / "t.csv", 16),
        }
        peaks = {}
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < traj.coeffs.nbytes / 8, peaks
