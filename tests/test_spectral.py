import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbo_lab import (
    SpectralField,
    bump,
    forward_transform,
    inverse_transform,
    l2_norm,
    make_grid,
    make_test_field,
    propagate,
)
from fbo_lab.norms import sobolev_norm
from fbo_lab.spectral import (
    _forward_raw,
    _inverse_raw,
    _real_synthesis,
    _real_synthesis_table,
    dispersion_symbol,
)
from realdata import hermitian_error

TWO_PI = 2.0 * math.pi


class TestGrid:
    def test_integer_frequencies_on_2pi_box(self):
        g = make_grid(8, TWO_PI)
        assert np.allclose(g.frequencies, [-3, -2, -1, 0, 1, 2, 3, 4])

    def test_spacing(self):
        g = make_grid(8, 4 * math.pi)
        assert g.spacing == pytest.approx(0.5)
        assert np.allclose(np.diff(g.frequencies), 0.5)

    @pytest.mark.parametrize("n", [7, 9, 6, 4, 0])
    def test_rejects_bad_mode_counts(self, n):
        with pytest.raises(ValueError):
            make_grid(n, TWO_PI)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf])
    def test_rejects_bad_box(self, L):
        with pytest.raises(ValueError):
            make_grid(8, L)

    def test_symmetric_except_extreme_mode(self):
        g = make_grid(16, 5.0)
        xi = g.frequencies
        assert np.allclose(xi[:-1], -xi[-2::-1])
        assert xi[-1] == pytest.approx(-xi[0] + g.spacing)  # single unpaired mode


class TestTransform:
    def test_round_trip_random(self):
        g = make_grid(64, 17.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        back = inverse_transform(forward_transform(u, g))
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))

    def test_constant_goes_to_zero_mode(self):
        g = make_grid(32, 10.0)
        f = forward_transform(np.ones(32), g)
        others = np.delete(f.coeffs, g.zero_index)
        assert np.max(np.abs(others)) <= 1e-14 * abs(f.coeffs[g.zero_index])

    def test_cosine_hits_plus_minus_one(self):
        g = make_grid(32, TWO_PI)
        f = forward_transform(np.cos(g.nodes()), g)
        z = g.zero_index
        assert abs(f.coeffs[z + 1]) == pytest.approx(abs(f.coeffs[z - 1]), rel=1e-13)
        mask = np.ones(32, bool)
        mask[[z - 1, z + 1]] = False
        assert np.max(np.abs(f.coeffs[mask])) <= 1e-13 * abs(f.coeffs[z + 1])

    def test_parseval_exact(self):
        g = make_grid(128, 33.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(128)
        f = forward_transform(u, g)
        dx = g.box_length / g.n_modes
        phys = math.sqrt(np.sum(np.abs(u) ** 2) * dx)
        assert l2_norm(f) == pytest.approx(phys, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n_modes=st.sampled_from([8, 10, 30, 64, 256]), data=st.data())
    def test_real_field_conjugate_symmetry(self, n_modes, data):
        # subnormal samples keep no relative precision through the FFT's products
        real = st.floats(-1e3, 1e3, allow_subnormal=False)
        samples = data.draw(arrays(np.float64, n_modes, elements=real))
        transformed = forward_transform(samples, make_grid(n_modes, 7.3))
        assert hermitian_error(transformed.coeffs) <= 1e-12

    def test_size_mismatch_rejected(self):
        g = make_grid(16, 5.0)
        with pytest.raises(ValueError):
            forward_transform(np.ones(15), g)

    @pytest.mark.parametrize("n", [8, 10, 30, 256])
    def test_matches_direct_riemann_sum(self, n):
        # c_k = (2*pi)^(-1/2) sum_j u_j exp(-i xi_k x_j) dx, for each column
        # along axis 0 and each row along axis 1
        g = make_grid(n, 7.3)
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        dx = g.box_length / n
        kernel = np.exp(-1j * np.outer(g.frequencies, g.nodes())) * dx / math.sqrt(TWO_PI)
        direct = kernel @ u
        tol = 1e-12 * np.max(np.abs(direct))
        assert np.max(np.abs(_forward_raw(u, g.box_length, axis=0) - direct)) <= tol
        assert np.max(np.abs(_forward_raw(u.T, g.box_length, axis=1) - direct.T)) <= tol


def take_formula_inverse(coeffs, box_length, axis):
    """The inverse transform through the permutation into numpy's slots:
    sign the ascending modes, np.take them into slot order, transform."""
    n = coeffs.shape[axis]
    k = np.arange(-n // 2 + 1, n // 2 + 1)
    shape = [1] * coeffs.ndim
    shape[axis] = n
    signs = np.where(k % 2 == 0, 1.0, -1.0).reshape(shape)
    out = np.fft.ifft(np.take(coeffs * signs, np.argsort(k % n), axis=axis), axis=axis)
    out *= n * math.sqrt(TWO_PI) / box_length
    return out


class TestInverseSlots:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 64, 512]),
        rows=st.integers(1, 5),
        layout=st.sampled_from(["row", "axis 0", "axis 1"]),
        complex_input=st.booleans(),
        box=st.floats(1.0, 100.0),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_match_the_take_formula(self, n, rows, layout, complex_input, box, seed):
        # zeros of both signs included, as a signed zero is where two
        # formulas most easily part
        layouts = {"row": ((n,), -1), "axis 0": ((n, rows), 0), "axis 1": ((rows, n), 1)}
        shape, axis = layouts[layout]
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(shape)
        if complex_input:
            c = c + 1j * rng.standard_normal(shape)
        c[rng.random(shape) < 0.2] = 0.0
        c[rng.random(shape) < 0.2] = -0.0
        out = _inverse_raw(c, box, axis)
        assert out.dtype == complex and out.flags.c_contiguous
        assert out.tobytes() == take_formula_inverse(c, box, axis).tobytes()


def take_formula_forward(samples, box_length, axis):
    """The forward transform through the gather out of numpy's slots: np.take
    the ascending modes from the FFT, then sign and scale them."""
    n = samples.shape[axis]
    k = np.arange(-n // 2 + 1, n // 2 + 1)
    shape = [1] * samples.ndim
    shape[axis] = n
    scaled_signs = np.where(k % 2 == 0, 1.0, -1.0) * (box_length / (n * math.sqrt(TWO_PI)))
    raw = np.take(np.fft.fft(samples, axis=axis), k % n, axis=axis)
    raw *= scaled_signs.reshape(shape)
    return raw


class TestForwardGather:
    """The forward transform against the gather it replaced, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        layout=st.sampled_from(["row", "axis 0", "axis 1"]),
        n=st.integers(2, 40).map(lambda half: 2 * half),
        rows=st.integers(1, 4),
        box=st.floats(0.5, 100.0),
    )
    def test_forward_matches_the_gather(self, data, layout, n, rows, box):
        # finite values; hypothesis draws zeros of both signs and subnormals
        shape, axis = {"row": ((n,), -1), "axis 0": ((n, rows), 0), "axis 1": ((rows, n), 1)}[layout]
        elements = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
        x = data.draw(arrays(np.complex128, shape, elements=elements))
        assert _forward_raw(x, box, axis).tobytes() == take_formula_forward(x, box, axis).tobytes()


class TestRealSynthesis:
    """A Hermitian field synthesised from its k >= 0 modes."""

    @staticmethod
    def hermitian_rows(g, seed):
        # one row per band up to the largest paired frequency, then one with
        # a real unpaired extreme mode, which a Hermitian field may carry
        bands = np.linspace(g.spacing, g.nyquist - g.spacing, 5)
        rows = [make_test_field(g, "random_bandlimited", seed=seed + i, band=band).coeffs
                for i, band in enumerate(bands)]
        extreme = np.array(rows[-1])
        extreme[-1] = 0.7
        return np.array(rows + [extreme])

    @staticmethod
    def check(real, full):
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full.imag)) <= 1e-14 * scale
        assert np.max(np.abs(real - full.real)) <= 1e-14 * scale

    @pytest.mark.parametrize("n, box", [(8, TWO_PI), (64, 17.0), (256, 64.0), (512, 64.0)])
    def test_matches_the_complex_synthesis(self, n, box):
        g = make_grid(n, box)
        rows = self.hermitian_rows(g, n)
        table = _real_synthesis_table(np.ones(n // 2 + 1), box)
        self.check(_real_synthesis(table, rows), _inverse_raw(rows, box, axis=1))
        self.check(_real_synthesis(table, rows[0]), _inverse_raw(rows[0], box))

    @pytest.mark.parametrize("n, box", [(64, 17.0), (512, 64.0)])
    def test_folds_a_hermitian_multiplier(self, n, box):
        # free-group phases and a real weight keep each row Hermitian off the
        # unpaired extreme mode, which the draws leave empty
        g = make_grid(n, box)
        times = np.linspace(-1.0, 1.0, 9)[:, None]
        weights = np.exp(1j * times * dispersion_symbol(g.frequencies, 1.5)) * (
            1.0 + g.frequencies**2
        ) ** 0.125
        u = self.hermitian_rows(g, 2 * n)[2]
        table = _real_synthesis_table(weights[:, g.zero_index :], box)
        self.check(_real_synthesis(table, u), _inverse_raw(weights * u, box, axis=1))

    def test_the_buffers_change_no_bit(self):
        g = make_grid(64, 17.0)
        times = np.linspace(-1.0, 1.0, 9)[:, None]
        half = np.exp(1j * times * dispersion_symbol(g.frequencies[g.zero_index :], 1.5))
        table = _real_synthesis_table(half, g.box_length)
        assert _real_synthesis_table(half, g.box_length, out=half) is half
        assert half.tobytes() == table.tobytes()
        product, out = np.empty_like(table), np.empty((times.size, g.n_modes))
        for u in self.hermitian_rows(g, 64):
            assert _real_synthesis(table, u, product, out) is out
            assert out.tobytes() == _real_synthesis(table, u).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_band_table_synthesises_the_full_tables_bytes(self, data):
        # a table of the first K columns, through a zeroed product buffer or
        # none, against the full N/2+1 columns for coefficients zero past K-1
        n = 2 * data.draw(st.integers(4, 160), label="n/2")
        k = data.draw(st.integers(1, n // 2 + 1), label="K")
        n_rows = data.draw(st.integers(1, 6), label="rows")
        g = make_grid(n, data.draw(st.floats(1.0, 100.0), label="box"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        z, m = g.zero_index, min(k - 1, n // 2 - 1)  # m paired modes
        draws = rng.standard_normal((2, k))
        u = np.zeros(n, complex)
        u[z : z + k] = draws[0] + 1j * draws[1]
        u[z] = u[z].real
        u[-1] = u[-1].real  # the unpaired extreme mode, when K reaches it
        u[z - m : z] = np.conj(u[z + m : z : -1])
        times = rng.uniform(-1.0, 1.0, (n_rows, 1))
        half = np.exp(1j * times * dispersion_symbol(g.frequencies[z:], 1.5))
        full = _real_synthesis_table(half, g.box_length)
        band = _real_synthesis_table(half[:, :k], g.box_length, n=n)
        assert band.tobytes() == full[:, :k].tobytes()
        expected = _real_synthesis(full, u).tobytes()
        assert _real_synthesis(band, u).tobytes() == expected
        product = np.zeros_like(full)
        for _ in range(2):  # the buffer's columns past K-1 stay zero
            assert _real_synthesis(band, u, product).tobytes() == expected
        if k <= n // 2:
            u[z + k] = 1.0
            with pytest.raises(ValueError, match=f"K={k} columns"):
                _real_synthesis(band, u)


class TestTransformProperties:
    """Parseval and the round trip over generated samples, sizes and boxes."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_modes=st.sampled_from([8, 10, 30, 64, 256]),
        box_length=st.floats(0.5, 200.0),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
        real=st.booleans(),
    )
    def test_parseval_and_round_trip(self, n_modes, box_length, seed, scale, real):
        g = make_grid(n_modes, box_length)
        rng = np.random.default_rng(seed)
        u = scale * rng.standard_normal(n_modes)
        if not real:
            u = u + 1j * scale * rng.standard_normal(n_modes)
        f = forward_transform(u, g)
        physical = math.sqrt(np.sum(np.abs(u) ** 2) * box_length / n_modes)
        assert l2_norm(f) == pytest.approx(physical, rel=1e-13)
        back = inverse_transform(f)
        assert np.max(np.abs(back - u)) <= 1e-13 * np.max(np.abs(u))


class TestPropagate:
    def test_t_zero_identity(self):
        g = make_grid(64, 12.0)
        u = make_test_field(g, "random_bandlimited", seed=4, band=3.0)
        out = propagate(u, 0.0, 1.5)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_single_mode_phase(self):
        # frozen scalar oracle: theta = 0.1 * 2 * 2^1.5
        g = make_grid(64, TWO_PI)
        c = np.zeros(64, complex)
        c[g.zero_index + 2] = 1.0
        out = propagate(SpectralField(g, c), 0.1, 1.5)
        expected = complex(0.84422141469661511369, 0.53599459229328593193)
        assert abs(out.coeffs[g.zero_index + 2] - expected) <= 1e-15

    def test_weighted_norm_preserved(self):
        g = make_grid(128, 40.0)
        u = make_test_field(g, "random_bandlimited", seed=5, band=6.0, zero_mean=True)
        before = sobolev_norm(u, -0.3, 1.0 / 6.0)
        after = sobolev_norm(propagate(u, 3.7, 1.4), -0.3, 1.0 / 6.0)
        assert after == pytest.approx(before, rel=1e-12)

    def test_group_law(self):
        g = make_grid(128, 40.0)
        u = make_test_field(g, "random_bandlimited", seed=6, band=6.0)
        a = propagate(propagate(u, 1.3, 1.7), -0.4, 1.7)
        b = propagate(u, 0.9, 1.7)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))

    def test_alpha_outside_rejected(self):
        g = make_grid(32, 7.0)
        u = make_test_field(g, "gaussian")
        for alpha in (1.0, 2.0):
            with pytest.raises(ValueError, match=r"outside the supported open interval \(1, 2\)"):
                propagate(u, 0.1, alpha)

    def test_nonfinite_rejected(self):
        g = make_grid(32, 7.0)
        u = make_test_field(g, "gaussian")
        with pytest.raises(ValueError):
            propagate(u, math.nan, 1.5)
        with pytest.raises(ValueError):
            propagate(u, 1.0, math.inf)


class TestPropagateProperties:
    """Unitarity and the group law over generated data, times and alpha.

    The grids keep max|xi| = 4 pi and the data keep |xi| <= 8, as in
    acceptance criterion 1, whose 1e-12 tolerances these are.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        n_modes=st.sampled_from([32, 64, 128, 256]),
        seed=st.integers(0, 2**16),
        band=st.floats(0.5, 8.0),
        complex_field=st.booleans(),
        alpha=st.floats(1.05, 1.95),
        t1=st.floats(-1.1, 1.1),
        t2=st.floats(-1.1, 1.1),
    )
    def test_unitarity_and_group_law(self, n_modes, seed, band, complex_field, alpha, t1, t2):
        g = make_grid(n_modes, n_modes / 4.0)
        if band < g.spacing:  # 0.785 on 32 modes: the band admits no nonzero mode
            with pytest.raises(ValueError, match="admits no nonzero mode"):
                make_test_field(g, "random_bandlimited", seed=seed, band=band)
            return
        u = make_test_field(
            g, "random_bandlimited", seed=seed, band=band, complex_field=complex_field
        )
        ref = l2_norm(u)
        assert l2_norm(propagate(u, t1, alpha)) == pytest.approx(ref, rel=1e-12)
        composed = propagate(propagate(u, t1, alpha), t2, alpha)
        direct = propagate(u, t1 + t2, alpha)
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(composed.coeffs - direct.coeffs)) <= 1e-12 * scale


class TestSplitAndCutoff:
    def test_cutoff_plateau_support_and_transition(self):
        assert bump(0.5) == bump(-1.0) == bump(0.95) == 1.0
        assert bump(3.0) == bump(2.05) == 0.0
        assert 0.0 < bump(1.5) < 1.0

    def test_cutoff_even_and_monotone_transition(self):
        t = np.linspace(1.0, 2.0, 101)
        vals = bump(t)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.allclose(bump(-t), vals)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestTestFields:
    def test_gaussian_matches_closed_form_transform(self):
        # continuum transform of exp(-x^2): (1/sqrt(2)) exp(-xi^2/4); box
        # truncation and aliasing are far below the tolerance at L = 8*pi.
        g = make_grid(512, 8.0 * math.pi)  # spacing 1/4 puts xi=1 on the grid
        u = make_test_field(g, "gaussian", width=1.0)
        xi = g.frequencies
        expected = np.exp(-(xi**2) / 4.0) / math.sqrt(2.0)
        assert np.max(np.abs(u.coeffs - expected)) <= 1e-12
        idx = g.zero_index + 4
        assert xi[idx] == pytest.approx(1.0)
        assert u.coeffs[idx].real == pytest.approx(0.55069531490318374762, abs=1e-12)

    def test_gaussian_quadrature_spot_check(self):
        # independent Riemann quadrature of the defining integral at xi=2
        g = make_grid(512, 64.0)
        u = make_test_field(g, "gaussian", width=1.3, center=0.7, amplitude=0.9)
        x = np.linspace(-32, 32, 200001)
        f = 0.9 * np.exp(-(((x - 0.7) / 1.3) ** 2))
        xi0 = g.frequencies[g.zero_index + 20]
        oracle = np.trapezoid(f * np.exp(-1j * xi0 * x), x) / math.sqrt(TWO_PI)
        assert abs(u.coeffs[g.zero_index + 20] - oracle) <= 1e-8

    def test_determinism(self):
        g = make_grid(64, 16.0)
        a = make_test_field(g, "random_bandlimited", seed=11, band=4.0)
        b = make_test_field(g, "random_bandlimited", seed=11, band=4.0)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_band_respected(self):
        g = make_grid(64, 16.0)
        u = make_test_field(g, "random_bandlimited", seed=12, band=4.0)
        outside = np.abs(g.frequencies) > 4.0 + 1e-12
        assert np.max(np.abs(u.coeffs[outside])) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        n_modes=st.sampled_from([8, 32, 64]),
        box=st.floats(1.0, 100.0),
        fraction=st.floats(0.0, 1.0),
        on_a_mode=st.booleans(),
        complex_field=st.booleans(),
    )
    def test_a_band_admits_the_modes_within_it(self, n_modes, box, fraction, on_a_mode, complex_field):
        """The one band rule: the modes |xi| <= band (up to 1e-9 spacings of
        roundoff), at least one nonzero mode and at most largest_band; the
        draws fill exactly those modes."""
        g = make_grid(n_modes, box)
        band = fraction * g.largest_band
        if on_a_mode:  # a band that lands on a mode admits it
            band = round(band / g.spacing) * g.spacing
        inside = np.abs(g.frequencies) <= band + 1e-9 * g.spacing
        if np.sum(inside) == 1:  # the zero mode alone
            message = f"band {band!r} admits no nonzero mode: .* the grid spacing {g.spacing!r}"
            with pytest.raises(ValueError, match=message):
                g.band_modes(band)
            with pytest.raises(ValueError, match=message):
                make_test_field(g, "random_bandlimited", band=band, complex_field=complex_field)
            return
        assert np.array_equal(np.abs(g.mode_numbers) <= g.band_modes(band), inside)
        u = make_test_field(g, "random_bandlimited", band=band, complex_field=complex_field)
        assert np.all((u.coeffs != 0.0) == inside)

    def test_band_exceeding_nyquist_rejected(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValueError):
            make_test_field(g, "random_bandlimited", seed=1, band=g.nyquist)

    def test_random_field_is_real(self):
        g = make_grid(64, 16.0)
        u = make_test_field(g, "random_bandlimited", seed=13, band=5.0)
        assert np.max(np.abs(inverse_transform(u).imag)) <= 1e-13

    def test_wave_packet_carrier_validation(self):
        g = make_grid(64, 16.0)
        make_test_field(g, "wave_packet", carrier=8 * g.spacing)
        with pytest.raises(ValueError):
            make_test_field(g, "wave_packet", carrier=0.5 * g.spacing)
        with pytest.raises(ValueError):
            make_test_field(g, "wave_packet", carrier=g.nyquist + 1.0)

    def test_zero_mean_flag(self):
        g = make_grid(64, 16.0)
        u = make_test_field(g, "gaussian", zero_mean=True)
        assert u.coeffs[g.zero_index] == 0.0

    def test_unknown_family(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValueError):
            make_test_field(g, "soliton")
