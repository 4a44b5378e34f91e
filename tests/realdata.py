"""Helpers for the reality tests: real data drawn by hypothesis and the
conjugate-symmetry error of their coefficients.

Reality is declared by how data are drawn, not detected by the library, so
its preservation is checked in the tests that import these.
"""

import numpy as np
from hypothesis import strategies as st

from fbo_lab import make_grid, make_test_field


def hermitian_error(coeffs, scale=None):
    """Largest |c(-xi) - conj(c(xi))| over the paired modes k = -N/2+1 .. N/2-1
    of each row of ascending coefficients, and |Im c| at the unpaired mode
    k = N/2, relative to scale, by default the largest |c| (0 for zero
    coefficients)."""
    coeffs = np.atleast_2d(coeffs)
    if scale is None:
        scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return 0.0
    paired = coeffs[:, :-1]
    err = max(np.max(np.abs(paired - np.conj(paired[:, ::-1]))), np.max(np.abs(coeffs[:, -1].imag)))
    return float(err / scale)


@st.composite
def real_fields(draw):
    """A make_test_field draw of a real family on a 32-128 mode grid."""
    n_modes = draw(st.sampled_from([32, 64, 128]))
    g = make_grid(n_modes, draw(st.sampled_from([16.0, 32.0])))
    family = draw(st.sampled_from(["gaussian", "wave_packet", "random_bandlimited"]))
    amplitude = draw(st.floats(0.05, 0.3))
    if family == "random_bandlimited":
        band = draw(st.floats(g.spacing, g.nyquist - g.spacing))
        seed = draw(st.integers(0, 2**16))
        return make_test_field(g, family, seed=seed, band=band, amplitude=amplitude)
    shape = dict(amplitude=amplitude, width=draw(st.floats(0.3, 3.0)),
                 center=draw(st.floats(-2.0, 2.0)))
    if family == "wave_packet":
        shape["carrier"] = draw(st.integers(0, n_modes // 2 - 1)) * g.spacing
    return make_test_field(g, family, **shape)
