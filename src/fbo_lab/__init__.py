"""Pseudospectral laboratory for the fractional-dispersion Benjamin-Ono flow."""

from .conservation import AprioriReport, apriori_check, l2_drift
from .estimates import (
    RatioReport,
    RegionLabel,
    bilinear_I,
    bilinear_K,
    classify_region,
    estimate_ratio,
    pointwise_infimum,
    resonance,
    spacetime_inner,
)
from .evolution import (
    BlowUpError,
    PicardHistory,
    Trajectory,
    duhamel_apply,
    export_trajectory_binary,
    export_trajectory_csv,
    load_trajectory_binary,
    nonlinearity,
    picard_solve,
    solve_reference,
)
from .norms import (
    EstimateParams,
    SpaceTimeField,
    admissible_b_prime_bound,
    bourgain_norm,
    localized_lift,
    mixed_lebesgue_norm,
    sobolev_norm,
)
from .spectral import (
    BUMP_PROFILE,
    FrequencyGrid,
    SpectralField,
    bump,
    forward_transform,
    inverse_transform,
    l2_norm,
    make_grid,
    make_test_field,
    propagate,
)

__version__ = "0.1.0"
