"""Numerical laboratory for the discrepancy of random set systems.

Builds random 0/1 incidence matrices, computes the Fourier transforms of
their signed-discrepancy vectors exactly and by Monte Carlo, checks the
transform decay and spike-dominance inequalities, inverts the transform
into point probabilities, and searches for low-discrepancy colorings.
"""

from .setsystem import (
    Coloring,
    DistributionMatrix,
    GenMeta,
    IncidenceMatrix,
    covariance_empirical,
    covariance_expected,
    disc_of_coloring,
    max_column_frequency,
    sample_bernoulli,
    sample_semirandom,
    signed_discrepancy,
)
from .smoothing import (
    ParitySmoother,
    SmoothingSpec,
    build_pmf,
    check_rhat_bounds,
    parity_rhat,
    rhat_1d,
    rhat_md,
    rho,
)
from .fourier import (
    Estimate,
    Region,
    check_quadratic_approx,
    dhat,
    dhat_bruteforce,
    dhat_partial,
    far_region_integral,
    gaussian_density_zero,
    gaussian_fhat,
    integrate_mc,
    one_factor_abs_cos_exact,
    spike_dominance_x,
    xhat,
)
from .inversion import (
    PointProbability,
    cancellation_check,
    distribution_exact,
    prob_even_variant,
    prob_exact,
    prob_fourier_mc,
    three_region_assembly,
)
from .solvers import (
    SearchResult,
    count_colorings_within,
    counting_bound,
    exhaustive_min_disc,
    local_search,
    random_search,
)
from .rng import stream

__version__ = "0.1.0"
