"""Numerics for vector-valued smoothness norms, Gaussian-sum operator norms,
and type/cotype constants of finite-dimensional l^p spaces.

The package has three layers.  `spaces`, `montecarlo`, and `functions` supply
the raw material: l^p norms with an exact-infinity sentinel, counter-based
reproducible sampling, and exact piecewise / periodic-grid function calculus.
`besov`, `gamma`, and `typecotype` implement the quantities being compared:
difference-quotient and filter-bank smoothness norms, Gaussian-sum norms of
finite-rank operators, and randomized lower bounds for type and cotype
constants.  `harness` and `cli` wire these into named, seed-reproducible
experiments that emit CSV reports.
"""

from .besov import (FilterBank, apply_multiplier, band_profile,
                    besov_norm_difference, besov_norm_fourier,
                    build_filter_bank, chi, holder_norm, lp_block, lq_norm,
                    modulus_of_continuity, smoothstep, translate_diff_norm)
from .constructions import (make_psi_system, make_single_band, make_step,
                            make_tent_family, psi_profiles, tent_l2_sigmas,
                            tent_widths, zeta_sum)
from .functions import (GridFunction, Interpolation, PiecewiseFunction,
                        dilate, grid_lp_norm, l2_norm_squared, lp_norm)
from .gamma import (DisjointGammaNorm, GammaOperator, PartitionCheck,
                    covariance, covariance_operator, disjoint_lp_from_sigmas,
                    gamma_norm, gamma_norm_disjoint_lp, gamma_norm_hilbert, gamma_norm_mc,
                    ideal_compose, partition_inequality_check)
from .harness import Report, ReportRow, UsageError, run, write_report_csv
from .montecarlo import (MCConfig, MCEstimate, batch_means, derive_seed,
                         gaussian_array, rademacher_array)
from .spaces import (INF, LpSpace, as_exponent, gaussian_p_moment, gaussian_second_moment,
                     l1_gaussian_second_moment)
from .typecotype import ConstantEstimate, cotype_ratio, estimate_constant, type_ratio

__all__ = [
    "INF", "LpSpace", "as_exponent", "gaussian_p_moment", "gaussian_second_moment",
    "l1_gaussian_second_moment",
    "MCConfig", "MCEstimate", "batch_means", "derive_seed", "gaussian_array",
    "rademacher_array",
    "PiecewiseFunction", "GridFunction", "Interpolation", "lp_norm",
    "l2_norm_squared", "grid_lp_norm", "dilate", "smoothstep", "chi",
    "band_profile", "lq_norm", "FilterBank", "build_filter_bank",
    "apply_multiplier", "lp_block", "besov_norm_fourier", "translate_diff_norm",
    "modulus_of_continuity", "besov_norm_difference", "holder_norm",
    "zeta_sum", "make_step", "tent_widths", "tent_l2_sigmas", "make_tent_family",
    "psi_profiles", "make_psi_system", "make_single_band",
    "GammaOperator", "covariance", "covariance_operator",
    "gamma_norm", "gamma_norm_hilbert", "gamma_norm_mc",
    "DisjointGammaNorm", "disjoint_lp_from_sigmas", "gamma_norm_disjoint_lp",
    "ideal_compose", "PartitionCheck", "partition_inequality_check",
    "type_ratio", "cotype_ratio", "ConstantEstimate", "estimate_constant",
    "Report", "ReportRow", "UsageError", "run", "write_report_csv",
    "__version__",
]

__version__ = "0.1.0"
