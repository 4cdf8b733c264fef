"""extorus: extreme-value statistics of hyperbolic torus maps.

Closed-form extremal indices, cluster-size laws, and compound counting
distributions for area-preserving hyperbolic integer torus maps,
validated against exact-arithmetic Monte Carlo simulation of the
dynamics.
"""

__version__ = "0.1.0"

from .errors import (
    DeterminantNotOne,
    ExtorusError,
    NoExceedances,
    NotHyperbolic,
    OutOfLocalRange,
    RadiusTooLarge,
    TooFewGaps,
)
from .formulas import (
    ExtremalModel,
    area_A_q,
    ball_measure,
    extremal_index,
    multiplicity_pi,
    nested_area_U,
    polya_aeppli_pmf,
    strip_area_Q,
    threshold_radius,
    threshold_u_n,
    wrap_time_g,
)
from .regions import (
    MeasureEstimate,
    RegionKind,
    RegionSpec,
    monte_carlo_measure,
    separation_check,
)
from .simulate import (
    Clusters,
    ClusterSummary,
    ExperimentConfig,
    Records,
    TrialRecord,
    chi_square_vs_pmf,
    decluster_all,
    ei_measure_ratio,
    empirical_extremal_index,
    empirical_multiplicity,
    estimate_block_maxima_cdf,
    estimate_run,
    gap_ks_statistic,
    repp_counts,
    run_experiment,
)
from .torus import (
    Ball,
    MetricKind,
    ToralAutomorphism,
    TorusPoint,
    compute_period,
)

__all__ = [
    "__version__",
    "ExtorusError",
    "DeterminantNotOne",
    "NotHyperbolic",
    "RadiusTooLarge",
    "OutOfLocalRange",
    "NoExceedances",
    "TooFewGaps",
    "MetricKind",
    "Ball",
    "ToralAutomorphism",
    "TorusPoint",
    "compute_period",
    "ExtremalModel",
    "threshold_u_n",
    "threshold_radius",
    "ball_measure",
    "extremal_index",
    "area_A_q",
    "strip_area_Q",
    "nested_area_U",
    "multiplicity_pi",
    "polya_aeppli_pmf",
    "wrap_time_g",
    "RegionKind",
    "RegionSpec",
    "MeasureEstimate",
    "monte_carlo_measure",
    "separation_check",
    "ExperimentConfig",
    "Records",
    "TrialRecord",
    "Clusters",
    "ClusterSummary",
    "run_experiment",
    "estimate_block_maxima_cdf",
    "estimate_run",
    "decluster_all",
    "empirical_extremal_index",
    "empirical_multiplicity",
    "gap_ks_statistic",
    "repp_counts",
    "chi_square_vs_pmf",
    "ei_measure_ratio",
]
