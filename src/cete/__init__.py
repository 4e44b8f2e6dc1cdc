"""Nonparametric causality analysis via copula entropy.

Estimates mutual information and transfer entropy from time series
without distributional assumptions: samples are rank-transformed onto
the unit cube and the entropy of the resulting empirical copula is
measured with a k-nearest-neighbor estimator. Transfer entropy comes out
as a signed sum of four such copula entropies. An exactly solvable
autoregressive pair (and its Granger form) serves as the test oracle,
and loaders for the hourly air-quality benchmark CSV are included.
"""
from .causality import (
    EmbeddingSpec,
    build_embedding,
    cmi_four_entropy_baseline,
    lag_scan,
    transfer_entropy,
)
from .copula import ConstantColumnWarning, copula_entropy, rank_transform
from .core import (
    LagScanResult,
    SeriesMatrix,
    TeEstimate,
    validate_matrix,
)
from .errors import CeteError
from .ingest import (
    ByDateRange,
    FirstCompleteRun,
    PM25_HEADER,
    Pm25Table,
    parse_pm25_csv,
    read_columns,
    select_window,
    to_series_matrix,
)
from .knn_entropy import kl_entropy, knn_distances
from .oracle import (
    Var2Spec,
    analytic_var_te,
    gaussian_ce,
    granger_variance_ratio,
    simulate_var2,
    standard_normals,
    stationary_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CeteError",
    "SeriesMatrix",
    "TeEstimate",
    "LagScanResult",
    "validate_matrix",
    "ConstantColumnWarning",
    "rank_transform",
    "copula_entropy",
    "knn_distances",
    "kl_entropy",
    "EmbeddingSpec",
    "build_embedding",
    "transfer_entropy",
    "cmi_four_entropy_baseline",
    "lag_scan",
    "Var2Spec",
    "standard_normals",
    "simulate_var2",
    "stationary_covariance",
    "analytic_var_te",
    "granger_variance_ratio",
    "gaussian_ce",
    "PM25_HEADER",
    "Pm25Table",
    "ByDateRange",
    "FirstCompleteRun",
    "parse_pm25_csv",
    "read_columns",
    "select_window",
    "to_series_matrix",
]
