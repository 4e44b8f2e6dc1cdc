"""Nonparametric causality analysis via copula entropy.

Estimates mutual information and transfer entropy from time series
without distributional assumptions: samples are rank-transformed onto
the unit cube and the entropy of the resulting empirical copula is
measured with a k-nearest-neighbor estimator. Transfer entropy comes out
as a signed sum of four such copula entropies. An exactly solvable
autoregressive pair, whose transfer entropy has a closed form, serves as
the test oracle, and loaders for the hourly air-quality benchmark CSV are
included.

``_EXPORTS`` below is the one list of public names: the submodules keep
no ``__all__`` of their own. The exports are lazy (PEP 562): ``import
cete`` loads no numpy, and each name, or submodule such as
``cete.causality``, imports its submodule on first access.
"""
import importlib

__version__ = "0.1.0"

# the one list of public names: exported name -> the submodule that defines it
_EXPORTS = {
    "CeteError": "errors",
    "SeriesMatrix": "core",
    "TeEstimate": "core",
    "LagScanResult": "core",
    "validate_matrix": "core",
    "rank_transform": "copula",
    "copula_entropy": "copula",
    "EmbeddingSpec": "causality",
    "build_embedding": "causality",
    "transfer_entropy": "causality",
    "lag_scan": "causality",
    "Var2Spec": "oracle",
    "simulate_var2": "oracle",
    "stationary_covariance": "oracle",
    "analytic_var_te": "oracle",
    "Pm25Table": "ingest",
    "ByDateRange": "ingest",
    "FirstCompleteRun": "ingest",
    "parse_pm25_csv": "ingest",
    "read_columns": "ingest",
    "select_window": "ingest",
    "to_series_matrix": "ingest",
}
_SUBMODULES = ("causality", "checks", "cli", "copula", "core", "errors",
               "ingest", "knn_entropy", "oracle")

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
