"""Transfer entropy from copula entropies, lag scans, and a raw-entropy baseline.

Transfer entropy from a cause series X to an effect series Y is the
conditional mutual information I(Y_future ; X_now | Y_past). Here it is
computed as a signed sum of four copula entropies of the lag-embedded
sample:

    TE = -CE(y_fut, y_past, x) + CE(y_fut, y_past) + CE(y_past, x) - CE(y_past)

The last term is the copula entropy of the past block alone and is exactly
zero when the Markov order is 1. Because every term passes through the rank
transform, TE is invariant under strictly increasing transforms of either
series. The four-entropy baseline estimator, provided for comparison, works
on the raw embedded values instead and does not share that invariance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copula import _subset_entropies
from .core import EstimatorParams, LagScanResult, SeriesMatrix, TeEstimate, validate_matrix
from .errors import CeteError, LengthMismatchError, SeriesTooShortError
from .knn_entropy import kl_entropy

__all__ = [
    "EmbeddingSpec",
    "JointEmbedding",
    "build_embedding",
    "transfer_entropy",
    "cmi_four_entropy_baseline",
    "lag_scan",
]


@dataclass(frozen=True)
class EmbeddingSpec:
    """Cause-to-effect lag and Markov order of the effect's past block."""

    lag: int
    order_m: int = 1

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")
        if self.order_m < 1:
            raise ValueError(f"order_m must be >= 1, got {self.order_m}")

    def n_effective(self, t: int) -> int:
        return t - self.lag - self.order_m + 1


@dataclass(frozen=True)
class JointEmbedding:
    """Row-aligned (Y_future, Y_past block, X_cause) sample.

    Row r corresponds to base time index i = (order_m - 1) + r of the
    original series: y_fut[r] = Y[i + lag], x_cause[r] = X[i], and
    y_past[r, j] = Y[i - j] for j = 0 .. order_m - 1.
    """

    y_fut: np.ndarray
    y_past: np.ndarray
    x_cause: np.ndarray

    @property
    def n_effective(self) -> int:
        return len(self.y_fut)

    @property
    def order_m(self) -> int:
        return self.y_past.shape[1]


def build_embedding(x, y, spec: EmbeddingSpec) -> JointEmbedding:
    """Align two series into the joint (future, past block, cause) sample.

    Raises
    ------
    LengthMismatchError
        If x and y differ in length.
    SeriesTooShortError
        If no complete row fits, i.e. T - lag - order_m + 1 < 1.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(x) != len(y):
        raise LengthMismatchError(f"len(x)={len(x)} != len(y)={len(y)}")
    t = len(y)
    n_eff = spec.n_effective(t)
    if n_eff < 1:
        raise SeriesTooShortError(
            f"series of length {t} leaves no samples for lag={spec.lag}, "
            f"order_m={spec.order_m}"
        )
    base = np.arange(spec.order_m - 1, spec.order_m - 1 + n_eff)
    y_past = np.column_stack([y[base - j] for j in range(spec.order_m)])
    return JointEmbedding(
        y_fut=y[base + spec.lag],
        y_past=y_past,
        x_cause=x[base],
    )


def _block_matrix(*blocks: tuple[str, np.ndarray]) -> SeriesMatrix:
    cols = []
    labels = []
    for name, block in blocks:
        if block.ndim == 1:
            cols.append(block)
            labels.append(name)
        else:
            for j in range(block.shape[1]):
                cols.append(block[:, j])
                labels.append(f"{name}{j}")
    return validate_matrix(np.column_stack(cols), labels)


def transfer_entropy(x, y, spec: EmbeddingSpec,
                     params: EstimatorParams | None = None) -> TeEstimate:
    """Transfer entropy X -> Y in nats, with its copula-entropy terms.

    Parameters
    ----------
    x, y : array_like, shape (T,)
        Cause and effect series.
    spec : EmbeddingSpec
        Lag and Markov order for the embedding.
    params : EstimatorParams, optional
        kNN estimator parameters (k defaults to 3).

    Returns
    -------
    TeEstimate
        te_nats plus the four constituent copula entropies and the
        effective sample count. The ce_past term is exactly 0.0 when
        order_m is 1.
    """
    emb = build_embedding(x, y, spec)
    m = emb.order_m
    # columns (y_fut, y_past0 .. y_past{m-1}, x); every term is a subset of
    # them, so the joint block is validated and ranked once for all four
    ce_joint, ce_self, ce_assoc, ce_past = _subset_entropies(
        _block_matrix(("y_fut", emb.y_fut), ("y_past", emb.y_past),
                      ("x", emb.x_cause)),
        [slice(None), slice(0, m + 1), slice(1, None), slice(1, m + 1)],
        params,
    )
    return TeEstimate(
        ce_joint=ce_joint,
        ce_self=ce_self,
        ce_assoc=ce_assoc,
        ce_past=ce_past,
        n_effective=emb.n_effective,
    )


def cmi_four_entropy_baseline(x, y, spec: EmbeddingSpec,
                              params: EstimatorParams | None = None) -> float:
    """Conditional-MI baseline: four kNN entropies of the raw embedding.

    Estimates the same conditional mutual information as
    :func:`transfer_entropy` but as

        H(y_fut, y_past) + H(x, y_past) - H(y_past) - H(y_fut, y_past, x)

    with each term a kNN differential entropy of the raw (not
    rank-transformed) embedded values. Unlike the copula route, this is
    sensitive to monotone rescaling of the inputs.
    """
    if params is None:
        params = EstimatorParams()
    emb = build_embedding(x, y, spec)
    h_self = kl_entropy(np.column_stack([emb.y_fut, emb.y_past]), params)
    h_assoc = kl_entropy(np.column_stack([emb.x_cause, emb.y_past]), params)
    h_past = kl_entropy(emb.y_past, params)
    h_joint = kl_entropy(
        np.column_stack([emb.y_fut, emb.y_past, emb.x_cause]), params
    )
    return h_self + h_assoc - h_past - h_joint


def lag_scan(x, y, lags: Sequence[int], order_m: int = 1,
             params: EstimatorParams | None = None,
             cause_label: str = "x", effect_label: str = "y") -> LagScanResult:
    """Transfer entropy X -> Y at each of the given lags.

    Lags must be strictly increasing positive integers. Each lag is
    evaluated on its own embedding, so the effective sample count shrinks
    as the lag grows. A failure at any lag aborts the scan with the lag
    named in the error.
    """
    lags = [int(lag) for lag in lags]
    if not lags:
        raise ValueError("at least one lag is required")
    if lags[0] < 1:
        raise ValueError(f"lags must be positive, got {lags[0]}")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValueError(f"lags must be strictly increasing, got {lags}")
    entries = []
    for lag in lags:
        try:
            est = transfer_entropy(x, y, EmbeddingSpec(lag=lag, order_m=order_m),
                                   params)
        except CeteError as err:
            err.args = (f"lag {lag}: {err}",)
            raise
        entries.append((lag, est))
    return LagScanResult(
        cause_label=cause_label,
        effect_label=effect_label,
        order_m=order_m,
        entries=tuple(entries),
    )
