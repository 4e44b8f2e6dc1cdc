"""Transfer entropy from copula entropies, and lag scans of it.

Transfer entropy from a cause series X to an effect series Y is the
conditional mutual information I(Y_future ; X_now | Y_past). Here it is
computed as a signed sum of four copula entropies of the lag-embedded
sample:

    TE = -CE(y_fut, y_past, x) + CE(y_fut, y_past) + CE(y_past, x) - CE(y_past)

The last term is the copula entropy of the past block alone and is exactly
zero when the Markov order is 1. Because every term passes through the rank
transform, TE is invariant under strictly increasing transforms of either
series.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import _check_lags, _positive_int
from .copula import _subset_entropies
from .core import LagScanResult, SeriesMatrix, TeEstimate, validate_matrix
from .errors import CeteError, EmptyInputError, LengthMismatchError, SeriesTooShortError


@dataclass(frozen=True)
class EmbeddingSpec:
    """Cause-to-effect lag and Markov order of the effect's past block."""

    lag: int
    order_m: int = 1

    def __post_init__(self):
        # Python ints, so that a NumPy integer given here does not reach
        # n_effective and every result made with this spec
        for name in ("lag", "order_m"):
            value = _positive_int(getattr(self, name), name)
            object.__setattr__(self, name, value)

    def n_effective(self, t: int) -> int:
        return t - self.lag - self.order_m + 1


def _columns(spec: EmbeddingSpec) -> tuple[tuple[int, int], ...]:
    """The embedding's columns as (series, time offset from the base row),
    series 0 = y and 1 = x; the one statement of the layout."""
    return ((0, spec.lag), *((0, -j) for j in range(spec.order_m)), (1, 0))


_FUTURE = 0               # y_fut
_JOINT = slice(None)      # y_fut, y_past, x
_SELF = slice(None, -1)   # y_fut, y_past
_ASSOC = slice(1, None)   # y_past, x
_PAST = slice(1, -1)      # y_past
_TERMS = (_JOINT, _SELF, _ASSOC, _PAST)  # in TeEstimate's order


def build_embedding(x, y, spec: EmbeddingSpec) -> SeriesMatrix:
    """Align two series into the joint (future, past block, cause) sample.

    Returns a read-only SeriesMatrix of shape (n_effective, order_m + 2)
    with labels ``y_fut, y_past0 .. y_past{m-1}, x``. Row r corresponds to
    base time index i = (order_m - 1) + r of the original series:
    y_fut[r] = Y[i + lag], y_past{j}[r] = Y[i - j] and x[r] = X[i].

    Raises
    ------
    EmptyInputError
        If x or y is not 1-d, i.e. not of shape (T,).
    LengthMismatchError
        If x and y differ in length.
    SeriesTooShortError
        If no complete row fits, i.e. T - lag - order_m + 1 < 1.
    TypeError
        If x or y does not hold real numbers (see
        :func:`cete.validate_matrix`).
    NonFiniteError
        If x or y holds a NaN or an infinity anywhere, at any lag; the
        error names the series index as its row and x (0) or y (1) as its
        column.
    """
    if np.ndim(x) != 1 or np.ndim(y) != 1:
        raise EmptyInputError(f"x and y must be 1-d, got ndim={np.ndim(x)}, {np.ndim(y)}")
    if len(x) != len(y):
        raise LengthMismatchError(f"len(x)={len(x)} != len(y)={len(y)}")
    n_eff = spec.n_effective(len(y))
    if n_eff < 1:
        raise SeriesTooShortError(
            f"series of length {len(y)} leaves no samples for lag={spec.lag}, "
            f"order_m={spec.order_m}"
        )
    try:
        xy = np.column_stack((x, y))
    except TypeError:  # no common type, such as dates beside numbers
        dtypes = f"{np.asarray(x).dtype} and {np.asarray(y).dtype}"
        raise TypeError(f"expected real values, got dtypes {dtypes}") from None
    x, y = validate_matrix(xy, ("x", "y")).values.T
    base = spec.order_m - 1
    values = np.column_stack([(y, x)[s][base + offset:][:n_eff]
                              for s, offset in _columns(spec)])
    values.flags.writeable = False
    labels = ("y_fut", *(f"y_past{j}" for j in range(spec.order_m)), "x")
    return SeriesMatrix(values=values, labels=labels)


def transfer_entropy(x, y, spec: EmbeddingSpec, k: int = 3) -> TeEstimate:
    """Transfer entropy X -> Y in nats, with its copula-entropy terms.

    Parameters
    ----------
    x, y : array_like, shape (T,)
        Cause and effect series.
    spec : EmbeddingSpec
        Lag and Markov order for the embedding.
    k : int
        Neighbor index of the kNN entropy estimator (default 3).

    Returns
    -------
    TeEstimate
        te_nats plus the four constituent copula entropies and the
        effective sample count. The ce_past term is exactly 0.0 when
        order_m is 1.

    Raises
    ------
    EmptyInputError, LengthMismatchError, SeriesTooShortError,
    TypeError, NonFiniteError
        As :func:`build_embedding`, which checks x and y first.
    TypeError, ValueError
        If k is not an integer >= 1. The spec's lag and order_m are
        checked the same way when the EmbeddingSpec is made.
    TooFewSamplesError
        If n_effective <= k + 1.
    """
    # every term is a column subset of the joint block, so it is ranked
    # once for all four; the block is passed without a local name, so its
    # raw values are freed before the kNN searches
    return TeEstimate(*_subset_entropies(build_embedding(x, y, spec),
                                         _TERMS, k),
                      n_effective=spec.n_effective(np.size(y)))


def lag_scan(x, y, lags: Sequence[int], order_m: int = 1,
             k: int = 3) -> LagScanResult:
    """Transfer entropy X -> Y at each of the given lags.

    Lags must be strictly increasing positive integers. Each lag is
    evaluated on its own embedding, so the effective sample count shrinks
    as the lag grows. A failure at any lag aborts the scan with the lag
    named in the error.

    Raises
    ------
    TypeError, ValueError
        If a lag is not an integer >= 1, or the lags are none or not
        strictly increasing, before any estimate is made; then, at the
        first lag, if order_m or k is not an integer >= 1, or x or y
        does not hold real numbers.
    CeteError
        Any :class:`~cete.errors.CeteError` of :func:`transfer_entropy` at
        a lag, re-raised with the message prefixed by ``lag L:``, L that
        lag: EmptyInputError, LengthMismatchError and NonFiniteError of
        :func:`build_embedding` at the first lag, SeriesTooShortError once
        n_effective falls below 1 and TooFewSamplesError once it is at
        most k + 1.
    """
    entries = []
    for lag in _check_lags(lags):
        try:
            # a module-global lookup per call, so that a replacement of
            # this module's attribute takes effect
            est = transfer_entropy(x, y, EmbeddingSpec(lag=lag,
                                                       order_m=order_m), k)
        except CeteError as err:
            err.args = (f"lag {lag}: {err}",)
            raise
        entries.append((lag, est))
    return LagScanResult(entries=tuple(entries))
