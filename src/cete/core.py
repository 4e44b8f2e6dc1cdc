"""Shared data model: observation matrices, results and the input checks.

All types are immutable after construction and safe to share across workers.
Every entropy-like quantity in this package is expressed in nats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DuplicateLabelError, EmptyInputError, NonFiniteError


def _table(values) -> np.ndarray:
    """values as a C-contiguous float64 (T, d) table, a 1-d input as one
    column: the one check of array input, with the refusals that
    :func:`validate_matrix` lists. It may return values itself.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype == object:  # rows or numbers held as Python objects
            arr = np.asarray(arr.tolist())
    except ValueError:  # numpy refuses nested sequences of unequal lengths
        raise EmptyInputError("ragged rows: expected a 1-d or 2-d table") from None
    if arr.dtype == object:  # what numpy could not read as one number type
        try:
            arr = arr.astype(float)
        except (TypeError, ValueError):
            pass
    # bool, integers and floats; not complex numbers, text, bytes, dates or
    # durations, whose float casts lose or invent values
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"expected real values, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=float, order="C")
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise EmptyInputError(f"expected a non-empty 1-d or 2-d table, got "
                              f"shape {arr.shape}, ndim={arr.ndim}")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NonFiniteError(int(row), int(col))
    return arr


@dataclass(frozen=True)
class SeriesMatrix:
    """T x d matrix of finite real observations; rows are time, columns are variables."""

    values: np.ndarray
    labels: tuple[str, ...]

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.labels.index(label)]


def validate_matrix(values, labels: Sequence[str] | None = None) -> SeriesMatrix:
    """Validate a raw rectangular table and wrap it as a SeriesMatrix.

    Parameters
    ----------
    values : array_like, shape (T, d)
        Rectangular table of real numbers. A 1-d array is treated as a
        single column.
    labels : sequence of str, optional
        Column names; defaults to ``c0 .. c{d-1}``. Must be distinct.

    Raises
    ------
    TypeError
        If the table does not hold real numbers: complex numbers, text
        (numeric text included), bytes, dates, durations or objects that
        do not convert to float.
    EmptyInputError
        If the table is ragged, neither 1-d nor 2-d, or has zero rows or
        columns.
    NonFiniteError
        If any entry is NaN or infinite (reports the first, row-major).
    DuplicateLabelError
        If the number of labels differs from the number of columns, or two
        labels coincide.
    """
    arr = _table(values)
    if labels is None:
        labels = tuple(f"c{i}" for i in range(arr.shape[1]))
    else:
        labels = tuple(str(s) for s in labels)
    if len(labels) != arr.shape[1]:
        raise DuplicateLabelError(
            f"{len(labels)} labels for {arr.shape[1]} columns"
        )
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError(f"labels not distinct: {labels}")
    # freeze our own copy, never the caller's buffer; the cast always copies
    # a list or tuple, and asking would convert it once more
    if (not isinstance(values, (list, tuple))
            and np.may_share_memory(arr, values)):
        arr = arr.copy()
    arr.flags.writeable = False
    return SeriesMatrix(values=arr, labels=labels)


@dataclass(frozen=True)
class TeEstimate:
    """Transfer entropy estimate together with its four entropy terms.

    te_nats always equals ``-ce_joint + ce_self + ce_assoc - ce_past``
    exactly; construction enforces the identity. The terms are copula
    entropies: kNN entropies of the rank-transformed embedding.
    """

    ce_joint: float   # entropy of (y_future, y_past block, x_cause)
    ce_self: float    # entropy of (y_future, y_past block)
    ce_assoc: float   # entropy of (y_past block, x_cause)
    ce_past: float    # entropy of the y_past block; 0 by convention
                      # when m = 1
    n_effective: int
    te_nats: float = field(init=False)

    def __post_init__(self):
        if self.n_effective < 1:
            raise ValueError(f"n_effective must be >= 1, got {self.n_effective}")
        object.__setattr__(
            self, "te_nats",
            -self.ce_joint + self.ce_self + self.ce_assoc - self.ce_past,
        )


@dataclass(frozen=True)
class LagScanResult:
    """Ordered lag -> TeEstimate map for one directed (cause, effect) pair.

    Built by ``lag_scan``, which checks the lag rule: at least one entry,
    lags strictly increasing.
    """

    entries: tuple[tuple[int, TeEstimate], ...]

    @property
    def lags(self) -> list[int]:
        return [lag for lag, _ in self.entries]

    @property
    def te_values(self) -> list[float]:
        return [est.te_nats for _, est in self.entries]
