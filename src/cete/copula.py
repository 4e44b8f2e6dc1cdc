"""Empirical copula transform and copula entropy.

Copula entropy of a random vector equals minus its mutual information; it
is zero iff the variables are independent and strictly negative under
dependence. It is estimated in two steps: map each column of the data to
its empirical CDF values (the rank transform, producing pseudo-observations
on the unit hypercube) and take the kNN differential entropy of the result.

Each column is ranked from one fast (unstable) sort. The sorted column
shows whether it has ties; only a tied column is sorted again, stably, so
that its ties go by row index. An untied column has one sorted order, so
both sorts give the same ranks.
"""
from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .checks import _positive_int
from .core import SeriesMatrix
from .errors import TooFewSamplesError
from .knn_entropy import _slice_entropies
# bench/tracer.py times kl_entropy under this module's name; like
# knn_entropy.cKDTree, the name goes when the library records its own
# spans (ROADMAP item 1)
from .knn_entropy import kl_entropy  # noqa: F401


class ConstantColumnWarning(UserWarning):
    """A column is constant; its ranks carry no information."""


def _require_matrix(x) -> None:
    if not isinstance(x, SeriesMatrix):
        raise TypeError(f"expected a SeriesMatrix, got {type(x).__name__}; "
                        "wrap raw arrays with validate_matrix")


def rank_transform(x: SeriesMatrix) -> SeriesMatrix:
    """Map each column to its empirical CDF values, rank(t) / T.

    Returns the pseudo-observations as a read-only SeriesMatrix with x's
    labels: each column holds a permutation of {1/T .. T/T}.

    Ranks are 1-based, so outputs lie in (0, 1]. Ties are broken by the
    original row index (earlier row gets the smaller rank), which makes the
    pseudo-observations within each column all distinct and the transform
    fully deterministic. The output is invariant under strictly increasing
    transforms applied column-wise to the input.

    Each column is sorted once with numpy's default sort, which also tells
    whether the column is constant or has ties (-0.0 and 0.0 are a tie).
    Only a tied column is sorted a second time, stably.

    Raises
    ------
    TypeError
        If x is not a SeriesMatrix (see :func:`cete.validate_matrix`).
    TooFewSamplesError
        If the matrix has fewer than 2 rows.
    """
    _require_matrix(x)
    if x.T < 2:
        raise TooFewSamplesError(f"rank transform needs T >= 2, got T={x.T}")
    vals = x.values
    out = np.empty_like(vals)
    t = vals.shape[0]
    grid = np.arange(1, t + 1) / t
    for j in range(vals.shape[1]):
        col = vals[:, j]
        order = np.argsort(col)
        ordered = col[order]
        if ordered[0] == ordered[-1]:
            warnings.warn(
                f"column {x.labels[j]!r} is constant; its rank transform is "
                "uninformative",
                ConstantColumnWarning,
                stacklevel=2,
            )
        # an untied column has one sorted order, so only a tied one needs
        # the stable sort that puts its ties in row order
        tied = np.any(ordered[1:] == ordered[:-1])
        del ordered  # the re-sort and the scatter hold no extra column
        if tied:
            order = np.argsort(col, kind="stable")
        out[order, j] = grid
    out.flags.writeable = False
    # finite by construction, so validate_matrix's scan would find nothing
    return SeriesMatrix(values=out, labels=x.labels)


def copula_entropy(x: SeriesMatrix, k: int = 3) -> float:
    """Copula entropy of the columns of x, in nats.

    Returns the kNN entropy of the rank-transformed sample. For a single
    column the result is exactly 0.0 by convention: the rank transform of
    one variable is the deterministic uniform grid and carries no
    dependence information.

    Values are <= 0 up to estimator noise; ~0 indicates independence, and
    more negative values indicate stronger dependence (copula entropy is
    minus the mutual information of the columns).

    Raises
    ------
    TypeError
        If x is not a SeriesMatrix (see :func:`cete.validate_matrix`).
    TypeError, ValueError
        If k is not an integer >= 1.
    TooFewSamplesError
        If T <= k + 1.
    """
    _require_matrix(x)
    return _subset_entropies(x, [slice(None)], k)[0]


def _subset_entropies(x: SeriesMatrix, subsets: Sequence[slice],
                      k: int) -> list[float]:
    """Copula entropy of each column subset of x, ranking x only once.

    Each subset is a slice of x's columns. A column's ranks do not depend
    on which other columns share its matrix, so every subset gives the same
    value, bit for bit, as :func:`copula_entropy` on those columns alone. A
    single-column subset gives exactly 0.0; the others go to the kNN
    estimator together, which may share one search between them.

    Raises
    ------
    TooFewSamplesError
        If T <= k + 1.
    """
    k = _positive_int(k, "k")
    if x.T <= k + 1:
        raise TooFewSamplesError(
            f"copula entropy needs T > k + 1, got T={x.T} with k={k}"
        )
    if x.d == 1:
        return [0.0] * len(subsets)
    widths = [len(range(x.d)[cols]) for cols in subsets]
    pobs = rank_transform(x).values
    # a caller that hands over its only reference to the raw sample gets it
    # freed here, before the kNN searches run beside the pseudo-observations
    del x
    wide = iter(_slice_entropies(
        pobs, [cols for cols, w in zip(subsets, widths) if w > 1], k))
    return [next(wide) if w > 1 else 0.0 for w in widths]
