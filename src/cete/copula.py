"""Empirical copula transform and copula entropy.

Copula entropy of a random vector equals minus its mutual information; it
is zero iff the variables are independent and strictly negative under
dependence. It is estimated in two steps: map each column of the data to
its empirical CDF values (the rank transform, producing pseudo-observations
on the unit hypercube) and take the kNN differential entropy of the result.
"""
from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .checks import _positive_int
from .core import SeriesMatrix
from .errors import TooFewSamplesError
from .knn_entropy import kl_entropy

__all__ = [
    "ConstantColumnWarning",
    "rank_transform",
    "copula_entropy",
]


class ConstantColumnWarning(UserWarning):
    """A column is constant; its ranks carry no information."""


def rank_transform(x: SeriesMatrix) -> SeriesMatrix:
    """Map each column to its empirical CDF values, rank(t) / T.

    Returns the pseudo-observations as a read-only SeriesMatrix with x's
    labels: each column holds a permutation of {1/T .. T/T}.

    Ranks are 1-based, so outputs lie in (0, 1]. Ties are broken by the
    original row index (earlier row gets the smaller rank), which makes the
    pseudo-observations within each column all distinct and the transform
    fully deterministic. The output is invariant under strictly increasing
    transforms applied column-wise to the input.

    Raises
    ------
    TooFewSamplesError
        If the matrix has fewer than 2 rows.
    """
    if x.T < 2:
        raise TooFewSamplesError(f"rank transform needs T >= 2, got T={x.T}")
    vals = x.values
    out = np.empty_like(vals)
    t = vals.shape[0]
    for j in range(vals.shape[1]):
        col = vals[:, j]
        if col.min() == col.max():
            warnings.warn(
                f"column {x.labels[j]!r} is constant; its rank transform is "
                "uninformative",
                ConstantColumnWarning,
                stacklevel=2,
            )
        # stable sort = ties broken by original row index
        order = np.argsort(col, kind="stable")
        ranks = np.empty(t, dtype=float)
        ranks[order] = np.arange(1, t + 1)
        out[:, j] = ranks / t
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
    TypeError, ValueError
        If k is not an integer >= 1.
    TooFewSamplesError
        If T <= k + 1.
    """
    return _subset_entropies(x, [slice(None)], k)[0]


def _subset_entropies(x: SeriesMatrix, subsets: Sequence[slice],
                      k: int) -> list[float]:
    """Copula entropy of each column subset of x, ranking x only once.

    Each subset is a slice of x's columns. A column's ranks do not depend
    on which other columns share its matrix, so every subset gives the same
    value, bit for bit, as :func:`copula_entropy` on those columns alone. A
    single-column subset gives exactly 0.0.

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
    pobs = rank_transform(x).values
    # a caller that hands over its only reference to the raw sample gets it
    # freed here, before the kNN searches run beside the pseudo-observations
    del x
    out = []
    for cols in subsets:
        block = pobs[:, cols]
        out.append(0.0 if block.shape[1] == 1 else kl_entropy(block, k))
    return out
