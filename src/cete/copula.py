"""Empirical copula transform and copula entropy.

Copula entropy of a random vector equals minus its mutual information; it
is zero iff the variables are independent and strictly negative under
dependence. It is estimated in two steps: rank each column of the data
(the rank transform; ranks / T are the pseudo-observations, the empirical
CDF values on the unit hypercube) and take the kNN differential entropy of
the pseudo-observations, which the kNN layer reads from the integer ranks.

A constant column is independent of every other column, so it drops out of
each copula entropy: a column subset with fewer than two non-constant
columns has copula entropy exactly 0.0, and the others are estimated on
their non-constant columns alone.

Each column is ranked from one fast (unstable) sort. The sorted column
shows whether it has ties; only a tied column is sorted again, stably, so
that its ties go by row index. An untied column has one sorted order, so
both sorts give the same ranks, which are written from the sort.
"""
from __future__ import annotations

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


def _require_matrix(x) -> None:
    if not isinstance(x, SeriesMatrix):
        raise TypeError(f"expected a SeriesMatrix, got {type(x).__name__}; "
                        "wrap raw arrays with validate_matrix")


def rank_transform(x: SeriesMatrix) -> SeriesMatrix:
    """Rank each column of x, 1..T.

    Returns the ranks as a read-only int32 SeriesMatrix with x's labels:
    each column holds a permutation of 1..T, and divided by T they are the
    pseudo-observations, the column's empirical CDF values.

    Ties are broken by the original row index (earlier row gets the smaller
    rank), which makes the ranks within each column all distinct and the
    transform fully deterministic. The output is invariant under strictly
    increasing transforms applied column-wise to the input.

    Each column is sorted once with numpy's default sort, which also tells
    whether the column has ties (-0.0 and 0.0 are a tie). Only a tied
    column, a constant one too, is sorted a second time, stably.

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
    out = np.empty(vals.shape, np.int32)
    ranks = np.arange(1, x.T + 1, dtype=np.int32)
    for j in range(vals.shape[1]):
        col = vals[:, j]
        order = np.argsort(col)
        ordered = col[order]
        # an untied column has one sorted order, so only a tied one needs
        # the stable sort that puts its ties in row order
        tied = np.any(ordered[1:] == ordered[:-1])
        del ordered  # the re-sort and the scatter hold no extra column
        if tied:
            order = np.argsort(col, kind="stable")
        out[order, j] = ranks
    out.flags.writeable = False
    # finite by construction, so validate_matrix's scan would find nothing
    return SeriesMatrix(values=out, labels=x.labels)


def copula_entropy(x: SeriesMatrix, k: int = 3) -> float:
    """Copula entropy of the columns of x, in nats.

    Returns the kNN entropy of the rank-transformed sample, without its
    constant columns: a constant column is independent of the others and
    contributes exactly 0. With fewer than two non-constant columns, a
    single column among them, the result is exactly 0.0.

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

    Each subset is a contiguous slice of x's columns. The constant columns
    of x are found once and dropped, and each slice is mapped to the slice
    of the kept columns it holds, which stay contiguous among them. A
    subset that keeps fewer than two columns gives exactly 0.0, and x is
    ranked only if some subset keeps two. Subsets that keep the same
    columns share one estimate. A column's ranks do not depend
    on which other columns share its matrix, so every subset gives the
    same value, bit for bit, as :func:`copula_entropy` on its columns
    alone; the subsets go to the kNN estimator together, which may share
    one search between them.

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
    # the constant columns drop out; only a column whose first and last
    # values agree is read in full
    keep = [j for j in range(x.d) if x.values[0, j] != x.values[-1, j]
            or np.any(x.values[:, j] != x.values[0, j])]
    bound = np.searchsorted(keep, range(x.d + 1)).tolist()
    kept = [(bound[r.start], bound[r.stop])
            for r in (range(x.d)[cols] for cols in subsets)]
    # each distinct kept slice is searched once; (start, stop) pairs are
    # the keys, as a slice is unhashable before Python 3.12
    wide = list(dict.fromkeys(b for b in kept if b[1] - b[0] > 1))
    if not wide:
        return [0.0] * len(subsets)
    if len(keep) < x.d:
        x = SeriesMatrix(x.values[:, keep], tuple(x.labels[j] for j in keep))
    # the raw sample is freed where the caller handed over its only
    # reference, so that the int32 ranks alone live through the kNN searches
    ranks = rank_transform(x).values
    del x
    entropies = _slice_entropies(ranks, [slice(*b) for b in wide], k)
    return [entropies[wide.index(b)] if b in wide else 0.0 for b in kept]
