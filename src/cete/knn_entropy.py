"""k-nearest-neighbor differential entropy estimation (Kozachenko-Leonenko).

The estimator needs, for every point, the distance to its k-th nearest
neighbor under the maximum (Chebyshev) norm. Two routes find it, and both
are exact: each returns, bit for bit, the distance a full pairwise scan
gives.

The k-d tree serves any point cloud. It splits each cell at its sliding
midpoint rather than at the median (Maneewongvatana and Mount, "It's okay
to be skinny, if your friends are fat", 1999). The split changes only the
tree's shape, not the distances it finds. At N = 1e4 to 1e5 and d <= 5 it
builds 35-45% faster than median splits, for queries about 3% slower. The
points are queried in the tree's own leaf order, a fixed-size block at a
time, so that consecutive queries touch the same part of the tree. Each
result is written back to its point's row, so distances, errors and sums
keep the caller's row order, and memory stays flat: no reordered copy of
the whole point set is made.

The pairwise pass serves the copula estimator's column slices of one rank
matrix, such as transfer entropy's four nested terms, where the points are
few and the dimensions many. A tree over N points with 16-point leaves has
about log2(N / 16) levels; once that is fewer than two thirds of the axes,
most axes are split on no path from root to leaf and a tree search does
little better than a full scan (Weber, Schek and Blott, VLDB 1998). The
pass then computes every pairwise rank distance once, in blocks of rows,
and shares it between all slices. On transfer-entropy embeddings of VAR(1)
series (N = 300 to 8000, d = 8 to 26, one x86-64 core) it took 0.13-0.52
of the four tree searches' time wherever the rule picks it.

Below 1024 points the pass serves narrow slices too. At d = 3 it takes
1.05-2.1 times the tree's time there, up to 3.5 ms more per
transfer-entropy call at N = 1000 (2.6-2.9 times at N = 1500, hence the
cut), but it needs no scipy: scipy.spatial is imported on the first tree
search, not with this module, and the digamma function is computed here.
Loading scipy costs more than the rest of cete and than a whole lag scan
over a 1000-row window, so ``cete --version``, ``synth``, ``oracle``,
callers that only read CSVs and estimates on fewer than 1024 rows never
load it. ``knn_distances`` and ``kl_entropy`` always search a tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import _positive_int
from .core import _table
from .errors import DuplicatePointsError, KTooLargeError

__all__ = ["knn_distances", "kl_entropy"]

_QUERY_BLOCK = 8192  # points per tree query; 4096 to 65536 measured alike
_PASS_BYTES = 1 << 20  # int16 working arrays of the pairwise pass


@dataclass(frozen=True)
class NeighborDistances:
    """Doubled k-th neighbor distance per point, under the max norm."""

    eps: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eps)


def cKDTree(points):
    """scipy's k-d tree over ``points``, split at sliding midpoints;
    scipy.spatial is imported on the first call.

    ``knn_distances`` looks the tree up under this module-level name on
    every call, because the traced benchmark replaces the name to time
    tree builds and queries. Once the library records its own trace
    spans, this shim can go and ``knn_distances`` can import the tree.
    """
    from scipy.spatial import cKDTree as tree

    return tree(points, balanced_tree=False)


def knn_distances(points, k: int) -> NeighborDistances:
    """Doubled distance from each point to its k-th nearest neighbor.

    Parameters
    ----------
    points : array_like, shape (N, d) or (N,)
        Point cloud; points must be pairwise distinct.
    k : int
        Neighbor index, 1 <= k < N.

    Raises
    ------
    TypeError
        If the points are complex.
    EmptyInputError
        If the points are neither 1-d nor 2-d, or there are none.
    NonFiniteError
        If a coordinate is NaN or infinite (the first, row-major).
    TypeError, ValueError
        If k is not an integer >= 1.
    KTooLargeError
        If k >= N.
    DuplicatePointsError
        If some k-th neighbor distance is zero.
    """
    pts = _table(points)
    n = pts.shape[0]
    k = _positive_int(k, "k")
    if k >= n:
        raise KTooLargeError(f"k={k} must be smaller than the number of points N={n}")
    tree = cKDTree(pts)
    kth = np.empty(n)
    # leaf order keeps consecutive queries in one part of the tree, and the
    # blocks bound the reordered copy (see the module docstring); neighbor
    # k + 1 counts the point itself at distance zero, and asking for that
    # one column alone spares the (N, k + 1) distance and index arrays
    leaf_order = tree.indices
    for start in range(0, n, _QUERY_BLOCK):
        rows = leaf_order[start:start + _QUERY_BLOCK]
        kth[rows] = tree.query(pts[rows], k=[k + 1], p=np.inf)[0][:, 0]
    if np.any(kth == 0.0):
        i = int(np.argmin(kth))
        raise DuplicatePointsError(
            f"point {i} has a zero k-th neighbor distance; points must be distinct"
        )
    kth *= 2.0
    kth.flags.writeable = False
    return NeighborDistances(eps=kth)


def kl_entropy(points, k: int = 3) -> float:
    """Differential entropy of a point cloud, in nats.

    Implements the k-nearest-neighbor estimator

        H = psi(N) - psi(k) + (d / N) * sum_i log(eps_i)

    where eps_i is twice the max-norm distance from point i to its k-th
    nearest neighbor. Under the max norm the unit-ball log-volume term is
    zero, so no further constant appears.

    Parameters
    ----------
    points : array_like, shape (N, d) or (N,)
    k : int
        Neighbor index, 1 <= k < N (default 3).

    Raises the errors of :func:`knn_distances`, in the same order.
    """
    eps = knn_distances(points, k).eps
    # the points passed knn_distances' check, so they are 1-d or 2-d
    shape = np.shape(points)
    return _entropy(eps, shape[1] if len(shape) == 2 else 1, k)


def _entropy(eps: np.ndarray, d: int, k: int) -> float:
    """The estimate of :func:`kl_entropy` from the doubled distances eps of
    N points in d dimensions."""
    return float(_digamma(len(eps)) - _digamma(k) + d * np.mean(np.log(eps)))


# cephes psi, which scipy.special.digamma runs for positive reals
_EULER = 0.57721566490153286061
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2,
          7.57575757575757575758E-3, -4.16666666666666666667E-3,
          3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)


def _digamma(n: int) -> float:
    """psi(n) for a positive integer n, bit for bit scipy's digamma: the
    same operations as cephes psi, in the same order."""
    if n <= 10:
        total = 0.0
        for i in range(1, n):
            total += 1.0 / i
        return total - _EULER
    x = float(n)
    z = 1.0 / (x * x)
    poly = 0.0
    for coef in _PSI_A:
        poly = poly * z + coef
    return math.log(x) - 0.5 / x - z * poly


def _pairwise(n: int, d: int) -> bool:
    """Whether the pairwise pass, not the tree, searches N points in d
    dimensions: when the ranks fit in int16 and either N < 1024, so that
    no scipy is loaded, or a tree of 16-point leaves has fewer levels than
    two thirds of the axes (see the module docstring)."""
    return n < 2 ** 15 and (n < 1024 or math.log2(n / 16) < 2 * d / 3)


def _slice_entropies(pobs: np.ndarray, slices: Sequence[slice],
                     k: int) -> list[float]:
    """:func:`kl_entropy` of each column slice of a rank matrix, bit for bit.

    ``pobs`` holds pseudo-observations: each of its N columns is a
    permutation of {1/N, ..., N/N}, and 1 <= k < N. The route is chosen
    once, from N and the widest slice.
    """
    n, d = pobs.shape
    widths = [len(range(d)[cols]) for cols in slices]
    if _pairwise(n, max(widths, default=0)):
        eps = _pairwise_distances(pobs, slices, k)
    else:
        # one search at a time, so that no earlier distances are held
        # beside the next tree
        eps = (knn_distances(pobs[:, cols], k).eps for cols in slices)
    return [_entropy(e, w, k) for e, w in zip(eps, widths)]


def _pairwise_distances(pobs: np.ndarray, slices: Sequence[slice],
                        k: int) -> list[np.ndarray]:
    """Doubled k-th neighbor distance of every point in every column slice
    of a rank matrix (see :func:`_slice_entropies`), from one pairwise pass.

    Each column's integer ranks rint(N * pobs) are exact. Columns that
    belong to the same slices form an atom, and for each block of rows the
    largest rank difference to every point is taken once per atom; a
    slice's integer Chebyshev distance is the largest over its atoms. Its
    value at order k (the point itself sits at order 0, as in the tree's
    query for neighbor k + 1) bounds the k-th neighbor. On the grid i / N,
    two float distances whose integer distances differ are ordered as those
    are, so the k-th neighbor is among the few points within that bound.
    For them alone the float distance max |pobs_i - pobs_j| is taken, the
    same expression as the tree's, and its k-th smallest is the tree's
    result bit for bit.
    """
    n, d = pobs.shape
    atoms: dict[frozenset, list[int]] = {}
    for col in range(d):
        owners = frozenset(i for i, cols in enumerate(slices)
                           if col in range(d)[cols])
        if owners:
            atoms.setdefault(owners, []).append(col)
    ranks = np.ascontiguousarray(np.rint(pobs * n).astype(np.int16).T)
    # one array per atom, plus diff, joined and kth, all of int16
    rows = max(1, _PASS_BYTES // (2 * n * (len(atoms) + 3)))
    diff, joined, kth = (np.empty((rows, n), np.int16) for _ in range(3))
    atom_dist = {owners: np.empty((rows, n), np.int16) for owners in atoms}
    near: list[list[np.ndarray]] = [[] for _ in slices]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        size = stop - start
        for owners, cols in atoms.items():
            acc = atom_dist[owners][:size]
            for j, col in enumerate(cols):
                delta = diff[:size] if j else acc
                np.subtract(ranks[col, start:stop, None], ranks[col], out=delta)
                np.abs(delta, out=delta)
                if j:
                    np.maximum(acc, delta, out=acc)
        for i in range(len(slices)):
            dist, *more = [atom_dist[owners][:size] for owners in atoms
                           if i in owners]
            if more:
                dist = np.maximum(dist, more[0], out=joined[:size])
                for part in more[1:]:
                    np.maximum(dist, part, out=dist)
            bound = kth[:size]
            np.copyto(bound, dist)
            bound.partition(k, axis=1)
            near[i].append(np.flatnonzero(dist <= bound[:, k, None]) + start * n)
    eps = []
    for cols, found in zip(slices, near):
        row, other = np.divmod(np.concatenate(found), n)
        dist = None
        for col in range(d)[cols]:
            delta = np.abs(pobs[row, col] - pobs[other, col])
            dist = delta if dist is None else np.maximum(dist, delta, out=dist)
        # each row's candidates, nearest first; the point itself leads
        order = np.lexsort((dist, row))
        count = np.bincount(row, minlength=n)
        eps.append(2.0 * dist[order[np.cumsum(count) - count + k]])
    return eps
