"""k-nearest-neighbor differential entropy estimation (Kozachenko-Leonenko).

The estimator needs, for every point, the distance to its k-th nearest
neighbor under the maximum (Chebyshev) norm. It is found with a k-d tree
in every dimension; under the max norm the tree's k-th-neighbor distance
is exact, equal bit for bit to the one a full pairwise scan gives.

The tree splits each cell at its sliding midpoint rather than at the
median (Maneewongvatana and Mount, "It's okay to be skinny, if your
friends are fat", 1999). The split changes only the tree's shape, not the
distances it finds. At N = 1e4 to 1e5 and d <= 5 it builds 35-45% faster
than median splits, for queries about 3% slower.

The points are queried in the tree's own leaf order, a fixed-size block
at a time, so that consecutive queries touch the same part of the tree.
Each result is written back to its point's row, so distances, errors and
sums keep the caller's row order, and memory stays flat: no reordered
copy of the whole point set is made.

scipy is imported on the first estimate, not with this module: its k-d
tree and digamma cost more to import than the rest of cete, so
``cete --version``, ``synth``, ``oracle`` and callers that only read CSVs
never pay for them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import _positive_int
from .core import _table
from .errors import DuplicatePointsError, KTooLargeError

__all__ = ["knn_distances", "kl_entropy"]

_QUERY_BLOCK = 8192  # points per tree query; 4096 to 65536 measured alike


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
    from scipy.special import digamma

    nd = knn_distances(points, k)
    # the points passed knn_distances' check, so they are 1-d or 2-d
    shape = np.shape(points)
    d = shape[1] if len(shape) == 2 else 1
    return float(digamma(nd.n) - digamma(k) + d * np.mean(np.log(nd.eps)))
