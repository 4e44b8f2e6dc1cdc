"""k-nearest-neighbor differential entropy estimation (Kozachenko-Leonenko).

The estimator needs, for every point, the distance to its k-th nearest
neighbor under the maximum (Chebyshev) norm. It is found with a k-d tree
in every dimension; under the max norm the tree's k-th-neighbor distance
is exact, equal bit for bit to the one a full pairwise scan gives.

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
from .core import _as_float, _check_finite, _freeze
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
    """scipy's k-d tree over ``points``; scipy.spatial is imported on the
    first call.

    ``knn_distances`` looks the tree up under this module-level name on
    every call, because the traced benchmark replaces the name to time
    tree builds and queries. Once the library records its own trace
    spans, this shim can go and ``knn_distances`` can import the tree.
    """
    from scipy.spatial import cKDTree as tree

    return tree(points)


def knn_distances(points, k: int) -> NeighborDistances:
    """Doubled distance from each point to its k-th nearest neighbor.

    Parameters
    ----------
    points : array_like, shape (N, d)
        Point cloud; points must be pairwise distinct.
    k : int
        Neighbor index, 1 <= k < N.

    Raises
    ------
    TypeError
        If the points are complex.
    TypeError, ValueError
        If k is not an integer >= 1.
    KTooLargeError
        If k >= N.
    NonFiniteError
        If a coordinate is NaN or infinite (the first, row-major).
    DuplicatePointsError
        If some k-th neighbor distance is zero.
    """
    pts = np.ascontiguousarray(_as_float(points))
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    k = _positive_int(k, "k")
    if k >= n:
        raise KTooLargeError(f"k={k} must be smaller than the number of points N={n}")
    _check_finite(pts)
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
    return NeighborDistances(eps=_freeze(2.0 * kth))


def kl_entropy(points, k: int = 3) -> float:
    """Differential entropy of a point cloud, in nats.

    Implements the k-nearest-neighbor estimator

        H = psi(N) - psi(k) + (d / N) * sum_i log(eps_i)

    where eps_i is twice the max-norm distance from point i to its k-th
    nearest neighbor. Under the max norm the unit-ball log-volume term is
    zero, so no further constant appears.

    Parameters
    ----------
    points : array_like, shape (N, d)
    k : int
        Neighbor index, 1 <= k < N (default 3).
    """
    from scipy.special import digamma

    pts = np.ascontiguousarray(_as_float(points))
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n, d = pts.shape
    nd = knn_distances(pts, k)
    return float(digamma(n) - digamma(k) + d * np.mean(np.log(nd.eps)))
