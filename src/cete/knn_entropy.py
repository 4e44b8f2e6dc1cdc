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
pass takes the integer rank differences in blocks of rows, once for all
slices that share a column. On transfer-entropy embeddings of VAR(1)
series (N = 300 to 8000, d = 8 to 26, one x86-64 core) it took 0.13-0.52
of the four tree searches' time wherever the rule picks it.

The pass compares each point only with a window around it in the order of
one column that every slice contains, such as transfer entropy's y_past0
(the projection search of Friedman, Baskett and Shustek, IEEE Trans.
Computers C-24, 1975). That column's ranks are a permutation of 1..N, so
the point j places away in its order is exactly j ranks away in it, and
every point beyond the W places on either side lies more than W away under
the max norm. A point whose k-th distance within its window is at most W
therefore has all its k nearest neighbors there. Any other point, about 1%
of them on VAR and PM2.5 embeddings, is compared with all N points. W
grows with N, k and the slice's width; where the widest slice's window
would reach all N points, as at Markov order 12, or no column is shared,
every point is compared with all N.

Below 1024 points the pass serves narrow slices too: at d = 3 and N = 300
to 1000 it takes 0.8-1.1 times the tree's time, and it needs no scipy.
scipy.spatial is imported on the first tree search, not with this module,
and the digamma function is computed here. Loading scipy costs more than
the rest of cete and than a whole lag scan over a 1000-row window, so
``cete --version``, ``synth``, ``oracle``, callers that only read CSVs and
estimates on fewer than 1024 rows never load it. ``knn_distances`` and
``kl_entropy`` always search a tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import _positive_int
from .core import _table
from .errors import DuplicatePointsError, KTooLargeError

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


def _half_widths(n: int, widths: Sequence[int], k: int) -> list[int] | None:
    """Window half-width of each slice of the given widths in the pairwise
    pass on N points, or None when the widest slice's window would reach
    all N of them and full rows serve every slice.

    In a uniform sample the k + 1 points nearest a point (itself included)
    lie within about N/2 * ((k + 1) / N)^(1 / d) ranks of it in d
    dimensions; the window reaches 1.6 times as far.
    """
    half = [math.ceil(0.8 * n * ((k + 1) / n) ** (1 / w)) for w in widths]
    return half if half and 2 * max(half) + 1 < n else None


def _pairwise_distances(pobs: np.ndarray, slices: Sequence[slice],
                        k: int) -> list[np.ndarray]:
    """Doubled k-th neighbor distance of every point in every column slice
    of a rank matrix (see :func:`_slice_entropies`), from one pairwise pass.

    Each column's integer ranks rint(N * pobs) are exact, and the pass
    (:func:`_near_pairs`) finds, for every point, the points within its
    k-th smallest integer Chebyshev distance. On the grid i / N, two float
    distances whose integer distances differ are ordered as those are, so
    the k-th neighbor is among these few points. For them alone the float
    distance max |pobs_i - pobs_j| is taken, the same expression as the
    tree's, and its k-th smallest is the tree's result bit for bit.

    The points are put in the order of the first column that every slice
    contains, whose ranks are a permutation of 1..N, so that each is
    compared with a window of its neighbors there (see the module
    docstring).
    """
    n, d = pobs.shape
    spans = [range(d)[cols] for cols in slices]
    ranks = np.rint(pobs * n).astype(np.int16)
    shared = set(range(d)).intersection(*spans)
    half = _half_widths(n, [len(span) for span in spans], k) if shared else None
    order = np.arange(n)
    if half is not None:
        order[ranks[:, min(shared)] - 1] = np.arange(n)
    ranks = np.ascontiguousarray(ranks[order].T)
    near, missed = _near_pairs(ranks, spans, half, k)
    again = np.flatnonzero(missed.any(axis=0))
    if again.size:
        # rows whose window may hide a nearer point, over full rows
        full, _ = _near_pairs(ranks, spans, None, k, again)
        near = [np.concatenate((pairs, more[:, miss[more[0]]]), axis=1)
                for pairs, more, miss in zip(near, full, missed)]
    eps = []
    for span, pairs in zip(spans, near):
        row, other = order[pairs]
        dist = None
        for col in span:
            delta = np.abs(pobs[row, col] - pobs[other, col])
            dist = delta if dist is None else np.maximum(dist, delta, out=dist)
        # each row's candidates lie together, the point itself among them;
        # of k + 1 candidates the k-th nearest is the farthest, and a row
        # with more (tied integer distances) sorts its own
        first = np.flatnonzero(np.diff(row, prepend=-1))
        count = np.diff(first, append=len(row))
        kth = np.maximum.reduceat(dist, first)
        more = count > k + 1
        if more.any():
            dist = dist[np.repeat(more, count)]
            count = count[more]
            nearest = np.lexsort((dist, np.repeat(np.arange(len(count)), count)))
            kth[more] = dist[nearest[np.cumsum(count) - count + k]]
        eps.append(np.empty(n))
        eps[-1][row[first]] = 2.0 * kth
    return eps


def _near_pairs(ranks: np.ndarray, spans: Sequence[range],
                half: list[int] | None, k: int, rows: np.ndarray | None = None
                ) -> tuple[list[np.ndarray], np.ndarray]:
    """For each slice, the (row, other) position pairs, shape (2, P), that
    join every point to each point within its k-th smallest integer
    Chebyshev distance (the point itself sits at order 0, as in the tree's
    query for neighbor k + 1); and, per slice and position, whether the
    point's window may hide a nearer point, so that it has no pairs yet.

    ``ranks`` holds the (d, N) int16 ranks with the points in the order of
    :func:`_pairwise_distances`; ``half`` gives each slice's window
    half-width, or is None for full rows. ``rows`` are the positions to
    search from, or None for all in order; only full rows take a subset.

    Columns that belong to the same slices form an atom. For each block of
    rows the largest rank difference is taken once per atom, over the
    widest window of its slices; a slice's distance is the largest over its
    atoms, each cut to the middle of its own window. A window hides no
    nearer point when the k-th distance in it is at most its half-width.
    """
    d, n = ranks.shape
    atoms: dict[frozenset, list[int]] = {}
    for col in range(d):
        owners = frozenset(i for i, span in enumerate(spans) if col in span)
        if owners:
            atoms.setdefault(owners, []).append(col)
    width = [n] * len(spans) if half is None else [2 * w + 1 for w in half]
    reach = {owners: max(width[i] for i in owners) for owners in atoms}
    if half is not None:
        pad = max(half)
        # the ends take the rank of the far end: more than pad away in the
        # shared column from every row whose window reaches them
        padded = np.empty((d, n + 2 * pad), np.int16)
        padded[:, :pad], padded[:, pad:-pad], padded[:, -pad:] = n, ranks, 1
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, 2 * pad + 1, axis=1)
    widest = max(reach.values(), default=1)
    # one array per atom, plus diff, joined and kth, all of int16
    block = max(1, _PASS_BYTES // (2 * widest * (len(atoms) + 3)))
    diff, joined, kth = (np.empty(block * widest, np.int16) for _ in range(3))
    atom_dist = {owners: np.empty((block, reach[owners]), np.int16)
                 for owners in atoms}
    # each slice's own window in its atoms' distances: the middle columns
    cuts = [[atom_dist[owners][:, (reach[owners] - span) // 2:][:, :span]
             for owners in atoms if i in owners]
            for i, span in enumerate(width)]
    # each block's candidates of each slice, as row * span + offset
    found: list[list[np.ndarray]] = [[] for _ in spans]
    missed = np.zeros((len(spans), n), bool)
    total = n if rows is None else len(rows)
    for start in range(0, total, block):
        stop = min(start + block, total)
        size = stop - start
        part = slice(start, stop) if rows is None else rows[start:stop]
        for owners, cols in atoms.items():
            span = reach[owners]
            acc = atom_dist[owners][:size]
            for j, col in enumerate(cols):
                delta = diff[:size * span].reshape(size, span) if j else acc
                if half is None:
                    against = ranks[col]
                else:
                    against = windows[col, part, pad - span // 2:][:, :span]
                np.subtract(ranks[col, part, None], against, out=delta)
                np.abs(delta, out=delta)
                if j:
                    np.maximum(acc, delta, out=acc)
        for i, span in enumerate(width):
            dist, *more = [cut[:size] for cut in cuts[i]]
            if more:
                dist = np.maximum(dist, more[0],
                                  out=joined[:size * span].reshape(size, span))
                for other in more[1:]:
                    np.maximum(dist, other, out=dist)
            bound = kth[:size * span].reshape(size, span)
            np.copyto(bound, dist)
            bound.partition(k, axis=1)
            edge = bound[:, k]
            if half is not None:
                miss = edge > half[i]
                missed[i, start:stop] = miss
                edge[miss] = -1  # this row's window gives no candidates
            hit = np.flatnonzero(dist <= edge[:, None])
            if rows is None:
                hit += start * span
            else:
                row, col = np.divmod(hit, span)
                hit = part[row] * span + col
            found[i].append(hit)
    del diff, joined, kth, atom_dist, cuts  # before the pairs are built
    pairs = []
    for i, w in enumerate(half or width):
        row, col = np.divmod(np.concatenate(found[i]), width[i])
        found[i] = None
        pairs.append(np.stack((row, col if half is None else row + col - w)))
    return pairs, missed
