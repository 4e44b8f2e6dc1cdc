"""k-nearest-neighbor differential entropy estimation (Kozachenko-Leonenko).

The estimator needs, for every point, the distance to its k-th nearest
neighbor under the maximum (Chebyshev) norm. Three routes find it, and all
are exact. The copula estimator hands over its integer rank matrix, whose
N rows are the points and each of whose columns is a permutation of 1..N,
so there each distance is an integer D; every route searches those ranks
as they are and hands the entropy D, which sums log D once per distinct
value, so that the estimate does not depend on the order of the points.

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
pass takes the integer rank differences in blocks of rows, in about 1 MB
of int16 scratch, once for all slices that share a column, and
partitions each row's integer distances for the k-th. On
transfer-entropy embeddings of VAR(1) series (N = 300 to 8000, d = 8 to
26, one x86-64 core) it took 0.13-0.52 of the four tree searches' time
wherever :func:`_route` picks it.

The pass compares each point only with a window around it in the order of
one column that every slice contains, such as transfer entropy's y_past0
(the projection search of Friedman, Baskett and Shustek, IEEE Trans.
Computers C-24, 1975). That column's ranks are a permutation of 1..N, so
the point j places away in its order is exactly j ranks away in it, and
every point beyond the W places on either side lies at least W + 1 away
under the max norm. Near either end of the order the window wraps to the
points of the other end, at least N - W >= W + 2 away in that column, so
every window holds real points only. A k-th distance within the window
of at most W + 1 is therefore exact, since no point outside it is nearer.
Any larger one, U, bounds the true k-th, since the window holds k points
within U and the points nearer than U lie fewer than U places away. Such
a point, about 1% of them on VAR and PM2.5 embeddings, is searched again
in every slice over a wider window, in blocks of a quarter of that
scratch: in each slice its half-width is the larger of one less than
the largest U over those points there, and that slice's W, so that it
covers the window where a point did settle. W grows with N, k and the
slice's width. No window is wider than all N points, which it then holds
once each: full rows are the widest window, not a separate search. Where
the widest slice's window would reach all N points, as at Markov order
12, every slice's window spans all N, and no point is searched again.
The order of the points within such a window does not change a k-th, so
each point then reads the ranks in place rather than a copy wrapped
around its position.

Where the pass does not serve every slice, a walk along the diagonals
of the same order searches the narrow slices that :func:`_route` sends
it, such as all three of transfer entropy's searched terms at Markov
order 1. In the order of the
slice's first column the pair of points j places apart is exactly j
apart in that column, so its distance is max(j, the largest |difference|
over the other columns). The walk takes j = 1..W of the window in turn
and puts each pair's distance into the k smallest of both its points:
4k - 2 int16 minima and maxima over the N points per offset, and a
difference, an absolute value and a maximum per column beyond the
second, with no block of rows and no partition. It searches the pass's
window in the same order under the same rule, and one function runs
either: it orders the points and searches again, over a window widened
by the same rule, those whose k-th the window does not settle. The
walk's window holds the real points j = 1..W places away, so there too
U bounds the true k-th.

On the two-column terms of VAR(1) embeddings (N = 1100 to 32000, one
x86-64 core) the walk took 0.26-0.43 of a tree's build and query at
k = 1 and 0.42-0.75 at k = 3. On the three-column joint term at
Markov order 1 (same embeddings, medians of 11 alternating rounds in
each of three or four sets, against a tree whose scipy is already
loaded):

    N        1100       2000       4000       1e4        2e4        32000
    k = 1    0.74-0.93  0.58-0.60  0.54-0.58  0.51-0.60  0.55-0.61  0.57-0.71
    k = 2    0.90-0.92  0.74-0.96  0.72-0.74  0.68-0.73  0.74-0.79  0.82-0.93
    k = 3    1.08-1.09  0.89-1.14  0.83-1.09  0.82-0.88  0.89-0.96  1.03-1.14

Where it is slower, at k = 3 near 1100 and 32000 points, it costs about
0.2 ms and 2-8 ms per term; a process whose estimates all walk never
imports scipy, which takes about 0.35 s and 30 MB. The pass over the
same single slice took 1.1-2.2 times the walk's time on two columns,
except at k = 3 below 2000 points, where it took 0.87-0.97. The walk's
work per offset grows with k and its window with sqrt(k + 1): on two
columns it took 0.51-0.80 of the tree at k = 4, up to 1.3 at k = 7
(N = 1100) and 1.2-2.3 at k = 15, so :func:`_route` keeps it to the
default k and below.

Where the pass serves narrow slices too, at d = 3 and N = 300 to 1000, it
takes 0.45-0.64 times the tree's time (and 0.43-0.47 of the tree for the
joint term plus the walk for the others at N = 1000), and it needs no
scipy.

scipy.spatial is imported on the first tree search, not with this module,
and the digamma function is computed here. Loading scipy costs more than
the rest of cete and than a whole lag scan over a 1000-row window, so
``cete --version``, ``synth``, ``oracle``, callers that only read CSVs
and estimates that :func:`_route` sends to no tree, such as those on
``cete te``'s default 1000-row window and a lag scan at Markov order 1
over 1e4 rows, never load it. ``knn_distances`` and ``kl_entropy``
always search a tree. They take raw points, which no estimate hands
this module, so ``cete`` does not export them; they stay here, and
``kl_entropy`` under :mod:`cete.copula`, only for the traced benchmark,
until it times the library's own seams (ROADMAP items 1 and 18).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import _positive_int
from .core import _table
from .errors import DuplicatePointsError, KTooLargeError

_QUERY_BLOCK = 8192  # points per tree query; 4096 to 65536 measured alike
# int16 scratch arrays of the pairwise pass over all points, and of its
# search again of the few points that their window did not settle
_PASS_BYTES = 1 << 20
_AGAIN_BYTES = _PASS_BYTES // 4


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
        If the points are not real numbers (see :func:`cete.validate_matrix`).
    EmptyInputError
        If the points are ragged, neither 1-d nor 2-d, or there are none.
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
    d = shape[1] if len(shape) == 2 else 1
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


def _route(n: int, widths: Sequence[int], k: int) -> list[str]:
    """The search of each column slice, of the given widths, of a rank
    matrix of N rows: the one statement of the rule, whose measurements
    the module docstring gives. The pass and the walk hold int16 ranks, so
    take N < 2^15 only. There ``"pass"`` takes every slice at once when
    N < 1024, so that no scipy is loaded, or when a tree of 16-point leaves
    would have fewer levels than two thirds of the widest slice's d axes,
    log2(N / 16) < 2 d / 3; if not, ``"walk"`` takes each slice of at most
    three columns when k <= 3, and ``"tree"`` any other slice."""
    small = n < 2 ** 15
    if small and (n < 1024 or math.log2(n / 16) < 2 * max(widths) / 3):
        return ["pass"] * len(widths)
    return ["walk" if small and w <= 3 and k <= 3 else "tree" for w in widths]


def _slice_entropies(ranks: np.ndarray, slices: Sequence[slice],
                     k: int) -> list[float]:
    """:func:`kl_entropy` of each column slice of the pseudo-observations
    ranks / N, from the integer k-th neighbor distances of the ranks (see
    :func:`_rank_entropy`), each searched as :func:`_route` picks.

    ``ranks`` is an integer (N, d) matrix, such as the int32 values that
    :func:`cete.copula.rank_transform` returns, read as they are: each of
    its columns is a permutation of 1..N, and 1 <= k < N.
    """
    widths = [ranks[:, cols].shape[1] for cols in slices]
    route = _route(len(ranks), widths, k)
    if "pass" in route:
        dists = _pairwise_distances(ranks, slices, k, _near_pairs)
    else:
        # one search at a time, each D taken and freed by map before the
        # next search, so that no earlier distances are held beside it
        dists = (_tree_distances(ranks, cols, k) if way == "tree" else
                 _pairwise_distances(ranks[:, cols], [slice(None)], k, _walk)[0]
                 for cols, way in zip(slices, route))
    return list(map(_rank_entropy, dists, widths, [k] * len(widths)))


def _tree_distances(ranks: np.ndarray, cols: slice, k: int) -> np.ndarray:
    """Integer k-th neighbor distance D of every point of a column slice of
    an integer rank matrix, from a k-d tree over its ranks: their
    differences are exact floats, so the tree gives 2D exactly."""
    return knn_distances(ranks[:, cols], k).eps.astype(np.int64) // 2


def _rank_entropy(dist: np.ndarray, d: int, k: int) -> float:
    """The estimate of :func:`kl_entropy` for N points on the grid i / N in
    d dimensions, from each point's integer k-th neighbor distance D there:

        psi(N) - psi(k) + d * (S / N + log(2 / N)),  S = sum_i log D_i

    S is summed exactly rounded over the distinct D, each log times its
    count, so the estimate does not depend on the order of the points.
    """
    n = len(dist)
    count = np.bincount(dist)
    seen = np.flatnonzero(count)
    # seen is an intp array, so its log is float64, not float32 as for int16
    total = math.fsum(count[seen] * np.log(seen))
    return float(_digamma(n) - _digamma(k) + d * (total / n + math.log(2 / n)))


def _half_widths(n: int, widths: Sequence[int], k: int) -> list[int]:
    """Window half-width of each slice of the given widths on N points, in
    the pass or the walk: N - 1 for every slice, a window of all N points,
    when the widest slice's window would reach them all.

    In a uniform sample the k + 1 points nearest a point (itself included)
    lie within about N/2 * ((k + 1) / N)^(1 / d) ranks of it in d
    dimensions; the window reaches 1.6 times as far.
    """
    half = [math.ceil(0.8 * n * ((k + 1) / n) ** (1 / w)) for w in widths]
    return half if 2 * max(half) + 1 < n else [n - 1] * len(widths)


def _pairwise_distances(ranks: np.ndarray, slices: Sequence[slice], k: int,
                        search: Callable) -> list[np.ndarray]:
    """Integer k-th neighbor distance D of every point, in row order, in
    every column slice of an integer rank matrix of fewer than 2^15 rows
    (see :func:`_slice_entropies`), from its ranks as int16 in the order of
    one column.

    The points are put in the order of the first column that every slice
    contains, whose ranks are a permutation of 1..N, and ``search``, the
    pass's :func:`_near_pairs` or the :func:`_walk`, compares each with a
    window of real points around it there (see the module docstring). A
    point that its window does not settle is searched again by the pass in
    every slice, and that D is written over the window's. Either kernel's
    window k-th bounds the true one, so in each slice that search reaches
    the places fewer than the largest such k-th there away, and no fewer
    than that slice's window. Every slice set here shares a column:
    transfer entropy's terms all hold y_past0, and a copula entropy
    searches one slice.
    """
    n, d = ranks.shape
    spans = [range(d)[cols] for cols in slices]
    half = _half_widths(n, [len(span) for span in spans], k)
    # each row's position in the order of the key column, the first that
    # every slice contains
    at = ranks[:, min(set(range(d)).intersection(*spans))] - 1
    ordered = np.empty((d, n), np.int16)
    ordered[:, at] = ranks.T
    kth = search(ordered, spans, half, k)
    # a k-th distance of at most W + 1 in the window is exact (see the
    # module docstring); any other point is searched again
    again = np.flatnonzero(np.any(
        [dist > w + 1 for dist, w in zip(kth, half)], axis=0))
    if again.size:
        # every window holds real points only, so its k-th U bounds the
        # true one: the points nearer than U lie fewer than U places away
        # in the key order, and the old window, which each slice's new one
        # covers, holds k points within U
        wide = [max(int(dist[again].max()) - 1, w) for dist, w in zip(kth, half)]
        for dist, more in zip(kth, _near_pairs(ordered, spans, wide, k, again)):
            dist[again] = more
    return [dist[at] for dist in kth]


def _near_pairs(ranks: np.ndarray, spans: Sequence[range], half: list[int],
                k: int, rows: np.ndarray | None = None) -> list[np.ndarray]:
    """For each slice, the int16 k-th smallest integer Chebyshev distance
    from the point at each searched position to the others in its window,
    one per searched position (the point itself sits at order 0, as in the
    tree's query for neighbor k + 1).

    ``ranks`` holds the (d, N) int16 ranks with the points in the order of
    :func:`_pairwise_distances`; ``half`` gives each slice's window
    half-width W, and the window holds the min(2 W + 1, N) points from
    (width - 1) // 2 places before a point. Near either end it wraps to the
    points of the other end, so it holds real points only, and its k-th
    bounds the true one; a window of N points holds each point once, and
    its k-th is the true one. Where every slice's window holds all N, each
    point is compared with the ranks in place, in their own order, and no
    wrapped copy of them is made. ``rows`` are the positions to search
    from, or None for all in order; only the searches again of
    :func:`_pairwise_distances` take a subset.

    Columns that belong to the same slices form an atom. For each block of
    rows the largest rank difference is taken once per atom, over the
    widest slice's window; a slice's distance is the largest over its
    atoms, each cut to the middle of its own window. The int16 scratch of
    a block takes about ``_PASS_BYTES`` (1 MB) over all points, and
    ``_AGAIN_BYTES`` (256 KB) for ``rows``, so that the few points searched
    again over wider windows do not raise the high-water mark.
    """
    d, n = ranks.shape
    atoms: dict[frozenset, list[int]] = {}
    for col in range(d):
        owners = frozenset(i for i, span in enumerate(spans) if col in span)
        if owners:
            atoms.setdefault(owners, []).append(col)
    width = [min(2 * w + 1, n) for w in half]
    widest = max(width)
    if min(width) == n:
        # every window holds all N points once, and the order within it
        # does not change a k-th: each row reads the ranks in place
        windows = np.broadcast_to(ranks[:, None], (d, n, n))
    else:
        # each window starts (widest - 1) // 2 places before its row, and
        # each end wraps to the points of the other: at least W + 2 away in
        # the key column from every row whose window of 2 W + 1 < N points
        # reaches them, and a window of N points holds each point once
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((
            ranks[:, n - (widest - 1) // 2:], ranks, ranks[:, :widest // 2]),
            1), widest, axis=1)
    # int16 arrays of (block, widest): one per atom, the scratch of each
    # column's differences and the scratch that each slice partitions
    budget = _PASS_BYTES if rows is None else _AGAIN_BYTES
    block = max(1, budget // (2 * widest * (len(atoms) + 2)))
    diff, joined = (np.empty(block * widest, np.int16) for _ in range(2))
    atom_dist = {owners: np.empty((block, widest), np.int16) for owners in atoms}
    # each slice's own window in its atoms' distances: the middle columns
    cuts = [[atom_dist[owners][:, (widest - span) // 2:][:, :span]
             for owners in atoms if i in owners]
            for i, span in enumerate(width)]
    total = n if rows is None else len(rows)
    kth = [np.empty(total, np.int16) for _ in spans]
    for start in range(0, total, block):
        stop = min(start + block, total)
        size = stop - start
        part = slice(start, stop) if rows is None else rows[start:stop]
        for owners, cols in atoms.items():
            acc = atom_dist[owners][:size]
            for j, col in enumerate(cols):
                delta = diff[:size * widest].reshape(size, widest) if j else acc
                np.subtract(ranks[col, part, None], windows[col, part], out=delta)
                np.abs(delta, out=delta)
                if j:
                    np.maximum(acc, delta, out=acc)
        for i, span in enumerate(width):
            dist = joined[:size * span].reshape(size, span)
            np.copyto(dist, cuts[i][0][:size])
            for cut in cuts[i][1:]:
                np.maximum(dist, cut[:size], out=dist)
            dist.partition(k, axis=1)
            kth[i][start:stop] = dist[:, k]
    return kth


def _walk(ranks: np.ndarray, spans: Sequence[range], half: list[int],
          k: int) -> list[np.ndarray]:
    """The int16 k-th smallest integer Chebyshev distance from each point
    of a slice of two or three columns to the others in its window, from
    a walk along the diagonals (see the module docstring); it takes the
    arguments of :func:`_near_pairs`, with ``spans`` the one slice of all
    the columns.

    In the first column's order the pair of points j places apart is
    exactly j apart in it, so its distance is max(j, the largest
    |difference| over the other columns). The offsets j = 1..W of the
    window, all N - 1 for a window of N points, are taken in turn, and
    each pair's distance is put into the k smallest of both its points.
    """
    first, *others = ranks[1:]
    n = len(first)
    (half,) = half
    # each point's k smallest distances so far, in rising order; no
    # distance reaches N, so the start value is above them all
    least = np.full((k, n), n, np.int16)
    kth = least[-1]
    pair, floor, *spill = np.empty((4, n), np.int16)
    for j in range(1, half + 1):
        size = n - j
        dist, ramp = pair[:size], floor[:size]
        np.subtract(first[j:], first[:size], out=dist)
        np.abs(dist, out=dist)
        for other in others:
            np.subtract(other[j:], other[:size], out=ramp)
            np.abs(ramp, out=ramp)
            np.maximum(dist, ramp, out=dist)
        # against an array of j: numpy takes a Python scalar about six
        # times slower
        ramp[...] = j
        np.maximum(dist, ramp, out=dist)
        moves = [buf[:size] for buf in spill]
        # into the lists of both ends of each pair: at each place the
        # smaller value stays and the larger moves on
        for lo in (0, j):
            value = dist
            for i in range(k - 1):
                kept, moved = least[i, lo:lo + size], moves[i % 2]
                np.maximum(kept, value, out=moved)
                np.minimum(kept, value, out=kept)
                value = moved
            last = kth[lo:lo + size]
            np.minimum(last, value, out=last)
    return [kth]
