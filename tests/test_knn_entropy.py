import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma

import cete.copula as copula_module
import cete.knn_entropy as knn_module
from cete import (EmbeddingSpec, build_embedding, copula_entropy, kl_entropy,
                  knn_distances, rank_transform, transfer_entropy,
                  validate_matrix)
from cete.causality import _ASSOC, _JOINT, _SELF, _TERMS
from cete.errors import (
    DuplicatePointsError,
    EmptyInputError,
    KTooLargeError,
    NonFiniteError,
)
from cete.knn_entropy import (_digamma, _half_widths, _pairwise_distances,
                              _rank_entropy, _route, _slice_entropies,
                              _tree_distances)
from cete.oracle import Var2Spec, simulate_var2
from conftest import brute_knn_eps, brute_rank_distances

EULER_GAMMA = 0.5772156649015329


class TestKnnDistances:
    def test_hand_computed_line(self):
        # three collinear points, each nearest neighbor 0.5 away, doubled
        nd = knn_distances(np.array([[0.0], [0.5], [1.0]]), k=1)
        assert list(nd.eps) == [1.0, 1.0, 1.0]
        assert nd.n == 3

    def test_k_equal_to_n_rejected(self):
        pts = np.random.default_rng(0).random((5, 2))
        with pytest.raises(KTooLargeError):
            knn_distances(pts, k=5)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            knn_distances(np.array([[0.0], [1.0]]), k=0)

    @pytest.mark.parametrize("estimate", [knn_distances, kl_entropy])
    def test_points_are_checked_before_k(self, estimate):
        with pytest.raises(NonFiniteError):
            estimate(np.array([[np.nan], [1.0]]), k=0)
        with pytest.raises(EmptyInputError):
            estimate(np.empty((0, 2)), k=0)

    def test_duplicate_points_rejected(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(DuplicatePointsError):
            knn_distances(pts, k=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimate", [knn_distances, kl_entropy])
    def test_non_finite_point_is_typed_error(self, estimate, bad):
        pts = np.random.default_rng(5).random((20, 3))
        pts[7, 2] = bad
        pts[9, 0] = bad
        with pytest.raises(NonFiniteError) as exc:
            estimate(pts, k=3)
        assert (exc.value.row, exc.value.col) == (7, 2)

    def test_brute_and_tree_agree_exactly(self):
        rng = np.random.default_rng(42)
        for n, d, k in [(500, 3, 3), (64, 1, 1), (200, 7, 5), (50, 12, 2)]:
            pts = rng.random((n, d))
            assert np.array_equal(knn_distances(pts, k).eps,
                                  brute_knn_eps(pts, k)), (n, d, k)

    def test_tree_matches_brute_above_twelve_dimensions(self):
        # the k-d tree serves every dimension, high ones included
        rng = np.random.default_rng(7)
        for n, d, k in [(40, 13, 2), (2000, 13, 3), (1000, 14, 3),
                        (1500, 16, 4), (2000, 20, 3)]:
            pts = rng.random((n, d))
            assert np.array_equal(knn_distances(pts, k).eps,
                                  brute_knn_eps(pts, k)), (n, d, k)

    @pytest.mark.parametrize("data", ["continuous", "tied-ranks"])
    @pytest.mark.parametrize("n,d", [(20_001, 1), (20_001, 2), (20_001, 3),
                                     (20_001, 5), (3_001, 14)])
    def test_equals_row_order_tree_query(self, n, d, data):
        # N = 20_001 crosses several query blocks and ends in a partial one
        rng = np.random.default_rng(d)
        if data == "continuous":
            pts = rng.standard_normal((n, d))
        else:
            # integer ranks of 5-level columns, ties broken by row index as
            # rank_transform does: distinct values, many equal distances
            levels = rng.integers(0, 5, size=(n, d))
            pts = np.argsort(np.argsort(levels, axis=0, kind="stable"),
                             axis=0, kind="stable").astype(float)
        tree = cKDTree(pts)
        for k in (1, 3, 7):
            reference = 2.0 * tree.query(pts, k=[k + 1], p=np.inf)[0][:, 0]
            assert np.array_equal(knn_distances(pts, k).eps, reference), k

    @pytest.mark.parametrize("rows", [(7, 15_000), (19_990, 20_000)])
    def test_duplicate_named_in_row_order(self, rows):
        # duplicates far apart in row order, and duplicates only in the
        # last rows; the error names the first duplicate row either way
        pts = np.random.default_rng(11).random((20_001, 3))
        pts[rows[1]] = pts[rows[0]]
        with pytest.raises(DuplicatePointsError, match=rf"^point {rows[0]} "):
            knn_distances(pts, k=1)

    def test_eps_read_only(self):
        nd = knn_distances(np.array([[0.0], [0.5], [1.0]]), k=1)
        with pytest.raises(ValueError):
            nd.eps[0] = 9.0


class TestKlEntropy:
    @pytest.mark.parametrize("as_input", [np.asarray, np.ndarray.tolist],
                             ids=["array", "list"])
    def test_points_are_checked_once(self, monkeypatch, as_input):
        import cete.knn_entropy as module

        pts = np.random.default_rng(8).random((300, 2))
        want = kl_entropy(pts, k=3)
        calls = []
        check = module._table

        def counted(values):
            calls.append(1)
            return check(values)

        monkeypatch.setattr(module, "_table", counted)
        assert kl_entropy(as_input(pts), k=3) == want
        assert len(calls) == 1

    def test_uniform_unit_interval(self):
        rng = np.random.default_rng(0)
        h = kl_entropy(rng.random((5000, 1)))
        assert abs(h - 0.0) <= 0.05

    def test_standard_gaussian(self):
        rng = np.random.default_rng(0)
        h = kl_entropy(rng.standard_normal((5000, 1)))
        assert abs(h - 0.5 * math.log(2 * math.pi * math.e)) <= 0.05

    def test_uniform_width_two(self):
        rng = np.random.default_rng(0)
        h = kl_entropy(2.0 * rng.random((5000, 1)))
        assert abs(h - math.log(2.0)) <= 0.05

    def test_translation_invariance_exact_on_dyadic_grid(self):
        # dyadic coordinates plus an integer shift stay exactly representable,
        # so every pairwise distance is bit-identical after the shift
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 512, size=(200, 3)) / 512.0
        shifted = pts + 3.0
        assert kl_entropy(pts) == kl_entropy(shifted)

    def test_translation_invariance_generic(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((400, 2))
        h0 = kl_entropy(pts)
        h1 = kl_entropy(pts + np.array([0.7, -12.3]))
        assert abs(h0 - h1) <= 1e-9

    def test_scaling_adds_d_log_s(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            pts = rng.random((300, d))
            for s in (2.0, 0.25, 1.7):
                h0 = kl_entropy(pts)
                h1 = kl_entropy(s * pts)
                assert abs(h1 - (h0 + d * math.log(s))) <= 1e-9, (d, s)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.random((250, 4))
        assert kl_entropy(pts) == kl_entropy(pts)
        assert np.array_equal(knn_distances(pts, 3).eps, brute_knn_eps(pts, 3))

    def test_entropy_matches_brute_reference(self):
        rng = np.random.default_rng(8)
        n, d, k = 300, 5, 3
        pts = rng.random((n, d))
        reference = float(digamma(n) - digamma(k)
                          + d * np.mean(np.log(brute_knn_eps(pts, k))))
        assert kl_entropy(pts, k=k) == reference

    def test_k_propagates(self):
        rng = np.random.default_rng(9)
        pts = rng.random((100, 2))
        h3 = kl_entropy(pts, k=3)
        h5 = kl_entropy(pts, k=5)
        assert h3 != h5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(20, 80))
    def test_brute_tree_agreement_property(self, seed, d, n):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d))
        k = int(rng.integers(1, min(6, n)))
        assert np.array_equal(knn_distances(pts, k).eps, brute_knn_eps(pts, k))


def ranked_embedding(n: int, m: int, data: str,
                     seed: int | None = None) -> np.ndarray:
    """The integer rank matrix of an n-row transfer-entropy embedding of
    order m of the VAR of the given seed, by default m; "tied" rounds both
    series to a handful of integer levels first."""
    x, y = simulate_var2(Var2Spec(seed=m if seed is None else seed), n + m)
    if data == "tied":
        x, y = np.round(x), np.round(y)
    return rank_transform(build_embedding(x, y, EmbeddingSpec(1, m))).values


def outlier_sample(seed: int, n: int = 500, row: int | None = None,
                   width: int = 2):
    """Columns a, b and, for width 3, c, which follow a except at one row,
    by default the middle one, whose b is the largest: in a's order that
    row's k-th neighbor lies far beyond its window."""
    a = np.arange(float(n))
    rng = np.random.default_rng(seed)
    b, *c = (a + rng.uniform(-0.4, 0.4, n) for _ in range(width - 1))
    b[n // 2 if row is None else row] = 2.0 * n
    return validate_matrix(np.column_stack((a, b, *c)))


def spy_pass(monkeypatch) -> list[tuple]:
    """The arguments of every call of the pass over rank differences, the
    searches again included."""
    calls = []
    real = knn_module._near_pairs

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(knn_module, "_near_pairs", spy)
    return calls


def assert_exact(ranks, slices, k):
    """The pass gives, on every slice, the tree's and the full scan's
    integer distances exactly."""
    found = _pairwise_distances(ranks, slices, k, knn_module._near_pairs)
    for got, cols in zip(found, slices):
        want = brute_rank_distances(ranks[:, cols], k)
        assert np.array_equal(got, want), k
        assert np.array_equal(_tree_distances(ranks, cols, k), want), k


def assert_settles_at_w_plus_1(monkeypatch, ranks, slices, k, kernel):
    """_pairwise_distances searches again exactly the positions whose k-th
    distance in the kernel's window exceeds W + 1, in each slice over the
    positions fewer places away than the largest of those k-th distances
    there, and no fewer than that slice's window's, and keeps the window's
    D at the positions where it is W + 1, which is the full scan's; returns
    how many positions it searched again."""
    n, d = ranks.shape
    spans = [range(d)[cols] for cols in slices]
    # each row's position in the order of the first column every slice
    # has, and the kernel's k-th distances in its window there
    key = min(set(range(d)).intersection(*spans))
    at = ranks[:, key] - 1
    ordered = np.empty((d, n), np.int16)
    ordered[:, at] = ranks.T
    half = _half_widths(n, [len(span) for span in spans], k)
    windowed = kernel(ordered, spans, half, k)
    calls = spy_pass(monkeypatch)
    found = _pairwise_distances(ranks, slices, k, kernel)
    over = np.any([dist > w + 1 for dist, w in zip(windowed, half)], axis=0)
    (_, _, wide, _, rows), = calls
    assert np.array_equal(rows, np.flatnonzero(over))
    # one reach per slice after either kernel: the largest window k-th of
    # those positions in that slice, less one, and no less than its W;
    # every case here is searched again over fewer than N positions
    assert wide == [max(int(dist[over].max()) - 1, w)
                    for dist, w in zip(windowed, half)]
    assert 2 * max(wide) + 1 < n
    settled = 0
    for dist, w, got, cols in zip(windowed, half, found, slices):
        assert np.array_equal(got, brute_rank_distances(ranks[:, cols], k))
        edge = np.flatnonzero((dist == w + 1) & ~over)
        placed = np.empty_like(got)
        placed[at] = got
        assert np.array_equal(placed[edge], dist[edge])
        settled += edge.size
    assert settled
    return len(rows)


def assert_searched_within_kth(monkeypatch, ranks, k, kernel):
    """The middle row of an outlier sample of one slice, whose k-th lies far
    beyond its window, is searched again over the positions fewer than its
    window's k-th U away, since U bounds the true one, and not over full
    rows; the rows are already in a's order, the key order."""
    n, d = ranks.shape
    half = _half_widths(n, [d], k)
    windowed = kernel(ranks.T.astype(np.int16), [range(d)], half, k)
    calls = spy_pass(monkeypatch)
    got = _pairwise_distances(ranks, [slice(None)], k, kernel)[0]
    *_, (_, _, wide, _, rows) = calls
    assert n // 2 in rows  # a's ranks are the row order
    # one slice: the rows searched again have U - 1 > W
    assert wide == [int(windowed[0][rows].max()) - 1]
    assert 2 * wide[0] + 1 < n
    assert np.array_equal(got, brute_rank_distances(ranks, k))


def assert_near_kl_entropy(got, ranks, slices):
    """Entropies from integer distances lie within 1e-12 nats of
    kl_entropy's float estimate on the pseudo-observations ranks / N."""
    want = [kl_entropy(ranks[:, cols] / len(ranks), 3) for cols in slices]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


class TestPairwisePass:
    """The pairwise pass gives the tree's and a full scan's integer
    distances exactly, whichever route the rule picks for the shape,
    whether it compares each point with all others or only with a window
    around it in the order of a column that every slice shares."""

    # m = 1 at n = 976 and 999 is cete te's default over a 1000-row window,
    # whose PM2.5 columns are tied
    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("n,m", [(n, m) for n in (500, 1988)
                                     for m in (2, 6, 12, 24)]
                             + [(976, 1), (999, 1)])
    def test_equals_tree_on_every_term(self, n, m, data):
        ranks = ranked_embedding(n, m, data)
        # the terms wider than one column: all four, but past at m = 1
        terms = [cols for cols in _TERMS if len(range(m + 2)[cols]) > 1]
        for k in (1, 3, 7):
            tree = [_tree_distances(ranks, cols, k) for cols in terms]
            found = _pairwise_distances(ranks, terms, k,
                                        knn_module._near_pairs)
            for got, want in zip(found, tree):
                assert np.array_equal(got, want), k
        # the entropies through the route the rule picks: the pass below
        # 1024 rows and for m >= 12, the tree at n = 1988 for m = 2 and 6
        assert (_route(n, [m + 2], 3) == ["pass"]) == (n < 1024 or m >= 12)
        assert_near_kl_entropy(_slice_entropies(ranks, terms, 3), ranks, terms)

    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("m", [2, 6, 12, 24])
    def test_equals_brute_scan(self, m, data):
        ranks = ranked_embedding(400, m, data)
        for k in (1, 3, 7):
            found = _pairwise_distances(ranks, _TERMS, k,
                                        knn_module._near_pairs)
            for got, cols in zip(found, _TERMS):
                assert np.array_equal(
                    got, brute_rank_distances(ranks[:, cols], k)), k

    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("n,d", [(300, 20), (1000, 16)])
    def test_wide_copula_entropy(self, n, d, data):
        # one subset of every column: a single atom
        values = np.random.default_rng(d).standard_normal((n, d)).cumsum(axis=1)
        if data == "tied":
            values = np.round(values)
        matrix = validate_matrix(values)
        assert _route(n, [d], 3) == ["pass"]
        ranks = rank_transform(matrix).values
        assert_near_kl_entropy([copula_entropy(matrix)], ranks, [slice(None)])
        got = _pairwise_distances(ranks, [slice(None)], 3,
                                  knn_module._near_pairs)[0]
        assert np.array_equal(got, brute_rank_distances(ranks, 3))

    def test_one_row_per_block(self, monkeypatch):
        monkeypatch.setattr(knn_module, "_PASS_BYTES", 1)
        monkeypatch.setattr(knn_module, "_AGAIN_BYTES", 1)
        calls = spy_pass(monkeypatch)
        # windows at m = 2, full rows (windows of all 200 points) at m = 12
        for m in (2, 12):
            ranks = ranked_embedding(200, m, "tied")
            calls.clear()
            found = _pairwise_distances(ranks, _TERMS, 3,
                                        knn_module._near_pairs)
            for got, cols in zip(found, _TERMS):
                assert np.array_equal(got, _tree_distances(ranks, cols, 3))
            assert (calls[0][2] == [199] * 4) == (m == 12)

    def test_scratch_budgets(self):
        def traced_peak(d, n, half, rows):
            rng = np.random.default_rng(d)
            ranks = np.array([np.arange(1, n + 1)]
                             + [rng.permutation(n) + 1 for _ in range(d - 1)],
                             np.int16)
            tracemalloc.start()
            try:
                knn_module._near_pairs(ranks, [range(d)], [half], 3, rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the search again of 40 rows over windows of 3001 of 4000 points
        # blocks its scratch by its own budget: with the wrapped ranks and
        # the gathered windows it peaks at 0.39 MB, and at 1.3 MB in blocks
        # of the pass's budget
        again = traced_peak(3, 4000, 1500, np.arange(0, 4000, 100))
        assert again <= 2 * knn_module._AGAIN_BYTES
        # the pass over windows of all 2000 points reads their 256 KB of
        # ranks in place, where a wrapped copy would take twice that
        full = traced_peak(64, 2000, 1999, None)
        assert full <= knn_module._PASS_BYTES + 64 * 2000 * 2 // 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(20, 600),
           st.integers(0, 6),
           st.lists(st.tuples(st.integers(0, 6), st.integers(2, 7)),
                    min_size=1, max_size=4))
    def test_any_slices_equal_tree(self, seed, d, n, key, bounds):
        # overlapping and nested slices of two or more columns alike, all
        # holding the key column, as every caller's slices share one; up to
        # 600 rows, so that the windows of most examples are narrower than N
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=(n, d)).astype(float)
        ranks = rank_transform(validate_matrix(values)).values
        key %= d
        slices = []
        for shift, width in bounds:
            width = min(width, d)
            # the starts whose slice of this width holds the key column
            lo, hi = max(0, key - width + 1), min(key, d - width)
            start = lo + shift % (hi - lo + 1)
            slices.append(slice(start, start + width))
        assert_exact(ranks, slices, int(rng.integers(1, 6)))

    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("n", [None, "k+3", 12, 80, 150, 600, 1023])
    def test_equals_tree_and_brute_scan(self, monkeypatch, n, k, data):
        # from the fewest rows an estimate takes, N = k + 2 (None), where
        # every window spans all N points, to the last row count below the
        # 1024-row cut; each window is exact at its first and last rows in
        # the shared column's order too. At N = k + 3, an even 4, 6 or 10,
        # the window of all N holds one point more after a row than before
        # it
        n = {None: k + 2, "k+3": k + 3}.get(n, n)
        ranks = ranked_embedding(n, 2, data)
        calls = spy_pass(monkeypatch)
        assert_exact(ranks, _TERMS, k)
        half = calls[0][2]
        assert half == _half_widths(n, [4, 3, 3, 2], k)
        assert (half == [n - 1] * 4) == (n <= 12), half

    # the terms wider than one column of seed-3 VAR embeddings at the
    # default window's row count, with the positions searched again
    @pytest.mark.parametrize("m,data,again", [(1, "continuous", 39),
                                              (3, "continuous", 23),
                                              (1, "tied", 47),
                                              (2, "continuous", 37)])
    def test_settles_at_w_plus_1(self, monkeypatch, m, data, again):
        ranks = ranked_embedding(999, m, data, seed=3)
        terms = [cols for cols in _TERMS if len(range(m + 2)[cols]) > 1]
        assert assert_settles_at_w_plus_1(
            monkeypatch, ranks, terms, 3, knn_module._near_pairs) == again

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_outlier_is_searched_over_full_rows(self, monkeypatch, k):
        # the outlier row comes first in a's order and its b is the
        # largest, so its window's k-th, about N - W on either side of the
        # wrapped end, reaches past half the points
        ranks = rank_transform(outlier_sample(k, row=0)).values
        n = len(ranks)
        calls = spy_pass(monkeypatch)
        assert_exact(ranks, [slice(None)], k)
        (_, _, half, _), (_, _, wide, _, rows) = calls
        assert 2 * half[0] + 1 < n and 2 * wide[0] + 1 >= n
        assert 0 in rows  # a's ranks are the row order

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_outlier_is_searched_within_its_kth(self, monkeypatch, k, width):
        ranks = rank_transform(outlier_sample(k, width=width)).values
        assert_searched_within_kth(monkeypatch, ranks, k,
                                   knn_module._near_pairs)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_wrapped_ends(self, k):
        # the first and last rows in a's order are equal in b and c, so
        # only a's N - 1 separates them, though each lies in the other's
        # window across the wrapped end; far from all other rows, neither
        # settles through it
        n = 600
        a = np.arange(float(n))
        rng = np.random.default_rng(k)
        b, c = (a + rng.uniform(-0.4, 0.4, n) for _ in range(2))
        b[[0, -1]] = c[[0, -1]] = n / 2
        ranks = rank_transform(
            validate_matrix(np.column_stack((a, b, c)))).values
        slices, spans = [slice(None), slice(0, 2)], [range(3), range(2)]
        # the rows are already in a's order, the key order; each end's
        # window k-th is the k-th over the real points of its window, the
        # other end at its true distance
        ordered = ranks.T.astype(np.int16)
        half = _half_widths(n, [3, 2], k)
        windowed = knn_module._near_pairs(ordered, spans, half, k)
        for dist, span, w in zip(windowed, spans, half):
            for end in (0, n - 1):
                window = ordered[span.start:span.stop,
                                 (end + np.arange(-w, w + 1)) % n]
                near = np.abs(window
                              - ordered[span.start:span.stop, end, None])
                assert dist[end] == np.sort(near.max(axis=0))[k] > w + 1
        assert_exact(ranks, slices, k)


@functools.lru_cache(maxsize=None)
def two_column_sample(n: int, data: str) -> tuple[np.ndarray, tuple]:
    """An integer rank matrix and its two-column slices: the self and assoc
    terms of an m = 1 embedding, or the whole outlier sample."""
    if data == "outlier":
        return rank_transform(outlier_sample(n, n)).values, (slice(None),)
    return ranked_embedding(n, 1, data), (_SELF, _ASSOC)


@functools.lru_cache(maxsize=None)
def three_column_samples(n: int, data: str) -> list[tuple]:
    """Integer rank matrices with their three-column slices: the joint term
    of an m = 1 embedding and the self and assoc terms of an m = 2 one, or
    the whole three-column outlier sample."""
    if data == "outlier":
        ranks = rank_transform(outlier_sample(n, n, width=3)).values
        return [(ranks, (slice(None),))]
    return [(ranked_embedding(n, 1, data), (_JOINT,)),
            (ranked_embedding(n, 2, data), (_SELF, _ASSOC))]


def walk(ranks: np.ndarray, cols: slice, k: int) -> np.ndarray:
    """The walk's integer distances on one slice, through the function
    that the search route calls."""
    return _pairwise_distances(ranks[:, cols], [slice(None)], k,
                               knn_module._walk)[0]


class TestWalk:
    """The diagonal walk gives, on slices of two and three columns, the
    tree's and a full scan's integer distances exactly, whether a point's
    k nearest lie within the window, beyond it, or at the farthest any
    point can have."""

    @pytest.mark.parametrize("data", ["continuous", "tied", "outlier"])
    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    @pytest.mark.parametrize("n", [1024, 1100, 1500, 4000, 10_000, 32_767])
    def test_equals_tree(self, n, k, data):
        ranks, slices = two_column_sample(n, data)
        for cols in slices:
            got = walk(ranks, cols, k)
            assert np.array_equal(got, _tree_distances(ranks, cols, k))
            if n <= 4000:
                assert np.array_equal(
                    got, brute_rank_distances(ranks[:, cols], k))

    @pytest.mark.parametrize("data", ["continuous", "tied", "outlier"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1024, 1100, 1500, 4000, 10_000])
    def test_three_columns_equal_tree(self, n, k, data):
        for ranks, slices in three_column_samples(n, data):
            for cols in slices:
                got = walk(ranks, cols, k)
                assert np.array_equal(got, _tree_distances(ranks, cols, k))
                if n <= 4000:
                    assert np.array_equal(
                        got, brute_rank_distances(ranks[:, cols], k))

    # the terms of a seed-1 VAR embedding at m = 1, and the three-column
    # ones at m = 2, with the positions searched again
    @pytest.mark.parametrize("n,term,k,again", [
        (1500, "assoc", 1, 11), (4000, "self", 1, 67), (10_000, "self", 3, 263),
        (1500, "joint", 3, 20), (10_000, "joint", 1, 87),
        (4000, "self-m2", 2, 50), (10_000, "assoc-m2", 3, 105)])
    def test_settles_at_w_plus_1(self, monkeypatch, n, term, k, again):
        name, _, m = term.partition("-m")
        ranks = ranked_embedding(n, int(m or 1), "continuous", seed=1)
        cols = {"self": _SELF, "assoc": _ASSOC, "joint": _JOINT}[name]
        assert assert_settles_at_w_plus_1(
            monkeypatch, ranks[:, cols], [slice(None)], k,
            knn_module._walk) == again

    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    def test_outlier_is_searched_over_full_rows(self, monkeypatch, k):
        # the outlier row comes first in a's order and its b is the
        # largest, so its window's k-th, about N - W, reaches past half the
        # points
        ranks = rank_transform(outlier_sample(1100, 1100, row=0)).values
        calls = spy_pass(monkeypatch)
        got = walk(ranks, slice(None), k)
        (_, _, wide, _, rows), = calls
        # a's ranks are the row order
        assert 2 * wide[0] + 1 >= 1100 and 0 in rows
        assert np.array_equal(got, brute_rank_distances(ranks, k))

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    def test_outlier_is_searched_within_its_kth(self, monkeypatch, k, width):
        ranks = rank_transform(outlier_sample(1100, 1100, width=width)).values
        assert_searched_within_kth(monkeypatch, ranks, k, knn_module._walk)

    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    def test_farthest_kth_distance(self, monkeypatch, k):
        # 2**15 - 1 points: a corner point (1, 1), then two runs of slope 1
        # with their second column swapped, so that rank differences reach
        # N - 1. No point of N ranks has its k-th nearest more than about
        # N / 2 away (k < N / 2), and the corner point's lies that far: its
        # neighbors come in pairs at h + 1, h + 2, ..., with h = (N - 1) / 2
        n = 2**15 - 1
        h = (n - 1) // 2
        a = np.arange(1.0, n + 1)
        b = np.concatenate(([1.0], a[1:h + 1] + h, a[h + 1:] - h))
        ranks = rank_transform(validate_matrix(np.column_stack((a, b)))).values
        calls = spy_pass(monkeypatch)
        got = walk(ranks, slice(None), k)
        assert got[0] == h + (k + 1) // 2
        assert np.array_equal(got, _tree_distances(ranks, slice(None), k))
        (_, _, wide, _, rows), = calls
        assert 2 * wide[0] + 1 >= n and 0 in rows

    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    @pytest.mark.parametrize("spread", [0.6, 2.0])
    def test_near_diagonal_sample(self, monkeypatch, k, spread):
        # b follows a within a few ranks, so every point's k nearest lie a
        # few places away and none is searched again
        a = np.arange(1100.0)
        b = a + np.random.default_rng(k).uniform(-spread, spread, 1100)
        ranks = rank_transform(validate_matrix(np.column_stack((a, b)))).values
        calls = spy_pass(monkeypatch)
        got = walk(ranks, slice(None), k)
        assert calls == []
        assert np.array_equal(got, brute_rank_distances(ranks, k))

    # windows that would reach every point: all N - 1 offsets are walked
    @pytest.mark.parametrize("n,k", [(2, 1), (17, 15), (20, 7)])
    def test_window_of_every_point(self, n, k):
        assert _half_widths(n, [2], k) == [n - 1]
        ranks = ranked_embedding(n, 1, "continuous")
        for cols in (_SELF, _ASSOC):
            assert np.array_equal(walk(ranks, cols, k),
                                  brute_rank_distances(ranks[:, cols], k))

    # the fewest rows an estimate takes, N = k + 2, where every window
    # spans all N points
    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("cols", [_SELF, _JOINT], ids=["d2", "d3"])
    def test_fewest_rows(self, cols, data):
        for k in range(1, 9):
            ranks = ranked_embedding(k + 2, 1, data)
            d = len(range(3)[cols])
            assert _half_widths(k + 2, [d], k) == [k + 1]
            got = walk(ranks, cols, k)
            assert np.array_equal(got, brute_rank_distances(ranks[:, cols], k))
            assert np.array_equal(got, _tree_distances(ranks, cols, k)), k

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1024, 2500),
           st.integers(1, 15), st.sampled_from([0, 3, 30]))
    def test_any_sample_equals_tree(self, seed, n, k, levels):
        # correlated columns, continuous or rounded to a few levels
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        values = np.column_stack((x, rng.uniform(-1, 1) * x
                                  + rng.standard_normal(n)))
        if levels:
            values = np.round(values * levels / 4)
        ranks = rank_transform(validate_matrix(values)).values
        assert np.array_equal(walk(ranks, slice(None), k),
                              _tree_distances(ranks, slice(None), k))


def run_estimate(route: str):
    """Run an estimate that takes the given route of the kNN search, and
    return its entropies with the matrix and column slices they are of."""
    if route in ("fallback", "two-column-fallback"):
        matrix = outlier_sample(3, 500 if route == "fallback" else 1100)
        return [copula_entropy(matrix)], matrix, [slice(None)]
    n, m = {"tree": (1100, 2), "walk-m1": (1100, 1), "window-m1": (999, 1),
            "window-m2": (999, 2),
            "window-tied": (999, 1), "full-rows": (1000, 12),
            "scan-lag1": (10_000, 1)}[route]
    rng = np.random.default_rng(20)
    if route == "window-tied":
        x, y = rng.integers(0, 10, (2, n + m)).astype(float)
    elif route == "scan-lag1":
        x, y = simulate_var2(Var2Spec(seed=20), n + m)
    else:
        x, y = rng.random((2, n + m))
    spec = EmbeddingSpec(1, m)
    est = transfer_entropy(x, y, spec)
    return ([est.ce_joint, est.ce_self, est.ce_assoc, est.ce_past],
            build_embedding(x, y, spec), _TERMS)


def digest(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(values.astype(dtype).tobytes()).hexdigest()[:16]


class TestPinnedOutputs:
    """The rank matrix and every integer k-th neighbor distance array that
    the estimates hand the entropy formula are pinned by digest, one
    estimate per search route, so that a rewrite of the search that changes
    a single distance fails here. Ranks come from exact IEEE division by N
    and distances are integers, so the digests hold on any host; the
    entropies are not pinned, since np.log may differ in the last place
    between SIMD targets, but are held to kl_entropy's within 1e-12."""

    # per route: the half-widths of each call of the pass, N - 1 for full
    # rows (the windows of random data search a few rows again, after the
    # pass or the walk, over each slice's own wider window), then the
    # digests of the rank matrix and of each distance array, in order. At
    # m = 2 the tree searches the joint term and the walk the others; at
    # m = 1 the walk searches all three
    PINNED = {
        "tree": ([[163], [177], [66]],
                 ["d694767d386ba82c", "ad37f03c0c52d7a3", "8c58c1b4b6206a0c",
                  "0ca83153a35c554c", "38f8ea845baed2d1"]),
        "walk-m1": ([[177], [65], [66]],
                    ["da356277fa23acc8", "1abe958104cb13d9",
                     "4e8bcb0bb8400aae", "7d5c2b3e46858453"]),
        "window-m1": ([[127, 51, 51], [134, 67, 98]],
                      ["ec84f27a9d942960", "ea3d3333fc9d4d97",
                       "851ce3f05c680e63", "06cdeada58e1234d"]),
        "window-m2": ([[202, 127, 127, 51], [219, 148, 134, 68]],
                      ["4895cc8aa0dfe2e1", "a55b686bc73027fd",
                       "875766bc030b763d", "7ae45058f9f9db3a",
                       "f627361440897022"]),
        "window-tied": ([[127, 51, 51], [175, 105, 91]],
                        ["8afe03546dcd39bf", "455d6ca88b62da18",
                         "431e5a0cedd3e2a3", "5eba03163586cdd7"]),
        "full-rows": ([[999] * 4], ["5978da801c0e8158", "bc20c1086e7146bf",
                                    "0cd6eb5274817620", "5723b33bd1bef2d2",
                                    "ada3b7e38df70db1"]),
        "fallback": ([[36], [215]], ["a7317bb08f2928d2", "5ba3b64a8b1890b3"]),
    }

    # the walk's shapes above 1024 rows, pinned by digest alone: the joint,
    # self and assoc terms of the scan-var2-n1e4 workload's first lag, and a
    # two-column copula entropy whose outlier row lies beyond any window
    TWO_COLUMN = {
        "scan-lag1": ["4ded81d6f18925a4", "61433ab8f8b7c88b",
                      "bac5aff8f41befbc", "4983864d699dfaad"],
        "two-column-fallback": ["f0525b3595daf218", "f7b2bed6b2029a0e"],
    }

    @staticmethod
    def search(monkeypatch, route):
        """The half-widths of each call of the pass, N - 1 for full rows,
        and the digests of the rank matrix and of each distance array, for
        one estimate."""
        seen = []
        real_entropy = knn_module._rank_entropy
        real_slices = copula_module._slice_entropies

        # ranks / N are the pseudo-observations, bit for bit
        def record_ranks(ranks, *args):
            seen.append(digest(ranks / len(ranks), "<f8"))
            return real_slices(ranks, *args)

        def record_dist(dist, *args):
            seen.append(digest(dist, "<i8"))
            return real_entropy(dist, *args)

        monkeypatch.setattr(copula_module, "_slice_entropies", record_ranks)
        monkeypatch.setattr(knn_module, "_rank_entropy", record_dist)
        calls = spy_pass(monkeypatch)
        run_estimate(route)
        return [args[2] for args in calls], seen

    @pytest.mark.parametrize("route", list(PINNED))
    def test_search_outputs(self, monkeypatch, route):
        assert self.search(monkeypatch, route) == self.PINNED[route]

    @pytest.mark.parametrize("route", list(TWO_COLUMN))
    def test_two_column_outputs(self, monkeypatch, route):
        assert self.search(monkeypatch, route)[1] == self.TWO_COLUMN[route]

    @pytest.mark.parametrize("route", list(PINNED) + list(TWO_COLUMN))
    def test_entropies_near_kl_entropy(self, route):
        got, matrix, slices = run_estimate(route)
        ranks = rank_transform(matrix).values
        wide = [(h, cols) for h, cols in zip(got, slices)
                if len(range(matrix.d)[cols]) > 1]
        assert_near_kl_entropy([h for h, _ in wide], ranks,
                               [cols for _, cols in wide])


class TestRankEntropy:
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_equals_float64_reference(self, dtype):
        # the logs are taken in float64 whatever the integer type of D
        n, d, k = 999, 3, 3
        dist = np.random.default_rng(1).integers(1, 400, n).astype(dtype)
        reference = (digamma(n) - digamma(k)
                     + d * np.mean(np.log(2.0 * dist.astype(np.float64) / n)))
        assert abs(_rank_entropy(dist, d, k) - reference) <= 1e-13


class TestRoute:
    """_route sends each benchmark workload's searches to the route that is
    faster for it, slice by slice where the pass does not take them all,
    and _slice_entropies runs the search it names."""

    # off the pass, where each slice takes the walk or the tree:
    # scan-var2-n1e4 (m = 1, lags to 24), te-var2-n1e5-m3, the first row
    # count at or above the 1024-row cut, and anything too long for int16
    # ranks
    @pytest.mark.parametrize("n,d", [(9_999, 3), (9_976, 3), (99_997, 5),
                                     (1_024, 3), (2**15, 14), (2**15, 60),
                                     (10**6, 40)])
    def test_tree(self, n, d):
        assert "pass" not in _route(n, [d], 3)

    # te-var2-n2000-m12; cete te -m 12 and -m 1 on a 1000-row window; the
    # small traced scan of tests/test_trace_targets.py; the last row count
    # below the 1024-row cut
    @pytest.mark.parametrize("n,d", [(1_988, 14), (988, 14), (999, 3),
                                     (976, 3), (298, 4), (297, 4),
                                     (1_023, 3)])
    def test_pairwise_pass(self, n, d):
        assert _route(n, [d], 3) == ["pass"]

    # cete te -m 1 on a 1000-row window compares each row with a window;
    # te-var2-n2000-m12 and cete te -m 12 keep full rows
    @pytest.mark.parametrize("n,d,windowed", [(999, 3, True), (976, 3, True),
                                              (1_988, 14, False),
                                              (988, 14, False)])
    def test_window(self, n, d, windowed):
        widths = [w for w in (d, d - 1, d - 1, d - 2) if w > 1]
        assert _route(n, widths, 3) == ["pass"] * len(widths)
        spans_all = _half_widths(n, widths, 3) == [n - 1] * len(widths)
        assert spans_all != windowed

    # scan-var2-n1e4 at lags 1 and 24, whose joint, self and assoc terms
    # are searched (the past term has one column): all three take the walk
    @pytest.mark.parametrize("n", [9_999, 9_976])
    def test_scan(self, n):
        assert _route(n, [3, 2, 2], 3) == ["walk"] * 3

    # te-var2-n1e5-m3: too many rows for int16 ranks, and no two-column slice
    def test_wide_terms_above_int16(self):
        assert _route(99_997, [5, 4, 4, 3], 3) == ["tree"] * 4

    # at m = 2 the joint term has four columns, the others three or two
    def test_past_term(self):
        assert (_route(1_100, [4, 3, 3, 2], 3)
                == ["tree", "walk", "walk", "walk"])

    # the walk's work per offset grows with k, and its window with
    # sqrt(k + 1)
    @pytest.mark.parametrize("k,route", [(1, "walk"), (2, "walk"),
                                         (3, "walk"), (4, "tree"),
                                         (7, "tree"), (15, "tree")])
    def test_k(self, k, route):
        assert _route(9_999, [3, 2, 2], k) == [route] * 3

    # below 1024 rows the pass takes every slice, two-column ones included;
    # from 2**15 rows the ranks no longer fit in int16
    @pytest.mark.parametrize("n,route", [(999, "pass"), (1_023, "pass"),
                                         (1_024, "walk"), (2**15 - 1, "walk"),
                                         (2**15, "tree")])
    def test_rows(self, n, route):
        assert _route(n, [3, 2, 2], 3) == [route] * 3

    # at m = 2 the tree takes the joint term and the walk the others; cete
    # te -m 1 on a 1000-row window takes the pass
    @pytest.mark.parametrize("n,m,routes", [
        (1_100, 2, ["tree", "walk", "walk", "walk"]), (999, 1, ["pass"] * 3)])
    def test_slice_entropies_runs_the_route(self, monkeypatch, n, m, routes):
        # the kernels run as they are, watched
        taken = []
        for name, route in (("_near_pairs", "pass"), ("_walk", "walk"),
                            ("_tree_distances", "tree")):
            def spy(*args, real=getattr(knn_module, name), route=route):
                # a search again names its rows; the pass's first search
                # takes every slice, the walk and the tree one each
                if len(args) < 5:
                    taken.extend([route] * (1 if route == "tree"
                                            else len(args[1])))
                return real(*args)

            monkeypatch.setattr(knn_module, name, spy)
        ranks = ranked_embedding(n, m, "continuous")
        terms = [cols for cols in _TERMS if len(range(m + 2)[cols]) > 1]
        got = _slice_entropies(ranks, terms, 3)
        widths = [ranks[:, cols].shape[1] for cols in terms]
        assert taken == routes == _route(n, widths, 3)
        assert_near_kl_entropy(got, ranks, terms)


class TestAboveInt16:
    """From 2^15 rows, where ranks no longer fit in int16 and the tree
    searches every slice, the estimates stay kl_entropy's on the float
    pseudo-observations, and the tree's distances on the rank matrix that
    the estimate searches stay a full scan's."""

    N = 2**15 + 5

    @staticmethod
    def searched(monkeypatch) -> list[np.ndarray]:
        """The rank matrices that the estimates hand the kNN layer."""
        handed = []
        real = copula_module._slice_entropies

        def spy(ranks, *args):
            handed.append(ranks)
            return real(ranks, *args)

        monkeypatch.setattr(copula_module, "_slice_entropies", spy)
        return handed

    def assert_tree_equals_brute_scan(self, searched, matrix, slices):
        # 200 rows, each against all N
        rows = np.random.default_rng(0).choice(self.N, 200, replace=False)
        ranks = rank_transform(matrix).values
        for cols in slices:
            got = _tree_distances(searched, cols, 3)[rows]
            assert np.array_equal(
                got, brute_rank_distances(ranks[:, cols], 3, rows))

    def test_copula_entropy(self, monkeypatch):
        values = np.random.default_rng(1).standard_normal((self.N, 2))
        matrix = validate_matrix(values.cumsum(axis=1))
        assert _route(self.N, [2], 3) == ["tree"]
        handed = self.searched(monkeypatch)
        got = copula_entropy(matrix)
        ranks = rank_transform(matrix).values
        assert abs(got - kl_entropy(ranks / self.N, 3)) <= 1e-12
        self.assert_tree_equals_brute_scan(handed[0], matrix, [slice(None)])

    def test_transfer_entropy(self, monkeypatch):
        x, y = simulate_var2(Var2Spec(seed=2), self.N + 1)
        spec = EmbeddingSpec(1, 1)
        handed = self.searched(monkeypatch)
        est = transfer_entropy(x, y, spec)
        assert est.n_effective == self.N
        assert _route(self.N, [3, 2, 2], 3) == ["tree"] * 3
        matrix = build_embedding(x, y, spec)
        pobs = rank_transform(matrix).values / self.N
        for got, cols in zip((est.ce_joint, est.ce_self, est.ce_assoc),
                             (_JOINT, _SELF, _ASSOC)):
            assert abs(got - kl_entropy(pobs[:, cols], 3)) <= 1e-12
        self.assert_tree_equals_brute_scan(handed[0], matrix,
                                           [_JOINT, _SELF, _ASSOC])


class TestDigamma:
    def test_psi_at_one_is_minus_euler_gamma(self):
        assert abs(_digamma(1) + EULER_GAMMA) <= 1e-10

    def test_recurrence(self):
        for n in (1, 2, 5, 9, 10, 11, 13, 100, 10**6):
            assert abs(_digamma(n + 1) - (_digamma(n) + 1.0 / n)) <= 1e-10

    def test_known_value_psi_2(self):
        assert abs(_digamma(2) - (1.0 - EULER_GAMMA)) <= 1e-10

    def test_equals_scipy_bitwise(self):
        # every N of a pairwise pass and beyond, log-spaced N up to 1e8, and
        # every k in use
        small = np.arange(1, 2**16 + 1)
        spaced = np.unique(np.rint(np.logspace(0, 8, 200)).astype(np.int64))
        for ns in (small, spaced, np.arange(1, 51)):
            got = np.array([_digamma(int(n)) for n in ns])
            assert np.array_equal(got.view(np.int64),
                                  digamma(ns.astype(float)).view(np.int64))
