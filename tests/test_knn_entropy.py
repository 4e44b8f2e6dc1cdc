import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma

import cete.knn_entropy as knn_module
from cete import (EmbeddingSpec, build_embedding, copula_entropy, kl_entropy,
                  knn_distances, rank_transform, validate_matrix)
from cete.causality import _TERMS
from cete.errors import (
    DuplicatePointsError,
    EmptyInputError,
    KTooLargeError,
    NonFiniteError,
)
from cete.knn_entropy import (_digamma, _pairwise, _pairwise_distances,
                              _slice_entropies)
from cete.oracle import Var2Spec, simulate_var2
from conftest import brute_knn_eps

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


def ranked_embedding(n: int, m: int, data: str) -> np.ndarray:
    """Pseudo-observations of an n-row transfer-entropy embedding of order m;
    "tied" rounds both series to a handful of integer levels first."""
    x, y = simulate_var2(Var2Spec(seed=m), n + m)
    if data == "tied":
        x, y = np.round(x), np.round(y)
    return rank_transform(build_embedding(x, y, EmbeddingSpec(1, m))).values


class TestPairwisePass:
    """The pairwise pass gives the tree's distances and entropies bit for
    bit, whichever route the rule picks for the shape."""

    # m = 1 at n = 976 and 999 is cete te's default over a 1000-row window,
    # whose PM2.5 columns are tied
    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("n,m", [(n, m) for n in (500, 1988)
                                     for m in (2, 6, 12, 24)]
                             + [(976, 1), (999, 1)])
    def test_equals_tree_on_every_term(self, n, m, data):
        pobs = ranked_embedding(n, m, data)
        # the terms wider than one column: all four, but past at m = 1
        terms = [cols for cols in _TERMS if len(range(m + 2)[cols]) > 1]
        for k in (1, 3, 7):
            tree = [knn_distances(pobs[:, cols], k).eps for cols in terms]
            for got, want in zip(_pairwise_distances(pobs, terms, k), tree):
                assert np.array_equal(got, want), k
        # the entropies through the route the rule picks: the pass below
        # 1024 rows and for m >= 12, the tree at n = 1988 for m = 2 and 6
        assert _pairwise(n, m + 2) == (n < 1024 or m >= 12)
        assert _slice_entropies(pobs, terms, 3) == [
            kl_entropy(pobs[:, cols], 3) for cols in terms]

    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("m", [2, 6, 12, 24])
    def test_equals_brute_scan(self, m, data):
        pobs = ranked_embedding(400, m, data)
        for k in (1, 3, 7):
            for got, cols in zip(_pairwise_distances(pobs, _TERMS, k), _TERMS):
                assert np.array_equal(got, brute_knn_eps(pobs[:, cols], k)), k

    @pytest.mark.parametrize("data", ["continuous", "tied"])
    @pytest.mark.parametrize("n,d", [(300, 20), (1000, 16)])
    def test_wide_copula_entropy(self, n, d, data):
        # one subset of every column: a single atom
        values = np.random.default_rng(d).standard_normal((n, d)).cumsum(axis=1)
        if data == "tied":
            values = np.round(values)
        matrix = validate_matrix(values)
        assert _pairwise(n, d)
        pobs = rank_transform(matrix).values
        assert copula_entropy(matrix) == kl_entropy(pobs)
        assert np.array_equal(_pairwise_distances(pobs, [slice(None)], 3)[0],
                              brute_knn_eps(pobs, 3))

    def test_one_row_per_block(self, monkeypatch):
        monkeypatch.setattr(knn_module, "_PASS_BYTES", 1)
        pobs = ranked_embedding(200, 6, "tied")
        for got, cols in zip(_pairwise_distances(pobs, _TERMS, 3), _TERMS):
            assert np.array_equal(got, knn_distances(pobs[:, cols], 3).eps)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(20, 80),
           st.lists(st.tuples(st.integers(0, 6), st.integers(2, 7)),
                    min_size=1, max_size=4))
    def test_any_slices_equal_tree(self, seed, d, n, bounds):
        # overlapping, nested and disjoint slices alike
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=(n, d)).astype(float)
        pobs = rank_transform(validate_matrix(values)).values
        slices = [slice(lo, lo + width) for lo, width in bounds
                  if lo + width <= d]
        k = int(rng.integers(1, 6))
        for got, cols in zip(_pairwise_distances(pobs, slices, k), slices):
            assert np.array_equal(got, knn_distances(pobs[:, cols], k).eps)


class TestRoute:
    """The rule sends each benchmark workload's searches to the route that
    is faster for it."""

    # scan-var2-n1e4 (m = 1, lags to 24), te-var2-n1e5-m3, the first row
    # count at or above the 1024-row cut, and anything too long for int16
    # ranks
    @pytest.mark.parametrize("n,d", [(9_999, 3), (9_976, 3), (99_997, 5),
                                     (1_024, 3), (2**15, 14), (2**15, 60),
                                     (10**6, 40)])
    def test_tree(self, n, d):
        assert not _pairwise(n, d)

    # te-var2-n2000-m12; cete te -m 12 and -m 1 on a 1000-row window; the
    # small traced scan of tests/test_trace_targets.py; the last row count
    # below the 1024-row cut
    @pytest.mark.parametrize("n,d", [(1_988, 14), (988, 14), (999, 3),
                                     (976, 3), (298, 4), (297, 4),
                                     (1_023, 3)])
    def test_pairwise_pass(self, n, d):
        assert _pairwise(n, d)


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
