import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma

from cete import kl_entropy, knn_distances
from cete.errors import DuplicatePointsError, KTooLargeError, NonFiniteError
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


class TestDigamma:
    def test_psi_at_one_is_minus_euler_gamma(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-10

    def test_recurrence(self):
        for x in (0.5, 1.0, 2.7, 5.0, 13.4, 100.0):
            assert abs(digamma(x + 1.0) - (digamma(x) + 1.0 / x)) <= 1e-10

    def test_known_value_psi_2(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-10
