import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cete import (
    ConstantColumnWarning,
    copula_entropy,
    rank_transform,
    validate_matrix,
)
from cete.errors import TooFewSamplesError
from cete.oracle import gaussian_ce
from cete.knn_entropy import _route
from conftest import gaussian_pair

# strictly increasing maps used in invariance tests
MONOTONE_MAPS = [
    np.exp,
    lambda v: v**3,
    lambda v: 2.5 * v - 7.0,
    np.arctan,
    lambda v: np.expm1(v / 4.0) + 0.25 * v,
]

# a shape (rows, columns) per exact kNN route of a copula entropy: the
# pairwise pass below 1024 rows, above it the walk for two and three
# columns and the k-d tree for four
ROUTE_SHAPES = {(600, 2): "pass", (1500, 2): "walk", (1500, 3): "walk",
                (1500, 4): "tree"}


class TestRankTransform:
    def test_ranks_by_value(self):
        m = validate_matrix([10.0, 30.0, 20.0])
        p = rank_transform(m)
        assert list(p.values[:, 0]) == [1 / 3, 3 / 3, 2 / 3]

    def test_ties_broken_by_row_index(self):
        m = validate_matrix([5.0, 5.0, 5.0])
        with pytest.warns(ConstantColumnWarning):
            p = rank_transform(m)
        assert list(p.values[:, 0]) == [1 / 3, 2 / 3, 3 / 3]

    def test_monotone_transform_gives_identical_output(self):
        m1 = validate_matrix([10.0, 30.0, 20.0])
        m2 = validate_matrix(np.exp([10.0, 30.0, 20.0]))
        assert np.array_equal(rank_transform(m1).values,
                              rank_transform(m2).values)

    def test_needs_two_rows(self):
        with pytest.raises(TooFewSamplesError):
            rank_transform(validate_matrix([[1.0, 2.0]]))

    def test_labels_carried_through(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]], labels=("u", "v"))
        assert rank_transform(m).labels == ("u", "v")

    def test_output_read_only(self):
        p = rank_transform(validate_matrix([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            p.values[0, 0] = 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    def test_each_column_is_permutation_of_grid(self, col):
        t = len(col)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantColumnWarning)
            p = rank_transform(validate_matrix(np.asarray(col)))
        got = np.sort(p.values[:, 0])
        want = np.arange(1, t + 1) / t
        assert np.array_equal(got, want)
        assert got[0] > 0.0 and got[-1] == 1.0


def stable_reference_ranks(table):
    """rank / T per column from one stable argsort: ties go by row index."""
    t = table.shape[0]
    out = np.empty(table.shape)
    for j in range(table.shape[1]):
        ranks = np.empty(t)
        ranks[np.argsort(table[:, j], kind="stable")] = np.arange(1, t + 1)
        out[:, j] = ranks / t
    return out


def ranks_without_warnings(table):
    """rank_transform's values; any ConstantColumnWarning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConstantColumnWarning)
        return rank_transform(validate_matrix(table)).values


class TestRankTransformMatchesStableSort:
    """Bitwise equality with a stable argsort of every column, on the
    untied columns that take one fast sort and the tied ones sorted again."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=80),
           st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)),
                    max_size=25))
    def test_floats_with_forced_duplicates(self, values, copies):
        col = np.array(values)
        for src, dst in copies:
            col[dst % len(col)] = col[src % len(col)]
        table = np.column_stack([col, np.array(values)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantColumnWarning)
            got = rank_transform(validate_matrix(table)).values
        assert np.array_equal(got, stable_reference_ranks(table))

    def test_signed_zeros_are_ties(self):
        col = np.array([0.0, -0.0, 1.0, 0.0, -1.0, -0.0, 0.5])
        got = ranks_without_warnings(col)
        assert np.array_equal(got, stable_reference_ranks(col.reshape(-1, 1)))
        # the four zeros, in row order, take ranks 2..5 of 7
        assert list(got[[0, 1, 3, 5], 0] * 7) == [2.0, 3.0, 4.0, 5.0]

    def test_all_signed_zeros_are_constant(self):
        col = np.array([0.0, -0.0, -0.0, 0.0])
        with pytest.warns(ConstantColumnWarning):
            got = rank_transform(validate_matrix(col)).values
        assert list(got[:, 0]) == [0.25, 0.5, 0.75, 1.0]

    def test_constant_columns_warn_by_label(self):
        rng = np.random.default_rng(4)
        table = np.column_stack([rng.random(300), np.full(300, -3.0),
                                 rng.integers(0, 3, 300), np.full(300, 7.0)])
        m = validate_matrix(table, labels=("u", "flat", "levels", "still"))
        with pytest.warns(ConstantColumnWarning) as record:
            got = rank_transform(m).values
        named = [str(w.message).split("'")[1] for w in record]
        assert named == ["flat", "still"]
        assert np.array_equal(got, stable_reference_ranks(table))

    def test_mixed_tied_and_untied_columns(self):
        rng = np.random.default_rng(5)
        n = 2_000
        table = np.column_stack([
            rng.standard_normal(n),                     # untied
            rng.integers(0, 4, n),                      # heavily tied
            np.round(rng.standard_normal(n), 2),        # some ties
            np.where(rng.random(n) < 0.6, 0.0, rng.random(n)),  # zero-inflated
            np.arange(n)[::-1] * 0.5,                   # untied, descending
        ])
        assert np.array_equal(ranks_without_warnings(table),
                              stable_reference_ranks(table))

    @pytest.mark.parametrize("levels", [2, 7, 1_000, 10**9])
    def test_integer_valued_columns_at_n_20001(self, levels):
        # large enough that an unstable sort reorders ties
        table = np.random.default_rng(levels).integers(
            0, levels, size=(20_001, 3)).astype(float)
        assert np.array_equal(ranks_without_warnings(table),
                              stable_reference_ranks(table))


@pytest.mark.parametrize("entry", [rank_transform, copula_entropy])
def test_plain_array_is_refused_with_a_pointer_to_validate_matrix(entry):
    # only a SeriesMatrix has passed the input checks
    with pytest.raises(TypeError, match="wrap raw arrays with validate_matrix"):
        entry(np.random.default_rng(0).standard_normal((50, 2)))


class TestCopulaEntropy:
    def test_single_column_is_exactly_zero(self):
        m = validate_matrix(np.random.default_rng(0).standard_normal(100))
        assert copula_entropy(m) == 0.0

    def test_independent_uniforms_near_zero(self):
        rng = np.random.default_rng(0)
        m = validate_matrix(rng.random((2000, 2)))
        assert abs(copula_entropy(m)) <= 0.05

    def test_strong_gaussian_dependence_matches_closed_form(self):
        truth = gaussian_ce(0.9)  # 0.5 * ln(1 - 0.81), about -0.8304
        m = validate_matrix(gaussian_pair(0.9, 5000, seed=1000))
        assert abs(copula_entropy(m) - truth) <= 0.05

    def test_too_few_samples_rejected(self):
        m = validate_matrix(np.random.default_rng(0).random((4, 2)))
        with pytest.raises(TooFewSamplesError):
            copula_entropy(m, k=3)

    def test_too_few_samples_checked_even_for_one_column(self):
        m = validate_matrix([[1.0], [2.0]])
        with pytest.raises(TooFewSamplesError):
            copula_entropy(m)

    def test_constant_column_warns_but_computes(self):
        rng = np.random.default_rng(1)
        table = np.column_stack([np.full(500, 2.5), rng.random(500)])
        m = validate_matrix(table)
        with pytest.warns(ConstantColumnWarning):
            value = copula_entropy(m)
        assert math.isfinite(value)

    @pytest.mark.parametrize("shape", list(ROUTE_SHAPES))
    def test_route_of_each_shape(self, shape):
        n, d = shape
        assert _route(n, [d], 3) == [ROUTE_SHAPES[shape]]

    def test_column_permutation_symmetry_bit_exact(self):
        # the last column first
        for n, d in [(800, 3), *ROUTE_SHAPES]:
            rng = np.random.default_rng(2)
            table = rng.standard_normal((n, d))
            labels = ("a", "b", "c", "d")[:d]
            order = np.roll(np.arange(d), 1)
            m = validate_matrix(table, labels=labels)
            perm = validate_matrix(table[:, order],
                                   labels=tuple(labels[j] for j in order))
            assert copula_entropy(m) == copula_entropy(perm), (n, d)

    def test_row_shuffle_invariance_on_distinct_data(self):
        for (n, d), seed in itertools.product(ROUTE_SHAPES, range(40)):
            rng = np.random.default_rng(seed)
            table = rng.standard_normal((n, d))
            shuffled = table[rng.permutation(n)]
            assert copula_entropy(validate_matrix(table)) == \
                copula_entropy(validate_matrix(shuffled)), (n, d, seed)

    def test_error_shrinks_with_sample_size(self):
        # mean absolute deviation from the Gaussian closed form, 10 seeds
        rho = 0.5
        truth = gaussian_ce(rho)
        means = []
        for n in (500, 2000, 8000):
            errs = [abs(copula_entropy(validate_matrix(
                gaussian_pair(rho, n, seed=7000 + s))) - truth)
                for s in range(10)]
            means.append(np.mean(errs))
        assert means[0] > means[1] > means[2]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4),
           st.lists(st.sampled_from(range(len(MONOTONE_MAPS))), min_size=4,
                    max_size=4))
    def test_monotone_invariance_bit_exact(self, seed, d, map_ids):
        rng = np.random.default_rng(seed)
        for n, width in [(60, d), *ROUTE_SHAPES]:
            table = rng.standard_normal((n, width))
            transformed = np.column_stack(
                [MONOTONE_MAPS[map_ids[j]](table[:, j]) for j in range(width)]
            )
            h0 = copula_entropy(validate_matrix(table))
            h1 = copula_entropy(validate_matrix(transformed))
            assert h0 == h1, (n, width)
