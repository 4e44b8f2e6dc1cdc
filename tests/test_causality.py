import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import cete.causality
import cete.copula
from cete import (
    EmbeddingSpec,
    Var2Spec,
    analytic_var_te,
    build_embedding,
    copula_entropy,
    lag_scan,
    simulate_var2,
    transfer_entropy,
    validate_matrix,
)
from cete.errors import (
    CeteError,
    EmptyInputError,
    LengthMismatchError,
    NonFiniteError,
    SeriesTooShortError,
)
from cete.knn_entropy import _route, kl_entropy
from conftest import raw_four_entropy_te


class TestEmbeddingSpec:
    def test_rejects_zero_lag(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(lag=0)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(lag=1, order_m=0)

    def test_effective_count(self):
        assert EmbeddingSpec(lag=2, order_m=2).n_effective(5) == 2


class TestBuildEmbedding:
    def test_lag1_order1_alignment(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        emb = build_embedding(x, y, EmbeddingSpec(lag=1, order_m=1))
        assert emb.T == 4
        assert list(emb.column("y_fut")) == [2.0, 3.0, 4.0, 5.0]
        assert [list(r) for r in emb.values[:, 1:-1]] == \
            [[1.0], [2.0], [3.0], [4.0]]
        assert list(emb.column("x")) == [10.0, 20.0, 30.0, 40.0]

    def test_lag2_order2_alignment(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        emb = build_embedding(x, y, EmbeddingSpec(lag=2, order_m=2))
        assert emb.T == 2
        assert emb.labels == ("y_fut", "y_past0", "y_past1", "x")
        # first row: effect at t+2, past block (Y_t, Y_{t-1}), cause at t
        assert emb.column("y_fut")[0] == 4.0
        assert list(emb.values[0, 1:-1]) == [2.0, 1.0]
        assert emb.column("x")[0] == 20.0

    def test_block_and_views_are_read_only(self):
        emb = build_embedding(np.arange(6.0), np.arange(6.0),
                              EmbeddingSpec(lag=1, order_m=2))
        assert emb.values.shape == (4, 4)
        for view in (emb.values, emb.column("y_fut"), emb.values[:, 1:-1],
                     emb.column("x")):
            assert np.shares_memory(view, emb.values)
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_too_short_series_rejected(self):
        series = np.arange(5.0)
        with pytest.raises(SeriesTooShortError):
            build_embedding(series, series, EmbeddingSpec(lag=4, order_m=2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            build_embedding(np.arange(5.0), np.arange(6.0),
                            EmbeddingSpec(lag=1))

    # a series has shape (T,); no other shape is flattened into one
    @pytest.mark.parametrize("entry", [
        lambda x, y: build_embedding(x, y, EmbeddingSpec(lag=1)),
        lambda x, y: transfer_entropy(x, y, EmbeddingSpec(lag=1)),
        lambda x, y: lag_scan(x, y, [1, 2]),
    ], ids=["build_embedding", "transfer_entropy", "lag_scan"])
    @pytest.mark.parametrize("x_shape, y_shape", [
        ((100, 2), (200,)), ((200,), (100, 2)), ((200, 1), (200,)), ((), (200,)),
    ], ids=["2d_x", "2d_y", "column_x", "scalar_x"])
    def test_series_must_be_one_dimensional(self, entry, x_shape, y_shape):
        rng = np.random.default_rng(3)
        with pytest.raises(EmptyInputError, match="must be 1-d"):
            entry(rng.random(x_shape), rng.random(y_shape))

    @pytest.mark.parametrize("series, col", [("x", 0), ("y", 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_named_by_series_index(self, series, col, bad):
        data = {"x": np.arange(100.0), "y": np.arange(100.0)}
        data[series][50] = bad
        with pytest.raises(NonFiniteError,
                           match="^non-finite value at row 50, column "
                                 f"{col}$") as exc:
            build_embedding(data["x"], data["y"],
                            EmbeddingSpec(lag=3, order_m=2))
        assert (exc.value.row, exc.value.col) == (50, col)

    @pytest.mark.parametrize("index", [-1, -2])
    def test_non_finite_input_rejected_at_every_lag(self, index):
        # the embedding at lag 2 and 3 never reaches x[-2] or x[-1]; the
        # series are checked where they enter, so every lag refuses them
        xs, ys = simulate_var2(Var2Spec(seed=7), 300)
        xs = xs.copy()
        xs[index] = np.nan
        for lags in ([1, 2, 3], [2, 3], [3]):
            with pytest.raises(
                    NonFiniteError,
                    match=f"^lag {lags[0]}: non-finite value at row "
                          f"{300 + index}, column 0$"):
                lag_scan(xs, ys, lags)


class TestTransferEntropy:
    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        est = transfer_entropy(x, y, EmbeddingSpec(lag=1))
        assert abs(est.te_nats) <= 0.03

    def test_var_coupling_matches_analytic_value(self):
        truth = analytic_var_te(Var2Spec(), lag=1, order_m=1)
        xs, ys = simulate_var2(Var2Spec(seed=0), 10000)
        est = transfer_entropy(xs, ys, EmbeddingSpec(lag=1))
        assert abs(est.te_nats - truth) <= 0.05

    def test_non_causal_direction_near_zero(self):
        # X evolves autonomously, so the analytic reverse value is zero;
        # averaged over a fixed seed suite the estimate stays within 0.03
        assert analytic_var_te(Var2Spec(), lag=1, order_m=1) > 0
        values = []
        for seed in range(10):
            xs, ys = simulate_var2(Var2Spec(seed=seed), 10000)
            values.append(abs(transfer_entropy(ys, xs,
                                               EmbeddingSpec(lag=1)).te_nats))
        assert np.mean(values) <= 0.03

    def test_direction_asymmetry_every_seed(self):
        for seed in range(10):
            xs, ys = simulate_var2(Var2Spec(seed=seed), 10000)
            fwd = transfer_entropy(xs, ys, EmbeddingSpec(lag=1)).te_nats
            rev = transfer_entropy(ys, xs, EmbeddingSpec(lag=1)).te_nats
            assert fwd > rev, seed

    def test_order_one_past_term_is_zero(self):
        xs, ys = simulate_var2(Var2Spec(seed=1), 2000)
        est = transfer_entropy(xs, ys, EmbeddingSpec(lag=1, order_m=1))
        assert est.ce_past == 0.0

    def test_three_term_and_four_term_forms_bit_identical(self):
        xs, ys = simulate_var2(Var2Spec(seed=1), 3000)
        est = transfer_entropy(xs, ys, EmbeddingSpec(lag=1, order_m=1))
        three_term = -est.ce_joint + est.ce_self + est.ce_assoc
        assert est.te_nats == three_term

    def test_decomposition_identity_exact(self):
        xs, ys = simulate_var2(Var2Spec(seed=2), 4000)
        for m in (1, 2, 4):
            est = transfer_entropy(xs, ys, EmbeddingSpec(lag=2, order_m=m))
            assert est.te_nats == (-est.ce_joint + est.ce_self
                                   + est.ce_assoc - est.ce_past)

    def test_monotone_transforms_leave_te_bit_identical(self):
        # continuous VAR, and rounded normals with ties in every column, on
        # every route: the pass at 600 rows, the walk at m = 1 up to 3000,
        # the k-d tree at m = 3 above 1024 and at 40000
        rng = np.random.default_rng(3)
        for n, order_m in itertools.product((600, 1500, 3000, 40000), (1, 3)):
            pairs = (simulate_var2(Var2Spec(seed=3), n),
                     np.round(2 * rng.standard_normal((2, n))))
            for xs, ys in pairs:
                spec = EmbeddingSpec(lag=1, order_m=order_m)
                base = transfer_entropy(xs, ys, spec)
                warped = transfer_entropy(np.exp(xs), ys**3, spec)
                assert base == warped, (n, order_m)

    def test_baseline_is_not_monotone_invariant(self):
        # the raw four-entropy route over the same embedding moves under
        # np.exp(x), while the copula route stays bit-identical
        xs, ys = simulate_var2(Var2Spec(seed=3), 3000)
        spec = EmbeddingSpec(lag=1)
        assert transfer_entropy(np.exp(xs), ys, spec) == \
            transfer_entropy(xs, ys, spec)
        assert raw_four_entropy_te(np.exp(xs), ys, spec) != \
            raw_four_entropy_te(xs, ys, spec)

    def test_determinism(self):
        xs, ys = simulate_var2(Var2Spec(seed=4), 2000)
        a = transfer_entropy(xs, ys, EmbeddingSpec(lag=2, order_m=2))
        b = transfer_entropy(xs, ys, EmbeddingSpec(lag=2, order_m=2))
        assert a == b

    @pytest.mark.parametrize("data", ["var", "tied"])
    def test_terms_equal_separate_copula_entropies(self, data):
        # the four terms share one ranking of the joint block; each must be
        # bit-identical to ranking its own block from scratch
        if data == "var":
            xs, ys = simulate_var2(Var2Spec(seed=5), 1500)
        else:
            xs, ys = np.random.default_rng(5).integers(0, 6, (2, 1500)) * 1.0

        def ce(*blocks):
            return copula_entropy(validate_matrix(np.column_stack(blocks)))

        for lag in (1, 3):
            for m in (1, 2, 12):
                spec = EmbeddingSpec(lag=lag, order_m=m)
                est = transfer_entropy(xs, ys, spec)
                emb = build_embedding(xs, ys, spec)
                y_fut, y_past, x = (emb.column("y_fut"),
                                    emb.values[:, 1:-1], emb.column("x"))
                separate = (ce(y_fut, y_past, x), ce(y_fut, y_past),
                            ce(y_past, x), ce(y_past))
                assert (est.ce_joint, est.ce_self, est.ce_assoc,
                        est.ce_past) == separate, (lag, m)

    def test_raw_block_freed_before_knn_searches(self, monkeypatch):
        # only the integer ranks need to live through the kNN searches, on
        # every route: the raw joint block must be gone by then, and the
        # searches read rank_transform's own int32 array, not a copy
        raw, ranked, searches = [], [], []
        build = cete.causality.build_embedding
        rank = cete.copula.rank_transform
        entropies = cete.copula._slice_entropies

        def tracked_build(*args):
            emb = build(*args)
            raw.append(weakref.ref(emb.values))
            return emb

        def tracked_rank(matrix):
            ranks = rank(matrix)
            ranked.append(weakref.ref(ranks.values))
            return ranks

        def checked_entropies(ranks, slices, k):
            searches.append((all(ref() is None for ref in raw),
                             ranked[0]() is ranks,
                             ranks.dtype))
            return entropies(ranks, slices, k)

        monkeypatch.setattr(cete.causality, "build_embedding", tracked_build)
        monkeypatch.setattr(cete.copula, "rank_transform", tracked_rank)
        monkeypatch.setattr(cete.copula, "_slice_entropies",
                            checked_entropies)
        # the pairwise pass at N=500, the walk at N=1100 with m=1 and the
        # tree at N=1100 with m=2
        for n, m, route in ((500, 2, "pass"), (1100, 1, "walk"),
                            (1100, 2, "tree")):
            raw.clear()
            ranked.clear()
            searches.clear()
            xs, ys = simulate_var2(Var2Spec(seed=6), n)
            est = transfer_entropy(xs, ys, EmbeddingSpec(lag=1, order_m=m))
            widths = [m + 2, m + 1, m + 1, m]
            assert _route(est.n_effective, widths, 3)[0] == route
            assert len(raw) == 1 and len(ranked) == 1, n
            assert searches == [(True, True, np.int32)], n

    def test_rank_phase_memory_bound(self, monkeypatch):
        # the raw joint block, the int32 ranks and one column's sort at a
        # time read 17.6 bytes per embedded value at N = 2^15 + 5, m = 3;
        # a float64 copy of the ranks on their way to the searches reads 22.4
        peaks = []
        entropies = cete.copula._slice_entropies

        def checked_entropies(ranks, slices, k):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return entropies(ranks, slices, k)

        monkeypatch.setattr(cete.copula, "_slice_entropies",
                            checked_entropies)
        xs, ys = simulate_var2(Var2Spec(seed=0), 2**15 + 5)
        tracemalloc.start()
        try:
            est = transfer_entropy(xs, ys, EmbeddingSpec(lag=1, order_m=3))
        finally:
            tracemalloc.stop()
        assert peaks[0] / (est.n_effective * 5) <= 20.0, peaks


def record_layers(monkeypatch):
    """Record the width of each matrix that rank_transform ranks, and the
    route that _route gives each call of the kNN layer."""
    calls = {"ranked": [], "routes": []}
    rank = cete.copula.rank_transform
    entropies = cete.copula._slice_entropies

    def spy_rank(matrix):
        calls["ranked"].append(matrix.d)
        return rank(matrix)

    def spy_entropies(ranks, slices, k):
        widths = [ranks[:, cols].shape[1] for cols in slices]
        calls["routes"].append(_route(len(ranks), widths, k))
        return entropies(ranks, slices, k)

    monkeypatch.setattr(cete.copula, "rank_transform", spy_rank)
    monkeypatch.setattr(cete.copula, "_slice_entropies", spy_entropies)
    return calls


class TestConstantColumns:
    """A constant series is independent of every other, so it drops out of
    each copula-entropy term, exactly and with no warning."""

    # the pass, the walk and the tree: at m = 3 the joint term keeps four
    # columns, and 2^15 + 5 rows are past the int16 routes
    @pytest.mark.parametrize("n,m,way", [(500, 1, "pass"), (2000, 1, "walk"),
                                         (1100, 3, "tree"),
                                         (2**15 + 5, 1, "tree")])
    def test_constant_cause_is_exactly_zero(self, monkeypatch, n, m, way):
        calls = record_layers(monkeypatch)
        _, ys = simulate_var2(Var2Spec(seed=6), n)
        est = transfer_entropy(np.full(n, 3.0), ys,
                               EmbeddingSpec(lag=2, order_m=m))
        assert calls["ranked"] == [m + 1] and len(calls["routes"]) == 1
        assert calls["routes"][0][0] == way
        assert est.te_nats.hex() == "0x0.0p+0"
        assert est.ce_joint.hex() == est.ce_self.hex() != "0x0.0p+0"
        assert est.ce_assoc.hex() == est.ce_past.hex()

    @pytest.mark.parametrize("m, searched", [(1, [(0, 2)]),
                                             (3, [(0, 4), (1, 4)])])
    def test_each_kept_slice_is_searched_once(self, monkeypatch, m, searched):
        # without x, the joint and self terms keep the same columns, and so
        # do the assoc and past terms at m > 1
        slices = []
        entropies = cete.copula._slice_entropies

        def spy_entropies(ranks, cols, k):
            slices.extend((c.start, c.stop) for c in cols)
            return entropies(ranks, cols, k)

        monkeypatch.setattr(cete.copula, "_slice_entropies", spy_entropies)
        _, ys = simulate_var2(Var2Spec(seed=6), 500)
        est = transfer_entropy(np.full(500, 3.0), ys,
                               EmbeddingSpec(lag=2, order_m=m))
        assert slices == searched
        assert est.te_nats.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("m", [1, 3])
    def test_constant_effect_is_not_ranked(self, monkeypatch, m):
        calls = record_layers(monkeypatch)
        xs, _ = simulate_var2(Var2Spec(seed=6), 500)
        est = transfer_entropy(xs, np.full(500, -1.5),
                               EmbeddingSpec(lag=1, order_m=m))
        terms = (est.te_nats, est.ce_joint, est.ce_self, est.ce_assoc,
                 est.ce_past)
        assert [t.hex() for t in terms] == ["0x0.0p+0"] * 5
        assert calls == {"ranked": [], "routes": []}

    @pytest.mark.parametrize("n", [500, 2000])
    def test_constant_past_leaves_future_and_cause(self, n):
        # the effect's one spike sits at its last row, in y_fut alone
        xs, _ = simulate_var2(Var2Spec(seed=7), n)
        ys = np.zeros(n)
        ys[-1] = 1.0
        spec = EmbeddingSpec(lag=1)
        est = transfer_entropy(xs, ys, spec)
        emb = build_embedding(xs, ys, spec)
        pair = validate_matrix(np.column_stack((emb.column("y_fut"),
                                                emb.column("x"))))
        terms = (est.ce_self, est.ce_assoc, est.ce_past)
        assert [t.hex() for t in terms] == ["0x0.0p+0"] * 3
        assert est.ce_joint.hex() == copula_entropy(pair).hex()


class TestTiedSeries:
    """Integer-valued and rounded series, like every numeric PM2.5 column
    but Iws. Ties broken by row index give y_fut and y_past, shifted copies
    of one series, ranks that rise together inside every tie class, and
    that spurious concordance drives TE far below zero (ROADMAP item 2).
    Continuous iid series read -0.034 +- 0.028 at N = 2000 (seeds 0-7 of
    rng.random)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2")
    @pytest.mark.parametrize("levels", [3, 10])
    def test_independent_integer_series_near_zero(self, levels):
        # -1.62 to -1.68 at 3 levels, -3.11 to -3.26 at 10
        values = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x, y = rng.integers(0, levels, (2, 2000)).astype(float)
            values.append(transfer_entropy(x, y, EmbeddingSpec(1)).te_nats)
        assert max(map(abs, values)) <= 0.15, values

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounded_var_reads_its_continuous_value(self, seed):
        # -2.19 to -2.26 on the 0.5 grid, against 0.10 to 0.18 continuous
        xs, ys = simulate_var2(Var2Spec(seed=seed), 2000)
        continuous = transfer_entropy(xs, ys, EmbeddingSpec(1)).te_nats
        rounded = transfer_entropy(np.round(2 * xs) / 2, np.round(2 * ys) / 2,
                                   EmbeddingSpec(1)).te_nats
        assert abs(rounded - continuous) <= 0.1, (rounded, continuous)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2")
    def test_censored_effect_reads_the_observed_te(self):
        # the effect censored at its median, half its values one tie, as
        # the Is and Ir columns are: -0.76 to -0.65, against the observed
        # process's own TE of 0.106 (ROADMAP item 19)
        values = []
        for seed in range(4):
            xs, ys = simulate_var2(Var2Spec(seed=seed), 1000)
            censored = np.maximum(ys, np.quantile(ys, 0.5))
            values.append(transfer_entropy(xs, censored,
                                           EmbeddingSpec(1)).te_nats)
        assert all(abs(v - 0.106) <= 0.15 for v in values), values


def test_independent_future_copy_near_zero():
    # replacing y_fut with fresh noise forces conditional independence
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10000)
    y = rng.standard_normal(10000)
    emb = build_embedding(x, y, EmbeddingSpec(lag=1))
    y_fut = rng.standard_normal(emb.T)
    y_past, x_cause = emb.values[:, 1:-1], emb.column("x")
    value = (kl_entropy(np.column_stack([y_fut, y_past]))
             + kl_entropy(np.column_stack([x_cause, y_past]))
             - kl_entropy(y_past)
             - kl_entropy(np.column_stack([y_fut, y_past, x_cause])))
    assert abs(value) <= 0.05


class TestLagScan:
    def test_single_lag_equals_transfer_entropy(self):
        xs, ys = simulate_var2(Var2Spec(seed=5), 2000)
        res = lag_scan(xs, ys, [3])
        direct = transfer_entropy(xs, ys, EmbeddingSpec(lag=3))
        assert res.entries == ((3, direct),)

    def test_independent_noise_flat(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20000)
        y = rng.standard_normal(20000)
        res = lag_scan(x, y, range(1, 6))
        assert all(abs(v) <= 0.05 for v in res.te_values)

    def test_var_peak_at_coupling_lag(self):
        # analytic values decay with lag, so lag 1 should dominate
        analytic = [analytic_var_te(Var2Spec(), lag=lag) for lag in range(1, 6)]
        assert all(a > b for a, b in zip(analytic, analytic[1:]))
        for seed in range(3):
            xs, ys = simulate_var2(Var2Spec(seed=seed), 10000)
            res = lag_scan(xs, ys, range(1, 6))
            assert max(res.te_values) == res.te_values[0], seed

    def test_labels_and_order_recorded(self):
        xs, ys = simulate_var2(Var2Spec(seed=6), 1500)
        res = lag_scan(xs, ys, [1, 4], order_m=2)
        assert res.lags == [1, 4]

    def test_rejects_bad_lag_lists(self):
        xs, ys = simulate_var2(Var2Spec(seed=6), 100)
        with pytest.raises(ValueError):
            lag_scan(xs, ys, [])
        with pytest.raises(ValueError):
            lag_scan(xs, ys, [0, 1])
        with pytest.raises(ValueError):
            lag_scan(xs, ys, [2, 2])

    def test_failing_lag_names_itself(self):
        # N_eff at lag 25 is 3, below the k + 1 floor, so that lag fails
        xs, ys = simulate_var2(Var2Spec(seed=6), 28)
        with pytest.raises(CeteError, match="lag 25"):
            lag_scan(xs, ys, [1, 25], k=3)
