import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cete import (
    EmbeddingSpec,
    LagScanResult,
    SeriesMatrix,
    TeEstimate,
    build_embedding,
    copula_entropy,
    lag_scan,
    transfer_entropy,
    validate_matrix,
)
from cete.errors import DuplicateLabelError, EmptyInputError, NonFiniteError
from cete.knn_entropy import kl_entropy, knn_distances


class TestValidateMatrix:
    def test_accepts_finite_table(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert isinstance(m, SeriesMatrix)
        assert (m.T, m.d) == (3, 2)
        assert m.labels == ("c0", "c1")

    def test_rejects_nan_with_position(self):
        with pytest.raises(NonFiniteError) as exc:
            validate_matrix([[1.0, 2.0], [float("nan"), 4.0]])
        assert (exc.value.row, exc.value.col) == (1, 0)

    def test_rejects_infinity(self):
        with pytest.raises(NonFiniteError):
            validate_matrix([[np.inf], [0.0]])

    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            validate_matrix(np.empty((0, 2)))
        with pytest.raises(EmptyInputError):
            validate_matrix(np.empty((3, 0)))

    # every entry point that reads a point table gates it the same way
    every_entry = pytest.mark.parametrize("entry", [
        validate_matrix, lambda a: knn_distances(a, 1), kl_entropy,
    ], ids=["validate_matrix", "knn_distances", "kl_entropy"])

    @every_entry
    def test_rejects_three_dimensional_table(self, entry):
        with pytest.raises(EmptyInputError, match="ndim=3"):
            entry(np.zeros((2, 2, 2)))

    @every_entry
    def test_rejects_ragged_table(self, entry):
        with pytest.raises(EmptyInputError, match="ragged rows"):
            entry([[1.0, 2.0], [3.0]])

    def test_rejects_text(self):
        with pytest.raises(TypeError, match="got dtype <U1"):
            validate_matrix([["a", "b"]])

    def test_real_dtypes_and_numeric_objects_are_cast(self):
        want = validate_matrix([[1.0, 0.0], [3.0, 1.0]]).values
        for table in (np.array([[1, 0], [3, 1]], dtype=np.uint8),
                      np.array([[1, False], [3, True]], dtype=object),
                      [np.array([1.0, 0.0]), np.array([3, 1])]):
            assert validate_matrix(table).values.tobytes() == want.tobytes()
        assert list(validate_matrix([True, False]).values[:, 0]) == [1.0, 0.0]

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DuplicateLabelError):
            validate_matrix([[1.0, 2.0]], labels=("a", "a"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DuplicateLabelError):
            validate_matrix([[1.0, 2.0]], labels=("a",))

    def test_one_dimensional_input_becomes_single_column(self):
        m = validate_matrix([1.0, 2.0, 3.0])
        assert (m.T, m.d) == (3, 1)

    def test_values_are_read_only(self):
        m = validate_matrix([[1.0], [2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    @pytest.mark.parametrize("view", [lambda a: a, lambda a: a[:, 0]],
                             ids=["array", "column_view"])
    def test_callers_buffer_stays_writable_and_detached(self, view):
        a = np.zeros((3, 2))
        m = validate_matrix(view(a))
        a[0, 0] = 5.0
        assert m.values[0, 0] == 0.0

    def test_list_tuple_and_array_input_agree(self):
        rows = [[1.0, -2.5], [-0.0, 3.0], [7.25, 5e-324]]
        want = validate_matrix(np.array(rows)).values
        for table in (rows, tuple(map(tuple, rows)),
                      [np.array(r) for r in rows]):
            got = validate_matrix(table).values
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_rows_given_as_a_list_of_arrays_stay_detached(self):
        first = np.zeros(2)
        m = validate_matrix([first, np.ones(2)])
        first[0] = 5.0
        assert m.values[0, 0] == 0.0
        assert first.flags.writeable

    def test_column_lookup_by_label(self):
        m = validate_matrix([[1.0, 10.0], [2.0, 20.0]], labels=("a", "b"))
        assert list(m.column("b")) == [10.0, 20.0]

    def test_pure_function(self):
        table = [[1.5, 2.5], [3.5, 4.5]]
        m1 = validate_matrix(table)
        m2 = validate_matrix(table)
        assert np.array_equal(m1.values, m2.values)
        assert m1.labels == m2.labels


_RNG = np.random.default_rng(0)
_XS, _YS = _RNG.standard_normal(60), _RNG.standard_normal(60)
_SPEC = EmbeddingSpec(lag=1)

# every public entry point that takes the neighbor index k
_K_ENTRY_POINTS = {
    "knn_distances": lambda k: knn_distances(_XS, k).eps.tolist(),
    "kl_entropy": lambda k: kl_entropy(_XS, k),
    "copula_entropy": lambda k: copula_entropy(
        validate_matrix(np.column_stack([_XS, _YS])), k),
    "copula_entropy_one_column": lambda k: copula_entropy(
        validate_matrix(_XS), k),
    "transfer_entropy": lambda k: transfer_entropy(_XS, _YS, _SPEC, k),
    "lag_scan": lambda k: lag_scan(_XS, _YS, [1, 2], k=k),
}


class TestNeighborIndex:
    def test_defaults(self):
        for fn in (kl_entropy, copula_entropy, transfer_entropy, lag_scan):
            assert inspect.signature(fn).parameters["k"].default == 3
        assert kl_entropy(_XS) == kl_entropy(_XS, k=3)
        assert transfer_entropy(_XS, _YS, _SPEC) == \
            transfer_entropy(_XS, _YS, _SPEC, k=3)

    @pytest.mark.parametrize("entry", sorted(_K_ENTRY_POINTS))
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_nonpositive_k(self, entry, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            _K_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", sorted(_K_ENTRY_POINTS))
    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, True])
    def test_rejects_non_integral_k(self, entry, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            _K_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", sorted(_K_ENTRY_POINTS))
    def test_accepts_numpy_integer_k(self, entry):
        assert _K_ENTRY_POINTS[entry](np.int64(2)) == \
            _K_ENTRY_POINTS[entry](2)

    @pytest.mark.parametrize("field", ["lag", "order_m"])
    def test_embedding_spec_integers(self, field):
        for bad in (1.5, True):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                EmbeddingSpec(**{"lag": 1, field: bad})
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            EmbeddingSpec(**{"lag": 1, field: 0})
        spec = EmbeddingSpec(**{"lag": 1, field: np.int64(2)})
        assert getattr(spec, field) == 2
        # stored as Python ints, so that no NumPy integer reaches a result
        assert type(spec.lag) is type(spec.order_m) is int
        est = transfer_entropy(_XS, _YS, spec)
        assert type(est.n_effective) is int
        assert json.loads(json.dumps(dataclasses.asdict(est))) == \
            dataclasses.asdict(est)

    def test_lag_scan_rejects_non_integral_lag(self):
        for lags in ([1, 2.5], [True]):
            with pytest.raises(TypeError, match="lag must be an integer"):
                lag_scan(_XS, _YS, lags)


# every public entry point that takes array input, fed a complex series
_ARRAY_ENTRY_POINTS = {
    "validate_matrix": validate_matrix,
    "build_embedding_x": lambda z: build_embedding(z, _YS, _SPEC),
    "build_embedding_y": lambda z: build_embedding(_XS, z, _SPEC),
    "transfer_entropy": lambda z: transfer_entropy(z, _YS, _SPEC),
    "lag_scan": lambda z: lag_scan(_XS, z, [1, 2]),
    "kl_entropy": kl_entropy,
    "knn_distances": lambda z: knn_distances(z, 3),
}


@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_complex_input_is_refused_not_truncated(entry):
    # a float cast would drop the imaginary part with only a ComplexWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TypeError, match="expected real values"):
            _ARRAY_ENTRY_POINTS[entry](_XS + 2j)
    assert not [w for w in caught
                if issubclass(w.category, np.exceptions.ComplexWarning)]


# 60-point series of values that are not real numbers, which a float cast
# would misread (numeric text, day counts) or fail on with numpy's own error
_NOT_REAL = {
    "text": _XS.astype(str),
    "bytes": _XS.astype("S"),
    "datetime": np.arange(60).astype("datetime64[D]"),
    "timedelta": np.arange(60).astype("timedelta64[s]"),
    "objects": np.array([object()] * 60),
}


@pytest.mark.parametrize("kind", sorted(_NOT_REAL))
@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_values_that_are_not_real_are_refused(entry, kind):
    with pytest.raises(TypeError, match="expected real values"):
        _ARRAY_ENTRY_POINTS[entry](_NOT_REAL[kind])


@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_ragged_object_array_is_refused(entry):
    # numpy keeps rows of unequal lengths as objects when asked to
    ragged = np.array([[1.0, 2.0], [3.0]] * 30, dtype=object)
    with pytest.raises(EmptyInputError, match="ragged rows"):
        _ARRAY_ENTRY_POINTS[entry](ragged)


class TestTeEstimate:
    def test_identity_holds_exactly(self):
        est = TeEstimate(ce_joint=-0.3, ce_self=-0.1, ce_assoc=-0.05,
                         ce_past=-0.01, n_effective=100)
        assert est.te_nats == -(-0.3) + (-0.1) + (-0.05) - (-0.01)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
           st.floats(-10, 10))
    def test_identity_property(self, j, s, a, p):
        est = TeEstimate(ce_joint=j, ce_self=s, ce_assoc=a, ce_past=p,
                         n_effective=5)
        assert est.te_nats == -j + s + a - p

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            TeEstimate(ce_joint=0.0, ce_self=0.0, ce_assoc=0.0, ce_past=0.0,
                       n_effective=0)

    def test_immutable(self):
        est = TeEstimate(ce_joint=0.0, ce_self=0.0, ce_assoc=0.0,
                         ce_past=0.0, n_effective=1)
        with pytest.raises(AttributeError):
            est.te_nats = 1.0


class TestLagScanResult:
    def _est(self):
        return TeEstimate(ce_joint=-0.2, ce_self=-0.1, ce_assoc=0.0,
                          ce_past=0.0, n_effective=10)

    def test_lags_and_values(self):
        res = LagScanResult(entries=((1, self._est()), (3, self._est())))
        assert res.lags == [1, 3]
        assert res.te_values == [self._est().te_nats] * 2
