"""The traced benchmark still finds the names it wraps in cete.

``bench/tracer.py`` times cete's layers by replacing module attributes
from outside the package, so a refactor that renames or bypasses one of
them silently empties a layer of the traced run. This test runs the
tracer around a small lag scan and a small hourly-file parse and checks
that every layer the estimator passes through records time, and that the
counters it reads off return values keep their values. The scan has 1100
points because below 1024 rows the searches take the pairwise pass, which
the tracer does not see; nor does it see the diagonal walk that searches
the terms of two and three columns above that, so the scan is at Markov
order 2, whose four-column joint term takes the k-d tree.
"""
import io

import pytest

import cete.causality
import cete.cli
from cete.oracle import Var2Spec, simulate_var2
from conftest import load_bench as load

# the two targets whose cete names are gone; every other target must resolve
KNOWN_ABSENT = {"cete.causality.copula_entropy",
                "cete.knn_entropy._kth_distance_brute"}


@pytest.fixture(scope="module")
def traced():
    # 1100 points at m = 2, so that the scan searches the k-d tree the
    # tracer wraps
    tracer, pm25 = load("tracer"), load("pm25")
    xs, ys = simulate_var2(Var2Spec(seed=1), 1100)
    text = pm25.generate(31, rows=1500)
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        scan = cete.causality.lag_scan(xs, ys, [1, 2], order_m=2)
        table = cete.cli.parse_pm25_csv(io.StringIO(text))
    finally:
        restore()
    return rec, scan, table


def test_traced_calls_return_their_results(traced):
    _, scan, table = traced
    assert scan.lags == [1, 2]
    assert len(table) == 1500


def test_only_known_targets_are_absent(traced):
    rec, _, _ = traced
    assert rec.absent <= KNOWN_ABSENT


@pytest.mark.parametrize("span", ["causality.embed", "core.validate",
                                  "copula.rank", "knn_entropy.build",
                                  "knn_entropy.query", "ingest.parse"])
def test_layer_records_time(traced, span):
    rec, _, _ = traced
    assert rec.total[span] > 0



# lags 1 and 2 at m = 2 over 1100 points: 1098 + 1097 embedded rows; each
# TE call ranks one 4-column block and runs 1 tree search over its rows,
# for the joint term, the three-column self and assoc terms and the
# two-column past term taking the diagonal walk
@pytest.mark.parametrize("counter, value", [
    ("copula.rank_calls", 2),
    ("copula.rank_columns", 8),
    ("knn_entropy.calls", 2),
    ("knn_entropy.points", 2195),
    ("causality.n_effective_sum", 2195),
    ("ingest.rows", 1500),
])
def test_counter_value(traced, counter, value):
    rec, _, _ = traced
    assert rec.count[counter] == value


def test_pairwise_pass_is_not_traced():
    # below 1024 rows the pairwise pass serves every search, and it runs in
    # no name the tracer wraps: its kNN counters read 0
    tracer = load("tracer")
    xs, ys = simulate_var2(Var2Spec(seed=1), 300)
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        cete.causality.lag_scan(xs, ys, [1, 2], order_m=2)
    finally:
        restore()
    assert rec.count["copula.rank_calls"] == 2
    assert rec.count["knn_entropy.calls"] == 0


def test_walk_is_not_traced():
    # at m = 1 the joint, self and assoc terms have three or two columns:
    # above 1024 rows the diagonal walk searches them all, in no name the
    # tracer wraps, so no tree search is counted
    tracer = load("tracer")
    xs, ys = simulate_var2(Var2Spec(seed=1), 1100)
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        cete.causality.lag_scan(xs, ys, [1, 2], order_m=1)
    finally:
        restore()
    assert rec.count["copula.rank_calls"] == 2
    assert rec.count["knn_entropy.calls"] == 0
    assert rec.count["knn_entropy.points"] == 0
