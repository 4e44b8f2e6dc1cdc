"""Tiny-size smoke test of the benchmark; not part of the tier-1 suite.

    python -m pytest -q bench/test_smoke.py

Every workload runs on inputs small enough to finish in seconds, traced
and untraced. The test also checks the PM2.5-schema generator and that
the benchmark refuses to run without the package source.
"""
from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import pm25  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY_N = {
    "scan-var2-n1e4": 2000,
    "te-var2-n1e5-m3": 2000,
    "te-var2-n2000-m12": 300,
    "cli-pm25-te": 1500,
}


def test_workloads_match_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(TINY_N) == sorted(run.WORKLOADS)
    assert spec["command"][1] == "bench/run.py"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY_N))
def test_tiny_workload(name, trace):
    wl = dataclasses.replace(run.WORKLOADS[name], n=TINY_N[name])
    result = run.run_workload(wl, seed=1, seconds=0.0, trace=trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_ROUNDS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(result["reported"]) <= set(metrics)
    if not trace:
        assert all(metrics[k] > 0 for k in ("wall_s", "setup_s", "peak_rss_mb"))
        assert ("te_err_nats" in metrics) == (wl.kind != "cli")
        assert metrics["fail_rate"] == 0
        return
    lags = len(wl.lags)
    assert metrics["causality.te_calls"] == lags
    assert metrics["trace.span_sum_s"] > 0
    assert result["samples"]["absent_targets"] == []
    if wl.order_m == 1:
        # joint, self and assoc terms: 3 + 2 + 2 ranked columns
        assert metrics["copula.rank_columns"] == 7 * lags
        assert metrics["knn_entropy.calls"] == 3 * lags
    if wl.order_m == 12:
        assert metrics["knn_entropy.brute_s"] > 0
        assert metrics["knn_entropy.query_s.d12"] > 0
    if wl.kind == "cli":
        assert metrics["ingest.rows"] == TINY_N[name]
        assert metrics["copula.tied_fraction"] > 0
        assert metrics["cli.import_s"] > 0
    else:
        assert metrics["copula.tied_fraction"] == 0
        assert metrics["ingest.parse_s"] == 0


GOOD_ROWS = [  # lag, te, ce_joint, ce_self, ce_assoc, ce_past, n_effective
    (1, 0.5, -1.0, -0.25, -0.25, 0.0, 100),
    (2, 0.125, -0.5, -0.25, -0.125, 0.0, 99),
]


def test_check_rows_passes_correct_rows():
    assert run.check_rows(GOOD_ROWS, list(GOOD_ROWS), peak_lag=1) == []


@pytest.mark.parametrize("rows, reference, peak_lag, problem", [
    (GOOD_ROWS, None, 2, "scan does not peak at lag 2"),
    ([GOOD_ROWS[0], (2, float("nan"), -0.5, -0.25, -0.125, 0.0, 99)],
     None, None, "lag 2: non-finite value"),
    ([GOOD_ROWS[0], (2, 0.25, -0.5, -0.25, -0.125, 0.0, 99)],
     None, None, "lag 2: four-term identity broken"),
    (GOOD_ROWS, [GOOD_ROWS[0], (2, 0.125, -0.5, -0.25, -0.125, 0.0, 98)],
     None, "output differs bitwise from the reference"),
], ids=["peak", "non-finite", "identity", "reference"])
def test_check_rows_reports_each_fault(rows, reference, peak_lag, problem):
    assert run.check_rows(rows, reference, peak_lag) == [problem]


def test_missing_trace_target_is_reported_not_fatal(monkeypatch):
    gone = ("cete.causality", "renamed_away", "causality.gone")
    monkeypatch.setattr(run.tracer, "FUNCTION_TARGETS",
                        run.tracer.FUNCTION_TARGETS + (gone,))
    wl = dataclasses.replace(run.WORKLOADS["te-var2-n2000-m12"], n=300)
    result = run.run_workload(wl, seed=2, seconds=0.0, trace=True)
    assert result["correct"], result["problems"]
    assert result["samples"]["absent_targets"] == ["cete.causality.renamed_away"]


def test_zero_distance_error_is_counted_once():
    import numpy as np

    import cete.copula
    from cete.errors import DuplicatePointsError

    rec = run.tracer.Recorder()
    restore = run.tracer.install(rec)
    try:
        with pytest.raises(DuplicatePointsError):  # kl span, then knn span
            cete.copula.kl_entropy(np.zeros((10, 2)))
    finally:
        restore()
    assert rec.count["knn_entropy.zero_dist_errors"] == 1


def test_pm25_generator_is_seeded_and_schema_valid():
    from cete import parse_pm25_csv

    text = pm25.generate(5, rows=3000)
    assert text == pm25.generate(5, rows=3000)
    assert text != pm25.generate(6, rows=3000)
    assert text.splitlines()[0] == pm25.HEADER
    records = parse_pm25_csv(io.StringIO(text))  # checks the hourly steps
    assert len(records) == 3000
    missing = [r.pm25 is None for r in records]
    assert 0.04 <= sum(missing) / len(missing) <= 0.07
    assert any(a and b for a, b in zip(missing, missing[1:]))  # runs, not points
    for rec in records:
        for value in (rec.pm25, rec.temp, rec.dewp, rec.pres):
            assert value is None or value == int(value)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-var2-n1e4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
