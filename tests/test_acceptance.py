"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). The analytic reference values are always produced by the oracle
module at test time, never hand-entered. The three dataset-driven checks
skip with download instructions when the canonical hourly PM2.5 CSV is not
present; everything else is self-contained.
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from cete import (
    EmbeddingSpec,
    FirstCompleteRun,
    Var2Spec,
    analytic_var_te,
    copula_entropy,
    lag_scan,
    select_window,
    simulate_var2,
    to_series_matrix,
    transfer_entropy,
    validate_matrix,
)
from cete.knn_entropy import knn_distances
from cete.oracle import gaussian_ce
from conftest import brute_knn_eps, gaussian_pair, granger_log_ratio

SPEC = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0)
SEEDS = range(10)
LAGS = list(range(1, 25))


def report(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {description}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def var_runs():
    """Ten simulations of the default coupled pair with their estimates."""
    runs = []
    for seed in SEEDS:
        spec = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0,
                        seed=seed)
        xs, ys = simulate_var2(spec, 10000)
        emb = EmbeddingSpec(lag=1, order_m=1)
        runs.append({
            "fwd": transfer_entropy(xs, ys, emb).te_nats,
            "rev": transfer_entropy(ys, xs, emb).te_nats,
            "gc": granger_log_ratio(xs, ys, emb),
        })
    return runs


@pytest.fixture(scope="module")
def pm25_scans(pm25_table):
    """Lag scans of TEMP -> pm2.5 over the first complete 1000-hour window."""
    window = select_window(pm25_table, FirstCompleteRun(1000),
                           required_columns=("TEMP", "pm2.5"))
    matrix = to_series_matrix(pm25_table, window, ["TEMP", "pm2.5"])
    temp = matrix.column("TEMP")
    pm = matrix.column("pm2.5")
    t0 = time.perf_counter()
    m1 = lag_scan(temp, pm, LAGS, order_m=1, k=3)
    elapsed = time.perf_counter() - t0
    m4 = lag_scan(temp, pm, LAGS, order_m=4, k=3)
    return {"m1": m1, "m4": m4, "elapsed": elapsed}


def test_criterion_1_gaussian_ce_oracle():
    details = []
    ok = True
    for rho in (0.0, 0.5, 0.9):
        analytic = gaussian_ce(rho)
        errs = [
            abs(copula_entropy(validate_matrix(gaussian_pair(rho, 5000,
                                                             1000 + s)),
                               k=3) - analytic)
            for s in SEEDS
        ]
        mean_err = float(np.mean(errs))
        ok = ok and mean_err <= 0.05
        details.append(f"rho={rho}: mean|err|={mean_err:.4f}")
    report(1, "Gaussian copula entropy vs closed form, N=5000 k=3",
           ok, "; ".join(details) + " (tol 0.05)")


def test_criterion_2_var_te_convergence(var_runs):
    analytic = analytic_var_te(SPEC, lag=1, order_m=1)
    fwd_err = float(np.mean([abs(r["fwd"] - analytic) for r in var_runs]))
    rev_mag = float(np.mean([abs(r["rev"]) for r in var_runs]))
    ok = fwd_err <= 0.05 and rev_mag <= 0.03
    report(2, "coupled-pair transfer entropy vs analytic value, N=10000",
           ok, f"mean|fwd err|={fwd_err:.4f} (tol 0.05), "
               f"mean|reverse te|={rev_mag:.4f} (tol 0.03), "
               f"analytic={analytic:.6f}")


def test_criterion_3_gaussian_equivalence(var_runs):
    gaps = [abs(0.5 * r["gc"] - r["fwd"]) for r in var_runs]
    worst = float(max(gaps))
    ok = worst <= 0.05
    report(3, "half Granger log-variance-ratio vs transfer entropy",
           ok, f"max|gap| over {len(gaps)} runs = {worst:.4f} (tol 0.05)")


def test_criterion_4_exact_invariances():
    monotone_maps = [
        np.exp,
        lambda v: v ** 3,
        lambda v: 2.5 * v - 7.0,
        np.arctan,
        lambda v: np.expm1(v / 4.0) + 0.25 * v,
    ]
    rng = np.random.default_rng(2024)
    invariant = 0
    for _ in range(100):
        n = int(rng.integers(50, 400))
        d = int(rng.integers(2, 6))
        data = rng.standard_normal((n, d))
        warped = np.column_stack([
            monotone_maps[rng.integers(len(monotone_maps))](data[:, j])
            for j in range(d)
        ])
        perm = rng.permutation(d)
        base = copula_entropy(validate_matrix(data))
        if (copula_entropy(validate_matrix(warped)) == base
                and copula_entropy(validate_matrix(data[:, perm])) == base):
            invariant += 1

    agree = 0
    for _ in range(100):
        n = int(rng.integers(30, 500))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(9, n)))
        cloud = rng.standard_normal((n, d))
        if np.array_equal(knn_distances(cloud, k).eps, brute_knn_eps(cloud, k)):
            agree += 1

    ok = invariant == 100 and agree == 100
    report(4, "bit-exact invariances and dual-route neighbor agreement",
           ok, f"monotone/permutation exact on {invariant}/100 cases, "
               f"brute==tree on {agree}/100 clouds")


def test_criterion_5_pm25_lag_profile(pm25_scans):
    scan = pm25_scans["m1"]
    te = np.asarray(scan.te_values)
    rho_rise = float(spearmanr(LAGS[:9], te[:9]).statistic)
    peak_lag = LAGS[int(np.argmax(te))]
    elapsed = pm25_scans["elapsed"]
    ok = rho_rise > 0.8 and 7 <= peak_lag <= 12 and elapsed <= 60.0
    report(5, "hourly TEMP->pm2.5 lag profile, 1000-sample window",
           ok, f"spearman(lags 1..9)={rho_rise:.3f} (>0.8), "
               f"peak lag={peak_lag} (in [7,12]), "
               f"24-lag scan took {elapsed:.1f}s (<=60s)")


def test_criterion_6_markov_order_robustness(pm25_scans):
    m1 = np.asarray(pm25_scans["m1"].te_values)
    m4 = np.asarray(pm25_scans["m4"].te_values)
    pearson = float(np.corrcoef(m1, m4)[0, 1])
    ok = pearson > 0.7
    report(6, "lag-scan stability across Markov orders m=1 and m=4",
           ok, f"pearson(m1, m4)={pearson:.3f} (>0.7)")


def test_criterion_7_decomposition_identity():
    rng = np.random.default_rng(7)
    exact = three_term = 0
    cases = 0
    for seed in range(5):
        spec = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0,
                        seed=100 + seed)
        xs, ys = simulate_var2(spec, 1500)
        for order_m in (1, 2, 4):
            lag = int(rng.integers(1, 6))
            est = transfer_entropy(xs, ys, EmbeddingSpec(lag=lag,
                                                         order_m=order_m))
            cases += 1
            if est.te_nats == (-est.ce_joint + est.ce_self + est.ce_assoc
                               - est.ce_past):
                exact += 1
            if order_m == 1:
                three_term += int(
                    est.ce_past == 0.0
                    and est.te_nats == (-est.ce_joint + est.ce_self
                                        + est.ce_assoc)
                )
    ok = exact == cases and three_term == 5
    report(7, "four-term decomposition identity and m=1 three-term form",
           ok, f"identity exact on {exact}/{cases} estimates, "
               f"three-term bit-identical on {three_term}/5 m=1 estimates")


def test_criterion_8_ingestion(pm25_table):
    count = len(pm25_table)
    window = select_window(pm25_table, FirstCompleteRun(1000))
    start = pm25_table.timestamps[window.start].item()
    n_missing = int(np.isnan(pm25_table.columns["pm2.5"][window]).sum())
    ok = (count == 43824 and start.year == 2010 and start.month == 4
          and n_missing == 0)
    report(8, "canonical hourly CSV ingestion and first complete window",
           ok, f"{count} records (want 43824), window starts {start} "
               f"(want April 2010), {n_missing} missing pm2.5 values")
