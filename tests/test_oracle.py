import math

import numpy as np
import pytest

from cete import (
    EmbeddingSpec,
    Var2Spec,
    analytic_var_te,
    build_embedding,
    gaussian_ce,
    granger_variance_ratio,
    simulate_var2,
    standard_normals,
    stationary_covariance,
)
from cete.errors import (
    DegenerateResidualError,
    NonFiniteError,
    NonStationarySpecError,
    RhoOutOfRangeError,
    SingularDesignError,
)
from cete.oracle import _joint_covariance


def random_stationary_specs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a, c = rng.uniform(-0.95, 0.95, 2)
        yield Var2Spec(a=a, b=float(rng.uniform(-2, 2)), c=c,
                       sigma_eps=float(rng.uniform(0.1, 3)),
                       sigma_eta=float(rng.uniform(0.1, 3)))


class TestVar2Spec:
    def test_rejects_explosive_effect_coefficient(self):
        with pytest.raises(NonStationarySpecError):
            Var2Spec(a=1.2)

    def test_rejects_explosive_cause_coefficient(self):
        with pytest.raises(NonStationarySpecError):
            Var2Spec(c=-1.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(NonStationarySpecError):
            Var2Spec(sigma_eps=0.0)

    @pytest.mark.parametrize("field", ["a", "b", "c", "sigma_eps",
                                       "sigma_eta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_value(self, field, value):
        with pytest.raises(NonStationarySpecError,
                           match=f"^{field} must be finite, got"):
            Var2Spec(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            Var2Spec(seed=-1)

    def test_coupling_does_not_affect_stationarity(self):
        Var2Spec(b=50.0)  # triangular companion: eigenvalues are a and c

    def test_companion_layout(self):
        spec = Var2Spec(a=0.1, b=0.2, c=0.3)
        assert np.array_equal(spec.companion,
                              [[0.1, 0.2], [0.0, 0.3]])


class TestStandardNormals:
    def test_moments(self):
        rng = np.random.Generator(np.random.PCG64(0))
        z = standard_normals(200000, rng)
        assert abs(z.mean()) <= 0.01
        assert abs(z.std() - 1.0) <= 0.01

    def test_odd_count(self):
        rng = np.random.Generator(np.random.PCG64(0))
        assert len(standard_normals(7, rng)) == 7

    def test_reproducible(self):
        a = standard_normals(100, np.random.Generator(np.random.PCG64(5)))
        b = standard_normals(100, np.random.Generator(np.random.PCG64(5)))
        assert np.array_equal(a, b)


class TestSimulateVar2:
    def test_fixed_seed_reproducible(self):
        x1, y1 = simulate_var2(Var2Spec(seed=9), 500)
        x2, y2 = simulate_var2(Var2Spec(seed=9), 500)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_decoupled_processes_uncorrelated(self):
        xs, ys = simulate_var2(Var2Spec(b=0.0, seed=5), 100000)
        assert abs(np.corrcoef(xs, ys)[0, 1]) <= 0.02

    def test_cause_variance_matches_closed_form(self):
        xs, _ = simulate_var2(Var2Spec(seed=0), 100000)
        analytic = 1.0 / (1.0 - 0.25)
        assert abs(xs.var() - analytic) / analytic <= 0.02

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            simulate_var2(Var2Spec(), 0)
        with pytest.raises(ValueError, match=r"^burn_in must be >= 0, got -1$"):
            simulate_var2(Var2Spec(), 10, burn_in=-1)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integral_size(self, n):
        with pytest.raises(TypeError, match=f"^n must be an integer, got {n!r}$"):
            simulate_var2(Var2Spec(), n)

    @pytest.mark.parametrize("burn_in", [2.5, True])
    def test_rejects_non_integral_burn_in(self, burn_in):
        with pytest.raises(TypeError, match=(
                f"^burn_in must be an integer, got {burn_in!r}$")):
            simulate_var2(Var2Spec(), 10, burn_in=burn_in)

    @pytest.mark.parametrize("burn_in", [0, np.int64(0)])
    def test_zero_burn_in_keeps_every_step(self, burn_in):
        # the same seed draws the same steps, so a shorter run after a
        # burn-in is the tail of the run without one
        x, y = simulate_var2(Var2Spec(seed=4), 10, burn_in=burn_in)
        x_tail, y_tail = simulate_var2(Var2Spec(seed=4), 6, burn_in=4)
        assert (len(x), len(y)) == (10, 10)
        assert np.array_equal(x[4:], x_tail) and np.array_equal(y[4:], y_tail)


class TestStationaryCovariance:
    def test_decoupled_closed_forms_exact(self):
        spec = Var2Spec(a=0.4, b=0.0, c=0.7, sigma_eps=1.5, sigma_eta=0.5)
        cov = stationary_covariance(spec)
        assert cov[0, 0] == 1.5**2 / (1.0 - 0.4 * 0.4)
        assert cov[1, 1] == 0.5**2 / (1.0 - 0.7 * 0.7)
        assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0

    def test_white_noise_case(self):
        cov = stationary_covariance(
            Var2Spec(a=0.0, b=0.0, c=0.0, sigma_eps=2.0, sigma_eta=3.0))
        assert np.array_equal(cov, np.diag([4.0, 9.0]))

    def test_default_spec_exact_fractions(self):
        cov = stationary_covariance(Var2Spec())
        assert cov[0, 0] == 56 / 27
        assert cov[0, 1] == cov[1, 0] == 4 / 9
        assert cov[1, 1] == 4 / 3

    def test_read_only(self):
        cov = stationary_covariance(Var2Spec())
        assert cov.shape == (2, 2)
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0

    def test_matches_long_simulation(self):
        xs, ys = simulate_var2(Var2Spec(seed=1), 1000000)
        emp = np.cov(np.vstack([ys, xs]))
        an = stationary_covariance(Var2Spec())
        assert np.abs(emp - an).max() / an.max() <= 0.02

    def test_lyapunov_residual_tiny(self):
        for spec in random_stationary_specs(100, seed=99):
            cov = stationary_covariance(spec)
            a = spec.companion
            q = np.diag([spec.sigma_eps**2, spec.sigma_eta**2])
            resid = cov - a @ cov @ a.T - q
            assert np.abs(resid).max() <= 1e-12


class TestJointCovariance:
    @pytest.fixture(scope="class")
    def long_run(self):
        return simulate_var2(Var2Spec(seed=1), 200_000)

    @pytest.mark.parametrize("lag, m", [(1, 1), (3, 2), (2, 4)])
    def test_matches_the_sample_covariance_of_the_embedding(
            self, long_run, lag, m):
        # the oracle's columns must be the estimator's, in the same order
        emb = EmbeddingSpec(lag=lag, order_m=m)
        exact = _joint_covariance(Var2Spec(), emb)
        sample = np.cov(build_embedding(*long_run, emb).values.T)
        assert exact.shape == (m + 2, m + 2)
        assert np.abs(sample - exact).max() <= 0.03 * np.abs(exact).max()


class TestAnalyticVarTe:
    def test_no_coupling_exactly_zero(self):
        for spec in random_stationary_specs(100, seed=17):
            zeroed = Var2Spec(a=spec.a, b=0.0, c=spec.c,
                              sigma_eps=spec.sigma_eps,
                              sigma_eta=spec.sigma_eta)
            for lag, m in ((1, 1), (3, 2), (2, 4)):
                assert analytic_var_te(zeroed, lag=lag, order_m=m) == 0.0

    def test_vanishing_cause_noise_kills_te(self):
        values = [analytic_var_te(Var2Spec(sigma_eta=s))
                  for s in (1.0, 0.1, 0.01)]
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] <= 1e-4

    def test_common_noise_rescale_invariance(self):
        base = analytic_var_te(Var2Spec())
        for s in (2.0, 0.5, 1.7):
            scaled = analytic_var_te(Var2Spec(sigma_eps=s, sigma_eta=s))
            assert abs(scaled - base) <= 1e-12

    def test_default_spec_value_from_exact_fractions(self):
        # restricted variance 1980/1512, full variance exactly sigma_eps^2
        expected = 0.5 * math.log(1980.0 / 1512.0)
        assert abs(analytic_var_te(Var2Spec()) - expected) <= 1e-12

    def test_matches_long_run_regression(self):
        truth = analytic_var_te(Var2Spec(), lag=1, order_m=1)
        xs, ys = simulate_var2(Var2Spec(seed=1), 1000000)
        fitted = 0.5 * granger_variance_ratio(xs, ys, EmbeddingSpec(lag=1))
        assert abs(fitted - truth) / truth <= 0.01

    def test_positive_for_positive_coupling(self):
        assert analytic_var_te(Var2Spec()) > 0.0

    def test_validates_embedding_arguments(self):
        with pytest.raises(ValueError):
            analytic_var_te(Var2Spec(), lag=0)


class TestGrangerVarianceRatio:
    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(0)
        value = granger_variance_ratio(rng.standard_normal(10000),
                                       rng.standard_normal(10000),
                                       EmbeddingSpec(lag=1))
        assert abs(value) <= 0.01

    def test_half_ratio_matches_analytic_te(self):
        truth = analytic_var_te(Var2Spec())
        xs, ys = simulate_var2(Var2Spec(seed=0), 100000)
        value = granger_variance_ratio(xs, ys, EmbeddingSpec(lag=1))
        assert abs(0.5 * value - truth) <= 0.01

    def test_deterministic_effect_rejected(self):
        # y follows its own past exactly: restricted residual is zero
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        y = np.empty(200)
        y[0] = 1.0
        for t in range(1, 200):
            y[t] = 0.9 * y[t - 1]
        with pytest.raises(DegenerateResidualError):
            granger_variance_ratio(x, y, EmbeddingSpec(lag=1))

    def test_collinear_design_rejected(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(200)
        x = np.ones(200)  # collinear with the intercept column
        with pytest.raises(SingularDesignError):
            granger_variance_ratio(x, y, EmbeddingSpec(lag=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("series", ["x", "y"])
    def test_non_finite_input_is_typed_error(self, capfd, bad, series):
        rng = np.random.default_rng(3)
        data = {"x": rng.standard_normal(200), "y": rng.standard_normal(200)}
        data[series][50] = bad
        with pytest.raises(NonFiniteError):
            granger_variance_ratio(data["x"], data["y"], EmbeddingSpec(lag=1))
        assert capfd.readouterr().err == ""


class TestGaussianCe:
    def test_zero_correlation(self):
        assert gaussian_ce(0.0) == 0.0

    def test_strong_correlation_value(self):
        assert abs(gaussian_ce(0.9) - 0.5 * math.log(0.19)) <= 1e-15

    def test_symmetric_in_sign(self):
        assert gaussian_ce(0.5) == gaussian_ce(-0.5)

    def test_rejects_unit_correlation(self):
        with pytest.raises(RhoOutOfRangeError):
            gaussian_ce(1.0)
        with pytest.raises(RhoOutOfRangeError):
            gaussian_ce(-1.0)
