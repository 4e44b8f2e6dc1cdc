"""Ground-truth generators and closed forms for validating the estimators.

The coupled first-order system

    Y[t+1] = a * Y[t] + b * X[t] + eps[t]      eps ~ N(0, sigma_eps^2)
    X[t+1] = c * X[t] + eta[t]                 eta ~ N(0, sigma_eta^2)

is jointly Gaussian and stationary whenever max(|a|, |c|) < 1, so its
transfer entropy X -> Y has a closed form: half the log-ratio of the two
conditional prediction variances of Y's future (Granger causality and
transfer entropy coincide for Gaussian processes, with GC defined as the
log variance ratio and TE equal to half of it). Both conditional variances
are assembled exactly from the stationary covariance, which makes these
values usable as oracles for the nonparametric estimators.

Reproducibility: all randomness flows from a seeded PCG64 generator
(numpy's default, a published algorithm with reference test vectors), and
Gaussian variates are produced by the Box-Muller transform on that uniform
stream rather than numpy's ziggurat sampler, so trajectories can be
replicated exactly from the documented recursion alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causality import _ASSOC, _FUTURE, _PAST, EmbeddingSpec, _columns
from .checks import _positive_int
from .errors import NonStationarySpecError, RhoOutOfRangeError


@dataclass(frozen=True)
class Var2Spec:
    """Coefficients, noise scales, and seed of the coupled VAR pair."""

    a: float = 0.5           # Y self-coefficient
    b: float = 0.5           # X -> Y coupling
    c: float = 0.5           # X self-coefficient
    sigma_eps: float = 1.0   # Y innovation stddev
    sigma_eta: float = 1.0   # X innovation stddev
    seed: int = 0

    def __post_init__(self):
        # a NaN would pass the comparisons below, so it is refused first
        for name in ("a", "b", "c", "sigma_eps", "sigma_eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonStationarySpecError(
                    f"{name} must be finite, got {value}")
        _positive_int(self.seed, "seed", low=0)
        # companion matrix [[a, b], [0, c]] is triangular: eigenvalues a, c
        radius = max(abs(self.a), abs(self.c))
        if radius >= 1.0:
            raise NonStationarySpecError(
                f"spectral radius {radius} >= 1; the process has no "
                "stationary distribution"
            )
        if self.sigma_eps <= 0 or self.sigma_eta <= 0:
            raise NonStationarySpecError("noise stddevs must be positive")

    @property
    def companion(self) -> np.ndarray:
        return np.array([[self.a, self.b], [0.0, self.c]])


def standard_normals(n: int, rng: np.random.Generator) -> np.ndarray:
    """n standard normal variates via Box-Muller on the uniform stream.

    Each uniform pair (u1, u2) yields the consecutive output pair
    (r cos(2 pi u2), r sin(2 pi u2)) with r = sqrt(-2 ln u1), where
    u1 is taken as 1 - rng.random() so it lies in (0, 1].
    """
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n]


def simulate_var2(spec: Var2Spec, n: int, burn_in: int = 1000
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the coupled pair and return (x, y) after the burn-in.

    The recursion starts from (Y, X) = (0, 0); burn_in steps are discarded
    so the remainder is effectively a draw from the stationary process.
    One Box-Muller pair drives each time step: its first element is eps[t],
    its second eta[t].

    Raises
    ------
    TypeError, ValueError
        If n is not an integer >= 1 or burn_in not an integer >= 0.
    """
    n = _positive_int(n, "n")
    burn_in = _positive_int(burn_in, "burn_in", low=0)
    steps = burn_in + n
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    z = standard_normals(2 * steps, rng)
    eps = spec.sigma_eps * z[0::2]
    eta = spec.sigma_eta * z[1::2]
    ys = np.empty(steps)
    xs = np.empty(steps)
    y = 0.0
    x = 0.0
    for t in range(steps):
        y, x = spec.a * y + spec.b * x + eps[t], spec.c * x + eta[t]
        ys[t] = y
        xs[t] = x
    return xs[burn_in:], ys[burn_in:]


def stationary_covariance(spec: Var2Spec) -> np.ndarray:
    """Exact stationary covariance of (Y_t, X_t), a read-only 2x2 array.

    Solves the discrete Lyapunov equation Sigma = A Sigma A' + Q for the
    three unknowns (Var Y, Cov(Y, X), Var X). For this triangular system
    the equations decouple and are solved by direct substitution, which
    keeps Cov(Y, X) exactly zero whenever the coupling b is zero.
    """
    a, b, c = spec.a, spec.b, spec.c
    var_x = spec.sigma_eta**2 / (1.0 - c * c)
    cov_yx = b * c * var_x / (1.0 - a * c)
    var_y = (2.0 * a * b * cov_yx + b * b * var_x + spec.sigma_eps**2) \
        / (1.0 - a * a)
    cov = np.array([[var_y, cov_yx], [cov_yx, var_x]])
    cov.flags.writeable = False
    return cov


def _joint_covariance(spec: Var2Spec, emb: EmbeddingSpec) -> np.ndarray:
    """Exact covariance of the columns of ``build_embedding`` under ``emb``:
    G(o - o')[s, s'] for columns (s, o) and (s', o'), where G(h) =
    Cov(z_{t+h}, z_t) = A^h Sigma for z = (Y, X), and G(-h) = G(h)'."""
    columns = _columns(emb)
    gamma = [stationary_covariance(spec)]
    for _ in range(emb.lag + emb.order_m - 1):
        gamma.append(spec.companion @ gamma[-1])
    return np.array([[gamma[o - o2][s, s2] if o >= o2 else gamma[o2 - o][s2, s]
                      for s2, o2 in columns] for s, o in columns])


def _conditional_variance(cov: np.ndarray, given: slice) -> float:
    """Var of y_fut given the columns in ``given`` (Schur complement)."""
    cross = cov[_FUTURE, given]
    return float(cov[_FUTURE, _FUTURE]
                 - cross @ np.linalg.solve(cov[given, given], cross))


def analytic_var_te(spec: Var2Spec, lag: int = 1, order_m: int = 1) -> float:
    """Exact transfer entropy X -> Y of the VAR pair, in nats.

    Computes half the log-ratio of Var(Y_{t+lag} | Y past block) to
    Var(Y_{t+lag} | Y past block, X_t), both from the exact joint Gaussian
    covariance of the estimator's embedding columns. No sampling is involved.
    """
    emb = EmbeddingSpec(lag=lag, order_m=order_m)  # validates lag, order_m
    cov = _joint_covariance(spec, emb)
    return 0.5 * (math.log(_conditional_variance(cov, _PAST))
                  - math.log(_conditional_variance(cov, _ASSOC)))


def gaussian_ce(rho: float) -> float:
    """Closed-form copula entropy of a bivariate Gaussian, 0.5 * ln(1 - rho^2).

    Its negation is the Gaussian mutual information.
    """
    if not -1.0 < rho < 1.0:
        raise RhoOutOfRangeError(f"rho must lie strictly in (-1, 1), got {rho}")
    return 0.5 * math.log1p(-rho * rho)
