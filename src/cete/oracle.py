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

from .causality import EmbeddingSpec, build_embedding
from .core import _positive_int
from .errors import (
    DegenerateResidualError,
    NonStationarySpecError,
    RhoOutOfRangeError,
    SingularDesignError,
)

__all__ = [
    "Var2Spec",
    "standard_normals",
    "simulate_var2",
    "stationary_covariance",
    "analytic_var_te",
    "granger_variance_ratio",
    "gaussian_ce",
]


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
    """
    n = _positive_int(n, "n")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
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


def _joint_covariance(spec: Var2Spec, lag: int, order_m: int) -> np.ndarray:
    """Covariance of (Y_{i+lag}, Y_i, Y_{i-1}, .., Y_{i-m+1}, X_i)."""
    a = spec.companion
    # s[h] = Cov(z_{t+h}, z_t) = A^h Sigma
    s = [stationary_covariance(spec)]
    for _ in range(lag + order_m - 1):
        s.append(a @ s[-1])
    m = order_m
    dim = m + 2
    cov = np.empty((dim, dim))
    cov[0, 0] = s[0][0, 0]
    for j in range(m):
        cov[0, 1 + j] = cov[1 + j, 0] = s[lag + j][0, 0]
        cov[1 + j, m + 1] = cov[m + 1, 1 + j] = s[j][1, 0]
        for jp in range(j, m):
            cov[1 + j, 1 + jp] = cov[1 + jp, 1 + j] = s[jp - j][0, 0]
    cov[0, m + 1] = cov[m + 1, 0] = s[lag][0, 1]
    cov[m + 1, m + 1] = s[0][1, 1]
    return cov


def _conditional_variance(cov: np.ndarray, given: list[int]) -> float:
    """Var of component 0 given the listed components (Schur complement)."""
    if not given:
        return float(cov[0, 0])
    sub = cov[np.ix_(given, given)]
    cross = cov[given, 0]
    return float(cov[0, 0] - cross @ np.linalg.solve(sub, cross))


def analytic_var_te(spec: Var2Spec, lag: int = 1, order_m: int = 1) -> float:
    """Exact transfer entropy X -> Y of the VAR pair, in nats.

    Computes half the log-ratio of Var(Y_{t+lag} | Y past block) to
    Var(Y_{t+lag} | Y past block, X_t), both taken from the exact joint
    Gaussian covariance. No sampling is involved.
    """
    emb = EmbeddingSpec(lag=lag, order_m=order_m)  # validates lag, order_m
    cov = _joint_covariance(spec, emb.lag, emb.order_m)
    past = list(range(1, order_m + 1))
    var_restricted = _conditional_variance(cov, past)
    var_full = _conditional_variance(cov, past + [order_m + 1])
    return 0.5 * (math.log(var_restricted) - math.log(var_full))


def granger_variance_ratio(x, y, spec: EmbeddingSpec) -> float:
    """Granger log-variance-ratio of X -> Y from least-squares fits.

    Fits y_fut on (1, y_past) and on (1, y_past, x) and returns
    ln(RSS_restricted / RSS_full). Half of this value estimates the
    transfer entropy when the data are Gaussian.

    Raises
    ------
    SingularDesignError
        If either design matrix is rank deficient.
    DegenerateResidualError
        If a residual sum of squares is numerically zero.
    NonFiniteError
        If x or y holds a NaN or an infinity.
    """
    emb = build_embedding(x, y, spec)
    y_fut = emb.column("y_fut")
    ones = np.ones((emb.T, 1))
    restricted = np.hstack([ones, emb.values[:, 1:-1]])
    full = np.hstack([ones, emb.values[:, 1:]])
    rss = []
    for design in (restricted, full):
        coef, _, rank, _ = np.linalg.lstsq(design, y_fut, rcond=None)
        if rank < design.shape[1]:
            raise SingularDesignError(
                f"design matrix with {design.shape[1]} columns has rank {rank}"
            )
        resid = y_fut - design @ coef
        rss.append(float(resid @ resid))
    scale = float(y_fut @ y_fut) + np.finfo(float).tiny
    if min(rss) <= 1e-12 * scale:
        raise DegenerateResidualError(
            "residual variance is numerically zero; variance ratio undefined"
        )
    return math.log(rss[0]) - math.log(rss[1])


def gaussian_ce(rho: float) -> float:
    """Closed-form copula entropy of a bivariate Gaussian, 0.5 * ln(1 - rho^2).

    Its negation is the Gaussian mutual information.
    """
    if not -1.0 < rho < 1.0:
        raise RhoOutOfRangeError(f"rho must lie strictly in (-1, 1), got {rho}")
    return 0.5 * math.log1p(-rho * rho)
