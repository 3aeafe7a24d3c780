"""Reference answers computed without calling dpdbayes.

Every output check of the benchmark compares the package's result with one
of these: least squares and IRLS oracles at a = 0, closed-form Gaussian
algebra, the stationarity of the objective written out by hand, and a
quadrature posterior mean for one-parameter location models.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

LOG_2PI = math.log(2.0 * math.pi)


def ols(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(design, y, rcond=None)[0]


def irls(design: np.ndarray, y: np.ndarray, iterations: int = 100) -> np.ndarray:
    """Logistic maximum likelihood by iteratively reweighted least squares."""
    beta = np.zeros(design.shape[1])
    for _ in range(iterations):
        eta = design @ beta
        p = expit(eta)
        w = p * (1.0 - p)
        step = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (y - p))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13 * (1.0 + np.max(np.abs(beta))):
            break
    return beta


def objective_gradient(kind: str, design, y, theta, alpha: float, sigma: float = 1.0):
    """Gradient of Q(theta) = sum_i [f_i^a(y_i)/a - I_i/(1+a) - 1/a].

    ``kind`` is "known" (normal, known sigma), "unknown" (normal, sigma is
    the last coordinate) or "logistic".  At a = 0 this is the score.
    """
    theta = np.asarray(theta, dtype=float)
    if kind == "logistic":
        t = design @ theta
        p = expit(t)
        f = np.where(y == 1.0, p, 1.0 - p)
        spread = p**alpha - (1.0 - p) ** alpha
        return design.T @ (f**alpha * (y - p) - spread * p * (1.0 - p))
    beta, s = (theta[:-1], theta[-1]) if kind == "unknown" else (theta, sigma)
    r = y - design @ beta
    fa = np.exp(alpha * (-0.5 * LOG_2PI - math.log(s) - 0.5 * (r / s) ** 2))
    g_beta = design.T @ (fa * r) / s**2
    if kind != "unknown":
        return g_beta
    integral = math.exp(-0.5 * alpha * (LOG_2PI + 2.0 * math.log(s))) / math.sqrt(1.0 + alpha)
    g_sigma = np.sum(fa * (r * r / s**3 - 1.0 / s)) + r.size * alpha * integral / ((1.0 + alpha) * s)
    return np.append(g_beta, g_sigma)


def _zeta(alpha: float, sigma: float) -> float:
    return (2.0 * math.pi) ** (-alpha / 2.0) * sigma ** (-(alpha + 2.0)) * (1.0 + alpha) ** -1.5


def linear_covariance(design, alpha: float, sigma: float, scale_free: bool) -> np.ndarray:
    """Sandwich covariance of the normal-regression estimator at the model.

    The coefficient block is zeta(2a)/zeta(a)^2 (Z'Z)^{-1}; with a free
    scale the last diagonal entry is sigma^2 upsilon_sigma(a) / n.
    """
    n, p = design.shape
    cov_beta = _zeta(2.0 * alpha, sigma) / _zeta(alpha, sigma) ** 2 * np.linalg.inv(design.T @ design)
    if not scale_free:
        return cov_beta
    a = alpha
    upsilon = (
        2.0 * (1.0 + 2.0 * a * a) * (1.0 + a * a / (1.0 + 2.0 * a)) ** 2.5 - a * a * (1.0 + a) ** 2
    ) / (2.0 + a * a) ** 2
    out = np.zeros((p + 1, p + 1))
    out[:p, :p] = cov_beta
    out[p, p] = sigma**2 * upsilon / n
    return out


def conjugate_posterior_mean(design, y, sigma: float, prior_mean, prior_cov) -> np.ndarray:
    """Posterior mean of normal regression with known sigma, Gaussian prior."""
    precision = np.linalg.inv(prior_cov)
    lhs = design.T @ design / sigma**2 + precision
    return np.linalg.solve(lhs, design.T @ y / sigma**2 + precision @ prior_mean)


def location_posterior_mean(y, alpha: float, prior_mean: float, prior_sd: float) -> float:
    """Mean of exp(Q(b)) N(b; m, s^2) for the unit-scale normal location model.

    The power-integral term of Q does not depend on b, so only the data
    part enters; the integral is a trapezoid sum on a fine grid.
    """
    centre = float(np.median(y))
    grid = np.linspace(centre - 8.0, centre + 8.0, 20_001)
    q = np.concatenate([
        _location_terms((y[None, :] - part[:, None]) ** 2, alpha).sum(axis=1)
        for part in np.array_split(grid, 20)
    ])
    log_w = q - 0.5 * ((grid - prior_mean) / prior_sd) ** 2
    w = np.exp(log_w - log_w.max())
    return float(np.trapezoid(grid * w, grid) / np.trapezoid(w, grid))


def _location_terms(r2: np.ndarray, alpha: float) -> np.ndarray:
    log_f = -0.5 * LOG_2PI - 0.5 * r2
    if alpha == 0.0:
        return log_f
    return np.expm1(alpha * log_f) / alpha


def location_dpd_estimate(y, alpha: float) -> float:
    """Root of sum_i phi(y_i - mu)^a (y_i - mu) = 0 nearest the median.

    This is the stationarity condition of Q for the unit-scale normal
    location model; solved by the reweighted-mean fixed point.
    """
    mu = float(np.median(y))
    for _ in range(10_000):
        w = np.exp(-0.5 * alpha * (y - mu) ** 2)
        nxt = float(w @ y / w.sum())
        if abs(nxt - mu) < 1e-15 * (1.0 + abs(mu)):
            return nxt
        mu = nxt
    return mu


def influence_alpha0(design, sigma: float, prior_cov, beta_g, t: float) -> np.ndarray:
    """a = 0 influence of the posterior mean: V (t sum z - Z'Z beta_g)/sigma^2."""
    gram = design.T @ design
    v = np.linalg.inv(np.linalg.inv(prior_cov) + gram / sigma**2)
    return v @ (t * design.sum(axis=0) - gram @ beta_g) / sigma**2
