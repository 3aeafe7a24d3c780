"""Efficiency tables and empirical normality diagnostics.

Closed-form asymptotic relative efficiencies for the linear model:

    upsilon_beta(a)  = sigma^2 (1 + a^2/(1+2a))^{3/2}
    upsilon_sigma(a) = sigma^2/(2+a^2)^2 [ 2(1+2a^2)(1 + a^2/(1+2a))^{5/2}
                                           - a^2 (1+a)^2 ]

with ARE = 100 * upsilon(0) / upsilon(a) (upsilon_beta(0) = sigma^2,
upsilon_sigma(0) = sigma^2/2), independent of the design and the true
parameter.  ``upsilon_beta`` also equals zeta(2a)/zeta(a)^2 for the curvature
constant zeta; that identity is exercised by the test suite.

The normality-of-the-standardized-posterior diagnostic transforms chain
draws t = sqrt(n)(theta - theta_hat), whitens them against the target
covariance, and reports half the binned L1 distance between the empirical
and standard normal densities (Freedman-Diaconis bins; a product-of-marginals
surrogate above one dimension, which is an approximation and labeled as
such).  Replication studies verify the sandwich-scaled estimator covariance
against these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from . import mdpde
from .models import Dataset, ModelFamily, _check_alpha, _zeta
from .posterior import DegenerateWeightsError, GaussianPrior, PosteriorChain, _check_proper
from .posterior import _check_draw_count, _importance_sample

__all__ = [
    "EfficiencyReport",
    "BvmReport",
    "ReplicationReport",
    "InsufficientSampleError",
    "TABLE_ARE_REFERENCE",
    "efficiency",
    "are_table",
    "bvm_distance",
    "posterior_mean_replications",
]


class InsufficientSampleError(ValueError):
    """Too few draws for a meaningful density comparison."""


#: Published reference grid for the linear-model AREs (percent), keyed by
#: alpha: (coefficient ARE, scale ARE).
TABLE_ARE_REFERENCE: dict[float, tuple[float, float]] = {
    0.00: (100.00, 100.00),
    0.01: (99.99, 99.97),
    0.02: (99.94, 99.88),
    0.05: (99.66, 99.32),
    0.10: (98.76, 97.56),
    0.15: (97.46, 95.05),
    0.25: (94.06, 88.84),
    0.50: (83.81, 73.06),
    0.75: (73.76, 61.53),
    1.00: (64.95, 54.11),
}


@dataclass(frozen=True)
class EfficiencyReport:
    """Asymptotic-variance constants and relative efficiencies at one alpha.

    ``upsilon_beta`` and ``upsilon_sigma`` are reported divided by sigma^2,
    so they depend on alpha alone; ``zeta_alpha`` carries the sigma supplied.
    """

    alpha: float
    zeta_alpha: float
    upsilon_beta: float
    upsilon_sigma: float
    are_beta_percent: float
    are_sigma_percent: float


def _upsilon_beta(alpha: float) -> float:
    return (1.0 + alpha**2 / (1.0 + 2.0 * alpha)) ** 1.5


def _upsilon_sigma(alpha: float) -> float:
    bracket = 2.0 * (1.0 + 2.0 * alpha**2) * (
        1.0 + alpha**2 / (1.0 + 2.0 * alpha)
    ) ** 2.5 - alpha**2 * (1.0 + alpha) ** 2
    return bracket / (2.0 + alpha**2) ** 2


def efficiency(alpha: float, sigma: float = 1.0) -> EfficiencyReport:
    """Closed-form efficiency constants for the linear model at one alpha."""
    _check_alpha(alpha)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    ub = _upsilon_beta(alpha)
    us = _upsilon_sigma(alpha)
    return EfficiencyReport(
        alpha=alpha,
        zeta_alpha=_zeta(alpha, sigma),
        upsilon_beta=ub,
        upsilon_sigma=us,
        are_beta_percent=100.0 / ub,
        are_sigma_percent=100.0 * 0.5 / us,
    )


def are_table(alphas) -> list[EfficiencyReport]:
    """Efficiency reports over a grid of alphas (AREs are sigma-free)."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    return [efficiency(float(a)) for a in alphas]


@dataclass(frozen=True)
class BvmReport:
    """Distance of the standardized posterior from its Gaussian limit."""

    n: int
    alpha: float
    tv_estimate: float
    scaling_used: str  # "psi_at_theta_g" or "psi_hat_at_theta_hat"
    per_coordinate: tuple[float, ...]


def _binned_l1_vs_normal(y: np.ndarray) -> float:
    """L1 distance between a histogram density of y and the standard normal."""
    m = y.shape[0]
    iqr = float(np.subtract(*np.percentile(y, [75, 25])))
    width = 2.0 * iqr * m ** (-1.0 / 3.0)
    if width <= 0.0:
        return 2.0  # degenerate sample: maximal distance
    lo = min(float(y.min()), -5.0)
    hi = max(float(y.max()), 5.0)
    # Lump extreme outliers into the tail mass so bin counts stay bounded.
    lo, hi = max(lo, -8.0), min(hi, 8.0)
    n_bins = min(int(math.ceil((hi - lo) / width)), 2000)
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(y, bins=edges)
    emp_mass = counts / m
    gauss_mass = np.diff(stats.norm.cdf(edges))
    l1 = float(np.sum(np.abs(emp_mass - gauss_mass)))
    emp_out = 1.0 - float(emp_mass.sum())
    gauss_out = 1.0 - float(gauss_mass.sum())
    l1 += abs(emp_out - gauss_out)
    return l1


def bvm_distance(
    chain: PosteriorChain,
    theta_hat: np.ndarray,
    psi: np.ndarray,
    n: int,
    scaling_used: str = "psi_at_theta_g",
) -> BvmReport:
    """Estimate the distance between sqrt(n)(theta - theta_hat) and its limit.

    Transforms draws to t = sqrt(n)(theta - theta_hat), whitens with the
    Cholesky factor of ``psi`` (the limit covariance is psi^{-1}), and
    estimates half the L1 distance between the empirical and standard normal
    densities per coordinate, averaged across coordinates for p > 1
    (a product-of-marginals approximation).  A ``psi`` that is not finite
    and positive definite raises ``ValueError``.
    """
    if chain.size < 1000:
        raise InsufficientSampleError("need at least 1000 draws for the estimate")
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if not mdpde._is_pd(psi):
        raise ValueError("psi must be a finite positive-definite matrix")
    chol = np.linalg.cholesky(psi)
    t = math.sqrt(n) * (chain.draws - theta_hat[None, :])
    y = t @ chol  # whitened: limit covariance of each column is 1
    per_coord = tuple(0.5 * _binned_l1_vs_normal(y[:, j]) for j in range(y.shape[1]))
    return BvmReport(
        n=n,
        alpha=chain.alpha,
        tv_estimate=float(np.mean(per_coord)),
        scaling_used=scaling_used,
        per_coordinate=per_coord,
    )


@dataclass(frozen=True)
class ReplicationReport:
    """Sampling-distribution summary of the posterior-mean estimator.

    ``scaled_beta_cov`` is the empirical covariance of (Z'Z)^{1/2} times the
    coefficient error, to be compared against ``upsilon_beta_target`` times
    the identity; for unknown-scale models ``scaled_sigma_var`` is the
    empirical variance of sqrt(n) times the scale error against
    ``upsilon_sigma_target``.
    """

    estimates: np.ndarray
    scaled_beta_cov: np.ndarray
    upsilon_beta_target: float
    scaled_sigma_var: float | None
    upsilon_sigma_target: float | None
    anderson_darling: tuple[float, ...]
    failures: int
    failures_by_kind: dict[str, int]  # exception class name -> count
    alpha: float
    n: int


def posterior_mean_replications(
    model: ModelFamily,
    theta_g,
    alpha: float,
    replications: int,
    seed: int,
    prior: GaussianPrior | None = None,
    is_draws: int = 2048,
) -> ReplicationReport:
    """Replicate data generation and posterior-mean estimation.

    Each replication simulates responses at ``theta_g``, fits the divergence
    objective, and computes the posterior mean with the posterior module's
    importance sampler, centered at the point estimate with the Laplace
    covariance inv(n psi_hat).  Per-replication seeds are spawned from the
    master seed.  A fit, curvature or weight failure is counted by kind in
    ``failures_by_kind``, not fatal; any other error propagates.  Before the
    first fit, ``ValueError`` names a non-integer ``replications``, a ``seed``
    that is not a non-negative integer and an ``is_draws`` that is not an
    integer of at least 1000, and refuses an improper prior at a > 0.
    """
    _check_draw_count("is_draws", replications=replications, seed=seed, is_draws=is_draws)
    if replications < 2:
        raise ValueError("need at least two replications")
    theta_g = model.validate_theta(theta_g)
    if prior is None:
        prior = GaussianPrior.isotropic(np.zeros(model.dim), 100.0)
    _check_proper(prior, alpha)
    seeds = np.random.SeedSequence(seed).spawn(replications)
    estimates = []
    failures_by_kind: dict[str, int] = {}
    for seq in seeds:
        rng = np.random.default_rng(seq)
        responses = model.sample_responses(theta_g, rng)
        data = Dataset(responses=responses, design=model.design)
        try:
            theta_hat = mdpde.fit(model, data, alpha).converged_estimate()
            sw = mdpde.sandwich(model, data, theta_hat, alpha)
            is_rng = np.random.default_rng(int(rng.integers(2**63 - 1)))
            # Observed curvature n psi_hat: its inverse is the Laplace covariance.
            sample = _importance_sample(
                model, data, prior, alpha, theta_hat, model.n * sw.psi_hat, is_rng, is_draws
            )
            estimates.append(sample.mean())
        except (mdpde.FitNotConvergedError, mdpde.SingularHessianError,
                DegenerateWeightsError, np.linalg.LinAlgError) as exc:
            kind = type(exc).__name__
            failures_by_kind[kind] = failures_by_kind.get(kind, 0) + 1
    if len(estimates) < 2:
        raise RuntimeError(f"all replications failed: {failures_by_kind}")
    est = np.asarray(estimates)
    n = model.n
    p_beta = model.n_covariates
    gram_half = _matrix_sqrt(model.design.T @ model.design)
    beta_err = est[:, :p_beta] - theta_g[None, :p_beta]
    scaled = beta_err @ gram_half.T
    beta_cov = np.cov(scaled, rowvar=False).reshape(p_beta, p_beta)
    sigma_g = model.scale(theta_g)
    k = model.scale_index
    if k is not None:
        sig_err = math.sqrt(n) * (est[:, k] - sigma_g)
        scaled_sigma_var = float(np.var(sig_err, ddof=1))
        upsilon_sigma = sigma_g**2 * _upsilon_sigma(alpha)
    else:
        scaled_sigma_var = None
        upsilon_sigma = None
    upsilon_beta = sigma_g**2 * _upsilon_beta(alpha)
    ad_stats = tuple(_anderson_darling_normal(est[:, j]) for j in range(est.shape[1]))
    return ReplicationReport(
        estimates=est,
        scaled_beta_cov=beta_cov,
        upsilon_beta_target=upsilon_beta,
        scaled_sigma_var=scaled_sigma_var,
        upsilon_sigma_target=upsilon_sigma,
        anderson_darling=ad_stats,
        failures=sum(failures_by_kind.values()),
        failures_by_kind=failures_by_kind,
        alpha=alpha,
        n=n,
    )


def _anderson_darling_normal(x: np.ndarray) -> float:
    """Anderson-Darling statistic against a normal with fitted mean and sd.

    A^2 = -N - sum_i (2i-1)/N [log Phi(w_(i)) + log(1 - Phi(w_(N+1-i)))]
    over the sorted standardized sample w (sd with ddof = 1), as in
    ``scipy.stats.anderson(x).statistic``.
    """
    w = (np.sort(x) - np.mean(x)) / np.std(x, ddof=1)
    n = w.size
    weights = (2.0 * np.arange(1, n + 1) - 1.0) / n
    return float(-n - np.sum(weights * (special.log_ndtr(w) + special.log_ndtr(-w)[::-1])))


def _matrix_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T
