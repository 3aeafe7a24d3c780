"""The power-divergence objective for observed data and for populations.

For tuning constant a > 0 the objective is

    Q(theta) = sum_i [ f_i^a(x_i)/a - (1/(1+a)) integral f_i^{1+a} - 1/a ],

each summand being a scaled negative divergence between the point mass at x_i
and the model density.  As a -> 0 it converges to the log-likelihood minus n,
and a = 0 is implemented as that exact limit, never as a small-a evaluation
(the 1/a pieces are numerically catastrophic near zero; for a > 0 they are
combined through expm1 so the objective is stable down to a ~ 1e-12).

Up to the additive constant n/a the objective equals -1/(1+a) times the sum
of the per-observation divergence loss terms V_i, so its derivatives are
exactly -1/(1+a) times the loss-term derivative sums for every a >= 0.

The population (functional) version replaces the point mass at x_i by a true
distribution G_i, either in-model or an epsilon-contaminated mixture with a
point mass; it drives the influence-function and breakdown analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Dataset, ModelFamily

__all__ = [
    "AlphaLikelihoodValue",
    "InModel",
    "Contaminated",
    "alpha_likelihood",
    "alpha_likelihood_batch",
    "alpha_likelihood_functional",
    "alpha_likelihood_functional_batch",
]


@dataclass(frozen=True)
class AlphaLikelihoodValue:
    """Objective value with optional derivatives at a parameter point."""

    value: float
    alpha: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None


@dataclass(frozen=True)
class InModel:
    """True distributions lie in the model family at a common parameter."""

    theta_g: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta_g", np.atleast_1d(np.asarray(self.theta_g, dtype=float))
        )


@dataclass(frozen=True)
class Contaminated:
    """In-model truths mixed with point masses: (1-eps) G_i + eps at t_i."""

    theta_g: np.ndarray
    eps: float
    points: np.ndarray  # scalar (common point) or per-index vector

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta_g", np.atleast_1d(np.asarray(self.theta_g, dtype=float))
        )
        pts = np.asarray(self.points, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError("contamination points must be finite")
        object.__setattr__(self, "points", pts)
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("contamination proportion must lie in [0, 1)")


def alpha_likelihood(
    model: ModelFamily,
    data: Dataset,
    theta,
    alpha: float,
    derivatives: bool = False,
) -> AlphaLikelihoodValue:
    """Evaluate the objective, optionally with analytic gradient and Hessian.

    Args:
        model: Family whose design matches the data.
        data: Observed responses.
        theta: Parameter point.
        alpha: Tuning constant, >= 0.
        derivatives: Also compute the gradient and (symmetrized) Hessian.

    Returns:
        AlphaLikelihoodValue; per-index terms are accumulated with numpy's
        pairwise summation.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    theta = model.validate_theta(theta)
    model.validate_data(data)
    x = data.responses
    value = model.summed_q_value(x, theta, alpha)
    if not derivatives:
        return AlphaLikelihoodValue(value=value, alpha=alpha)
    scale = -1.0 / (1.0 + alpha)
    grad = scale * model.loss_grad_sum(x, theta, alpha)
    hess = scale * model.loss_hess_sum(x, theta, alpha)
    hess = 0.5 * (hess + hess.T)
    return AlphaLikelihoodValue(value=value, alpha=alpha, gradient=grad, hessian=hess)


def alpha_likelihood_batch(
    model: ModelFamily, data: Dataset, thetas: np.ndarray, alpha: float
) -> np.ndarray:
    """Objective values for many parameter points at once, as an (m,) array."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    model.validate_data(data)
    return model.summed_q_value_batch(data.responses, thetas, alpha)


def alpha_likelihood_functional(
    model: ModelFamily, spec, theta, alpha: float
) -> float:
    """Population objective: each point mass replaced by a true distribution.

    For alpha > 0 the per-index term is

        (1/a) integral f_i^a dG_i - (1/(1+a)) integral f_i^{1+a} - 1/a,

    with closed Gaussian-convolution or Bernoulli forms for the built-in
    families; a contaminated G_i contributes (1-eps) times the in-model
    integral plus eps times f_i^a at the contamination point.  At alpha = 0
    the term is the expected log density minus one.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    theta = model.validate_theta(theta)
    vals = alpha_likelihood_functional_batch(model, spec, theta[None, :], alpha)
    return float(vals[0])


def alpha_likelihood_functional_batch(
    model: ModelFamily, spec, thetas: np.ndarray, alpha: float
) -> np.ndarray:
    """Vectorized population objective over rows of ``thetas``."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if not isinstance(spec, (InModel, Contaminated)):
        raise TypeError(f"unsupported true-distribution spec: {type(spec).__name__}")
    contaminated = isinstance(spec, Contaminated) and spec.eps > 0.0
    if alpha == 0.0:
        eld = model.log_density_expectation_batch(thetas, spec.theta_g)  # (m, n)
        if contaminated:
            log_f_t = model.log_density_batch(spec.points, thetas)
            eld = (1.0 - spec.eps) * eld + spec.eps * log_f_t
        return np.sum(eld - 1.0, axis=1)
    log_m = model.log_power_expectation_batch(thetas, alpha, spec.theta_g)  # (m, n)
    if contaminated:
        log_f_t = model.log_density_batch(spec.points, thetas)
        # (1/a)[(1-eps)(e^m - 1) + eps(e^{a log f(t)} - 1)], stable near a = 0
        data_part = (
            (1.0 - spec.eps) * np.expm1(log_m) + spec.eps * np.expm1(alpha * log_f_t)
        ) / alpha
    else:
        data_part = np.expm1(log_m) / alpha
    ints = model.log_power_integral_batch(thetas, alpha)
    return np.sum(data_part - np.exp(ints) / (1.0 + alpha), axis=1)
