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

from .models import Dataset, ModelFamily, _check_alpha, _is_common_point

__all__ = [
    "AlphaLikelihoodValue",
    "InModel",
    "Contaminated",
    "alpha_likelihood",
    "alpha_likelihood_batch",
    "alpha_likelihood_functional",
    "alpha_likelihood_functional_batch",
]

#: Scratch values per (rows, n) array of one ``alpha_likelihood_batch``
#: block: 2^16 float64 values, 512 KiB, so a kernel's few arrays fit a
#: 2 MiB per-core L2 cache.
_BLOCK_VALUES = 1 << 16
#: The same for ``alpha_likelihood_functional_batch``, whose kernels make
#: several temporaries per block: 2^14 values, 128 KiB.  With 512 KiB
#: temporaries malloc gave them back to the system after every block and
#: faulted them in again at the next: 4,410 minor page faults and 20 ms per
#: contaminated batch of 20000 rows at n = 20, against none and 10 ms.
_FUNCTIONAL_BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class AlphaLikelihoodValue:
    """Objective value with optional derivatives at a parameter point."""

    value: float
    alpha: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None


def _true_parameter(theta_g) -> np.ndarray:
    """theta_g as a float vector; ``ValueError`` if a coordinate is not finite."""
    theta_g = np.atleast_1d(np.asarray(theta_g, dtype=float))
    if not np.all(np.isfinite(theta_g)):
        raise ValueError("true parameter theta_g must be finite")
    return theta_g


@dataclass(frozen=True)
class InModel:
    """True distributions lie in the model family at a common parameter."""

    theta_g: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_g", _true_parameter(self.theta_g))


@dataclass(frozen=True)
class Contaminated:
    """In-model truths mixed with point masses: (1-eps) G_i + eps at t_i."""

    theta_g: np.ndarray
    eps: float
    points: np.ndarray  # scalar (common point) or per-index vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_g", _true_parameter(self.theta_g))
        pts = np.asarray(self.points, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError("contamination points must be finite")
        object.__setattr__(self, "points", pts)
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("contamination proportion must lie in [0, 1)")


def _check_truth(model: ModelFamily, spec) -> None:
    """``TypeError`` unless ``spec`` is a true-distribution spec, and
    ``ValueError`` unless its theta_g is a point of the model's parameter
    space: ``model.dim`` coordinates, inside ``model.in_support``."""
    if not isinstance(spec, (InModel, Contaminated)):
        raise TypeError(f"unsupported true-distribution spec: {type(spec).__name__}")
    if spec.theta_g.shape != (model.dim,):
        raise ValueError(f"theta_g has {spec.theta_g.size} coordinates, model.dim is {model.dim}")
    if not model.in_support(spec.theta_g)[0]:
        raise ValueError(f"theta_g {spec.theta_g} lies outside the parameter space")


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
    _check_alpha(alpha)
    theta = model.validate_theta(theta)
    model.validate_data(data)
    x = data.responses
    value = float(model.summed_q_value_batch(x, theta, alpha)[0])
    if not derivatives:
        return AlphaLikelihoodValue(value=value, alpha=alpha)
    scale = -1.0 / (1.0 + alpha)
    grad, hess = model.loss_derivative_sums(x, theta, alpha)
    hess = scale * hess
    hess = 0.5 * (hess + hess.T)
    return AlphaLikelihoodValue(value=value, alpha=alpha, gradient=scale * grad, hessian=hess)


def _in_row_blocks(kernel, thetas: np.ndarray, columns: int, values: int) -> np.ndarray:
    """(m,) values of ``kernel`` (parameter rows -> one value per row) over
    blocks of rows whose (rows, columns) scratch arrays hold about
    ``values`` values each, so they stay in cache.

    No block has one row unless m = 1: a one-row product goes through gemv,
    whose rows differ from gemm rows in the low bits, so a one-row tail
    joins the block before it.
    """
    m = thetas.shape[0]
    step = max(2, values // columns)
    if m <= step + 1:
        return kernel(thetas)
    starts = list(range(0, m, step))
    if m - starts[-1] == 1:
        starts.pop()
    out = np.empty(m)
    for start, stop in zip(starts, starts[1:] + [m]):
        out[start:stop] = kernel(thetas[start:stop])
    return out


def alpha_likelihood_batch(
    model: ModelFamily, data: Dataset, thetas: np.ndarray, alpha: float
) -> np.ndarray:
    """Objective values for many parameter points at once, as an (m,) array,
    computed in row blocks (``_in_row_blocks``)."""
    _check_alpha(alpha)
    model.validate_data(data)
    return _objective_rows(model, data, np.atleast_2d(np.asarray(thetas, dtype=float)), alpha)


def _objective_rows(model: ModelFamily, data: Dataset, thetas: np.ndarray, alpha: float):
    """``alpha_likelihood_batch`` of (m, dim) float rows without its checks,
    for callers that checked alpha and the data once."""

    def kernel(block):
        return model.summed_q_value_batch(data.responses, block, alpha)

    return _in_row_blocks(kernel, thetas, model.n, _BLOCK_VALUES)


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
    theta = model.validate_theta(theta)
    vals = alpha_likelihood_functional_batch(model, spec, theta[None, :], alpha)
    return float(vals[0])


def alpha_likelihood_functional_batch(
    model: ModelFamily, spec, thetas: np.ndarray, alpha: float
) -> np.ndarray:
    """Vectorized population objective over rows of ``thetas``, computed in
    row blocks (``_in_row_blocks``).

    An in-model truth, and a contaminated one with a common point or eps = 0,
    makes every term depend on its index only through the design row, so
    the terms are computed once per distinct design row and weighted by the
    row's count.  Contamination points must be a scalar, a length-1 array
    or one per index (``ValueError`` naming n otherwise), and theta_g must
    be a point of the parameter space (``_check_truth``).
    """
    _check_alpha(alpha)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _check_truth(model, spec)
    contaminated = isinstance(spec, Contaminated) and spec.eps > 0.0
    per_index = isinstance(spec, Contaminated) and not _is_common_point(spec.points, model.n)
    if contaminated and per_index:
        rows, groups = slice(None), None  # summed index by index
    else:
        rows, groups = model._grouped_rows(slice(None))

    def row_sums(terms):
        return np.sum(terms, axis=1) if groups is None else np.dot(terms, groups.counts)

    def kernel(block):
        if alpha == 0.0:
            eld = model.log_density_expectation_batch(block, spec.theta_g, rows)  # (m, k)
            if contaminated:
                log_f_t = model.log_density_batch(spec.points, block, rows)
                eld = (1.0 - spec.eps) * eld + spec.eps * log_f_t
            return row_sums(eld - 1.0)
        log_m = model.log_power_expectation_batch(block, alpha, spec.theta_g, rows)  # (m, k)
        if contaminated:
            log_f_t = model.log_density_batch(spec.points, block, rows)
            # (1/a)[(1-eps)(e^m - 1) + eps(e^{a log f(t)} - 1)], stable near a = 0
            data_part = (
                (1.0 - spec.eps) * np.expm1(log_m) + spec.eps * np.expm1(alpha * log_f_t)
            ) / alpha
        else:
            data_part = np.expm1(log_m) / alpha
        ints = model.log_power_integral_batch(block, alpha, rows)
        return row_sums(data_part - np.exp(ints) / (1.0 + alpha))

    width = model.n if groups is None else groups.first.size
    return _in_row_blocks(kernel, thetas, width, _FUNCTIONAL_BLOCK_VALUES)
