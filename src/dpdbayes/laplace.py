"""First-order Laplace approximation of pseudo-posterior integrals.

For a positive weight function q the integral of q(theta) exp(Q(theta)) over
the parameter space is approximated by expanding Q to second order around its
maximizer theta*:

    log integral ~= log q(theta*) + Q(theta*) + (p/2) log 2pi
                    - (1/2) log |curvature(theta*)|

with curvature the negative Hessian of Q.  Ratios of two such integrals
collapse to the value of h at theta*, so the first-order approximation of any
posterior expectation is simply its plug-in at the point estimate, with an
O(1/n) relative error.  Only the leading order is implemented; higher-order
correction terms are out of scope.

``check_expansion_conditions`` provides finite-grid empirical diagnostics for
the regularity conditions behind the expansion (curvature bounded away from
zero, and the objective dropping uniformly outside shrinking balls around the
maximizer).  They are reported numbers, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from . import mdpde
from .alpha_likelihood import alpha_likelihood, alpha_likelihood_batch
from .models import Dataset, ModelFamily

__all__ = [
    "LaplaceApproximation",
    "ExpansionDiagnostics",
    "IndefiniteCurvatureError",
    "laplace_integral",
    "laplace_expectation",
    "check_expansion_conditions",
]


class IndefiniteCurvatureError(RuntimeError):
    """The objective curvature at the maximizer is not positive definite."""


@dataclass(frozen=True)
class LaplaceApproximation:
    """Log-scale Laplace integral value and its ingredients."""

    integral_value: float
    mode: np.ndarray
    neg_hessian_logdet: float
    q_at_mode: float


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Empirical checks of the asymptotic-expansion conditions."""

    curvature_determinant: float
    curvature_min_eigenvalue: float
    tail_suprema: dict[float, float]  # delta -> sup of (Q(theta)-Q(mode))/n outside ball
    warnings: tuple[str, ...]


def _fit_if_needed(model, data, alpha, theta_hat):
    if theta_hat is not None:
        return model.validate_theta(theta_hat)
    return mdpde.fit(model, data, alpha).converged_estimate()


def laplace_integral(
    model: ModelFamily,
    data: Dataset,
    q_fn,
    alpha: float,
    theta_hat=None,
) -> LaplaceApproximation:
    """Approximate log integral of q(theta) exp(Q(theta)) d theta.

    Args:
        model, data: Observed-data problem defining Q.
        q_fn: Positive weight function of theta (e.g. a prior density).
        alpha: Tuning constant.
        theta_hat: Optional precomputed maximizer; fitted when omitted.

    Raises:
        IndefiniteCurvatureError: If the negative Hessian at the maximizer is
            not positive definite.
        ValueError: If q_fn is not strictly positive at the maximizer.
    """
    theta_hat = _fit_if_needed(model, data, alpha, theta_hat)
    state = alpha_likelihood(model, data, theta_hat, alpha, derivatives=True)
    curvature = -state.hessian
    try:
        chol = np.linalg.cholesky(curvature)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteCurvatureError(
            "negative objective Hessian is not positive definite at the mode"
        ) from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    q_mode = float(q_fn(theta_hat))
    if not q_mode > 0.0:
        raise ValueError("the weight function must be positive at the mode")
    dim = model.dim
    value = (
        math.log(q_mode)
        + state.value
        + 0.5 * dim * math.log(2.0 * math.pi)
        - 0.5 * logdet
    )
    return LaplaceApproximation(
        integral_value=value,
        mode=theta_hat,
        neg_hessian_logdet=logdet,
        q_at_mode=q_mode,
    )


def laplace_expectation(
    model: ModelFamily,
    data: Dataset,
    prior,
    h,
    alpha: float,
    theta_hat=None,
) -> np.ndarray:
    """First-order posterior expectation of h: its plug-in at the maximizer.

    The ratio of the Laplace expansions with weights h * pi and pi cancels
    everything except h at the mode.  Requires a proper prior (the expansion
    of the denominator needs a finite prior integral) that is positive at
    the mode.
    """
    if not getattr(prior, "is_proper", False):
        raise ValueError("Laplace approximations require a proper prior")
    theta_hat = _fit_if_needed(model, data, alpha, theta_hat)
    if not np.isfinite(prior.log_density(theta_hat)):
        raise ValueError("prior has zero density at the mode")
    # Validates the curvature as a side effect.
    laplace_integral(model, data, lambda th: math.exp(prior.log_density(th)), alpha, theta_hat)
    return np.atleast_1d(np.asarray(h(theta_hat), dtype=float))


def check_expansion_conditions(
    model: ModelFamily,
    data: Dataset,
    alpha: float,
    delta_grid=(0.1, 0.25, 0.5, 1.0),
    region_halfwidth: float | None = None,
    n_grid: int = 10_000,
    theta_hat=None,
) -> ExpansionDiagnostics:
    """Empirical diagnostics for the expansion's regularity conditions.

    Evaluates (Q(theta) - Q(mode))/n on a Halton point set over a compact box
    around the maximizer and reports, for each delta, the supremum outside
    the delta-ball (negative values support the expansion).  Also reports the
    determinant and smallest eigenvalue of the observed curvature divided
    by n, flagging flat directions such as those produced by a
    rank-deficient design or separated logistic data (the test of
    ``mdpde.fit``, which needs the family's ``curvature_unit``).  Without
    ``theta_hat`` the fitted optimum is used, flat or not; a fit that
    failed otherwise raises ``mdpde.FitNotConvergedError``.
    """
    if theta_hat is None:
        result = mdpde.fit(model, data, alpha)
        if not (result.converged or result.flat):
            raise mdpde.FitNotConvergedError(result)
        theta_hat = result.theta_hat
    theta_hat = model.validate_theta(theta_hat)
    state = alpha_likelihood(model, data, theta_hat, alpha, derivatives=True)
    curvature = -state.hessian / model.n
    eigvals = np.linalg.eigvalsh(curvature)
    warnings = []
    if mdpde._flat_direction(model, theta_hat, alpha, curvature):
        warnings.append(
            "near-zero curvature eigenvalue: flat direction at the mode "
            "(rank-deficient design or separated data)"
        )
    dim = model.dim
    if region_halfwidth is None:
        region_halfwidth = 5.0 * max(1.0, float(np.max(np.abs(theta_hat))))
    sampler = qmc.Halton(d=dim, scramble=False)
    unit = sampler.random(n_grid)
    points = theta_hat[None, :] + (2.0 * unit - 1.0) * region_halfwidth
    k = model.scale_index
    if k is not None:
        points[:, k] = np.abs(points[:, k]) + 1e-6
    q_mode = state.value
    values = (alpha_likelihood_batch(model, data, points, alpha) - q_mode) / model.n
    dist = np.linalg.norm(points - theta_hat[None, :], axis=1)
    tail = {}
    for delta in delta_grid:
        outside = dist > delta
        tail[float(delta)] = float(values[outside].max()) if np.any(outside) else -np.inf
        if np.any(outside) and tail[float(delta)] >= 0.0:
            warnings.append(
                f"objective does not drop outside the {delta}-ball; "
                "expansion conditions doubtful"
            )
    return ExpansionDiagnostics(
        curvature_determinant=float(np.linalg.det(curvature)),
        curvature_min_eigenvalue=float(eigvals[0]),
        tail_suprema=tail,
        warnings=tuple(warnings),
    )
