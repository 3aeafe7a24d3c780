"""Local and global robustness analysis of pseudo-posterior estimators.

Local robustness is measured through influence functions: derivatives of the
population estimator functional in the contamination proportion at zero.
For the posterior mean the influence function is the posterior covariance
between the parameter and a contamination score

    k_i(theta, t) = [f_i^a(t) - integral f_i^a dG_i] / a          (a > 0)
    k_i(theta, t) = log f_i(t) - integral log f_i dG_i            (a = 0),

summed over the contaminated directions.  The score is bounded in t for
a > 0 and unbounded at a = 0, which is the entire robustness story.  The
pseudo-influence function centers the same score by its posterior mean and
measures local changes of the whole posterior density; its suprema over
parameter and contamination grids give the sensitivity indices, and the
posterior variance of the score gives the divergence-rate (variance)
sensitivity.

Global robustness is probed by the breakdown experiment: the population
posterior-mean functional is tracked while point-mass contamination is pushed
to ever larger magnitudes.  A bounded (plateauing) trajectory for a > 0 and
unbounded linear growth at a = 0 reproduce the theoretical breakdown
behaviour.  Population posterior expectations are computed by the posterior
module's importance sampler, its proposal centered at the maximizer of the
population objective plus log prior and scaled by the curvature there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .alpha_likelihood import Contaminated, InModel, alpha_likelihood_functional_batch
from .mdpde import _is_pd
from .models import LinearKnownSigma, ModelFamily
from .posterior import _BASE_INFLATION, GaussianPrior, LossFunction
from .posterior import _importance_sample, _log_posterior_rows
from .posterior import _TwoScaleProposal  # noqa: F401  bench/spans.py probes it here by name

__all__ = [
    "OneDirection",
    "AllDirections",
    "McConfig",
    "FunctionalPosteriorSample",
    "InfluenceEstimate",
    "PifResult",
    "SensitivityReport",
    "BreakdownCurve",
    "contamination_score",
    "functional_posterior_sample",
    "influence_posterior_mean",
    "influence_curve",
    "influence_bayes_estimate",
    "influence_closed_form_alpha0",
    "pseudo_influence",
    "pseudo_influence_closed_form_alpha0",
    "sensitivities",
    "breakdown_experiment",
    "minimum_divergence_functional",
]


@dataclass(frozen=True)
class OneDirection:
    """Contamination of a single index at one point."""

    index: int
    point: float


@dataclass(frozen=True)
class AllDirections:
    """Contamination of every index, at a common point or per-index points."""

    points: float | np.ndarray


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings for population posterior expectations."""

    seed: int
    draws: int = 20_000

    def __post_init__(self) -> None:
        if self.draws < 1000:
            raise ValueError("population importance sampling needs >= 1000 draws")


@dataclass(frozen=True)
class FunctionalPosteriorSample:
    """Weighted draws approximating the population pseudo-posterior."""

    draws: np.ndarray  # (m, dim)
    weights: np.ndarray  # normalized, sums to one
    effective_sample_size: float
    center: np.ndarray
    warnings: tuple[str, ...] = ()

    def mean(self) -> np.ndarray:
        return self.weights @ self.draws

    def variance(self, values: np.ndarray) -> float:
        mean = float(self.weights @ values)
        return float(self.weights @ (values - mean) ** 2)


@dataclass(frozen=True)
class InfluenceEstimate:
    """Monte Carlo influence value with block standard errors."""

    value: np.ndarray
    standard_error: np.ndarray
    effective_sample_size: float


@dataclass(frozen=True)
class PifResult:
    """Pseudo-influence surface over a parameter grid and contamination grid."""

    theta_grid: np.ndarray  # (n_theta, dim)
    t_grid: np.ndarray  # (n_t,)
    surface: np.ndarray  # (n_theta, n_t)
    posterior_variance: np.ndarray  # (n_t,) variance of the summed score
    centering_check: np.ndarray  # (n_t,) split-half discrepancy of E[score]
    centering_se: np.ndarray  # (n_t,)
    effective_sample_size: float

    def to_csv(self, path, alpha: float) -> None:
        """Export in long format (alpha, theta, t, value) for plotting."""
        with open(path, "w", newline="") as fh:
            fh.write("alpha,theta,t,value\n")
            for i in range(self.theta_grid.shape[0]):
                theta = float(self.theta_grid[i, 0])
                for j, t in enumerate(self.t_grid):
                    fh.write(
                        f"{float(alpha)!r},{theta!r},{float(t)!r},"
                        f"{float(self.surface[i, j])!r}\n"
                    )


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity indices derived from a pseudo-influence surface."""

    gamma: np.ndarray  # per t: sup over the parameter grid
    gamma_star: float  # sup over the contamination grid
    s: np.ndarray  # per t: phi''(1) * posterior variance of the score
    s_star: float
    first_order_check: float  # largest |split-half centering| / its se


@dataclass(frozen=True)
class BreakdownCurve:
    """Estimator shift as contamination is pushed to larger magnitudes."""

    magnitudes: np.ndarray
    estimates: np.ndarray
    shifts: np.ndarray
    clean_estimate: float
    alpha: float
    epsilon: float
    method: str

    def to_csv(self, path) -> None:
        """Export in long format (alpha, epsilon, magnitude, estimate, shift)."""
        with open(path, "w", newline="") as fh:
            fh.write("alpha,epsilon,magnitude,estimate,shift\n")
            for mag, est, shift in zip(self.magnitudes, self.estimates, self.shifts):
                fh.write(
                    f"{float(self.alpha)!r},{float(self.epsilon)!r},"
                    f"{float(mag)!r},{float(est)!r},{float(shift)!r}\n"
                )


# ---------------------------------------------------------------------------
# Contamination score.
# ---------------------------------------------------------------------------


def _scenario_block(scenario):
    """(index block, contamination points) of a contamination scenario."""
    if isinstance(scenario, OneDirection):
        return [scenario.index], scenario.point
    if isinstance(scenario, AllDirections):
        return slice(None), scenario.points
    raise TypeError(f"unsupported contamination scenario: {type(scenario).__name__}")


def _summed_scores(model: ModelFamily, terms, points) -> np.ndarray:
    """(m,) sums of k_i(theta, t_i) over the rows and indices that
    ``model.contamination_terms`` prepared ``terms`` for."""
    return model.summed_contamination_scores(terms, points)


def contamination_score(
    model: ModelFamily, spec: InModel, i: int, theta, t, alpha: float
) -> float:
    """Score k_i(theta, t) of index i against its in-model truth."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if not isinstance(spec, InModel):
        raise TypeError("contamination scores are defined against in-model truths")
    theta = model.validate_theta(theta)
    terms = model.contamination_terms(theta, alpha, spec.theta_g, model._check_index(i))
    return float(_summed_scores(model, terms, t)[0])


# ---------------------------------------------------------------------------
# Population pseudo-posterior via importance sampling.
# ---------------------------------------------------------------------------


def _fd_curvature(fn_batch, center: np.ndarray) -> np.ndarray:
    """Central-difference negative Hessian of a function given per parameter
    row; the whole stencil, 1 + 2d + 2d(d-1) rows, is one ``fn_batch`` call."""
    dim = center.size
    h = 1e-4 * np.maximum(1.0, np.abs(center))
    e = np.diag(h)
    plus, minus = center + e, center - e  # row j: h_j added to, taken from, coordinate j
    j, k = np.tril_indices(dim, -1)
    mixed = [plus[j] + e[k], plus[j] - e[k], minus[j] + e[k], minus[j] - e[k]]
    f = fn_batch(np.vstack([center, plus, minus, *mixed]))
    fpp, fpm, fmp, fmm = f[1 + 2 * dim :].reshape(4, -1)
    hess = np.diag((f[1 : 1 + dim] - 2.0 * f[0] + f[1 + dim : 1 + 2 * dim]) / h**2)
    hess[j, k] = hess[k, j] = (fpp - fpm - fmp + fmm) / (4.0 * h[j] * h[k])
    return -hess


def _population_mode(fn_batch, model, spec) -> np.ndarray:
    """Maximizer of a population objective given per parameter row.

    A contaminated one-dimensional objective can be multimodal, so a grid
    spanning theta_g and the contamination points is swept first.  The
    Nelder-Mead polish stops on a function tolerance relative to the
    objective's size at the start: at a = 0 a contamination point at 100
    puts the objective near -1.9e4, where one ulp exceeds 1e-12.
    """

    def neg(theta):
        return -float(fn_batch(np.atleast_2d(theta))[0])

    start = np.asarray(spec.theta_g, dtype=float)
    if isinstance(spec, Contaminated) and spec.eps > 0.0 and model.dim == 1:
        pts = np.atleast_1d(np.asarray(spec.points, dtype=float))
        spread = 10.0 * model.scale(start)
        lo = min(float(start[0]), float(pts.min())) - spread
        hi = max(float(start[0]), float(pts.max())) + spread
        grid = np.linspace(lo, hi, 2048)
        vals = fn_batch(grid[:, None])
        start = np.array([grid[int(np.argmax(vals))]])
    fatol = 1e-12 * max(1.0, abs(neg(start)))
    res = optimize.minimize(neg, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": fatol, "maxiter": 2000})
    return np.atleast_1d(np.asarray(res.x, dtype=float))


def functional_posterior_sample(
    model: ModelFamily, spec, prior, alpha: float, mc: McConfig
) -> FunctionalPosteriorSample:
    """Importance sample from the population pseudo-posterior.

    The shared two-scale proposal is centered at the maximizer of the
    population objective plus log prior, scaled by its finite-difference
    curvature (the identity, noted in ``warnings``, if not positive definite).
    Draws outside the parameter space are dropped, so the sample may hold
    fewer than ``mc.draws`` rows.  Raises ``DegenerateWeightsError`` when the
    effective sample size stays below 50 after two widening retries.
    """

    def fn_batch(thetas):  # log population objective plus log prior per row
        return _log_posterior_rows(model, spec, thetas, alpha, prior.log_density_batch(thetas))

    center = _population_mode(fn_batch, model, spec)
    curvature = _fd_curvature(fn_batch, center)
    warnings = []
    if not _is_pd(curvature):
        curvature = np.eye(center.size)
        warnings.append("curvature at the mode not positive definite; proposal uses the identity")
    draws, weights, ess, inflation = _importance_sample(
        model, spec, prior, alpha, center, curvature, np.random.default_rng(mc.seed), mc.draws
    )
    if warnings or inflation != _BASE_INFLATION:
        warnings.append(f"weights accepted at proposal inflation {inflation:g}")
    return FunctionalPosteriorSample(
        draws=draws,
        weights=weights,
        effective_sample_size=float(ess),
        center=center,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Influence functions.
# ---------------------------------------------------------------------------


def _population_terms(model, spec, prior, alpha, mc, sample=None, rows=slice(None)):
    """(sample, its draws' prepared score terms) for an influence function:
    the population-posterior sample is drawn unless one is given."""
    if not isinstance(spec, InModel):
        raise TypeError("influence functions are derivatives at the uncontaminated truth")
    if sample is None:
        sample = functional_posterior_sample(model, spec, prior, alpha, mc)
    return sample, model.contamination_terms(sample.draws, alpha, spec.theta_g, rows)


def _weighted_cov_vector(draws, weights, scores):
    mean_theta = weights @ draws
    mean_score = float(weights @ scores)
    centered = (draws - mean_theta[None, :]) * (scores - mean_score)[:, None]
    return weights @ centered


def _weight_blocks(weights):
    """Ten contiguous draw blocks with positive total weight, as pairs of
    (indices, weights normalized within the block), for block standard errors."""
    blocks = []
    for idx in np.array_split(np.arange(weights.size), 10):
        wb = weights[idx]
        tot = wb.sum()
        if tot > 0.0:
            blocks.append((idx, wb / tot))
    return blocks


def _covariance_influence(sample, blocks, scores) -> InfluenceEstimate:
    """Posterior covariance between the parameter and the scores, with its
    block standard error."""
    value = _weighted_cov_vector(sample.draws, sample.weights, scores)
    block_vals = np.asarray(
        [_weighted_cov_vector(sample.draws[idx], wb, scores[idx]) for idx, wb in blocks]
    )
    se = block_vals.std(axis=0, ddof=1) / math.sqrt(block_vals.shape[0])
    return InfluenceEstimate(
        value=value, standard_error=se, effective_sample_size=sample.effective_sample_size
    )


def influence_posterior_mean(
    model: ModelFamily,
    spec: InModel,
    prior,
    alpha: float,
    scenario,
    mc: McConfig,
    sample: FunctionalPosteriorSample | None = None,
) -> InfluenceEstimate:
    """Influence function of the posterior-mean functional.

    The value is the population-posterior covariance between the parameter
    and the summed contamination score; block-split standard errors quantify
    the Monte Carlo noise.
    """
    rows, points = _scenario_block(scenario)
    sample, terms = _population_terms(model, spec, prior, alpha, mc, sample, rows)
    scores = _summed_scores(model, terms, points)
    return _covariance_influence(sample, _weight_blocks(sample.weights), scores)


def influence_curve(
    model: ModelFamily,
    spec: InModel,
    prior,
    alpha: float,
    t_grid,
    mc: McConfig,
) -> tuple[np.ndarray, np.ndarray, FunctionalPosteriorSample]:
    """All-directions influence values over a grid of common contamination
    points, sharing one population-posterior sample and its prepared score
    terms across the grid.

    Returns (values, standard_errors, sample) with values of shape
    (len(t_grid), dim).
    """
    sample, terms = _population_terms(model, spec, prior, alpha, mc)
    blocks = _weight_blocks(sample.weights)
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.empty((t_grid.size, model.dim))
    errors = np.empty_like(values)
    for j, t in enumerate(t_grid):
        est = _covariance_influence(sample, blocks, _summed_scores(model, terms, float(t)))
        values[j] = est.value
        errors[j] = est.standard_error
    return values, errors, sample


def _alpha0_gaussian_posterior(model, prior, spec, t):
    """Precision C^{-1} + Z'Z/sigma^2 of the a = 0 population posterior of the
    known-scale linear model with a Gaussian prior, and the direction
    (t sum_i z_i - Z'Z theta_g)/sigma^2 of its summed score at common t."""
    if not isinstance(model, LinearKnownSigma) or model.scale_index is not None:
        raise TypeError("closed form available for the known-scale linear model only")
    z = model.design
    s2 = model.sigma**2
    precision = np.linalg.inv(prior.covariance) + z.T @ z / s2
    direction = (float(t) * z.sum(axis=0) - z.T @ z @ spec.theta_g) / s2
    return precision, direction


def influence_closed_form_alpha0(
    model: LinearKnownSigma, prior: GaussianPrior, spec: InModel, t: float
) -> np.ndarray:
    """Exact a = 0 influence of the posterior mean, linear model, common t.

    With a Gaussian prior the ordinary posterior under the population
    objective is Gaussian with covariance V = (C^{-1} + Z'Z/sigma^2)^{-1},
    and the covariance formula collapses (Stein's lemma) to

        IF(t) = V (t * sum_i z_i - Z'Z beta_g) / sigma^2,

    independent of the prior mean.  For the all-ones design with unit prior
    variance and sigma = 1 this is the familiar n (t - mean(z) beta_g)/(n+1).
    """
    precision, direction = _alpha0_gaussian_posterior(model, prior, spec, t)
    return np.linalg.inv(precision) @ direction


def influence_bayes_estimate(
    model: ModelFamily,
    spec: InModel,
    prior,
    alpha: float,
    loss: LossFunction,
    scenario,
    mc: McConfig,
    component: int = 0,
    sample: FunctionalPosteriorSample | None = None,
) -> InfluenceEstimate:
    """Influence function of the estimator under a general scalar loss.

    Evaluates -E[L'(theta, T) * score] / E[L''(theta, T)] at the loss
    minimizer T of the population posterior; with squared-error loss this
    reproduces the posterior-mean influence exactly.
    """
    rows, points = _scenario_block(scenario)
    sample, terms = _population_terms(model, spec, prior, alpha, mc, sample, rows)
    draws = sample.draws[:, component]
    w = sample.weights

    t_star = float(w @ draws)
    for _ in range(100):
        g = float(w @ loss.d1(draws, t_star))
        h = float(w @ loss.d2(draws, t_star))
        if h <= 0.0:
            break
        step = g / h
        t_star -= step
        if abs(step) < 1e-12 * (1.0 + abs(t_star)):
            break
    denom = float(w @ loss.d2(draws, t_star))
    if denom <= 0.0:
        raise ValueError("loss curvature at the estimate is not positive; ill-posed loss")
    scores = _summed_scores(model, terms, points)
    lprime = loss.d1(draws, t_star)
    value = -float(w @ (lprime * scores)) / denom
    vals = np.asarray(
        [-float(wb @ (lprime[idx] * scores[idx])) / denom for idx, wb in _weight_blocks(w)]
    )
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    return InfluenceEstimate(
        value=np.atleast_1d(value),
        standard_error=np.atleast_1d(se),
        effective_sample_size=sample.effective_sample_size,
    )


# ---------------------------------------------------------------------------
# Pseudo-influence of the whole posterior density.
# ---------------------------------------------------------------------------


def pseudo_influence(
    model: ModelFamily,
    spec: InModel,
    prior,
    alpha: float,
    theta_grid,
    t_grid,
    mc: McConfig,
) -> PifResult:
    """Pseudo-influence surface: the centered contamination score.

    For each common contamination point t the summed score K(theta, t) is
    centered by its population-posterior mean, then evaluated on the
    parameter grid.  The posterior variance of K (the variance-sensitivity
    ingredient) and a split-half check of the centering are reported per t.
    A grid row outside the parameter space (``model.in_support``) raises
    ``ValueError`` before any score is computed.
    """
    theta_grid = np.atleast_2d(np.asarray(theta_grid, dtype=float))
    if theta_grid.shape[1] != model.dim:
        theta_grid = theta_grid.reshape(-1, model.dim)
    outside = ~model.in_support(theta_grid)
    if outside.any():
        raise ValueError(
            f"theta_grid row {int(np.argmax(outside))} lies outside the parameter space"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    sample, draw_terms = _population_terms(model, spec, prior, alpha, mc)
    grid_terms = model.contamination_terms(theta_grid, alpha, spec.theta_g)
    half = sample.draws.shape[0] // 2
    w1, w2 = sample.weights[:half], sample.weights[half:]
    tot1, tot2 = float(w1.sum()), float(w2.sum())
    surface = np.empty((theta_grid.shape[0], t_grid.size))
    post_var = np.empty(t_grid.size)
    check = np.empty(t_grid.size)
    check_se = np.empty(t_grid.size)
    for j, t in enumerate(t_grid):
        scores = _summed_scores(model, draw_terms, float(t))
        mean_score = float(sample.weights @ scores)
        centered = scores - mean_score
        post_var[j] = float(sample.weights @ centered**2)
        surface[:, j] = _summed_scores(model, grid_terms, float(t)) - mean_score
        # Half means of the centered scores: raw ones would cancel.
        check[j] = float(w1 @ centered[:half]) / tot1 - float(w2 @ centered[half:]) / tot2
        # Crude scale for the split discrepancy from the pooled variance.
        check_se[j] = math.sqrt(
            2.0 * post_var[j] / max(sample.effective_sample_size / 2.0, 1.0)
        )
    return PifResult(
        theta_grid=theta_grid,
        t_grid=t_grid,
        surface=surface,
        posterior_variance=post_var,
        centering_check=check,
        centering_se=np.maximum(check_se, 1e-300),
        effective_sample_size=sample.effective_sample_size,
    )


def pseudo_influence_closed_form_alpha0(
    model: LinearKnownSigma, prior: GaussianPrior, spec: InModel, theta, t: float
) -> float:
    """Exact a = 0 pseudo-influence for the linear model at common t.

    The summed score is linear in the parameter, so centering by the
    Gaussian posterior mean theta_bar gives

        PIF(theta, t) = (theta - theta_bar)' (t sum_i z_i - Z'Z theta_g) / sigma^2;

    with the prior mean at theta_g the posterior mean equals theta_g and
    this is the familiar unbounded-in-t linear form.
    """
    precision, direction = _alpha0_gaussian_posterior(model, prior, spec, t)
    theta = model.validate_theta(theta)
    z = model.design
    rhs = np.linalg.inv(prior.covariance) @ prior.mean + z.T @ z @ spec.theta_g / model.sigma**2
    theta_bar = np.linalg.solve(precision, rhs)
    return float((theta - theta_bar) @ direction)


def sensitivities(
    pif: PifResult, phi_second_derivative_at_1: float = 1.0
) -> SensitivityReport:
    """Sensitivity indices from a pseudo-influence surface.

    gamma(t) is the supremum of the surface over the parameter grid, and
    gamma* its supremum over the contamination grid; s(t) is phi''(1) times
    the posterior variance of the summed score (the epsilon^2-rate of the
    phi-divergence between contaminated and clean posteriors), s* its
    supremum.  The first-order divergence rate is zero by posterior
    centering; the report carries the largest standardized split-half
    discrepancy as the numerical check of that limit.
    """
    gamma = pif.surface.max(axis=0)
    s = phi_second_derivative_at_1 * pif.posterior_variance
    first_order = float(np.max(np.abs(pif.centering_check) / pif.centering_se))
    return SensitivityReport(
        gamma=gamma,
        gamma_star=float(gamma.max()),
        s=s,
        s_star=float(s.max()),
        first_order_check=first_order,
    )


# ---------------------------------------------------------------------------
# Breakdown experiment.
# ---------------------------------------------------------------------------


def minimum_divergence_functional(
    model: ModelFamily, spec, alpha: float
) -> np.ndarray:
    """Global maximizer of the population objective (no prior), found by the
    same search as the importance-sampling center (``_population_mode``)."""
    return _population_mode(
        lambda thetas: alpha_likelihood_functional_batch(model, spec, thetas, alpha), model, spec
    )


def breakdown_experiment(
    model: LinearKnownSigma,
    prior,
    theta_g,
    alpha: float,
    epsilon: float,
    magnitudes,
    seed: int,
    method: str = "is",
    draws: int = 20_000,
) -> BreakdownCurve:
    """Track the population posterior-mean location as outliers go to infinity.

    For each magnitude M the true distributions become the mixtures
    (1-eps) G_i + eps point-mass(M) and the location estimate is recomputed;
    the recorded curve of |estimate - clean estimate| either plateaus
    (bounded breakdown behaviour, expected for a > 0 with eps below one half)
    or grows without bound (the a = 0 posterior mean).  ``method="is"``
    computes the posterior-mean functional by importance sampling;
    ``method="laplace"`` substitutes the minimum-divergence functional, to
    which the posterior mean is asymptotically equivalent.
    """
    if not isinstance(model, LinearKnownSigma) or model.dim != 1:
        raise ValueError(
            "the breakdown experiment targets a scalar location model with fixed scale"
        )
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError("breakdown contamination proportion must lie in [0, 0.5]")
    magnitudes = np.asarray(list(magnitudes), dtype=float)
    if magnitudes.size == 0 or np.any(np.diff(magnitudes) <= 0.0):
        raise ValueError("magnitudes must be strictly increasing")
    theta_g = model.validate_theta(theta_g)
    seeds = np.random.SeedSequence(seed).spawn(magnitudes.size + 1)

    def estimate(spec, seq) -> float:
        if method == "laplace":
            return float(minimum_divergence_functional(model, spec, alpha)[0])
        if method != "is":
            raise ValueError("method must be 'is' or 'laplace'")
        mc = McConfig(seed=int(seq.generate_state(1)[0]), draws=draws)
        sample = functional_posterior_sample(model, spec, prior, alpha, mc)
        return float(sample.mean()[0])

    clean = estimate(Contaminated(theta_g, 0.0, np.zeros(model.n)), seeds[0])
    estimates = np.empty(magnitudes.size)
    for j, mag in enumerate(magnitudes):
        spec = Contaminated(theta_g, epsilon, float(mag))
        estimates[j] = estimate(spec, seeds[j + 1])
    return BreakdownCurve(
        magnitudes=magnitudes,
        estimates=estimates,
        shifts=np.abs(estimates - clean),
        clean_estimate=clean,
        alpha=alpha,
        epsilon=epsilon,
        method=method,
    )
