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
population objective plus log prior and scaled by the curvature there: the
sample is a ``posterior.WeightedDraws``, and each influence value is its
weighted covariance, an ``Estimate`` with a block standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .alpha_likelihood import Contaminated, InModel, _check_truth, alpha_likelihood_functional_batch
from .mdpde import _is_pd
from .models import LinearKnownSigma, ModelFamily, _check_alpha, _fd_derivatives, _is_common_point
from .posterior import Estimate, GaussianPrior, LossFunction, WeightedDraws
from .posterior import _check_component, _check_integers, _check_proper, _importance_sample
from .posterior import _log_posterior_rows
from .posterior import _TwoScaleProposal  # noqa: F401  bench/spans.py probes it here by name

__all__ = [
    "OneDirection",
    "AllDirections",
    "McConfig",
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
    """Monte Carlo settings for population posterior expectations: a
    non-negative integer seed and an integer number of draws, at least 1000."""

    seed: int
    draws: int = 20_000

    def __post_init__(self) -> None:
        _check_integers(seed=self.seed, draws=self.draws)
        if self.draws < 1000:
            raise ValueError("population importance sampling needs >= 1000 draws")


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
        """Export in long format (alpha, theta, t, value) for plotting; a
        grid with dim > 1 has no one theta column and raises ``ValueError``."""
        dim = self.theta_grid.shape[1]
        if dim > 1:
            raise ValueError(f"to_csv writes one theta column; the grid has dim = {dim}")
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


def _scenario_block(scenario, n: int | None = None):
    """(index block, contamination points) of a contamination scenario.

    A one-direction point must be a scalar; all-directions points a scalar,
    a length-1 array or, given the model's n, one per index.  Other shapes
    raise ``ValueError``.
    """
    if isinstance(scenario, OneDirection):
        if np.ndim(scenario.point) != 0:
            raise ValueError(
                f"a one-direction contamination point must be a scalar, "
                f"got shape {np.shape(scenario.point)}"
            )
        return [scenario.index], scenario.point
    if isinstance(scenario, AllDirections):
        if n is not None:
            _is_common_point(scenario.points, n)
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
    _check_alpha(alpha)
    if not isinstance(spec, InModel):
        raise TypeError("contamination scores are defined against in-model truths")
    _check_truth(model, spec)
    theta = model.validate_theta(theta)
    terms = model.contamination_terms(theta, alpha, spec.theta_g, model._check_index(i))
    return float(_summed_scores(model, terms, t)[0])


# ---------------------------------------------------------------------------
# Population pseudo-posterior via importance sampling.
# ---------------------------------------------------------------------------


#: One-parameter mode search (``_bracket_mode``): a local or zoom grid holds
#: 2 * _HALF_GRID + 1 points, so it contains its center and a zoom shrinks the
#: bracket _HALF_GRID-fold; a contaminated sweep adds _SWEEP_POINTS uniform
#: points; the search stops once the bracket's half-width is within
#: _BRACKET_TOL * max(1, |theta|), or after _MAX_ROUNDS zooms or _MAX_WALKS walks.
_HALF_GRID = 32
_SWEEP_POINTS = 2048
_BRACKET_TOL = 1e-10
_MAX_ROUNDS = 40
_MAX_WALKS = 200
_UNIT_GRID = np.arange(-_HALF_GRID, _HALF_GRID + 1) / _HALF_GRID  # exact 0 at the center


def _best_index(values) -> int:
    """Index of the largest value; of tied maxima the middle one, so a grid
    flat to its last bit keeps its center."""
    ties = np.flatnonzero(values == values.max())
    return int(ties[ties.size // 2])


def _bracket_mode(fn_batch, grid, spread) -> tuple[float, float]:
    """(maximizer, half-width of its bracket) of a one-parameter objective
    given per row, starting from one ``fn_batch`` call on ``grid``.

    The two cells around the best point are re-gridded with
    2 * _HALF_GRID + 1 points centered on it, one call per zoom.  A best
    point at an end of a grid is a walk: the grid is re-centered on it at
    the same width (``spread`` after the sweep), so a mode outside the
    swept range is followed.  A half-width above the tolerance means a cap
    ended the search.
    """
    grid = np.unique(grid)
    j = _best_index(fn_batch(grid[:, None]))
    best = float(grid[j])
    half = spread if j in (0, grid.size - 1) else max(best - grid[j - 1], grid[j + 1] - best)
    rounds = walks = 0
    while half > _BRACKET_TOL * max(1.0, abs(best)) and rounds < _MAX_ROUNDS and walks < _MAX_WALKS:
        grid = best + half * _UNIT_GRID
        j = _best_index(fn_batch(grid[:, None]))
        best = float(grid[j])
        if j in (0, grid.size - 1):
            walks += 1
        else:
            half /= _HALF_GRID
            rounds += 1
    return best, half


def _population_mode(fn_batch, model, spec) -> np.ndarray:
    """Maximizer of a population objective given per parameter row.

    A one-parameter objective is searched by batched grids
    (``_bracket_mode``).  The first call sweeps grids of
    ±10 ``model.scale`` around theta_g and, under contamination, around the
    lowest and highest contamination points, plus a uniform grid spanning
    them all: a contaminated objective can be multimodal, and its peak near
    a point at 1e6 is narrower than the uniform grid's step.  Each grid
    holds its center, so theta_g itself is evaluated.

    Models with two or more parameters start Nelder-Mead at theta_g; it
    stops on a function tolerance relative to the objective's size there.
    """
    start = np.asarray(spec.theta_g, dtype=float)
    if model.dim == 1:
        spread = 10.0 * model.scale(start)
        centers = [float(start[0])]
        sweep = []
        if isinstance(spec, Contaminated) and spec.eps > 0.0:
            pts = np.atleast_1d(np.asarray(spec.points, dtype=float))
            centers += [float(pts.min()), float(pts.max())]
            sweep = np.linspace(min(centers) - spread, max(centers) + spread, _SWEEP_POINTS)
        grid = np.concatenate([c + spread * _UNIT_GRID for c in centers] + [sweep])
        return np.array([_bracket_mode(fn_batch, grid, spread)[0]])

    def neg(theta):
        return -float(fn_batch(np.atleast_2d(theta))[0])

    fatol = 1e-12 * max(1.0, abs(neg(start)))
    res = optimize.minimize(neg, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": fatol, "maxiter": 2000})
    return np.atleast_1d(np.asarray(res.x, dtype=float))


def functional_posterior_sample(
    model: ModelFamily, spec, prior, alpha: float, mc: McConfig
) -> WeightedDraws:
    """Importance sample from the population pseudo-posterior, as
    ``WeightedDraws`` whose ``center`` is the mode below.

    The shared two-scale proposal is centered at the maximizer of the
    population objective plus log prior, scaled by its finite-difference
    curvature (the identity, noted in ``warnings``, if not positive definite).
    Draws outside the parameter space are dropped, so the sample may hold
    fewer than ``mc.draws`` rows.  Raises ``DegenerateWeightsError`` when the
    effective sample size stays below 50 after two widening retries, and
    ``ValueError`` for an improper prior at a > 0 or a truth outside the
    parameter space (``_check_truth``), before any objective call.
    """
    _check_proper(prior, alpha)
    _check_truth(model, spec)

    def fn_batch(thetas):  # log population objective plus log prior per row
        return _log_posterior_rows(model, spec, thetas, alpha, prior.log_density_batch(thetas))

    center = _population_mode(fn_batch, model, spec)
    curvature = _fd_derivatives(fn_batch, center)[0]
    warnings = ()
    if not _is_pd(curvature):
        curvature = np.eye(center.size)
        warnings = ("curvature at the mode not positive definite; proposal uses the identity",)
    rng = np.random.default_rng(mc.seed)
    return _importance_sample(model, spec, prior, alpha, center, curvature, rng, mc.draws, warnings)


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


def _per_point(model, terms, statistic, t_grid):
    """Yield statistic(scores) at each common point of ``t_grid``, the
    scores over the block of ``terms``.  The points outside their far hull
    share one score vector, so they share one statistic, computed at the
    first of them, and make no score call."""
    far = None
    for t in map(float, t_grid):
        scores = terms.far_scores(t)
        if scores is None:
            yield statistic(_summed_scores(model, terms, t))
        else:
            far = statistic(scores) if far is None else far
            yield far


def influence_posterior_mean(
    model: ModelFamily,
    spec: InModel,
    prior,
    alpha: float,
    scenario,
    mc: McConfig,
    sample: WeightedDraws | None = None,
) -> Estimate:
    """Influence function of the posterior-mean functional, as an ``Estimate``.

    The value is the population-posterior covariance between the parameter
    and the summed contamination score (``WeightedDraws.covariance``);
    block-split standard errors quantify the Monte Carlo noise.  A given
    ``sample`` is used instead of drawing one.
    """
    rows, points = _scenario_block(scenario, model.n)
    sample, terms = _population_terms(model, spec, prior, alpha, mc, sample, rows)
    scores = _summed_scores(model, terms, points)
    return sample.covariance(sample.deviations(), scores)


def influence_curve(
    model: ModelFamily,
    spec: InModel,
    prior,
    alpha: float,
    t_grid,
    mc: McConfig,
) -> tuple[np.ndarray, np.ndarray, WeightedDraws]:
    """All-directions influence values over a grid of common contamination
    points, sharing one population-posterior sample, its prepared score
    terms and its weighted deviations across the grid.  The points outside
    the terms' far hull share one score vector, so they share one estimate.

    Returns (values, standard_errors, sample) with values of shape
    (len(t_grid), dim) and the sample's ``WeightedDraws``.
    """
    sample, terms = _population_terms(model, spec, prior, alpha, mc)
    deviations = sample.deviations()
    estimates = list(_per_point(model, terms, lambda s: sample.covariance(deviations, s), t_grid))
    values = np.array([est.estimate for est in estimates]).reshape(-1, model.dim)
    errors = np.array([est.standard_error for est in estimates]).reshape(-1, model.dim)
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
    sample: WeightedDraws | None = None,
) -> Estimate:
    """Influence function of the estimator under a general scalar loss, as
    an ``Estimate``.

    Evaluates -Cov(L'(theta, T), score) / E[L''(theta, T)] at the loss
    minimizer T of the population posterior: the covariance of
    ``influence_posterior_mean`` with the deviation -L'(theta, T)/E[L''] in
    place of theta - E[theta], so with squared-error loss, where that is
    theta - T, the two agree to round-off.  T is the loss's exact ``action``
    on the population weights.
    Each weight block's value is the covariance within the block, with the
    global T and curvature, so a block cannot fail the curvature test and
    the standard error does not move with the score's level.

    Raises:
        ValueError: If ``component`` is not an integer in [0, dim), before
            any draw, or if the weighted loss curvature is not positive at
            T (absolute-error loss has none anywhere).
    """
    _check_component(component, model.dim)
    rows, points = _scenario_block(scenario, model.n)
    sample, terms = _population_terms(model, spec, prior, alpha, mc, sample, rows)
    draws = sample.draws[:, component]
    t_star = loss.action(draws, sample.weights)
    denom = float(sample.mean(loss.d2(draws, t_star)))
    if denom <= 0.0:
        raise ValueError("loss curvature at the estimate is not positive; ill-posed loss")
    deviations = sample.deviations(lambda x, _: -loss.d1(x[:, component, None], t_star) / denom)
    return sample.covariance(deviations, _summed_scores(model, terms, points))


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
    ingredient) and a split-half check of the centering are reported per t;
    points outside the draws' far hull share those statistics, and points
    outside the grid's take its far scores (``_per_point``).  The grid is a
    (k, dim) array, or a length-k vector when dim = 1.  A grid of another
    shape, or with a row outside the parameter space (``model.in_support``),
    raises ``ValueError`` before any score is computed.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.ndim == 1 and model.dim == 1:
        theta_grid = theta_grid[:, None]
    if theta_grid.ndim != 2 or theta_grid.shape[1] != model.dim:
        raise ValueError(f"theta_grid must have shape (k, {model.dim}), got {theta_grid.shape}")
    outside = ~model.in_support(theta_grid)
    if outside.any():
        raise ValueError(
            f"theta_grid row {int(np.argmax(outside))} lies outside the parameter space"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    sample, draw_terms = _population_terms(model, spec, prior, alpha, mc)
    grid_terms = model.contamination_terms(theta_grid, alpha, spec.theta_g)

    def draw_statistics(scores):
        """(mean, variance, split-half check, its se) of the draws' scores."""
        mean_score, centered, var = sample.moments(scores)
        # Half means of the centered scores: raw ones would cancel.
        split = sample.split_difference(centered)
        # Crude scale for the split discrepancy from the pooled variance.
        split_se = math.sqrt(2.0 * var / max(sample.effective_sample_size / 2.0, 1.0))
        return mean_score, var, split, split_se

    stats = list(_per_point(model, draw_terms, draw_statistics, t_grid))
    mean_score, post_var, check, check_se = np.array(stats).reshape(-1, 4).T
    surface = np.empty((theta_grid.shape[0], t_grid.size))
    for j, scores in enumerate(_per_point(model, grid_terms, lambda s: s, t_grid)):
        surface[:, j] = scores - mean_score[j]
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
    same search as the importance-sampling center (``_population_mode``,
    batched grid zooms for one parameter), then one Newton step on central
    differences (``_fd_derivatives``) where their curvature is positive
    definite.

    The search resolves the maximizer only as finely as the objective's
    rounding: at a = 0 with contamination at 1e5 the objective is -2.1e10,
    flat to its last bit within 3e-4 of the optimum, and the zooms settle
    anywhere in that flat stretch.  Differences over the stencil's wider
    steps are not flat, so the step recovers the lost digits.
    """

    def fn_batch(thetas):
        return alpha_likelihood_functional_batch(model, spec, thetas, alpha)

    mode = _population_mode(fn_batch, model, spec)
    curvature, gradient = _fd_derivatives(fn_batch, mode)
    return mode + np.linalg.solve(curvature, gradient) if _is_pd(curvature) else mode


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
