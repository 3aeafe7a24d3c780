"""The robustified pseudo-posterior: evaluation, sampling, and estimators.

The pseudo-posterior is proportional to exp(Q(theta)) pi(theta), where Q is
the power-divergence objective; at a = 0 it reduces to the ordinary Bayes
posterior.  Because Q is bounded for a > 0, the posterior is proper only
under a proper prior; the improper flat prior is accepted here for completeness
but the downstream integral approximations refuse it.

Sampling is plain random-walk Metropolis with a Gaussian proposal whose
covariance defaults to 2.38^2/p times the inverse observed curvature at the
point estimate.  Chains are bit-reproducible for a fixed seed.  Posterior
expectations can also be computed without a chain through self-normalized
importance sampling, from a caller's Gaussian proposal or from the defensive
two-scale proposal that data and population posteriors share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.linalg.lapack import dtrtrs

from . import mdpde
from .alpha_likelihood import (
    alpha_likelihood,
    alpha_likelihood_batch,
    alpha_likelihood_functional_batch,
)
from .models import Dataset, ModelFamily

__all__ = [
    "GaussianPrior",
    "UniformBoxPrior",
    "FlatPrior",
    "SamplerConfig",
    "PosteriorChain",
    "PosteriorMeanEstimate",
    "ImportanceResult",
    "LossFunction",
    "DegenerateWeightsError",
    "NoFiniteStartError",
    "log_posterior_unnorm",
    "sample",
    "posterior_mean",
    "bayes_estimate",
    "importance_expectation",
    "squared_error_loss",
    "absolute_error_loss",
    "huber_loss",
]

_LOG_2PI = math.log(2.0 * math.pi)


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed onto too few draws to be usable."""


class NoFiniteStartError(RuntimeError):
    """The sampler found no starting point with a finite posterior density."""


@dataclass(frozen=True)
class GaussianPrior:
    """Multivariate normal prior (also used as an importance proposal)."""

    mean: np.ndarray
    covariance: np.ndarray

    is_proper = True

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean length")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("prior covariance must be positive definite") from exc
        if not np.isfinite(chol).all():
            raise ValueError("prior covariance must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        object.__setattr__(self, "_log_norm", -0.5 * (mean.size * _LOG_2PI + logdet))

    @classmethod
    def isotropic(cls, mean, sd: float) -> "GaussianPrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(mean, sd**2 * np.eye(mean.size))

    def log_density(self, theta) -> float:
        return float(self.log_density_batch(np.atleast_2d(theta))[0])

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        dev = np.atleast_2d(thetas) - self.mean[None, :]
        if not np.isfinite(dev).all():
            raise ValueError("array must not contain infs or NaNs")
        # The C-ordered lower factor, transposed, is the Fortran-ordered upper
        # factor: for dim > 1 this is the LAPACK call that
        # solve_triangular(chol, dev.T, lower=True) makes, without its
        # per-call wrapper cost (for dim = 1 both multiply by the reciprocal
        # of the 1x1 factor, which differs from a division in the last bit).
        # dev is a temporary, so it is solved in place.
        y, info = dtrtrs(self._chol.T, dev.T, lower=False, trans=1, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
        return self._log_norm - 0.5 * np.sum(y * y, axis=0)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self._chol @ rng.standard_normal(self.mean.size)

    def sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        z = rng.standard_normal((m, self.mean.size))
        return self.mean[None, :] + z @ self._chol.T


@dataclass(frozen=True)
class UniformBoxPrior:
    """Flat prior on an axis-aligned box (log density 0 inside, -inf outside)."""

    lower: np.ndarray
    upper: np.ndarray

    is_proper = True

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box bounds must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def log_density(self, theta) -> float:
        return float(self.log_density_batch(np.atleast_2d(theta))[0])

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        inside = np.all((thetas >= self.lower) & (thetas <= self.upper), axis=1)
        return np.where(inside, 0.0, -np.inf)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)

    def sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(m, self.lower.size))


class FlatPrior:
    """Improper flat prior.  Allowed for sampling, rejected where a finite
    prior integral is required (Laplace approximations)."""

    is_proper = False

    def log_density(self, theta) -> float:
        return 0.0

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        return np.zeros(np.atleast_2d(thetas).shape[0])

    def sample(self, rng):
        raise TypeError("the improper flat prior cannot be sampled")


@dataclass(frozen=True)
class SamplerConfig:
    """Random-walk Metropolis settings.

    ``chain_length`` counts post-burn-in iterations; every ``thinning``-th of
    them is retained, so the chain holds chain_length // thinning draws.  The
    seed is mandatory: there is no wall-clock default anywhere.
    ``proposal_scale``, when set, replaces the curvature-based proposal with
    an isotropic Gaussian of that standard deviation.
    """

    seed: int
    chain_length: int = 50_000
    burn_in: int = 5_000
    thinning: int = 1
    proposal_scale: float | None = None

    def __post_init__(self) -> None:
        if self.chain_length < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("invalid sampler configuration")
        if self.chain_length // self.thinning < 1:
            raise ValueError("chain_length must be at least thinning")


@dataclass(frozen=True)
class PosteriorChain:
    """Retained draws from one random-walk Metropolis run."""

    draws: np.ndarray
    log_post_values: np.ndarray
    acceptance_rate: float
    seed: int
    alpha: float
    burn_in: int
    thinning: int
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.draws.ndim != 2 or self.draws.shape[0] < 1:
            raise ValueError("a chain needs at least one draw")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")
        if not np.all(np.isfinite(self.draws)):
            raise ValueError("chain draws must be finite")

    @property
    def size(self) -> int:
        return self.draws.shape[0]

    def to_csv(self, path) -> None:
        """Write one row per draw: index, parameter coordinates, log posterior."""
        dim = self.draws.shape[1]
        header = ["draw"] + [f"theta_{j}" for j in range(dim)] + ["log_posterior"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for k in range(self.size):
                cells = [str(k)]
                cells += [repr(float(v)) for v in self.draws[k]]
                cells.append(repr(float(self.log_post_values[k])))
                fh.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class PosteriorMeanEstimate:
    """Componentwise posterior mean with batch-means Monte Carlo errors."""

    estimate: np.ndarray
    standard_error: np.ndarray


@dataclass(frozen=True)
class ImportanceResult:
    """Self-normalized importance-sampling estimate with its diagnostics."""

    estimate: np.ndarray
    effective_sample_size: float
    standard_error: np.ndarray


@dataclass(frozen=True)
class LossFunction:
    """Scalar-parameter loss L(theta, t) with derivatives in t.

    All three callables must broadcast over a numpy array of parameter draws
    in their first argument.
    """

    evaluate: callable
    d1: callable
    d2: callable


def squared_error_loss() -> LossFunction:
    return LossFunction(
        evaluate=lambda th, t: (t - th) ** 2,
        d1=lambda th, t: 2.0 * (t - th),
        d2=lambda th, t: 2.0 * np.ones_like(np.asarray(th, dtype=float)),
    )


def absolute_error_loss() -> LossFunction:
    return LossFunction(
        evaluate=lambda th, t: np.abs(t - th),
        d1=lambda th, t: np.sign(t - th),
        d2=lambda th, t: np.zeros_like(np.asarray(th, dtype=float)),
    )


def huber_loss(delta: float) -> LossFunction:
    def _eval(th, t):
        r = np.abs(t - th)
        return np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))

    return LossFunction(
        evaluate=_eval,
        d1=lambda th, t: np.clip(t - th, -delta, delta),
        d2=lambda th, t: (np.abs(t - th) <= delta).astype(float),
    )


def _log_posterior_rows(model, data_or_spec, thetas, alpha: float, log_base):
    """Add the objective Q to a caller's (m,) log base in place; return it.

    Q is the observed-data objective for a ``Dataset`` and the population
    objective for a true-distribution spec.  A row whose base is not finite
    or that lies outside ``model.in_support`` gets -inf and is never passed
    to the objective.  The base is a log prior, or a log prior minus a
    proposal density: floating-point addition is not associative, so each
    caller keeps its own order of terms.
    """
    ok = np.isfinite(log_base) & model.in_support(thetas)
    log_base[~ok] = -np.inf
    if ok.any():
        rows = thetas if ok.all() else thetas[ok]
        if isinstance(data_or_spec, Dataset):
            q = alpha_likelihood_batch(model, data_or_spec, rows, alpha)
        else:
            q = alpha_likelihood_functional_batch(model, data_or_spec, rows, alpha)
        log_base[ok] += q
    return log_base


def _normalised_weights(log_w: np.ndarray, context: str):
    """Self-normalised importance weights and their effective sample size
    (sum w)^2 / sum w^2; ``DegenerateWeightsError``, its message ending in
    ``context``, when no weight is finite or the size is below 50."""
    if not np.isfinite(log_w).any():
        raise DegenerateWeightsError(f"no draw has a finite weight{context}")
    w = np.exp(log_w - np.max(log_w))
    total = float(w.sum())
    ess = total**2 / float(np.sum(w * w))
    if ess < 50.0:
        raise DegenerateWeightsError(f"effective sample size {ess:.1f} < 50{context}")
    return w / total, ess


#: Covariance inflation of the first importance proposal; each retry doubles it.
_BASE_INFLATION = 1.5


class _TwoScaleProposal:
    """Gaussian center-scale mixture; the wide component guards the tails."""

    def __init__(self, mean, cov, wide_factor: float = 4.0, wide_weight: float = 0.15):
        self.narrow = GaussianPrior(mean, cov)
        self.wide = GaussianPrior(mean, wide_factor**2 * np.atleast_2d(cov))
        self.log_wts = np.log([1.0 - wide_weight, wide_weight])

    def sample_batch(self, rng, m):
        pick = rng.random(m) < math.exp(self.log_wts[1])
        draws = self.narrow.sample_batch(rng, m)
        wide = self.wide.sample_batch(rng, m)
        draws[pick] = wide[pick]
        return draws

    def log_density_batch(self, thetas):
        a = self.log_wts[0] + self.narrow.log_density_batch(thetas)
        b = self.log_wts[1] + self.wide.log_density_batch(thetas)
        return np.logaddexp(a, b)


def _importance_sample(model, data_or_spec, prior, alpha, center, curvature, rng, m: int):
    """(draws, weights, effective sample size, inflation) from the two-scale
    proposal at ``center`` with covariance inflation^2 inv(``curvature``).
    Draws outside ``model.in_support`` are dropped, the rest weighted by
    (log prior + Q) - log proposal.  The inflation is ``_BASE_INFLATION``,
    doubled after each ``DegenerateWeightsError``, twice at most."""
    cov = np.linalg.inv(curvature)
    cov = 0.5 * (cov + cov.T)
    for retry in range(3):
        inflation = _BASE_INFLATION * 2.0**retry
        proposal = _TwoScaleProposal(center, inflation**2 * cov)
        draws = proposal.sample_batch(rng, m)
        draws = draws[model.in_support(draws)]
        log_w = prior.log_density_batch(draws)
        _log_posterior_rows(model, data_or_spec, draws, alpha, log_w)
        log_w -= proposal.log_density_batch(draws)
        try:
            return (draws, *_normalised_weights(log_w, f" with inflation {inflation:g}"), inflation)
        except DegenerateWeightsError:
            if retry == 2:
                raise


def log_posterior_unnorm(
    model: ModelFamily, data: Dataset, prior, theta, alpha: float
) -> float:
    """Unnormalized log pseudo-posterior Q(theta) + log pi(theta)."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))[None, :]
    log_prior = prior.log_density_batch(thetas)
    return float(_log_posterior_rows(model, data, thetas, alpha, log_prior)[0])


def _proposal_factor(model, data, alpha, theta_hat, config, warnings):
    dim = model.dim
    if config.proposal_scale is not None:
        return config.proposal_scale * np.eye(dim)
    curv = -alpha_likelihood(model, data, theta_hat, alpha, derivatives=True).hessian
    ridge = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(curv + ridge * np.eye(dim))
            break
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-8 * max(np.trace(curv) / dim, 1.0))
            warnings.append("curvature not positive definite; proposal regularized")
    scale = 2.38 / math.sqrt(dim)
    return scale * np.linalg.inv(chol).T


def sample(
    model: ModelFamily,
    data: Dataset,
    prior,
    alpha: float,
    config: SamplerConfig,
    start=None,
) -> PosteriorChain:
    """Run random-walk Metropolis on the pseudo-posterior.

    The walk starts at the divergence-objective maximizer unless ``start``
    is given (a fit that did not converge raises
    ``mdpde.FitNotConvergedError``); if the posterior is not finite there,
    up to 1000 prior draws are tried before giving up.  An acceptance rate
    outside [0.05, 0.7] is recorded as a warning on the chain, not an
    exception.
    """
    model.validate_data(data)
    rng = np.random.default_rng(config.seed)
    warnings: list[str] = []

    x = data.responses
    scale_index = model.scale_index

    # One row per step: through the batch rule _log_posterior_rows a step costs ~40% more.
    def logpost(theta: np.ndarray) -> float:
        lp = prior.log_density(theta)
        if not math.isfinite(lp):
            return -np.inf
        if scale_index is not None and theta[scale_index] <= 0.0:
            return -np.inf
        return model.summed_q_value(x, theta, alpha) + lp

    if start is not None:
        current = model.validate_theta(np.asarray(start, dtype=float))
    else:
        current = mdpde.fit(model, data, alpha).converged_estimate()
    cur_lp = logpost(current)
    tries = 0
    while not np.isfinite(cur_lp):
        if not getattr(prior, "is_proper", False) or tries >= 1000:
            raise NoFiniteStartError("could not find a starting point with finite posterior")
        current = prior.sample(rng)
        cur_lp = logpost(current)
        tries += 1

    # Anchor the proposal at the (finite-posterior) starting point.
    factor = _proposal_factor(model, data, alpha, current, config, warnings)
    total = config.burn_in + config.chain_length
    steps = rng.standard_normal((total, model.dim)) @ factor.T
    log_uniforms = np.log(rng.random(total))

    kept = config.chain_length // config.thinning
    draws = np.empty((kept, model.dim))
    log_posts = np.empty(kept)
    accepted_main = 0
    k = 0
    for it in range(total):
        candidate = current + steps[it]
        cand_lp = logpost(candidate)
        if cand_lp - cur_lp > log_uniforms[it]:
            current, cur_lp = candidate, cand_lp
            if it >= config.burn_in:
                accepted_main += 1
        if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0 and k < kept:
            draws[k] = current
            log_posts[k] = cur_lp
            k += 1

    rate = accepted_main / config.chain_length
    if not 0.05 <= rate <= 0.7:
        warnings.append(f"acceptance rate {rate:.3f} outside [0.05, 0.70]")
    return PosteriorChain(
        draws=draws,
        log_post_values=log_posts,
        acceptance_rate=rate,
        seed=config.seed,
        alpha=alpha,
        burn_in=config.burn_in,
        thinning=config.thinning,
        warnings=tuple(warnings),
    )


def posterior_mean(chain: PosteriorChain) -> PosteriorMeanEstimate:
    """Componentwise chain mean with batch-means standard errors."""
    draws = chain.draws
    m = draws.shape[0]
    est = draws.mean(axis=0)
    batch = max(int(math.floor(math.sqrt(m))), 1)
    n_batches = m // batch
    if n_batches < 2:
        return PosteriorMeanEstimate(estimate=est, standard_error=np.zeros_like(est))
    trimmed = draws[: n_batches * batch].reshape(n_batches, batch, -1)
    means = trimmed.mean(axis=1)
    se = means.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return PosteriorMeanEstimate(estimate=est, standard_error=se)


def bayes_estimate(chain: PosteriorChain, loss: LossFunction, component: int = 0) -> float:
    """Minimize the Monte Carlo average loss over the action t.

    Newton iteration from the posterior mean; when the averaged second
    derivative is not positive (non-smooth losses such as absolute error)
    the minimization falls back to bounded scalar search over the draw range.
    """
    draws = chain.draws[:, component]
    t = float(draws.mean())
    trace = [t]
    for _ in range(100):
        g = float(np.mean(loss.d1(draws, t)))
        h = float(np.mean(loss.d2(draws, t)))
        if h <= 0.0:
            break
        step = g / h
        t -= step
        trace.append(t)
        if abs(step) < 1e-12 * (1.0 + abs(t)) and abs(g) < 1e-9:
            return t
    # Bounded fallback on the Monte Carlo objective.
    lo, hi = float(draws.min()), float(draws.max())
    if lo == hi:
        return lo
    res = optimize.minimize_scalar(
        lambda s: float(np.mean(loss.evaluate(draws, s))),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if not res.success:
        raise RuntimeError(
            f"loss minimization failed after Newton trace {trace[-5:]}: {res.message}"
        )
    return float(res.x)


def importance_expectation(
    model: ModelFamily,
    data_or_spec,
    prior,
    alpha: float,
    h,
    proposal: GaussianPrior,
    m: int,
    seed: int,
) -> ImportanceResult:
    """Self-normalized importance-sampling posterior expectation of h(theta).

    Weights are proportional to exp(Q) pi / proposal-density, with Q the
    observed-data objective for a ``Dataset`` and the population objective
    for a true-distribution spec.  Reports the effective sample size
    (sum w)^2 / sum w^2 and raises ``DegenerateWeightsError`` below 50.
    """
    if m < 1000:
        raise ValueError("importance sampling needs at least 1000 draws")
    rng = np.random.default_rng(seed)
    draws = proposal.sample_batch(rng, m)
    log_w = prior.log_density_batch(draws) - proposal.log_density_batch(draws)
    _log_posterior_rows(model, data_or_spec, draws, alpha, log_w)
    w_norm, ess = _normalised_weights(log_w, "; proposal does not cover the posterior")
    values = np.asarray(h(draws), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    est = w_norm @ values
    dev = values - est[None, :]
    se = np.sqrt(np.sum((w_norm[:, None] * dev) ** 2, axis=0))
    return ImportanceResult(
        estimate=est, effective_sample_size=float(ess), standard_error=se
    )
