"""The robustified pseudo-posterior: evaluation, sampling, and estimators.

The pseudo-posterior is proportional to exp(Q(theta)) pi(theta), where Q is
the power-divergence objective; at a = 0 it reduces to the ordinary Bayes
posterior.  Because Q is bounded for a > 0, the posterior is proper only
under a proper prior; the improper flat prior is accepted here for completeness
but the downstream integral approximations refuse it.

Sampling is random-walk Metropolis with a Gaussian proposal whose
covariance defaults to 2.38^2/p times the inverse observed curvature at the
point estimate.  Chains are bit-reproducible for a fixed seed.  A
one-parameter known-sigma chain prefetches (Brockwell 2006): one
log-posterior call evaluates every candidate the next k steps could
propose, 2^k - 1 rows, and the accept/reject path is read off it; the chain
is the one that one call per step would give, bit for bit.  Other chains
make one call per step: a block of rows with two or more parameters
differs from single rows in the last bits, and the other families' row
cost is not measured.  A one-parameter walk keeps its states and
candidates as Python floats, whose addition is numpy's, so a step makes
no numpy call apart from its share of the log-posterior call; with more
parameters each candidate is a (1, dim) row passed to the call as it is.

Posterior expectations can also be computed without a chain through
self-normalized importance sampling, from a caller's Gaussian proposal or
from the defensive two-scale proposal that data and population posteriors
share.  One step, ``_weigh``, weighs the draws of either into a
``WeightedDraws``, whose methods give weighted means, variances and
covariances with block standard errors; an importance-sampling estimate
is an ``Estimate``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtrs

from . import mdpde
from .alpha_likelihood import (
    _objective_rows,
    alpha_likelihood,
    alpha_likelihood_functional_batch,
)
from .models import Dataset, LinearKnownSigma, ModelFamily, _check_alpha

__all__ = [
    "GaussianPrior",
    "UniformBoxPrior",
    "FlatPrior",
    "SamplerConfig",
    "PosteriorChain",
    "PosteriorMeanEstimate",
    "Estimate",
    "WeightedDraws",
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


def _check_integers(**values) -> None:
    """Refuse a named value that is not a Python or numpy integer, and a
    negative ``seed``, naming it."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if values["seed"] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {values['seed']}")


def _check_draw_count(name: str, **values) -> None:
    """``_check_integers``, then refuse an importance draw count ``name`` below 1000."""
    _check_integers(**values)
    if values[name] < 1000:
        raise ValueError(f"{name} must be at least 1000 for importance sampling, got {values[name]}")


def _check_component(component, dim: int) -> None:
    """Refuse a parameter coordinate that is not an integer in [0, dim)."""
    integer = isinstance(component, (int, np.integer)) and not isinstance(component, bool)
    if not (integer and 0 <= component < dim):
        raise ValueError(f"component must be an integer in [0, dim) for dim = {dim}, got {component!r}")


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
        if not np.isfinite(mean).all():
            raise ValueError("prior mean must be finite")
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

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def isotropic(cls, mean, sd: float) -> "GaussianPrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(mean, sd**2 * np.eye(mean.size))

    def log_density(self, theta) -> float:
        return float(self.log_density_batch(np.atleast_2d(theta))[0])

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        if thetas.shape[1:] != self.mean.shape:
            raise ValueError(f"prior rows need dim = {self.dim} coordinates, got {thetas.shape}")
        dev = thetas - self.mean[None, :]
        # A finite sum needs finite terms; the full test runs only without one.
        if not (math.isfinite(dev.sum()) or np.isfinite(dev).all()):
            raise ValueError("array must not contain infs or NaNs")
        if self.mean.size == 1:
            # Divide, as dtrtrs does for one row but not for a block, in
            # place: the operations of log_norm - 0.5 * y * y.
            y = dev[:, 0]
            y /= self._chol[0, 0]
            y *= y
            y *= -0.5
            y += self._log_norm
            return y
        # The C-ordered lower factor, transposed, is the Fortran-ordered upper
        # factor: this is the LAPACK call that
        # solve_triangular(chol, dev.T, lower=True) makes, without its
        # per-call wrapper cost.  dev is a temporary, so it is solved in place.
        y, info = dtrtrs(self._chol.T, dev.T, lower=False, trans=1, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
        return self._log_norm - 0.5 * (y * y).sum(axis=0)

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
        if lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ValueError("box bounds must be finite and satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

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
    posterior integral is required (Laplace approximations, and importance
    sampling at a > 0).  It has no dimension and fits every model."""

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
    seed is mandatory: there is no wall-clock default anywhere.  The seed is
    a non-negative integer and the lengths are integers, Python or numpy;
    other values raise ``ValueError`` naming the field.
    ``proposal_scale``, when set, replaces the curvature-based proposal with
    an isotropic Gaussian of that standard deviation, a finite number > 0.
    """

    seed: int
    chain_length: int = 50_000
    burn_in: int = 5_000
    thinning: int = 1
    proposal_scale: float | None = None

    def __post_init__(self) -> None:
        _check_integers(seed=self.seed, chain_length=self.chain_length,
                        burn_in=self.burn_in, thinning=self.thinning)
        if self.chain_length < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("invalid sampler configuration")
        if self.chain_length // self.thinning < 1:
            raise ValueError("chain_length must be at least thinning")
        scale = self.proposal_scale
        if scale is not None and not 0.0 < scale < math.inf:
            raise ValueError(f"proposal_scale must be a finite number > 0, got {scale}")


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
class Estimate:
    """A Monte Carlo estimate with its standard error and the effective
    sample size of the importance weights behind it."""

    estimate: np.ndarray
    standard_error: np.ndarray
    effective_sample_size: float


@dataclass(frozen=True)
class WeightedDraws:
    """Self-normalized importance draws from a proposal at ``center``, with
    the sampler's ``warnings``: the result of every importance sample.  Its
    methods give weighted means, variances and covariances of per-draw
    values, a covariance with the standard error of ten block values."""

    draws: np.ndarray  # (m, dim)
    weights: np.ndarray  # normalized, sums to one
    effective_sample_size: float
    center: np.ndarray
    warnings: tuple[str, ...] = ()

    def mean(self, values=None):
        """Weighted mean of per-draw ``values``, of the draws by default."""
        return self.weights @ (self.draws if values is None else values)

    def moments(self, values) -> tuple[float, np.ndarray, float]:
        """(mean, values - mean, variance) of per-draw scalar ``values``."""
        mean = float(self.weights @ values)
        centered = values - mean
        return mean, centered, float(self.weights @ centered**2)

    def variance(self, values) -> float:
        """Weighted variance of per-draw scalar ``values``."""
        return self.moments(values)[2]

    @cached_property
    def _halves(self):  # once per sample: a pif grid splits at every point
        w1, w2 = np.split(self.weights, [self.weights.size // 2])
        return w1, w2, float(w1.sum()), float(w2.sum())

    def split_difference(self, values) -> float:
        """Weighted mean of per-draw ``values`` over the first half of the
        draws minus that over the second, each half's weights normalized."""
        w1, w2, tot1, tot2 = self._halves
        return float(w1 @ values[: w1.size]) / tot1 - float(w2 @ values[w1.size :]) / tot2

    def blocks(self):
        """Ten contiguous draw blocks with positive total weight, as pairs of
        (slice, weights normalized within the block); the blocks are
        ``np.array_split``'s."""
        each, extra = divmod(self.weights.size, 10)
        blocks, start = [], 0
        for b in range(10):
            block = slice(start, start + each + (b < extra))
            start = block.stop
            wb = self.weights[block]
            tot = wb.sum()
            if tot > 0.0:
                blocks.append((block, wb / tot))
        return blocks

    def deviations(self, deviation=lambda draws, w: draws - w @ draws):
        """(u, [(slice, w_b, u_b) per block]), u = w deviation(draws, w): the
        side of every weighted covariance with a score s, which is then
        (s - w.s) u.  Made once, for every score whose covariance is wanted.
        The default deviation, theta - w.theta, gives the covariance with
        the parameter."""

        def weighted(rows, wr):
            u = deviation(self.draws[rows], wr)
            u *= wr[:, None]
            return u

        return weighted(slice(None), self.weights), [(b, wb, weighted(b, wb)) for b, wb in self.blocks()]

    def covariance(self, deviations, scores) -> Estimate:
        """The covariance (s - w.s) u of per-draw ``scores`` with the side
        ``deviations`` made, and the standard error of its block values
        (s_b - w_b.s_b) u_b; neither moves with the level of s."""
        u, blocks = deviations
        value = (scores - float(self.weights @ scores)) @ u
        block_values = np.array([(scores[b] - float(wb @ scores[b])) @ ub for b, wb, ub in blocks])
        error = block_values.std(axis=0, ddof=1) / math.sqrt(len(blocks))
        return Estimate(value, error, self.effective_sample_size)


@dataclass(frozen=True)
class LossFunction:
    """Scalar-parameter loss L(theta, t) with derivatives in t and its action.

    ``evaluate``, ``d1`` and ``d2`` must broadcast over a numpy array of
    parameter draws in their first argument.  ``action(draws, weights)``
    returns the exact minimiser over t of sum_i w_i L(theta_i, t); a
    user-built loss supplies its own, as no numerical search stands in.
    """

    evaluate: callable
    d1: callable
    d2: callable
    action: callable


def squared_error_loss() -> LossFunction:
    return LossFunction(
        evaluate=lambda th, t: (t - th) ** 2,
        d1=lambda th, t: 2.0 * (t - th),
        d2=lambda th, t: 2.0 * np.ones_like(np.asarray(th, dtype=float)),
        action=lambda draws, weights: float(weights @ draws),
    )


def _weighted_median(draws: np.ndarray, weights: np.ndarray) -> float:
    """The smallest draw with at least half the weight at or below it, or
    the midpoint between it and the next positive-weight draw when the
    draws up to it carry exactly half.

    The weights below and above each draw are summed separately, each from
    its own end, so an even number of equal weights splits exactly and the
    result is ``np.median``'s.
    """
    keep = weights > 0.0
    order = np.argsort(draws[keep], kind="stable")
    x, w = draws[keep][order], weights[keep][order]
    below, above = np.cumsum(w), np.cumsum(w[::-1])[::-1]
    enough = below[:-1] >= above[1:]
    if not enough.any():
        return float(x[-1])
    j = int(np.argmax(enough))
    return float(0.5 * (x[j] + x[j + 1])) if below[j] == above[j + 1] else float(x[j])


def absolute_error_loss() -> LossFunction:
    return LossFunction(
        evaluate=lambda th, t: np.abs(t - th),
        d1=lambda th, t: np.sign(t - th),
        d2=lambda th, t: np.zeros_like(np.asarray(th, dtype=float)),
        action=_weighted_median,
    )


def _huber_root(draws: np.ndarray, weights: np.ndarray, delta: float) -> float:
    """The root of the weighted Huber slope s(t) = sum_i w_i clip(t - theta_i,
    -delta, delta), which never decreases and is linear between the sorted
    kinks theta_i -+ delta.

    Bisection over the kinks evaluates s directly, not as cumulative sums,
    which cancel at large shifts.  A run of kinks where |s| is within the
    round-off bound m eps delta sum(w) is a flat set of minimisers, and its
    midpoint is returned; otherwise the root is solved for on the one
    segment where s changes sign.
    """
    kinks = np.sort(np.concatenate([draws - delta, draws + delta]))

    def slope(t) -> float:
        return float(weights @ np.clip(t - draws, -delta, delta))

    roundoff = draws.size * np.finfo(float).eps * delta * float(weights.sum())
    lo = bisect.bisect_left(kinks, True, key=lambda t: slope(t) >= -roundoff)
    hi = bisect.bisect_left(kinks, True, key=lambda t: slope(t) > roundoff)
    if hi - lo >= 2:
        return float(0.5 * (kinks[lo] + kinks[hi - 1]))
    if hi > lo and slope(kinks[lo]) < 0.0:  # the one kink near zero is below the root
        lo = hi
    a, b = kinks[lo - 1], kinks[lo]
    sa, sb = slope(a), slope(b)
    return float(a + (b - a) * (-sa / (sb - sa)))


def huber_loss(delta: float) -> LossFunction:
    def _eval(th, t):
        r = np.abs(t - th)
        return np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))

    return LossFunction(
        evaluate=_eval,
        d1=lambda th, t: np.clip(t - th, -delta, delta),
        d2=lambda th, t: (np.abs(t - th) <= delta).astype(float),
        action=lambda draws, weights: _huber_root(draws, weights, delta),
    )


def _check_inputs(model, data_or_spec, prior, alpha: float) -> None:
    """The checks that ``_log_posterior_rows`` leaves to its callers, made
    once per public call: alpha, the data against the design, and the
    prior's dimension (a prior without a ``dim``, the flat prior, fits
    every model)."""
    _check_alpha(alpha)
    if isinstance(data_or_spec, Dataset):
        model.validate_data(data_or_spec)
    size = getattr(prior, "dim", None)
    if size is not None and size != model.dim:
        raise ValueError(f"prior has dimension {size} but the model has {model.dim} parameters")


def _check_proper(prior, alpha: float) -> None:
    """Refuse an improper prior at a > 0, where exp(Q) stays bounded away
    from zero as |theta| grows and the posterior has no finite integral."""
    if alpha > 0.0 and not getattr(prior, "is_proper", False):
        raise ValueError(f"the posterior at alpha = {alpha:g} > 0 needs a proper prior")


def _log_posterior_rows(model, data_or_spec, thetas, alpha: float, log_base):
    """Add the objective Q to a caller's (m,) log base in place; return it.

    ``thetas`` is an (m, dim) float array, and the caller has made the
    checks of ``_check_inputs``.  Q is the observed-data objective for a
    ``Dataset`` and the population objective for a true-distribution spec.
    A row whose base is not finite or that lies outside ``model.in_support``
    gets -inf and is never passed to the objective.  Every caller passes a
    log prior, so every posterior value is (log prior + Q) in that order.
    """
    if thetas.shape[0] == 1:
        # A chain step at depth 1: scalar forms of the two tests (the
        # support is the sign of the scale coordinate), not array calls.
        scale = model.scale_index
        if not (math.isfinite(log_base[0]) and (scale is None or thetas[0, scale] > 0.0)):
            log_base[0] = -np.inf
            return log_base
        ok = None
    else:
        ok = np.isfinite(log_base)
        if model.scale_index is not None:
            ok &= model.in_support(thetas)
        if np.count_nonzero(ok) == ok.size:
            ok = None
        else:
            log_base[~ok] = -np.inf
            if not ok.any():
                return log_base
            thetas = thetas[ok]
    if isinstance(data_or_spec, Dataset):
        q = _objective_rows(model, data_or_spec, thetas, alpha)
    else:
        q = alpha_likelihood_functional_batch(model, data_or_spec, thetas, alpha)
    if ok is None:
        log_base += q
    else:
        log_base[ok] += q
    return log_base


#: Covariance inflation of the first importance proposal; each retry doubles it.
_BASE_INFLATION = 1.5
#: Scale factor and mixture weight of the two-scale proposal's wide component.
_WIDE_FACTOR = 4.0
_WIDE_WEIGHT = 0.15


class _TwoScaleProposal:
    """Gaussian center-scale mixture; the wide component guards the tails."""

    def __init__(self, mean, cov):
        self.narrow = GaussianPrior(mean, cov)
        self.wide = GaussianPrior(mean, _WIDE_FACTOR**2 * np.atleast_2d(cov))
        self.log_wts = np.log([1.0 - _WIDE_WEIGHT, _WIDE_WEIGHT])

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


def _weigh(model, data_or_spec, prior, alpha, proposal, rng, m, center, context: str, warnings=()):
    """The one importance weight step: ``WeightedDraws`` of the ``m`` draws of
    ``proposal`` inside ``model.in_support``, weighted by (log prior + Q) -
    log proposal.  ``DegenerateWeightsError``, its message ending in
    ``context``, when no weight is finite or the effective sample size
    (sum w)^2 / sum w^2 is below 50.  The caller checks the inputs."""
    draws = proposal.sample_batch(rng, m)
    draws = draws[model.in_support(draws)]
    log_w = prior.log_density_batch(draws)
    _log_posterior_rows(model, data_or_spec, draws, alpha, log_w)
    log_w -= proposal.log_density_batch(draws)
    if not np.isfinite(log_w).any():
        raise DegenerateWeightsError(f"no draw has a finite weight{context}")
    w = np.exp(log_w - np.max(log_w))
    total = float(w.sum())
    ess = total**2 / float(np.sum(w * w))
    if ess < 50.0:
        raise DegenerateWeightsError(f"effective sample size {ess:.1f} < 50{context}")
    return WeightedDraws(draws, w / total, ess, center, warnings)


def _importance_sample(model, data_or_spec, prior, alpha, center, curvature, rng, m: int, warnings=()):
    """``_weigh`` of the two-scale proposal at ``center`` with covariance
    inflation^2 inv(``curvature``).  The inflation is ``_BASE_INFLATION``,
    doubled after each ``DegenerateWeightsError``, twice at most.  The
    caller's ``warnings`` are kept, and the accepted inflation noted after
    them when they exist or it is not the first."""
    _check_inputs(model, data_or_spec, prior, alpha)
    cov = np.linalg.inv(curvature)
    cov = 0.5 * (cov + cov.T)
    for retry in range(3):
        inflation = _BASE_INFLATION * 2.0**retry
        proposal = _TwoScaleProposal(center, inflation**2 * cov)
        notes = (*warnings, f"weights accepted at proposal inflation {inflation:g}")
        try:
            return _weigh(model, data_or_spec, prior, alpha, proposal, rng, m, center,
                          f" with inflation {inflation:g}", notes if warnings or retry else ())
        except DegenerateWeightsError:
            if retry == 2:
                raise


def log_posterior_unnorm(
    model: ModelFamily, data: Dataset, prior, theta, alpha: float
) -> float:
    """Unnormalized log pseudo-posterior Q(theta) + log pi(theta)."""
    _check_inputs(model, data, prior, alpha)
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))[None, :]
    log_prior = prior.log_density_batch(thetas)
    return float(_log_posterior_rows(model, data, thetas, alpha, log_prior)[0])


def _proposal_factor(model, data, alpha, theta_hat, config, warnings):
    dim = model.dim
    if config.proposal_scale is not None:
        return config.proposal_scale * np.eye(dim)
    curv = -alpha_likelihood(model, data, theta_hat, alpha, derivatives=True).hessian
    if not np.isfinite(curv).all():  # no ridge makes it positive definite
        raise mdpde.SingularHessianError("curvature at the chain's start is not finite")
    ridge = 0.0
    while not mdpde._is_pd(curv + ridge * np.eye(dim)):
        ridge = max(ridge * 10.0, 1e-8 * max(np.trace(curv) / dim, 1.0))
    if ridge > 0.0:
        warnings.append(
            f"curvature not positive definite; proposal regularized with ridge {ridge:.3g}"
        )
    chol = np.linalg.cholesky(curv + ridge * np.eye(dim))
    scale = 2.38 / math.sqrt(dim)
    return scale * np.linalg.inv(chol).T


#: Cost of one log-posterior call of m rows at n observations, in (row,
#: observation) elements: about 30 µs per call plus 10 ns per element.  On a
#: known-sigma location chain (a = 0.3, one BLAS thread, 2-vCPU VM, 11k
#: steps, 3k at n = 10000) the depth this gives took this share of the CPU
#: time of one call per step, as the median ratio of 10 alternating pairs,
#: in two sessions: n = 25, k = 5: 0.42, 0.42; n = 100, k = 4: 0.52, 0.49;
#: n = 400, k = 3: 0.63, 0.63; n = 2000, k = 2: 0.84, 0.90; n = 10000,
#: k = 1: 0.97, 0.96.  Depths one off the pick differed from it by less than
#: the run-to-run spread of the host (up to 15%).
_CALL_COST_ELEMENTS = 3000
#: Deepest prefetch: 2^6 - 1 = 63 rows per call.
_MAX_DEPTH = 6


def _prefetch_depth(model) -> int:
    """Steps of a chain decided per log-posterior call: the depth k that
    minimises the fitted cost per step, (call + n (2^k - 1) elements) / k.

    The cost was fitted on the one-parameter known-sigma family, and only
    that family prefetches; other families run at depth 1 until their own
    row cost is measured.  With d >= 2 a block of rows goes through gemm
    and a single row through gemv, whose results differ in the last bits,
    so the chain would change.
    """
    if model.dim != 1 or not isinstance(model, LinearKnownSigma):
        return 1
    return min(
        range(1, _MAX_DEPTH + 1),
        key=lambda k: (_CALL_COST_ELEMENTS + model.n * ((1 << k) - 1)) / k,
    )


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
    _check_inputs(model, data, prior, alpha)
    rng = np.random.default_rng(config.seed)
    warnings: list[str] = []

    def log_post(rows: np.ndarray) -> list[float]:
        return _log_posterior_rows(model, data, rows, alpha, prior.log_density_batch(rows)).tolist()

    if start is not None:
        current = model.validate_theta(np.asarray(start, dtype=float))[None, :]
    else:
        current = mdpde.fit(model, data, alpha).converged_estimate()[None, :]
    (cur_lp,) = log_post(current)
    tries = 0
    while not np.isfinite(cur_lp):
        if not getattr(prior, "is_proper", False) or tries >= 1000:
            raise NoFiniteStartError("could not find a starting point with finite posterior")
        current = np.atleast_2d(np.asarray(prior.sample(rng), dtype=float))
        (cur_lp,) = log_post(current)
        tries += 1

    # Anchor the proposal at the (finite-posterior) starting point.
    factor = _proposal_factor(model, data, alpha, current[0], config, warnings)
    burn_in, thinning = config.burn_in, config.thinning
    total = burn_in + config.chain_length
    steps = rng.standard_normal((total, model.dim)) @ factor.T
    log_uniforms = np.log(rng.random(total)).tolist()
    depth = _prefetch_depth(model)
    # One parameter: states and candidates are Python floats, whose addition
    # is numpy's.  More (depth 1): the one candidate is a (1, dim) row.
    scalar = model.dim == 1
    if scalar:
        state, steps = float(current[0, 0]), steps[:, 0].tolist()
    else:
        state, steps = current, steps[:, None, :]
    kept_states, kept_lps = [], []
    next_kept = burn_in
    accepted = 0
    for block in range(0, total, depth):
        stop = min(block + depth, total)
        # The candidates of steps block..stop-1 as a binary heap: node i is
        # proposed from the state its accept history reaches, and its
        # children are the next step's candidates after a rejection (2i + 1)
        # and after an acceptance (2i + 2).  ``parents`` holds the states the
        # next level is proposed from: each node's own state for its reject
        # child, then its candidate for its accept child.
        parents = [state]
        level = rows = [state + steps[block]]
        for ahead in range(block + 1, stop):
            parents = [x for pair in zip(parents, level) for x in pair]
            step = steps[ahead]
            level = [x + step for x in parents]
            rows = rows + level
        lps = log_post(np.array(rows)[:, None] if scalar else rows[0])
        node = 0
        for it in range(block, stop):
            if lps[node] - cur_lp > log_uniforms[it]:
                state, cur_lp = rows[node], lps[node]
                node = 2 * node + 2
                if it >= burn_in:
                    accepted += 1
            else:
                node = 2 * node + 1
            if it == next_kept:
                kept_states.append(state)
                kept_lps.append(cur_lp)
                next_kept += thinning

    # A partial last stride keeps one state too many.
    kept = config.chain_length // thinning
    draws = np.array(kept_states[:kept]).reshape(kept, model.dim)
    log_posts = np.array(kept_lps[:kept])
    rate = accepted / config.chain_length
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
    """Componentwise chain mean with batch-means standard errors; a chain
    of one draw has no error estimate and raises ``ValueError``."""
    draws = chain.draws
    m = draws.shape[0]
    batch = max(int(math.floor(math.sqrt(m))), 1)
    n_batches = m // batch
    if n_batches < 2:
        raise ValueError(f"batch-means standard errors need at least 2 draws; the chain has {m}")
    est = draws.mean(axis=0)
    trimmed = draws[: n_batches * batch].reshape(n_batches, batch, -1)
    means = trimmed.mean(axis=1)
    se = means.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return PosteriorMeanEstimate(estimate=est, standard_error=se)


def bayes_estimate(chain: PosteriorChain, loss: LossFunction, component: int = 0) -> float:
    """The action t minimising the Monte Carlo average loss over the chain's
    draws of one component: ``loss.action`` with equal weights, which is
    exact for every built-in loss (the mean, the median, the Huber root).
    A ``component`` that is not an integer in [0, dim) raises ``ValueError``.
    """
    _check_component(component, chain.draws.shape[1])
    draws = chain.draws[:, component]
    return loss.action(draws, np.full(draws.size, 1.0 / draws.size))


def importance_expectation(
    model: ModelFamily,
    data_or_spec,
    prior,
    alpha: float,
    h,
    proposal: GaussianPrior,
    m: int,
    seed: int,
) -> Estimate:
    """Self-normalized importance-sampling posterior expectation of h(theta).

    The ``m`` draws of ``proposal`` are weighted as every importance sample
    is: those outside the parameter space are dropped, the rest weighted by
    exp(Q) pi / proposal density, and ``h`` sees the kept draws only.  An
    effective sample size below 50 raises ``DegenerateWeightsError``.
    ``ValueError``, naming the argument, refuses before any draw an
    improper prior at a > 0, a proposal whose dimension is not the
    model's, an ``m`` that is not an integer of at least 1000 and a
    ``seed`` that is not a non-negative integer; after the draws, it
    refuses an ``h`` that does not give one value or one row per kept draw.
    """
    _check_draw_count("m", m=m, seed=seed)
    _check_proper(prior, alpha)
    _check_inputs(model, data_or_spec, prior, alpha)
    if proposal.dim != model.dim:
        raise ValueError(f"proposal has dimension {proposal.dim} but the model has {model.dim} parameters")
    sample = _weigh(model, data_or_spec, prior, alpha, proposal, np.random.default_rng(seed), m,
                    proposal.mean, "; proposal does not cover the posterior")
    values = np.asarray(h(sample.draws), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[0] != len(sample.draws):
        raise ValueError(f"h must give one value or one row per draw: {len(sample.draws)} draws, "
                         f"got shape {values.shape}")
    est = sample.mean(values)
    se = np.sqrt(np.sum((sample.weights[:, None] * (values - est[None, :])) ** 2, axis=0))
    return Estimate(estimate=est, standard_error=se, effective_sample_size=sample.effective_sample_size)
