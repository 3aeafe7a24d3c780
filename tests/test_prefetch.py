"""The prefetched Metropolis walk of ``posterior.sample`` against the
one-row-per-step loop it replaced, and the checks it relies on."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpdbayes import (
    Dataset,
    FlatPrior,
    GaussianPrior,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    SamplerConfig,
    UniformBoxPrior,
    importance_expectation,
    laplace_expectation,
    log_posterior_unnorm,
    sample,
)
from dpdbayes import fit as fit_mdpde
from dpdbayes import posterior
from dpdbayes.models import QuadratureFamily


def _sequential_sample(model, data, prior, alpha, config, start=None):
    """Random-walk Metropolis with one log-posterior evaluation per step, as
    ``sample`` ran before it prefetched: (draws, log posteriors, acceptance
    rate, warnings)."""
    rng = np.random.default_rng(config.seed)
    warnings: list[str] = []
    x = data.responses
    scale_index = model.scale_index

    def logpost(theta):
        lp = prior.log_density(theta)
        if not math.isfinite(lp):
            return -np.inf
        if scale_index is not None and theta[scale_index] <= 0.0:
            return -np.inf
        return float(model.summed_q_value_batch(x, theta, alpha)[0]) + lp

    if start is not None:
        current = model.validate_theta(np.asarray(start, dtype=float))
    else:
        current = fit_mdpde(model, data, alpha).converged_estimate()
    cur_lp = logpost(current)
    while not np.isfinite(cur_lp):
        current = prior.sample(rng)
        cur_lp = logpost(current)
    factor = posterior._proposal_factor(model, data, alpha, current, config, warnings)
    total = config.burn_in + config.chain_length
    steps = rng.standard_normal((total, model.dim)) @ factor.T
    log_uniforms = np.log(rng.random(total))
    kept = config.chain_length // config.thinning
    draws = np.empty((kept, model.dim))
    log_posts = np.empty(kept)
    accepted = 0
    k = 0
    for it in range(total):
        candidate = current + steps[it]
        cand_lp = logpost(candidate)
        if cand_lp - cur_lp > log_uniforms[it]:
            current, cur_lp = candidate, cand_lp
            if it >= config.burn_in:
                accepted += 1
        if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0 and k < kept:
            draws[k] = current
            log_posts[k] = cur_lp
            k += 1
    rate = accepted / config.chain_length
    if not 0.05 <= rate <= 0.7:
        warnings.append(f"acceptance rate {rate:.3f} outside [0.05, 0.70]")
    return draws, log_posts, rate, tuple(warnings)


def _assert_same_chain(model, data, prior, alpha, config, start=None):
    chain = sample(model, data, prior, alpha, config, start=start)
    draws, log_posts, rate, warnings = _sequential_sample(model, data, prior, alpha, config, start)
    assert np.array_equal(chain.draws, draws)
    assert np.array_equal(chain.log_post_values, log_posts)
    assert chain.acceptance_rate == rate
    assert chain.warnings == warnings
    return chain


def _location(n: int, seed: int = 0):
    design = np.ones((n, 1))
    model = LinearKnownSigma(design, 1.0)
    data = Dataset(model.sample_responses([5.0], np.random.default_rng(seed)), design)
    return model, data


def _two_coefficients(family, n: int = 60):
    gen = np.random.default_rng(7)
    design = np.column_stack([np.ones(n), gen.standard_normal(n)])
    if family == "unknown":
        model = LinearUnknownSigma(design)
        truth = [1.0, -0.5, 0.8]
    else:
        model = Logistic(design)
        truth = [0.3, -1.0]
    return model, Dataset(model.sample_responses(np.array(truth), gen), design)


# A 1.7^2 prior variance: a row multiplied by 1/1.7 and a row divided by 1.7
# differ in the last bit, so every prior row must be divided alike.
_PRIOR = GaussianPrior([5.0], [[1.7**2]])


@pytest.mark.parametrize("n, depth", [(5, 6), (25, 5), (100, 4), (200, 3), (1000, 2), (4000, 1)])
def test_every_depth_gives_the_sequential_chain(n, depth):
    model, data = _location(n)
    assert posterior._prefetch_depth(model) == depth
    _assert_same_chain(model, data, _PRIOR, 0.3, SamplerConfig(seed=n, chain_length=400, burn_in=7))


@pytest.mark.parametrize("n", [5, 25])
def test_a_prior_far_from_the_data_keeps_its_single_row_bits(n):
    # The log prior is as large as the objective here, so a prior row that
    # is multiplied by 1/3 where a single row is divided by 3 shows.
    model, data = _location(n)
    prior = GaussianPrior([0.0], [[9.0]])
    _assert_same_chain(model, data, prior, 0.3, SamplerConfig(seed=n, chain_length=400, burn_in=7))


@pytest.mark.parametrize("n", [8, 25, 100])
def test_one_coefficient_logistic_chain_runs_at_depth_one(n):
    # Only the known-sigma family's row cost is measured, so only it prefetches.
    design = np.linspace(-1.0, 1.0, n)[:, None]
    model = Logistic(design)
    data = Dataset(model.sample_responses(np.array([1.0]), np.random.default_rng(n)), design)
    assert posterior._prefetch_depth(model) == 1
    prior = GaussianPrior([0.0], [[9.0]])
    _assert_same_chain(model, data, prior, 0.4, SamplerConfig(seed=9, chain_length=800, burn_in=9), [0.5])


@pytest.mark.parametrize("n", [25, 100, 200])
@pytest.mark.parametrize("burn_in, chain_length", [(7, 3), (7, 4), (0, 1)])
def test_a_run_shorter_than_or_not_a_multiple_of_the_depth(n, burn_in, chain_length):
    model, data = _location(n)
    _assert_same_chain(
        model, data, _PRIOR, 0.3, SamplerConfig(seed=2, chain_length=chain_length, burn_in=burn_in)
    )


def test_thinning_with_a_partial_last_stride():
    model, data = _location(25)
    config = SamplerConfig(seed=4, chain_length=1000, burn_in=11, thinning=3)
    assert config.chain_length % config.thinning != 0
    chain = _assert_same_chain(model, data, _PRIOR, 0.3, config)
    assert chain.size == 333


class _CountingBox(UniformBoxPrior):
    """A box prior that counts the zero-density rows it is asked about."""

    outside = 0

    def log_density_batch(self, thetas):
        values = super().log_density_batch(thetas)
        type(self).outside += int(np.sum(values == -np.inf))
        return values


def test_box_edge_near_the_mode_puts_minus_infinity_rows_in_batches():
    model, data = _location(25)
    theta_hat = fit_mdpde(model, data, 0.3).theta_hat[0]
    # The posterior sd is about 0.2 and the proposal sd about 0.5.
    prior = _CountingBox([theta_hat - 0.3], [theta_hat + 3.0])
    _CountingBox.outside = 0
    chain = sample(model, data, prior, 0.3, SamplerConfig(seed=5, chain_length=2000, burn_in=50))
    assert _CountingBox.outside > 100
    assert np.all(chain.draws >= theta_hat - 0.3)
    _assert_same_chain(model, data, prior, 0.3, SamplerConfig(seed=5, chain_length=2000, burn_in=50))


def test_low_acceptance_is_still_recorded():
    model, data = _location(25)
    config = SamplerConfig(seed=6, chain_length=2000, burn_in=100, proposal_scale=50.0)
    chain = _assert_same_chain(model, data, _PRIOR, 0.3, config)
    assert chain.acceptance_rate < 0.05
    assert any("acceptance rate" in w for w in chain.warnings)


@pytest.mark.parametrize("family", ["unknown", "logistic"])
def test_two_coefficient_chains_run_at_depth_one_unchanged(family):
    model, data = _two_coefficients(family)
    assert posterior._prefetch_depth(model) == 1
    prior = GaussianPrior.isotropic(np.append(np.zeros(2), [1.0] * (model.dim - 2)), 3.0)
    _assert_same_chain(model, data, prior, 0.4, SamplerConfig(seed=8, chain_length=800, burn_in=30))


@pytest.mark.parametrize("family", ["unknown", "logistic"])
def test_two_coefficient_chains_thin_with_a_partial_last_stride(family):
    model, data = _two_coefficients(family)
    prior = GaussianPrior.isotropic(np.append(np.zeros(2), [1.0] * (model.dim - 2)), 3.0)
    config = SamplerConfig(seed=15, chain_length=401, burn_in=23, thinning=3)
    assert config.chain_length % config.thinning != 0
    chain = _assert_same_chain(model, data, prior, 0.4, config)
    assert chain.draws.shape == (133, model.dim)


def test_a_quadrature_family_runs_at_depth_one():
    class Location(QuadratureFamily):
        @property
        def dim(self):
            return 1

        def support(self):
            return -np.inf, np.inf

        def log_density_scalar(self, i, x, theta):
            return -0.5 * (x - theta[0]) ** 2 - 0.5 * math.log(2.0 * math.pi)

        def in_model_psi_omega(self, theta, alpha):
            raise NotImplementedError

        def sample_responses(self, theta, rng):
            raise NotImplementedError

    assert posterior._prefetch_depth(Location(np.ones((5, 1)))) == 1


# ---- the calls the walk makes ------------------------------------------------


def _spy_on_kernel(monkeypatch, model, check_rows=None):
    calls = []
    kernel = model.summed_q_value_batch

    def spy(x, thetas, alpha):
        calls.append(thetas.shape[0])
        if check_rows is not None:
            check_rows(thetas)
        return kernel(x, thetas, alpha)

    monkeypatch.setattr(model, "summed_q_value_batch", spy)
    return calls


def test_one_kernel_call_per_block(monkeypatch):
    model, data = _location(25)
    depth = posterior._prefetch_depth(model)
    assert depth > 1
    config = SamplerConfig(seed=9, chain_length=1000, burn_in=103, proposal_scale=0.5)
    calls = _spy_on_kernel(monkeypatch, model)
    sample(model, data, _PRIOR, 0.3, config, start=[5.0])
    total = config.burn_in + config.chain_length
    assert len(calls) == 1 + math.ceil(total / depth)
    assert calls[0] == 1 and max(calls) == 2**depth - 1


@pytest.mark.parametrize("family", ["location", "unknown"])
def test_no_zero_density_row_reaches_the_kernel(monkeypatch, family):
    # Blocks of rows at depth 5, and single rows at depth 1.
    if family == "location":
        model, data = _location(25)
        start = np.array([5.2])
    else:
        model, data = _two_coefficients("unknown")
        start = np.array([1.0, -0.5, 0.8])
    lower, upper = start - 0.3, start + 0.4
    prior = UniformBoxPrior(lower, upper)

    def inside(thetas):
        assert np.all((thetas >= lower) & (thetas <= upper))

    calls = _spy_on_kernel(monkeypatch, model, inside)
    config = SamplerConfig(seed=10, chain_length=500, burn_in=0, proposal_scale=1.0)
    sample(model, data, prior, 0.3, config, start=start)
    depth = posterior._prefetch_depth(model)
    assert 0 < sum(calls) < (2**depth - 1) * math.ceil(500 / depth)


def test_no_row_outside_the_parameter_space_reaches_the_kernel(monkeypatch):
    model, data = _two_coefficients("unknown")
    prior = UniformBoxPrior([-10.0, -10.0, -5.0], [10.0, 10.0, 5.0])

    def in_support(thetas):
        assert np.all(thetas[:, model.scale_index] > 0.0)

    _spy_on_kernel(monkeypatch, model, in_support)
    config = SamplerConfig(seed=11, chain_length=300, burn_in=0, proposal_scale=2.0)
    chain = sample(model, data, prior, 0.3, config, start=[1.0, -0.5, 0.8])
    assert np.all(chain.draws[:, 2] > 0.0)


# ---- priors ------------------------------------------------------------------


def test_one_parameter_prior_rows_are_divided_row_by_row():
    # A 1.7^2 variance: a multiplication by 1/1.7 differs from a division.
    thetas = 5.0 + 3.0 * np.random.default_rng(12).standard_normal((63, 1))
    sd = math.sqrt(1.7**2)
    divided = []
    for t in thetas[:, 0]:
        y = (t - 5.0) / sd
        divided.append(-0.5 * (posterior._LOG_2PI + 2.0 * math.log(sd)) - 0.5 * (y * y))
    assert np.array_equal(_PRIOR.log_density_batch(thetas), divided)
    assert [_PRIOR.log_density(row) for row in thetas] == divided
    thetas[2, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _PRIOR.log_density_batch(thetas)


@pytest.mark.parametrize(
    "prior",
    [
        GaussianPrior([0.0], [[4.0]]),
        UniformBoxPrior([-5.0], [5.0]),
        GaussianPrior.isotropic(np.zeros(3), 2.0),
        UniformBoxPrior(-np.ones(3), np.ones(3)),
    ],
)
def test_a_prior_of_the_wrong_dimension_is_refused(prior):
    gen = np.random.default_rng(13)
    design = np.column_stack([np.ones(30), gen.standard_normal(30)])
    model = LinearKnownSigma(design, 1.0)
    data = Dataset(model.sample_responses([1.0, 2.0], gen), design)
    message = f"prior has dimension {prior.dim} but the model has 2 parameters"
    proposal = GaussianPrior([1.0, 2.0], 0.1 * np.eye(2))
    calls = [
        lambda: sample(model, data, prior, 0.3, SamplerConfig(seed=1, chain_length=50, burn_in=0)),
        lambda: log_posterior_unnorm(model, data, prior, [1.0, 2.0], 0.3),
        lambda: importance_expectation(model, data, prior, 0.3, lambda t: t, proposal, 1000, 1),
        lambda: laplace_expectation(model, data, prior, lambda t: t, 0.3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_the_flat_prior_fits_every_dimension():
    model, data = _two_coefficients("logistic")
    chain = sample(model, data, FlatPrior(), 0.3, SamplerConfig(seed=14, chain_length=200, burn_in=0))
    assert chain.draws.shape == (200, 2)
    assert math.isfinite(log_posterior_unnorm(model, data, FlatPrior(), [0.3, -1.0], 0.3))
