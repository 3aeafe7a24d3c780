"""Pseudo-posterior evaluation, sampling, and estimators."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import solve_triangular

from dpdbayes import (
    Dataset,
    DegenerateWeightsError,
    FitNotConvergedError,
    FlatPrior,
    GaussianPrior,
    InModel,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    SamplerConfig,
    UniformBoxPrior,
    absolute_error_loss,
    alpha_likelihood,
    alpha_likelihood_batch,
    bayes_estimate,
    huber_loss,
    importance_expectation,
    laplace_expectation,
    log_posterior_unnorm,
    posterior_mean,
    sample,
    squared_error_loss,
)
from dpdbayes import fit as fit_mdpde
from dpdbayes.posterior import PosteriorChain, _importance_sample, _log_posterior_rows


class _SolveTriangularPrior(GaussianPrior):
    """Reference density: the same formula through scipy's ``solve_triangular``."""

    def log_density_batch(self, thetas):
        dev = np.atleast_2d(thetas) - self.mean[None, :]
        y = solve_triangular(self._chol, dev.T, lower=True)
        return self._log_norm - 0.5 * np.sum(y * y, axis=0)


def _separated_logistic():
    x = np.linspace(-1.0, 1.0, 30)
    design = np.column_stack([np.ones(30), x])
    return Logistic(design), Dataset((x > 0.0).astype(float), design)


def _reference_importance(model, data, prior, alpha, proposal, m, seed):
    """Importance estimate, SE, ESS and draws in the order of terms written
    before the shared log-posterior rule: (log prior - log proposal) + Q,
    with Q evaluated on every draw and masked afterwards."""
    draws = proposal.sample_batch(np.random.default_rng(seed), m)
    log_w = prior.log_density_batch(draws) - proposal.log_density_batch(draws)
    valid = np.isfinite(log_w) & model.in_support(draws)
    q = alpha_likelihood_batch(model, data, np.where(valid[:, None], draws, 1.0), alpha)
    log_w = np.where(valid, log_w + np.where(valid, q, -np.inf), -np.inf)
    log_w -= np.max(log_w)
    w = np.exp(log_w)
    total = float(w.sum())
    ess = total**2 / float(np.sum(w * w))
    w_norm = w / total
    est = w_norm @ draws
    se = np.sqrt(np.sum((w_norm[:, None] * (draws - est[None, :])) ** 2, axis=0))
    return est, se, ess, draws


@pytest.fixture(scope="module")
def small_location():
    design = np.ones((30, 1))
    model = LinearKnownSigma(design, 1.0)
    gen = np.random.default_rng(55)
    data = Dataset(model.sample_responses([5.0], gen), design)
    prior = GaussianPrior([5.0], [[1.0]])
    return model, data, prior


@pytest.fixture(scope="module")
def conjugate_chain(small_location):
    model, data, prior = small_location
    cfg = SamplerConfig(seed=17, chain_length=20_000, burn_in=2_000)
    return sample(model, data, prior, 0.0, cfg)


class TestPriors:
    def test_gaussian_log_density(self):
        prior = GaussianPrior([1.0, -1.0], np.diag([4.0, 9.0]))
        theta = np.array([2.0, 0.5])
        expected = (
            -0.5 * (2 * math.log(2 * math.pi) + math.log(36.0))
            - 0.5 * (1.0 / 4.0 + 2.25 / 9.0)
        )
        assert prior.log_density(theta) == pytest.approx(expected, abs=1e-12)

    def test_gaussian_requires_spd(self):
        with pytest.raises(ValueError):
            GaussianPrior([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("dim", [1, 2, 11])
    def test_gaussian_batch_bit_identical_to_solve_triangular(self, dim):
        gen = np.random.default_rng(40 + dim)
        root = gen.standard_normal((dim, dim))
        prior = GaussianPrior(gen.standard_normal(dim), root @ root.T + 0.5 * np.eye(dim))
        reference = _SolveTriangularPrior(prior.mean, prior.covariance)
        for m in (1, 2048):
            thetas = 3.0 * gen.standard_normal((m, dim))
            before = thetas.copy()
            got = prior.log_density_batch(thetas)
            assert np.array_equal(got, reference.log_density_batch(thetas))
            assert np.array_equal(thetas, before)
        assert prior.log_density(thetas[0]) == float(got[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_non_finite_row_raises(self, bad):
        prior = GaussianPrior([0.0, 1.0], np.eye(2))
        thetas = np.zeros((3, 2))
        thetas[1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            prior.log_density_batch(thetas)
        with pytest.raises(ValueError, match="prior covariance must be"):
            GaussianPrior([0.0], [[bad]])

    def test_box_prior(self):
        prior = UniformBoxPrior([0.0], [2.0])
        assert prior.log_density(np.array([1.0])) == 0.0
        assert prior.log_density(np.array([3.0])) == -np.inf
        draw = prior.sample(np.random.default_rng(1))
        assert 0.0 <= draw[0] <= 2.0

    def test_flat_prior_cannot_sample(self):
        with pytest.raises(TypeError):
            FlatPrior().sample(np.random.default_rng(0))


class TestLogPosterior:
    def test_flat_prior_gives_objective_exactly(self, small_location):
        model, data, _ = small_location
        theta = np.array([4.0])
        value = log_posterior_unnorm(model, data, FlatPrior(), theta, 0.4)
        assert value == pytest.approx(alpha_likelihood(model, data, theta, 0.4).value)

    def test_outside_box_is_minus_infinity(self, small_location):
        model, data, _ = small_location
        prior = UniformBoxPrior([0.0], [1.0])
        assert log_posterior_unnorm(model, data, prior, np.array([2.0]), 0.2) == -np.inf

    def test_ratio_matches_normalized_quadrature(self, small_location):
        model, data, prior = small_location
        alpha = 0.3
        t1, t2 = np.array([4.8]), np.array([5.3])
        lp1 = log_posterior_unnorm(model, data, prior, t1, alpha)
        lp2 = log_posterior_unnorm(model, data, prior, t2, alpha)

        def density(b):
            return math.exp(
                log_posterior_unnorm(model, data, prior, np.array([b]), alpha) - lp1
            )

        z, _ = integrate.quad(density, 0.0, 10.0, limit=200)
        ratio_norm = (density(t2[0]) / z) / (density(t1[0]) / z)
        assert math.exp(lp2 - lp1) == pytest.approx(ratio_norm, abs=1e-8)



# Coordinates inside and outside the box [-3, 3]; a scale stays clear of 0+,
# where the objective under- and overflows, but is often <= 0.
_COORD = st.floats(-4.0, 4.0)
_SCALE = st.one_of(st.floats(-4.0, 0.0), st.floats(0.2, 4.0))


@pytest.mark.parametrize("kind", ["known", "unknown", "logistic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), alpha=st.sampled_from([0.0, 0.3, 0.8]))
def test_log_posterior_rows_match_row_by_row(
    kind, data, alpha, linear_problem, unknown_sigma_problem, logistic_problem
):
    model, dataset, _ = {
        "known": linear_problem, "unknown": unknown_sigma_problem, "logistic": logistic_problem
    }[kind]
    prior = UniformBoxPrior(-3.0 * np.ones(model.dim), 3.0 * np.ones(model.dim))
    m = data.draw(st.integers(1, 12), label="m")
    cols = [st.lists(_COORD, min_size=m, max_size=m) for _ in range(model.dim)]
    if model.scale_index is not None:
        cols[model.scale_index] = st.lists(_SCALE, min_size=m, max_size=m)
    thetas = np.column_stack([data.draw(c) for c in cols])
    outside = ~(np.all(np.abs(thetas) <= 3.0, axis=1) & model.in_support(thetas))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _log_posterior_rows(model, dataset, thetas, alpha, prior.log_density_batch(thetas))
        single = [log_posterior_unnorm(model, dataset, prior, th, alpha) for th in thetas]
    assert np.array_equal(rows == -np.inf, outside)
    assert np.all(np.isfinite(rows[~outside]))
    np.testing.assert_allclose(rows, single, rtol=1e-12)


class TestSampler:
    def test_conjugate_alpha_zero_mean(self, small_location, conjugate_chain):
        model, data, prior = small_location
        est = posterior_mean(conjugate_chain)
        target = (data.responses.sum() + 5.0) / (model.n + 1.0)
        assert abs(est.estimate[0] - target) < 4 * max(est.standard_error[0], 1e-4)

    def test_seeded_determinism(self, small_location, conjugate_chain):
        model, data, prior = small_location
        cfg = SamplerConfig(seed=17, chain_length=20_000, burn_in=2_000)
        again = sample(model, data, prior, 0.0, cfg)
        assert np.array_equal(again.draws, conjugate_chain.draws)
        assert again.acceptance_rate == conjugate_chain.acceptance_rate

    def test_two_seeds_agree_within_monte_carlo_error(self, small_location, conjugate_chain):
        model, data, prior = small_location
        other = sample(model, data, prior, 0.0, SamplerConfig(seed=18, chain_length=20_000, burn_in=2_000))
        e1, e2 = posterior_mean(conjugate_chain), posterior_mean(other)
        gap = abs(e1.estimate[0] - e2.estimate[0])
        assert gap < 4 * math.hypot(e1.standard_error[0], e2.standard_error[0])

    def test_halves_are_stable(self, conjugate_chain):
        # Geweke-style smoke test on a well-mixed chain.
        half = conjugate_chain.size // 2
        a = conjugate_chain.draws[:half, 0]
        b = conjugate_chain.draws[half:, 0]
        pooled = math.sqrt(a.var() / a.size + b.var() / b.size)
        # Inflate for autocorrelation: batch-means scale instead of naive.
        est = posterior_mean(conjugate_chain)
        z = abs(a.mean() - b.mean()) / max(2 * est.standard_error[0], pooled)
        assert z < 3.0

    def test_contaminated_chain_stays_bounded_at_large_alpha(self):
        design = np.ones((40, 1))
        model = LinearKnownSigma(design, 1.0)
        gen = np.random.default_rng(66)
        x = model.sample_responses([5.0], gen)
        x[:8] = 60.0  # gross outliers
        data = Dataset(x, design)
        prior = GaussianPrior([5.0], [[1.0]])
        cfg = SamplerConfig(seed=7, chain_length=8_000, burn_in=1_000)
        robust = sample(model, data, prior, 0.5, cfg)
        assert np.all(np.abs(robust.draws - 5.0) < 10.0)  # prior mean +- 10 prior sd
        classical = sample(model, data, prior, 0.0, cfg)
        assert posterior_mean(classical).estimate[0] > posterior_mean(robust).estimate[0] + 1.0

    def test_chain_bit_identical_to_solve_triangular_prior(self):
        gen = np.random.default_rng(44)
        design = np.column_stack([np.ones(40), gen.standard_normal(40)])
        model = LinearUnknownSigma(design)
        data = Dataset(model.sample_responses([1.0, -0.5, 0.8], gen), design)
        prior = GaussianPrior([0.0, 0.0, 1.0], np.diag([4.0, 4.0, 1.0]))
        reference = _SolveTriangularPrior(prior.mean, prior.covariance)
        cfg = SamplerConfig(seed=45, chain_length=2000, burn_in=0)
        got = sample(model, data, prior, 0.3, cfg)
        want = sample(model, data, reference, 0.3, cfg)
        assert np.array_equal(got.draws, want.draws)
        assert np.array_equal(got.log_post_values, want.log_post_values)
        assert 0.05 < got.acceptance_rate < 0.7

    def test_flat_fit_refuses_to_start(self):
        model, data = _separated_logistic()
        prior = GaussianPrior([0.0, 0.0], 100.0 * np.eye(2))
        with pytest.raises(FitNotConvergedError, match="did not converge"):
            sample(model, data, prior, 0.3, SamplerConfig(seed=1, chain_length=100, burn_in=0))
        with pytest.raises(FitNotConvergedError, match="did not converge"):
            laplace_expectation(model, data, prior, lambda th: th, 0.3)

    def test_thinning_and_length_contract(self, small_location):
        model, data, prior = small_location
        cfg = SamplerConfig(seed=3, chain_length=1_000, burn_in=100, thinning=10)
        chain = sample(model, data, prior, 0.2, cfg)
        assert chain.size == 100

    def test_acceptance_warning_recorded(self, small_location):
        model, data, prior = small_location
        cfg = SamplerConfig(seed=3, chain_length=2_000, burn_in=100, proposal_scale=50.0)
        chain = sample(model, data, prior, 0.2, cfg)
        assert chain.acceptance_rate < 0.05
        assert any("acceptance rate" in w for w in chain.warnings)

    def test_chain_csv_export(self, tmp_path, conjugate_chain):
        path = tmp_path / "chain.csv"
        conjugate_chain.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "draw,theta_0,log_posterior"
        assert len(lines) == conjugate_chain.size + 1


class TestPosteriorMean:
    def test_chain_mean_matches_quadrature_oracle(self, small_location):
        model, data, prior = small_location
        alpha = 0.3
        chain = sample(
            model, data, prior, alpha, SamplerConfig(seed=31, chain_length=30_000, burn_in=3_000)
        )
        est = posterior_mean(chain)

        def weight(b):
            return math.exp(
                log_posterior_unnorm(model, data, prior, np.array([b]), alpha)
                - log_posterior_unnorm(model, data, prior, np.array([5.0]), alpha)
            )

        norm, _ = integrate.quad(weight, 0.0, 10.0, limit=200)
        num, _ = integrate.quad(lambda b: b * weight(b), 0.0, 10.0, limit=200)
        oracle = num / norm
        assert abs(est.estimate[0] - oracle) < 3 * est.standard_error[0] + 1e-4

    def test_posterior_mean_near_point_estimate_at_root_n_scale(self):
        # The gap between the posterior mean and the objective maximizer
        # vanishes faster than the estimation error itself.
        gen = np.random.default_rng(88)
        n = 200
        design = np.column_stack([np.ones(n), gen.standard_normal(n)])
        model = LinearKnownSigma(design, 1.0)
        data = Dataset(model.sample_responses([5.0, 2.0], gen), design)
        alpha = 0.3
        point = fit_mdpde(model, data, alpha).theta_hat
        prior = GaussianPrior([5.0, 2.0], np.diag([4.0, 4.0]))
        chain = sample(
            model, data, prior, alpha, SamplerConfig(seed=41, chain_length=30_000, burn_in=3_000)
        )
        est = posterior_mean(chain)
        from dpdbayes import InModel, asymptotic_covariance, sandwich

        cov = asymptotic_covariance(sandwich(model, InModel(point), point, alpha), n)
        sd_norm = float(np.linalg.norm(np.sqrt(np.diag(cov) * n)))
        assert np.linalg.norm(est.estimate - point) < 3.0 / math.sqrt(n) * sd_norm

    def test_degenerate_chain_returns_the_draw(self):
        draws = np.full((500, 2), 3.25)
        chain = PosteriorChain(
            draws=draws,
            log_post_values=np.zeros(500),
            acceptance_rate=0.0,
            seed=0,
            alpha=0.1,
            burn_in=0,
            thinning=1,
        )
        est = posterior_mean(chain)
        assert np.allclose(est.estimate, 3.25)
        assert np.allclose(est.standard_error, 0.0)


class TestBayesEstimate:
    def test_squared_error_equals_mean(self, conjugate_chain):
        value = bayes_estimate(conjugate_chain, squared_error_loss())
        assert value == pytest.approx(float(conjugate_chain.draws[:, 0].mean()), abs=1e-9)

    def test_absolute_error_equals_median(self, conjugate_chain):
        value = bayes_estimate(conjugate_chain, absolute_error_loss())
        draws = np.sort(conjugate_chain.draws[:, 0])
        median = float(np.median(draws))
        gap = float(np.max(np.diff(draws)))
        assert abs(value - median) <= gap

    def test_huber_on_bimodal_draws_matches_grid_search(self):
        gen = np.random.default_rng(4)
        draws = np.concatenate([gen.normal(-2, 0.3, 4000), gen.normal(3, 0.3, 6000)])
        chain = PosteriorChain(
            draws=draws[:, None],
            log_post_values=np.zeros(draws.size),
            acceptance_rate=0.3,
            seed=0,
            alpha=0.5,
            burn_in=0,
            thinning=1,
        )
        loss = huber_loss(1.0)
        value = bayes_estimate(chain, loss)
        grid = np.linspace(-4, 5, 9001)
        objective = [float(np.mean(loss.evaluate(draws, t))) for t in grid]
        best = grid[int(np.argmin(objective))]
        assert abs(value - best) <= grid[1] - grid[0]

    def test_loss_derivatives_match_finite_differences(self):
        gen = np.random.default_rng(9)
        draws = gen.normal(0, 1, 64)
        for loss in [squared_error_loss(), huber_loss(0.7)]:
            for t in [-0.9, 0.3, 1.2]:
                fd = (
                    np.mean(loss.evaluate(draws, t + 1e-6))
                    - np.mean(loss.evaluate(draws, t - 1e-6))
                ) / 2e-6
                assert np.mean(loss.d1(draws, t)) == pytest.approx(fd, abs=1e-6)


class TestImportanceSampling:
    def test_constant_function_returns_one(self, small_location):
        model, data, prior = small_location
        proposal = GaussianPrior([5.0], [[0.1]])
        res = importance_expectation(
            model, data, prior, 0.3, lambda th: np.ones(th.shape[0]), proposal, 2000, 1
        )
        assert res.estimate[0] == pytest.approx(1.0, abs=1e-14)

    def test_alpha_zero_matches_analytic_mean(self, small_location):
        model, data, prior = small_location
        target = (data.responses.sum() + 5.0) / (model.n + 1.0)
        proposal = GaussianPrior([target], [[0.2]])
        res = importance_expectation(model, data, prior, 0.0, lambda th: th, proposal, 20_000, 2)
        assert abs(res.estimate[0] - target) < 3 * res.standard_error[0] + 1e-4

    def test_agrees_with_mcmc(self, linear_problem):
        model, data, _ = linear_problem
        prior = GaussianPrior([5.0, 2.0], np.diag([4.0, 4.0]))
        alpha = 0.3
        point = fit_mdpde(model, data, alpha).theta_hat
        proposal = GaussianPrior(point, np.diag([0.05, 0.05]))
        is_res = importance_expectation(model, data, prior, alpha, lambda th: th, proposal, 30_000, 3)
        chain = sample(model, data, prior, alpha, SamplerConfig(seed=4, chain_length=30_000, burn_in=3_000))
        mc = posterior_mean(chain)
        for j in range(2):
            gap = abs(is_res.estimate[j] - mc.estimate[j])
            assert gap < 4 * math.hypot(is_res.standard_error[j], mc.standard_error[j]) + 1e-3

    def test_population_spec_input(self, small_location):
        # With a true-distribution spec the weights use the population
        # objective; for the clean location model the posterior mean sits at
        # the true parameter (up to prior shrinkage toward the same point).
        from dpdbayes import InModel

        model, _, prior = small_location
        spec = InModel(np.array([5.0]))
        proposal = GaussianPrior([5.0], [[0.05]])
        res = importance_expectation(model, spec, prior, 0.4, lambda th: th, proposal, 20_000, 9)
        assert abs(res.estimate[0] - 5.0) < 3 * res.standard_error[0] + 1e-3

    def test_degenerate_weights_raise(self, small_location):
        # A wide proposal centered far away: only its rarest draws carry
        # posterior mass, so the weights collapse onto a handful of points.
        model, data, prior = small_location
        proposal = GaussianPrior([20.0], [[4.0]])
        with pytest.raises(DegenerateWeightsError):
            importance_expectation(model, data, prior, 0.0, lambda th: th, proposal, 1500, 5)

    def test_known_sigma_alpha_zero_keeps_the_order_of_terms(self, small_location):
        model, data, prior = small_location
        proposal = GaussianPrior([5.0], [[0.05]])
        res = importance_expectation(model, data, prior, 0.0, lambda th: th, proposal, 20_000, 1)
        est, se, ess, _ = _reference_importance(model, data, prior, 0.0, proposal, 20_000, 1)
        assert np.array_equal(res.estimate, est)
        assert np.array_equal(res.standard_error, se)
        assert res.effective_sample_size == ess

    def test_scale_outside_support_keeps_the_order_of_terms(self, unknown_sigma_problem):
        model, data, theta = unknown_sigma_problem
        prior = GaussianPrior.isotropic([5.0, 2.0, 1.0], 10.0)
        proposal = GaussianPrior(theta, np.diag([0.05, 0.05, 0.6]))
        res = importance_expectation(model, data, prior, 0.5, lambda th: th, proposal, 20_000, 8)
        est, se, ess, draws = _reference_importance(model, data, prior, 0.5, proposal, 20_000, 8)
        assert np.count_nonzero(draws[:, 2] <= 0.0) > 0
        assert np.array_equal(res.estimate, est)
        assert np.array_equal(res.standard_error, se)
        assert res.effective_sample_size == ess

    def test_no_finite_weight_raises_without_warning(self):
        # Every draw of the proposal lies outside the box prior, so every log
        # weight is -inf; the max shift would give NaN weights.
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        data = Dataset(np.random.default_rng(1).standard_normal(20), np.ones((20, 1)))
        prior = UniformBoxPrior([50.0], [51.0])
        proposal = GaussianPrior([0.0], [[0.05]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateWeightsError, match="no draw has a finite weight"):
                importance_expectation(model, data, prior, 0.3, lambda th: th, proposal, 2000, 1)

    def test_minimum_draw_count(self, small_location):
        model, data, prior = small_location
        proposal = GaussianPrior([5.0], [[0.1]])
        with pytest.raises(ValueError, match="1000"):
            importance_expectation(model, data, prior, 0.3, lambda th: th, proposal, 100, 5)


class TestTwoScaleImportanceSampler:
    """The one proposal and retry rule shared by replication studies and
    population posteriors: inflation 1.5, then 3, then 6."""

    def test_a_too_narrow_proposal_is_widened_once(self):
        # The curvature is 1000 times the posterior's (n + 1 = 21), so the
        # first proposal is about 30 times too narrow.
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        spec, prior = InModel(np.array([5.0])), GaussianPrior([5.0], [[1.0]])
        draws, weights, ess, inflation = _importance_sample(
            model, spec, prior, 0.0, np.array([5.0]), np.array([[21_000.0]]),
            np.random.default_rng(1), 2000,
        )
        assert inflation == 3.0
        assert ess >= 50.0
        assert draws.shape == (2000, 1)
        assert weights.sum() == pytest.approx(1.0)

    def test_the_third_collapse_propagates(self):
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        spec, prior = InModel(np.array([5.0])), GaussianPrior([5.0], [[1.0]])
        with pytest.raises(DegenerateWeightsError, match="with inflation 6$"):
            _importance_sample(
                model, spec, prior, 0.0, np.array([10.0]), np.array([[2100.0]]),
                np.random.default_rng(1), 2000,
            )
