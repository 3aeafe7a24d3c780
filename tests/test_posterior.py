"""Pseudo-posterior evaluation, sampling, and estimators."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    SingularHessianError,
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
    posterior_mean_replications,
    sample,
    squared_error_loss,
)
from dpdbayes import fit as fit_mdpde
from dpdbayes.robustness import McConfig, functional_posterior_sample
from dpdbayes.posterior import (
    LossFunction,
    PosteriorChain,
    _importance_sample,
    _log_posterior_rows,
)


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

    @pytest.mark.parametrize(
        "mean, row",
        [([0.0], [1.0, 2.0, 3.0]), ([0.0, 1.0], [1.0, 2.0, 3.0]), ([0.0, 1.0], [[1.0], [2.0]])],
        ids=["one-parameter", "two-parameter", "one-column"],
    )
    def test_gaussian_refuses_rows_of_another_length(self, mean, row):
        prior = GaussianPrior(mean, np.eye(len(mean)))
        message = f"prior rows need dim = {len(mean)} coordinates"
        with pytest.raises(ValueError, match=message):
            prior.log_density_batch(np.array(row))
        with pytest.raises(ValueError, match=message):
            prior.log_density(row)

    def test_gaussian_requires_spd(self):
        with pytest.raises(ValueError):
            GaussianPrior([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("dim", [2, 11])
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

    def test_one_parameter_block_rows_equal_single_row_solves(self):
        # A 1.7^2 variance: a multiplication by 1/1.7 differs from a division.
        prior = GaussianPrior([5.0], [[1.7**2]])
        reference = _SolveTriangularPrior(prior.mean, prior.covariance)
        thetas = 5.0 + 3.0 * np.random.default_rng(41).standard_normal((2048, 1))
        got = prior.log_density_batch(thetas)
        single = [reference.log_density_batch(row)[0] for row in thetas]
        assert np.array_equal(got, single)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_non_finite_row_raises(self, bad):
        prior = GaussianPrior([0.0, 1.0], np.eye(2))
        thetas = np.zeros((3, 2))
        thetas[1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            prior.log_density_batch(thetas)
        with pytest.raises(ValueError, match="prior covariance must be"):
            GaussianPrior([0.0], [[bad]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_prior_refuses_a_non_finite_mean(self, bad):
        with pytest.raises(ValueError, match="prior mean must be finite"):
            GaussianPrior([bad], [[1.0]])
        with pytest.raises(ValueError, match="prior mean must be finite"):
            GaussianPrior.isotropic([0.0, bad], 2.0)

    def test_box_prior(self):
        prior = UniformBoxPrior([0.0], [2.0])
        assert prior.log_density(np.array([1.0])) == 0.0
        assert prior.log_density(np.array([3.0])) == -np.inf
        draw = prior.sample(np.random.default_rng(1))
        assert 0.0 <= draw[0] <= 2.0

    @pytest.mark.parametrize(
        "lower, upper", [([np.nan], [1.0]), ([0.0], [np.nan]), ([-np.inf], [0.0]), ([0.0, 0.0], [1.0, np.inf])]
    )
    def test_box_prior_refuses_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            UniformBoxPrior(lower, upper)

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
    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_config_refuses_a_proposal_scale_that_is_not_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="proposal_scale"):
            SamplerConfig(seed=1, proposal_scale=scale)

    @pytest.mark.parametrize(
        "field, value",
        [("chain_length", 100.5), ("burn_in", 10.5), ("thinning", 2.0), ("seed", 1.5), ("seed", True)],
    )
    def test_config_refuses_a_setting_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SamplerConfig(**{"seed": 1, field: value})

    def test_config_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SamplerConfig(seed=-1)

    def test_config_takes_numpy_integers(self):
        config = SamplerConfig(
            seed=np.uint32(7), chain_length=np.int64(40), burn_in=np.int32(3), thinning=np.int16(2)
        )
        assert (config.seed, config.chain_length, config.burn_in, config.thinning) == (7, 40, 3, 2)

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

    def test_regularized_proposal_warns_once(self):
        # Between two clusters of responses the a = 0.9 objective curves upward.
        design = np.ones((30, 1))
        model = LinearKnownSigma(design, 1.0)
        noise = 0.1 * np.random.default_rng(2).standard_normal(30)
        data = Dataset(np.repeat([0.0, 8.0], 15) + noise, design)
        prior = GaussianPrior([4.0], [[100.0]])
        cfg = SamplerConfig(seed=1, chain_length=200, burn_in=0)
        chain = sample(model, data, prior, 0.9, cfg, start=[4.0])
        regularized = [w for w in chain.warnings if "regularized" in w]
        assert regularized == ["curvature not positive definite; proposal regularized with ridge 1"]

    def test_a_curvature_that_is_not_finite_is_refused(self, small_location):
        _, data, prior = small_location

        class NanHessian(LinearKnownSigma):
            def loss_derivative_sums(self, x, theta, alpha, rows=slice(None)):
                grad, hess = super().loss_derivative_sums(x, theta, alpha, rows)
                return grad, np.full_like(hess, np.nan)

        model = NanHessian(data.design, 1.0)
        cfg = SamplerConfig(seed=1, chain_length=50, burn_in=0)
        with pytest.raises(SingularHessianError, match="not finite"):
            sample(model, data, prior, 0.3, cfg, start=[5.0])

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

    def test_a_one_draw_chain_has_no_error_estimate(self):
        chain = PosteriorChain(
            draws=np.array([[3.25, 1.0]]),
            log_post_values=np.zeros(1),
            acceptance_rate=0.0,
            seed=0,
            alpha=0.1,
            burn_in=0,
            thinning=1,
        )
        with pytest.raises(ValueError, match="at least 2 draws; the chain has 1$"):
            posterior_mean(chain)


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

    @pytest.mark.parametrize("component", [-1, 1, 5, 0.0, True])
    def test_a_component_outside_the_parameters_is_refused(self, conjugate_chain, component):
        match = rf"component must be an integer in \[0, dim\) for dim = 1, got {component!r}$"
        with pytest.raises(ValueError, match=match):
            bayes_estimate(conjugate_chain, squared_error_loss(), component=component)

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


def _chain_of(draws):
    return PosteriorChain(
        draws=draws[:, None],
        log_post_values=np.zeros(draws.size),
        acceptance_rate=0.3,
        seed=0,
        alpha=0.5,
        burn_in=0,
        thinning=1,
    )


_LOSSES = {
    "squared": lambda scale: squared_error_loss(),
    "absolute": lambda scale: absolute_error_loss(),
    "huber": huber_loss,
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    loss=st.sampled_from(sorted(_LOSSES)),
    seed=st.integers(0, 2**16),
    shift=st.sampled_from([0.0, 1e6, 1e8, -3e8]),
    scale=st.sampled_from([1e-12, 1e-9, 1.0, 1e6]),
)
@example(loss="squared", seed=0, shift=1e8, scale=1.0)
@example(loss="absolute", seed=0, shift=0.0, scale=1e-12)
@example(loss="huber", seed=0, shift=-3e8, scale=1e6)
@example(loss="huber", seed=2, shift=0.0, scale=1e-12)
def test_bayes_estimate_moves_with_the_draws(loss, seed, shift, scale):
    # Below this scale the draws' own rounding at the shift exceeds 1e-6 of it.
    assume(scale >= 1e6 * np.finfo(float).eps * abs(shift))
    z = np.random.default_rng(seed).standard_normal(1000)
    moved = (bayes_estimate(_chain_of(shift + scale * z), _LOSSES[loss](scale)) - shift) / scale
    if loss == "absolute":
        # With an even number of draws every point between the middle two
        # minimises the average absolute error.
        middle = np.sort(z)[499:501]
        assert middle[0] - 1e-6 <= moved <= middle[1] + 1e-6
    else:
        assert abs(moved - bayes_estimate(_chain_of(z), _LOSSES[loss](1.0))) <= 1e-6


@pytest.mark.parametrize("shift", [0.0, 1e6, -3e8])
def test_absolute_error_estimate_is_the_midpoint_of_the_middle_draws(shift):
    # With 2000 draws every point between the middle two minimises the
    # average absolute error; the estimate is their midpoint, np.median's
    # convention, whatever point of the interval the search stops at.
    draws = shift + np.random.default_rng(13).standard_normal(2000)
    assert bayes_estimate(_chain_of(draws), absolute_error_loss()) == np.median(draws)


def test_absolute_error_action_of_an_odd_count_is_the_middle_draw():
    draws = np.array([3.0, 1.0, 2.0])
    assert absolute_error_loss().action(draws, np.full(3, 1.0 / 3.0)) == 2.0


def test_absolute_error_action_skips_draws_without_weight():
    # The draws at 1 and 3 carry half the weight each: every point between
    # them minimises, whatever weightless draw lies in between.
    draws = np.array([1.0, 1.5, 3.0])
    assert absolute_error_loss().action(draws, np.array([0.5, 0.0, 0.5])) == 2.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    count=st.integers(1, 40),
    shift=st.sampled_from([0.0, 1e6, -3e8]),
    equal=st.booleans(),
)
def test_absolute_error_action_is_an_exact_shift_equivariant_weighted_median(
    seed, count, shift, equal
):
    gen = np.random.default_rng(seed)
    draws = gen.standard_normal(count)
    moved = shift + draws
    assume(np.unique(moved).size == count)  # the shift merges no two draws
    weights = np.full(count, 1.0 / count) if equal else gen.random(count) + 0.01
    loss = absolute_error_loss()
    action = loss.action(moved, weights)
    if equal:
        assert action == np.median(moved)
    else:
        # A middle draw, picked by the weights alone: the shift commutes.
        assert action == loss.action(draws, weights) + shift
    # No draw gives a smaller weighted loss.
    risk = lambda t: float(weights @ np.abs(moved - t))  # noqa: E731
    assert risk(action) <= min(risk(t) for t in moved) * (1.0 + 2 * count * np.finfo(float).eps)


@pytest.mark.parametrize("seed", [1, 2, 7, 8])
def test_squared_error_action_is_the_weighted_mean_bit_for_bit(seed):
    # Draws on which a Newton step from the weighted mean moves it by round-off.
    gen = np.random.default_rng(seed)
    draws = 3.0 + gen.standard_normal(1000)
    equal = np.full(1000, 1.0 / 1000)
    assert bayes_estimate(_chain_of(draws), squared_error_loss()) == float(equal @ draws)
    weights = gen.random(1000) + 0.01
    weights /= weights.sum()
    assert squared_error_loss().action(draws, weights) == float(weights @ draws)


def _huber_root_error(draws, weights, delta, t):
    """|s(t)| / s'(t) for the weighted Huber slope s, or inf where s' is 0."""
    loss = huber_loss(delta)
    curvature = float(weights @ loss.d2(draws, t))
    slope = abs(float(weights @ loss.d1(draws, t)))
    return slope / curvature if curvature > 0.0 else math.inf


def test_huber_action_on_bimodal_draws_is_a_root_to_round_off():
    gen = np.random.default_rng(4)
    draws = np.concatenate([gen.normal(-2, 0.3, 4000), gen.normal(3, 0.3, 6000)])
    value = bayes_estimate(_chain_of(draws), huber_loss(1.0))
    assert _huber_root_error(draws, np.full(draws.size, 1e-4), 1.0, value) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    count=st.integers(1, 300),
    delta=st.sampled_from([0.01, 0.3, 1.0, 10.0]),
    bimodal=st.booleans(),
    equal=st.booleans(),
)
def test_huber_action_is_a_root_of_the_weighted_slope(seed, count, delta, bimodal, equal):
    gen = np.random.default_rng(seed)
    draws = gen.standard_normal(count) + (np.where(gen.random(count) < 0.4, -2.0, 3.0) if bimodal else 0.0)
    weights = np.full(count, 1.0 / count) if equal else gen.random(count) + 0.01
    action = huber_loss(delta).action(draws, weights)
    slope = float(weights @ np.clip(action - draws, -delta, delta))
    if float(weights @ (np.abs(action - draws) <= delta)) == 0.0:
        # A flat set of minimisers: the slope vanishes to its round-off.
        assert abs(slope) <= count * np.finfo(float).eps * delta * float(weights.sum())
    else:
        assert _huber_root_error(draws, weights, delta, action) <= 1e-12 * delta


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_huber_action_on_a_flat_run_is_its_midpoint(shift):
    # Every t in [1, 9] (plus the shift) minimises; the run's midpoint is 5.
    draws = shift + np.array([0.0, 10.0])
    assert huber_loss(1.0).action(draws, np.array([0.5, 0.5])) == 5.0 + shift


def test_a_loss_without_an_action_is_refused():
    loss = squared_error_loss()
    with pytest.raises(TypeError):
        LossFunction(loss.evaluate, loss.d1, loss.d2)


class _NoObjective(LinearKnownSigma):
    """A location model whose objective kernels must not be called."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the objective was evaluated")

    summed_q_value_batch = loss_derivative_sums = _refuse
    log_power_expectation_batch = log_density_expectation_batch = _refuse


class TestImproperPriorRefusal:
    """For a > 0, exp(Q) stays bounded away from zero as |theta| grows, so a
    flat prior leaves the posterior improper: every importance-sampling
    route refuses it before evaluating an objective."""

    def _routes(self, alpha):
        model = _NoObjective(np.ones((30, 1)), 1.0)
        data = Dataset(np.random.default_rng(1).normal(5.0, 1.0, 30), model.design)
        return {
            "importance_expectation": lambda: importance_expectation(
                model, InModel([5.0]), FlatPrior(), alpha, lambda th: th,
                GaussianPrior([5.0], [[0.05]]), 2000, 1,
            ),
            "importance_expectation-data": lambda: importance_expectation(
                model, data, FlatPrior(), alpha, lambda th: th,
                GaussianPrior([5.0], [[0.05]]), 2000, 1,
            ),
            "functional_posterior_sample": lambda: functional_posterior_sample(
                model, InModel([5.0]), FlatPrior(), alpha, McConfig(seed=1, draws=1000)
            ),
            "posterior_mean_replications": lambda: posterior_mean_replications(
                model, [5.0], alpha, 3, 1, prior=FlatPrior()
            ),
        }

    @pytest.mark.parametrize("alpha", [1e-9, 0.3])
    @pytest.mark.parametrize(
        "route",
        ["importance_expectation", "importance_expectation-data",
         "functional_posterior_sample", "posterior_mean_replications"],
    )
    def test_refused_before_any_objective_call(self, route, alpha):
        with pytest.raises(ValueError, match="needs a proper prior"):
            self._routes(alpha)[route]()

    def test_alpha_zero_keeps_the_flat_prior(self):
        model = LinearKnownSigma(np.ones((30, 1)), 1.0)
        proposal = GaussianPrior([5.0], [[0.05]])
        res = importance_expectation(
            model, InModel([5.0]), FlatPrior(), 0.0, lambda th: th, proposal, 2000, 1
        )
        assert np.all(np.isfinite(res.estimate))


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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"proposal": GaussianPrior(np.zeros(3), np.eye(3))},
             r"proposal has dimension 3 but the model has 2 parameters"),
            ({"m": 2000.5}, r"m must be an integer, got 2000\.5"),
            ({"m": True}, r"m must be an integer, got True"),
            ({"seed": -1}, r"seed must be a non-negative integer, got -1"),
            ({"seed": 1.0}, r"seed must be an integer, got 1\.0"),
        ],
    )
    def test_bad_arguments_are_refused_before_any_draw(self, linear_problem, monkeypatch, change, message):
        model, data, _ = linear_problem
        prior = GaussianPrior([5.0, 2.0], np.diag([4.0, 4.0]))
        args = {"proposal": GaussianPrior([5.0, 2.0], np.diag([0.05, 0.05])), "m": 2000, "seed": 1}
        args.update(change)

        def refuse(self, rng, m):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(GaussianPrior, "sample_batch", refuse)
        with pytest.raises(ValueError, match=message):
            importance_expectation(model, data, prior, 0.3, lambda th: th, **args)

    @pytest.mark.parametrize("h", [lambda th: th[:10], lambda th: 1.0, lambda th: th[:, :, None]])
    def test_h_without_one_row_per_draw_is_refused(self, linear_problem, h):
        model, data, _ = linear_problem
        prior = GaussianPrior([5.0, 2.0], np.diag([4.0, 4.0]))
        proposal = GaussianPrior([5.0, 2.0], np.diag([0.05, 0.05]))
        with pytest.raises(ValueError, match="h must give one value or one row per draw: 2000 draws"):
            importance_expectation(model, data, prior, 0.3, h, proposal, 2000, 1)


class TestTwoScaleImportanceSampler:
    """The one proposal and retry rule shared by replication studies and
    population posteriors: inflation 1.5, then 3, then 6."""

    def test_a_too_narrow_proposal_is_widened_once(self):
        # The curvature is 1000 times the posterior's (n + 1 = 21), so the
        # first proposal is about 30 times too narrow.
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        spec, prior = InModel(np.array([5.0])), GaussianPrior([5.0], [[1.0]])
        sample = _importance_sample(
            model, spec, prior, 0.0, np.array([5.0]), np.array([[21_000.0]]),
            np.random.default_rng(1), 2000,
        )
        assert sample.warnings == ("weights accepted at proposal inflation 3",)
        assert sample.effective_sample_size >= 50.0
        assert sample.draws.shape == (2000, 1)
        assert sample.weights.sum() == pytest.approx(1.0)

    def test_the_third_collapse_propagates(self):
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        spec, prior = InModel(np.array([5.0])), GaussianPrior([5.0], [[1.0]])
        with pytest.raises(DegenerateWeightsError, match="with inflation 6$"):
            _importance_sample(
                model, spec, prior, 0.0, np.array([10.0]), np.array([[2100.0]]),
                np.random.default_rng(1), 2000,
            )
