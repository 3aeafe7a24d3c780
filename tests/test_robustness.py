"""Influence functions, pseudo-influence surfaces, sensitivities, breakdown."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from dpdbayes import (
    AllDirections,
    GaussianPrior,
    InModel,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    McConfig,
    OneDirection,
    breakdown_experiment,
    contamination_score,
    influence_bayes_estimate,
    influence_closed_form_alpha0,
    influence_curve,
    influence_posterior_mean,
    minimum_divergence_functional,
    pseudo_influence,
    pseudo_influence_closed_form_alpha0,
    sensitivities,
    squared_error_loss,
)
from dpdbayes.robustness import (
    _scenario_block,
    _ScoreTerms,
    _summed_scores,
    functional_posterior_sample,
)


@pytest.fixture(scope="module")
def location_setup():
    design = np.ones((20, 1))
    model = LinearKnownSigma(design, 1.0)
    spec = InModel(np.array([5.0]))
    prior = GaussianPrior([5.0], [[1.0]])
    return model, spec, prior


class TestContaminationScore:
    def test_positive_at_the_true_mean(self, location_setup):
        model, spec, _ = location_setup
        # The density is maximal at its mean, so the score there exceeds the
        # average of the powered density.
        for alpha in [0.2, 0.6, 1.0]:
            k = contamination_score(model, spec, 0, spec.theta_g, 5.0, alpha)
            assert k > 0.0

    def test_closed_form_matches_monte_carlo(self, location_setup):
        model, spec, _ = location_setup
        alpha = 0.5
        theta = np.array([4.6])
        gen = np.random.default_rng(42)
        draws = 5.0 + gen.standard_normal(400_000)
        f_pow = np.exp(alpha * (-0.5 * np.log(2 * np.pi) - 0.5 * (draws - 4.6) ** 2))
        mc_mean = float(f_pow.mean())
        mc_se = float(f_pow.std(ddof=1) / math.sqrt(draws.size))
        t = 6.0
        f_t = math.exp(alpha * (-0.5 * math.log(2 * math.pi) - 0.5 * (t - 4.6) ** 2))
        k = contamination_score(model, spec, 0, theta, t, alpha)
        assert abs(k - (f_t - mc_mean) / alpha) < 3 * mc_se / alpha

    def test_bounded_tail_limit_for_positive_alpha(self, location_setup):
        model, spec, _ = location_setup
        alpha = 0.4
        theta = np.array([5.0])
        limit = -float(
            np.exp(model.log_power_expectation_terms(theta, alpha, spec.theta_g))[0]
        ) / alpha
        far = contamination_score(model, spec, 0, theta, 1e6, alpha)
        assert far == pytest.approx(limit, rel=1e-12)
        grid = np.linspace(-100, 100, 401)
        values = [contamination_score(model, spec, 0, theta, t, alpha) for t in grid]
        bound = (1.0 / alpha) * max(
            1.0,
            float(np.exp(model.log_power_expectation_terms(theta, alpha, spec.theta_g))[0]),
        )
        assert max(abs(v) for v in values) < bound

    def test_quadratic_growth_at_alpha_zero(self, location_setup):
        model, spec, _ = location_setup
        theta = np.array([5.0])
        k10 = contamination_score(model, spec, 0, theta, 5.0 + 10.0, 0.0)
        k20 = contamination_score(model, spec, 0, theta, 5.0 + 20.0, 0.0)
        # log-density tails are quadratic in the contamination offset
        assert k20 / k10 == pytest.approx((20.0**2 - 1.0) / (10.0**2 - 1.0), rel=1e-9)

    def test_small_alpha_continuity(self, location_setup):
        model, spec, _ = location_setup
        theta = np.array([4.8])
        for t in [3.0, 7.5]:
            k0 = contamination_score(model, spec, 0, theta, t, 0.0)
            k_eps = contamination_score(model, spec, 0, theta, t, 1e-8)
            assert abs(k0 - k_eps) < 1e-6


    @pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.5])
    def test_prepared_scores_sum_the_per_index_scores(self, alpha):
        gen = np.random.default_rng(41)
        design = np.column_stack([np.ones(6), gen.standard_normal(6)])
        cases = [
            (LinearKnownSigma(design, 1.3), [0.5, -1.0], [-2.0, 0.7, 40.0]),
            (LinearUnknownSigma(design), [0.5, -1.0, 1.3], [-2.0, 0.7, 40.0]),
            (Logistic(design), [0.5, -1.0], [0.0, 1.0]),
        ]
        for model, theta_g, points in cases:
            spec = InModel(theta_g)
            thetas = spec.theta_g + 0.3 * gen.standard_normal((5, model.dim))
            thetas[:, model.dim - 1] = np.abs(thetas[:, model.dim - 1])
            for t in points:
                per_index = np.array(
                    [
                        [contamination_score(model, spec, i, th, t, alpha) for i in range(model.n)]
                        for th in thetas
                    ]
                )
                for scenario, expected in [
                    (AllDirections(points=t), per_index.sum(axis=1)),
                    (OneDirection(index=3, point=t), per_index[:, 3]),
                ]:
                    rows, pts = _scenario_block(scenario)
                    terms = _ScoreTerms(model, spec.theta_g, thetas, alpha, rows)
                    got = _summed_scores(terms, pts)
                    scale = np.abs(per_index).sum(axis=1)
                    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


class TestFunctionalPosteriorSample:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_free_scale_draws_outside_the_parameter_space_are_dropped(self, alpha):
        model = LinearUnknownSigma(np.ones((20, 1)))
        spec = InModel([5.0, 0.3])
        prior = GaussianPrior([5.0, 0.3], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = functional_posterior_sample(
                model, spec, prior, alpha, McConfig(seed=5, draws=5000)
            )
        assert sample.effective_sample_size >= 50.0
        assert np.all(sample.draws[:, 1] > 0.0)
        assert sample.weights.sum() == pytest.approx(1.0)


class TestInfluence:
    def test_alpha_zero_closed_form_location(self, location_setup):
        model, _, _ = location_setup
        spec = InModel(np.array([5.0]))
        prior = GaussianPrior([5.0], [[1.0]])
        n = model.n
        for t in [-20.0, -3.0, 5.0, 14.0]:
            value = influence_closed_form_alpha0(model, prior, spec, t)
            assert value[0] == pytest.approx(n * (t - 5.0) / (n + 1), abs=1e-12)

    def test_closed_form_rejects_free_scale(self, location_setup):
        _, spec, prior = location_setup
        model = LinearUnknownSigma(np.ones((20, 1)))
        with pytest.raises(TypeError):
            influence_closed_form_alpha0(model, prior, InModel([5.0, 1.0]), 3.0)

    def test_pseudo_closed_form_rejects_free_scale(self, location_setup):
        _, _, prior = location_setup
        model = LinearUnknownSigma(np.ones((20, 1)))
        with pytest.raises(TypeError, match="known-scale linear model only"):
            pseudo_influence_closed_form_alpha0(
                model, prior, InModel([5.0, 1.0]), [5.0, 1.0], 3.0
            )

    def test_closed_form_prior_mean_free(self, location_setup):
        model, spec, _ = location_setup
        shifted = GaussianPrior([9.0], [[1.0]])
        centered = GaussianPrior([5.0], [[1.0]])
        for t in [-4.0, 8.0]:
            a = influence_closed_form_alpha0(model, shifted, spec, t)
            b = influence_closed_form_alpha0(model, centered, spec, t)
            assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_monte_carlo_matches_closed_form_at_tiny_alpha(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=21, draws=40_000)
        t_grid = np.array([-15.0, -5.0, 0.0, 10.0, 20.0])
        values, errors, _ = influence_curve(model, spec, prior, 1e-6, t_grid, mc)
        closed = np.array(
            [influence_closed_form_alpha0(model, prior, spec, t)[0] for t in t_grid]
        )
        sup = np.max(np.abs(closed))
        assert np.all(np.abs(values[:, 0] - closed) <= 0.05 * np.maximum(np.abs(closed), 0.02 * sup))

    def test_redescending_shape_at_half(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=22, draws=40_000)
        t_grid = np.linspace(-100, 100, 41)
        values, _, _ = influence_curve(model, spec, prior, 0.5, t_grid, mc)
        curve = np.abs(values[:, 0])
        sup = curve.max()
        assert np.isfinite(sup)
        assert curve[0] < 0.2 * sup and curve[-1] < 0.2 * sup
        # decreasing beyond the peak on the right shoulder
        peak = int(np.argmax(values[:, 0]))
        right = values[peak:, 0]
        assert np.all(np.diff(right[: max(2, right.size // 2)]) <= 1e-3)

    def test_no_outlyingness_gives_small_influence(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=23, draws=30_000)
        est = influence_posterior_mean(
            model, spec, prior, 0.4, AllDirections(points=5.0), mc
        )
        # contamination at the model mean: the minimum-|IF| region
        assert abs(est.value[0]) < max(3 * est.standard_error[0], 5e-3)

    def test_one_direction_scales_like_one_summand(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=24, draws=30_000)
        sample = functional_posterior_sample(model, spec, prior, 0.3, mc)
        t = 9.0
        single = influence_posterior_mean(
            model, spec, prior, 0.3, OneDirection(index=4, point=t), mc, sample=sample
        )
        total = influence_posterior_mean(
            model, spec, prior, 0.3, AllDirections(points=t), mc, sample=sample
        )
        # identical design rows: the all-directions value is n times one direction
        assert total.value[0] == pytest.approx(model.n * single.value[0], rel=1e-9)

    def test_squared_error_loss_reproduces_posterior_mean_influence(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=25, draws=30_000)
        sample = functional_posterior_sample(model, spec, prior, 0.4, mc)
        scenario = AllDirections(points=8.0)
        erpe = influence_posterior_mean(
            model, spec, prior, 0.4, scenario, mc, sample=sample
        )
        loss = influence_bayes_estimate(
            model, spec, prior, 0.4, squared_error_loss(), scenario, mc, sample=sample
        )
        assert loss.value[0] == pytest.approx(erpe.value[0], rel=1e-9, abs=1e-12)

    def test_huber_influence_finite_on_grid(self, location_setup):
        from dpdbayes import huber_loss

        model, spec, prior = location_setup
        mc = McConfig(seed=26, draws=20_000)
        sample = functional_posterior_sample(model, spec, prior, 0.5, mc)
        values = [
            influence_bayes_estimate(
                model, spec, prior, 0.5, huber_loss(1.0),
                AllDirections(points=float(t)), mc, sample=sample,
            ).value[0]
            for t in [-50.0, 0.0, 50.0]
        ]
        assert np.all(np.isfinite(values))


class TestPseudoInfluence:
    def test_alpha_zero_closed_form_general_design(self):
        gen = np.random.default_rng(31)
        design = (1.0 + gen.standard_normal(15)).reshape(-1, 1)
        model = LinearKnownSigma(design, 1.0)
        beta_g = np.array([5.0])
        spec = InModel(beta_g)
        prior = GaussianPrior([5.0], [[1.0]])
        z = design[:, 0]
        for beta, t in [(5.5, 10.0), (4.2, -30.0)]:
            value = pseudo_influence_closed_form_alpha0(
                model, prior, spec, np.array([beta]), t
            )
            expected = (beta - 5.0) * float(np.sum(t * z - 5.0 * z * z))
            assert value == pytest.approx(expected, abs=1e-10)

    def test_surface_centering_and_variance(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=32, draws=30_000)
        theta_grid = np.linspace(4.0, 6.0, 41).reshape(-1, 1)
        t_grid = np.array([-20.0, 0.0, 20.0])
        result = pseudo_influence(model, spec, prior, 0.3, theta_grid, t_grid, mc)
        assert result.surface.shape == (41, 3)
        # split-half centering discrepancy within Monte Carlo noise
        assert np.all(np.abs(result.centering_check) < 3 * result.centering_se)
        assert np.all(result.posterior_variance >= 0.0)

    def test_bounded_in_t_for_positive_alpha(self, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=33, draws=20_000)
        theta_grid = np.linspace(4.0, 6.0, 21).reshape(-1, 1)
        t_grid = np.linspace(-200.0, 200.0, 21)
        result = pseudo_influence(model, spec, prior, 0.5, theta_grid, t_grid, mc)
        assert np.isfinite(result.surface).all()
        tail = np.abs(result.surface[:, [0, -1]]).max()
        center = np.abs(result.surface).max()
        assert tail < center

    def test_sensitivity_ordering_in_alpha(self, location_setup):
        model, spec, prior = location_setup
        theta_grid = np.linspace(4.0, 6.0, 41).reshape(-1, 1)
        t_grid = np.linspace(-60.0, 60.0, 25)
        stars = {}
        for alpha in [0.1, 0.8]:
            result = pseudo_influence(
                model, spec, prior, alpha, theta_grid, t_grid, McConfig(seed=34, draws=20_000)
            )
            report = sensitivities(result)
            stars[alpha] = report.gamma_star
            assert report.s_star >= 0.0
            assert report.first_order_check < 3.0
        assert stars[0.8] < stars[0.1]

    def test_kl_type_divergence_scale(self, location_setup):
        # phi(u) = u log u has phi''(1) = 1: the variance sensitivity is the
        # posterior variance of the summed score itself.
        model, spec, prior = location_setup
        mc = McConfig(seed=35, draws=20_000)
        theta_grid = np.linspace(4.5, 5.5, 11).reshape(-1, 1)
        result = pseudo_influence(model, spec, prior, 0.4, theta_grid, np.array([12.0]), mc)
        report = sensitivities(result, phi_second_derivative_at_1=1.0)
        assert report.s[0] == pytest.approx(result.posterior_variance[0])


    def test_grid_outside_parameter_space_rejected(self):
        model = LinearUnknownSigma(np.ones((20, 1)))
        prior = GaussianPrior([5.0, 1.0], np.eye(2))
        theta_grid = np.column_stack([np.full(9, 5.0), np.linspace(-0.5, 1.5, 9)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row 0 lies outside the parameter space"):
                pseudo_influence(
                    model, InModel([5.0, 1.0]), prior, 0.5, theta_grid,
                    np.array([0.0, 10.0]), McConfig(seed=36, draws=5000),
                )


class TestBreakdown:
    def test_zero_contamination_flat_curve(self, location_setup):
        model, _, prior = location_setup
        curve = breakdown_experiment(
            model, prior, [5.0], 0.5, 0.0, [10.0, 100.0, 1000.0], seed=41, draws=20_000
        )
        assert np.all(curve.shifts < 0.02)

    def test_robust_curve_plateaus_classical_grows(self, location_setup):
        model, _, prior = location_setup
        mags = [10.0**k for k in range(1, 7)]
        robust = breakdown_experiment(
            model, prior, [5.0], 0.5, 0.3, mags, seed=42, method="laplace"
        )
        assert robust.shifts[3:].max() <= 0.01 * max(robust.shifts.max(), 1e-12) + 1e-9
        classical = breakdown_experiment(
            model, prior, [5.0], 0.0, 0.3, mags, seed=42, method="laplace"
        )
        assert np.all(np.diff(classical.shifts) > 0.0)
        assert classical.shifts[-1] > 10 * classical.shifts[-3]

    def test_classical_slope_matches_posterior_arithmetic(self, location_setup):
        model, _, prior = location_setup
        n = model.n
        curve = breakdown_experiment(
            model, prior, [5.0], 0.0, 0.3, [1e5, 1e6], seed=43, draws=20_000
        )
        slope = curve.shifts[-1] / 1e6
        expected = 0.3 * n / (n + 1.0)  # prior N(5,1) shrinks by n/(n+1)
        assert abs(slope - expected) / expected < 0.05

    def test_is_and_laplace_routes_agree_when_stable(self, location_setup):
        model, _, prior = location_setup
        a = breakdown_experiment(model, prior, [5.0], 0.5, 0.3, [1e2, 1e4], seed=44, draws=20_000)
        b = breakdown_experiment(model, prior, [5.0], 0.5, 0.3, [1e2, 1e4], seed=44, method="laplace")
        assert np.all(np.abs(a.estimates - b.estimates) < 0.05)

    def test_functional_optimum_clean_case(self, location_setup):
        model, spec, _ = location_setup
        value = minimum_divergence_functional(model, spec, 0.4)
        assert value[0] == pytest.approx(5.0, abs=1e-6)

    def test_invalid_epsilon_rejected(self, location_setup):
        model, _, prior = location_setup
        with pytest.raises(ValueError):
            breakdown_experiment(model, prior, [5.0], 0.5, 0.7, [10.0], seed=1)


class TestLongFormatExports:
    def test_pif_surface_csv(self, tmp_path, location_setup):
        model, spec, prior = location_setup
        mc = McConfig(seed=51, draws=2_000)
        theta_grid = np.linspace(4.5, 5.5, 5).reshape(-1, 1)
        t_grid = np.array([-10.0, 10.0])
        result = pseudo_influence(model, spec, prior, 0.4, theta_grid, t_grid, mc)
        path = tmp_path / "pif.csv"
        result.to_csv(path, alpha=0.4)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,theta,t,value"
        assert len(lines) == 1 + 5 * 2

    def test_breakdown_curve_csv(self, tmp_path, location_setup):
        model, _, prior = location_setup
        curve = breakdown_experiment(
            model, prior, [5.0], 0.5, 0.3, [10.0, 100.0], seed=52, method="laplace"
        )
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,epsilon,magnitude,estimate,shift"
        assert len(lines) == 3
