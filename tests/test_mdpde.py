"""Point estimation and sandwich asymptotics."""

from __future__ import annotations

import numpy as np
import pytest

from dpdbayes import (
    Dataset,
    InModel,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    SingularHessianError,
    alpha_likelihood,
    asymptotic_covariance,
    fit,
    sandwich,
)
from dpdbayes.diagnostics import efficiency


def irls_logistic(design, responses, iters=60):
    """Independent maximum-likelihood oracle for the logistic model."""
    beta = np.zeros(design.shape[1])
    for _ in range(iters):
        eta = design @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1.0 - p)
        adj = eta + (responses - p) / w
        beta = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * adj))
    return beta


class TestFit:
    def test_alpha_zero_linear_equals_ols(self, linear_problem):
        model, data, _ = linear_problem
        result = fit(model, data, 0.0)
        ols = np.linalg.lstsq(data.design, data.responses, rcond=None)[0]
        assert result.converged
        assert np.max(np.abs(result.theta_hat - ols)) < 1e-8

    def test_alpha_zero_logistic_matches_irls(self, logistic_problem):
        model, data, _ = logistic_problem
        result = fit(model, data, 0.0)
        oracle = irls_logistic(data.design, data.responses)
        assert result.converged
        assert np.max(np.abs(result.theta_hat - oracle)) < 1e-4

    def test_unknown_sigma_recovers_mle_at_alpha_zero(self, unknown_sigma_problem):
        model, data, _ = unknown_sigma_problem
        result = fit(model, data, 0.0)
        beta = np.linalg.lstsq(data.design, data.responses, rcond=None)[0]
        resid = data.responses - data.design @ beta
        sigma_mle = float(np.sqrt(np.mean(resid**2)))
        assert result.converged
        assert np.allclose(result.theta_hat[:-1], beta, atol=1e-7)
        assert result.theta_hat[-1] == pytest.approx(sigma_mle, abs=1e-7)

    def test_gradient_norm_contract(self, linear_problem):
        model, data, _ = linear_problem
        result = fit(model, data, 0.5)
        state = alpha_likelihood(model, data, result.theta_hat, 0.5, derivatives=True)
        assert result.converged
        assert np.linalg.norm(state.gradient) < 1e-8 * (1.0 + abs(state.value))

    def test_warm_start_continuation_matches_cold_starts(self, linear_problem):
        model, data, beta = linear_problem
        target = fit(model, data, 0.6).theta_hat
        gen = np.random.default_rng(12)
        for _ in range(10):
            init = beta + 0.5 * gen.standard_normal(beta.size)
            cold = fit(model, data, 0.6, init=init)
            assert cold.converged
            assert np.max(np.abs(cold.theta_hat - target)) < 1e-6

    def test_estimates_close_to_truth_on_clean_data(self):
        gen = np.random.default_rng(900)
        design = np.ones((100, 1))
        model = LinearKnownSigma(design, 1.0)
        misses = 0
        for seed in range(60):
            data = Dataset(model.sample_responses([5.0], np.random.default_rng(seed)), design)
            result = fit(model, data, 0.5)
            sw = sandwich(model, InModel([5.0]), np.array([5.0]), 0.5)
            sd = float(np.sqrt(asymptotic_covariance(sw, 100)[0, 0]))
            if abs(result.theta_hat[0] - 5.0) > 3 * sd:
                misses += 1
        assert misses <= 2  # ~99% coverage over 60 seeded replications

    def test_robust_fit_ignores_gross_outliers(self, linear_problem):
        model, data, beta = linear_problem
        corrupted = data.responses.copy()
        corrupted[:6] += 50.0
        bad = Dataset(corrupted, data.design)
        robust = fit(model, bad, 0.5)
        classical = fit(model, bad, 0.0)
        assert np.linalg.norm(robust.theta_hat - beta) < 0.5
        assert np.linalg.norm(classical.theta_hat - beta) > 1.5

    def test_singular_design_raises(self):
        z = np.ones((10, 2))  # duplicated column
        model = LinearKnownSigma(z, 1.0)
        data = Dataset(np.arange(10.0), z)
        with pytest.raises(SingularHessianError):
            fit(model, data, 0.0)

    def test_separated_logistic_is_not_converged(self):
        # The gradient vanishes only at infinity: the stationary point that
        # Newton reaches is flat in the separating direction.
        x = np.linspace(-1.0, 1.0, 30)
        design = np.column_stack([np.ones(30), x])
        result = fit(Logistic(design), Dataset((x > 0.0).astype(float), design), 0.3)
        assert result.flat and not result.converged

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_flat_test_ignores_units(self, c, alpha):
        # The curvature scales with the square of a column's units and with
        # sigma^-(2+a); neither may make a regular fit look flat.
        gen = np.random.default_rng(12)
        z = 1.0 + gen.standard_normal(50)
        design = np.column_stack([np.ones(50), c * z])
        responses = 1.0 + 2.0 * z + gen.standard_normal(50)
        binary = (gen.random(50) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        cases = [
            (LinearKnownSigma(design, 1.0), responses),
            (LinearKnownSigma(design, c), c * responses),
            (LinearUnknownSigma(design), c * responses),
            (Logistic(design), binary),
        ]
        for model, y in cases:
            result = fit(model, Dataset(y, design), alpha)
            assert result.converged and not result.flat, type(model).__name__

    def test_flat_test_ignores_collinear_columns(self):
        # Columns 1, x, x^2 with x in [0, 100]: full rank but a condition
        # number near 1e10.
        gen = np.random.default_rng(13)
        x = np.linspace(0.0, 100.0, 40)
        design = np.column_stack([np.ones(40), x, x**2])
        responses = design @ [1.0, 0.1, 0.001] + gen.standard_normal(40)
        for model in (LinearKnownSigma(design, 1.0), LinearUnknownSigma(design)):
            result = fit(model, Dataset(responses, design), 0.3)
            assert result.converged and not result.flat

    def test_nonconvergence_reported_not_raised(self, linear_problem):
        model, data, _ = linear_problem
        result = fit(model, data, 0.9, init=np.array([40.0, -40.0]), max_iter=2)
        assert not result.converged
        assert result.gradient_norm > 0.0


class TestSandwich:
    def test_linear_known_sigma_closed_form(self):
        model = LinearKnownSigma(np.eye(2), 1.0)
        sw = sandwich(model, InModel(np.zeros(2)), np.zeros(2), 0.0)
        assert np.allclose(sw.psi, 0.5 * np.eye(2), atol=1e-14)
        assert np.allclose(sw.omega, 0.5 * np.eye(2), atol=1e-14)
        assert sw.psi_hat is None

    def test_zeta_scaling(self, linear_problem):
        model, data, beta = linear_problem
        alpha = 0.4
        sw = sandwich(model, InModel(beta), beta, alpha)
        gram = data.design.T @ data.design / model.n
        assert np.allclose(sw.psi, model.zeta(alpha) * gram, atol=1e-12)
        assert np.allclose(sw.omega, model.zeta(2 * alpha) * gram, atol=1e-12)

    def test_logistic_zero_design_gives_zero_matrices(self):
        model = Logistic(np.zeros((5, 1)))
        sw = sandwich(model, InModel([1.0]), np.array([1.0]), 0.3)
        assert np.allclose(sw.psi, 0.0)
        assert np.allclose(sw.omega, 0.0)

    def test_logistic_omega_matches_score_variance(self, logistic_problem):
        # Independent oracle: exact two-point variance of the per-term score.
        model, _, beta = logistic_problem
        alpha = 0.35
        _, omega = model.in_model_psi_omega(beta, alpha)
        t = model.design @ beta
        p1 = 1.0 / (1.0 + np.exp(-t))
        p0 = 1.0 - p1
        score1 = p1**alpha * (1.0 - p1)
        score0 = p0**alpha * (0.0 - p1)
        mean = p1 * score1 + p0 * score0
        var = p1 * score1**2 + p0 * score0**2 - mean**2
        expected = model.design.T @ (var[:, None] * model.design) / model.n
        assert np.allclose(omega, expected, atol=1e-12)

    def test_observed_curvature_approaches_expected(self):
        gen = np.random.default_rng(77)
        design = np.column_stack([np.ones(500), gen.standard_normal(500)])
        model = LinearKnownSigma(design, 1.0)
        beta = np.array([5.0, 2.0])
        diffs = []
        for seed in range(30):
            data = Dataset(model.sample_responses(beta, np.random.default_rng(seed)), design)
            sw = sandwich(model, data, beta, 0.3)
            diffs.append(np.mean(np.abs(sw.psi_hat - sw.psi)))
        assert np.mean(diffs) < 0.05 * np.linalg.norm(sandwich(model, InModel(beta), beta, 0.3).psi)

    def test_contaminated_spec_rejected(self, linear_problem):
        from dpdbayes import Contaminated

        model, _, beta = linear_problem
        with pytest.raises(ValueError, match="in-model"):
            sandwich(model, Contaminated(beta, 0.1, 3.0), beta, 0.3)


class TestAsymptoticCovariance:
    def test_linear_closed_form(self, linear_problem):
        model, data, beta = linear_problem
        alpha = 0.3
        sw = sandwich(model, InModel(beta), beta, alpha)
        cov = asymptotic_covariance(sw, model.n)
        upsilon = efficiency(alpha).upsilon_beta  # sigma = 1
        expected = upsilon * np.linalg.inv(data.design.T @ data.design)
        assert np.allclose(cov, expected, rtol=1e-10)

    def test_alpha_zero_is_classical(self, linear_problem):
        model, data, beta = linear_problem
        sw = sandwich(model, InModel(beta), beta, 0.0)
        cov = asymptotic_covariance(sw, model.n)
        assert np.allclose(cov, np.linalg.inv(data.design.T @ data.design), rtol=1e-12)

    def test_zeta_ratio_identity(self, linear_problem):
        # upsilon_beta = zeta(2a)/zeta(a)^2 on a fine grid.
        model, _, _ = linear_problem
        for alpha in np.linspace(0.0, 1.0, 21):
            lhs = model.zeta(2 * alpha) / model.zeta(alpha) ** 2
            rhs = efficiency(float(alpha)).upsilon_beta
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_empirical_covariance_of_point_estimates(self):
        gen = np.random.default_rng(5150)
        n = 200
        design = np.column_stack([np.ones(n), gen.standard_normal(n)])
        model = LinearKnownSigma(design, 1.0)
        beta = np.array([5.0, 2.0])
        alpha = 0.25
        estimates = np.array(
            [
                fit(model, Dataset(model.sample_responses(beta, np.random.default_rng(s)), design), alpha).theta_hat
                for s in range(200)
            ]
        )
        sw = sandwich(model, InModel(beta), beta, alpha)
        target = asymptotic_covariance(sw, n)
        empirical = np.cov(estimates, rowvar=False)
        dev = np.linalg.norm(empirical - target) / np.linalg.norm(target)
        assert dev < 0.15
