"""Model-family primitives: densities, integrals, loss terms, derivatives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from dpdbayes import (
    DataFormatError,
    Dataset,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    QuadratureFamily,
    check_design_conditions,
    dpd_loss,
    dpd_loss_grad,
    dpd_loss_hess,
)

INV_SQRT_2PI = (2.0 * math.pi) ** -0.5


class TestDataset:
    def test_shapes_and_invariants(self):
        data = Dataset([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]])
        assert data.n == 3 and data.n_covariates == 1

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(ValueError, match="n >= p"):
            Dataset([1.0], [[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset([np.nan, 1.0], [[1.0], [1.0]])

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,z1\n1.5,2.0\n-0.5,3.0\n")
        data = Dataset.from_csv(path, header=True)
        assert np.allclose(data.responses, [1.5, -0.5])
        assert np.allclose(data.design, [[2.0], [3.0]])

    def test_csv_reports_bad_cell_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataFormatError, match="line 2, column 2"):
            Dataset.from_csv(path)

    def test_logistic_rejects_non_binary(self, logistic_problem):
        model, data, _ = logistic_problem
        bad = Dataset(data.responses + 0.5, data.design)
        with pytest.raises(ValueError, match="0/1"):
            model.validate_data(bad)


class TestDesignConditions:
    def test_identity_design(self):
        report = check_design_conditions(np.eye(2))
        assert report.full_column_rank
        assert report.min_eigenvalue_scaled == pytest.approx(0.5)
        assert report.max_leverage == pytest.approx(1.0)

    def test_intercept_only(self):
        report = check_design_conditions(np.ones((4, 1)))
        assert report.min_eigenvalue_scaled == pytest.approx(1.0)
        assert report.max_leverage == pytest.approx(0.25)

    def test_duplicated_column_is_rank_deficient(self):
        z = np.random.default_rng(0).standard_normal((10, 1))
        report = check_design_conditions(np.column_stack([z, z]))
        assert not report.full_column_rank

    def test_wide_matrix_reported_not_raised(self):
        report = check_design_conditions(np.ones((1, 3)))
        assert not report.full_column_rank


class TestLossTerm:
    def test_linear_value_frozen(self):
        # sigma=1, z=1, beta=0, x=0, a=1: (2pi)^{-1/2} 2^{-1/2} - 2 (2pi)^{-1/2}
        model = LinearKnownSigma(np.array([[1.0]]), 1.0)
        value = dpd_loss(model, 0, 0.0, [0.0], 1.0)
        assert value == pytest.approx(INV_SQRT_2PI * 2**-0.5 - 2 * INV_SQRT_2PI, abs=1e-12)
        assert value == pytest.approx(-0.5157897690289872, abs=1e-12)

    def test_symmetric_bernoulli_value(self):
        model = Logistic(np.array([[0.0]]))
        assert dpd_loss(model, 0, 1.0, [3.7], 1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_requires_positive_alpha(self, linear_problem):
        model, data, beta = linear_problem
        with pytest.raises(ValueError):
            dpd_loss(model, 0, data.responses[0], beta, 0.0)

    def test_invalid_index(self, linear_problem):
        model, data, beta = linear_problem
        with pytest.raises(IndexError):
            dpd_loss(model, model.n, 0.0, beta, 0.5)

    def test_nonpositive_scale_rejected(self, unknown_sigma_problem):
        model, data, theta = unknown_sigma_problem
        bad = theta.copy()
        bad[-1] = -0.1
        with pytest.raises(ValueError, match="positive"):
            dpd_loss(model, 0, data.responses[0], bad, 0.5)

    def test_gradient_zero_at_zero_residual(self):
        model = LinearKnownSigma(np.array([[1.0], [2.0]]), 1.0)
        grad = dpd_loss_grad(model, 1, 2.0 * 0.7, [0.7], 0.4)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_logistic_zero_covariate_gradient(self):
        model = Logistic(np.array([[0.0]]))
        for beta in [-2.0, 0.0, 1.5]:
            assert np.allclose(dpd_loss_grad(model, 0, 1.0, [beta], 0.6), 0.0)


def _fd_grad(model, i, x, theta, alpha, h=1e-6):
    grad = np.zeros(len(theta))
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = h * max(1.0, abs(theta[j]))
        grad[j] = (
            dpd_loss(model, i, x, theta + e, alpha) - dpd_loss(model, i, x, theta - e, alpha)
        ) / (2 * e[j])
    return grad


def _fd_hess(model, i, x, theta, alpha, h=1e-6):
    dim = len(theta)
    hess = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h * max(1.0, abs(theta[j]))
        hess[j] = (
            dpd_loss_grad(model, i, x, theta + e, alpha)
            - dpd_loss_grad(model, i, x, theta - e, alpha)
        ) / (2 * e[j])
    return 0.5 * (hess + hess.T)


def _random_case(gen, kind):
    n, p = 5, 2
    design = gen.standard_normal((n, p))
    alpha = float(gen.uniform(0.05, 1.0))
    if kind == 0:
        model = LinearKnownSigma(design, float(gen.uniform(0.5, 2.0)))
        theta = gen.standard_normal(p)
        x = float(gen.standard_normal() * 2.0)
    elif kind == 1:
        model = LinearUnknownSigma(design)
        theta = np.append(gen.standard_normal(p), gen.uniform(0.5, 2.0))
        x = float(gen.standard_normal() * 2.0)
    else:
        model = Logistic(design)
        theta = gen.standard_normal(p)
        x = float(gen.integers(0, 2))
    i = int(gen.integers(0, n))
    return model, i, x, theta, alpha


class TestDerivatives:
    def test_gradients_match_finite_differences(self):
        gen = np.random.default_rng(7)
        for trial in range(60):
            model, i, x, theta, alpha = _random_case(gen, trial % 3)
            analytic = dpd_loss_grad(model, i, x, theta, alpha)
            numeric = _fd_grad(model, i, x, theta, alpha)
            scale = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-10
            assert np.linalg.norm(analytic - numeric) / scale < 1e-6

    def test_hessians_match_finite_differences(self):
        gen = np.random.default_rng(8)
        for trial in range(60):
            model, i, x, theta, alpha = _random_case(gen, trial % 3)
            analytic = dpd_loss_hess(model, i, x, theta, alpha)
            numeric = _fd_hess(model, i, x, theta, alpha)
            scale = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-10
            assert np.linalg.norm(analytic - numeric) / scale < 1e-6


class TestPowerIntegrals:
    def test_normalization_at_alpha_zero(self):
        gen = np.random.default_rng(3)
        design = gen.standard_normal((4, 2))
        families = [
            LinearKnownSigma(design, 1.7),
            LinearUnknownSigma(design),
            Logistic(design),
        ]
        for model in families:
            theta = (
                np.append(gen.standard_normal(2), 1.1)
                if isinstance(model, LinearUnknownSigma)
                else gen.standard_normal(2)
            )
            vals = model.integral_power(np.arange(4), theta, 0.0)
            assert np.allclose(vals, 1.0, atol=1e-10)
            assert model.density_power(0, 0.3, theta, 0.0) == pytest.approx(1.0)

    def test_linear_closed_form_is_design_free(self):
        model = LinearKnownSigma(np.array([[1.0], [5.0]]), 2.0)
        for alpha in [0.1, 0.5, 1.0]:
            vals = model.integral_power(np.array([0, 1]), [0.3], alpha)
            expected = (2 * math.pi) ** (-alpha / 2) * 2.0**-alpha * (1 + alpha) ** -0.5
            assert np.allclose(vals, expected, atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_quadrature_consistency_linear(self, alpha):
        model = LinearKnownSigma(np.array([[1.3]]), 0.8)
        theta = np.array([0.4])
        mean = 1.3 * 0.4

        def integrand(x):
            pdf = math.exp(-0.5 * (x - mean) ** 2 / 0.8**2) / (0.8 * math.sqrt(2 * math.pi))
            return pdf ** (1 + alpha)

        numeric, _ = integrate.quad(integrand, -12, 12, epsabs=1e-12)
        assert model.integral_power(0, theta, alpha) == pytest.approx(numeric, abs=1e-8)

    def test_logistic_two_term_sum(self):
        model = Logistic(np.array([[0.7]]))
        theta = np.array([1.2])
        p1 = model.success_probabilities(theta)[0]
        for alpha in [0.2, 1.0]:
            expected = p1 ** (1 + alpha) + (1 - p1) ** (1 + alpha)
            assert model.integral_power(0, theta, alpha) == pytest.approx(expected)

    def test_logistic_probabilities_sum_to_one(self, logistic_problem):
        model, _, beta = logistic_problem
        p1 = model.success_probabilities(beta)
        assert np.all((p1 > 0) & (p1 < 1))
        p0 = np.exp(model.log_density(np.arange(model.n), np.zeros(model.n), beta))
        assert np.allclose(p0 + p1, 1.0, atol=1e-14)


class TestExpectations:
    """Closed-form integrals of powered densities against a true parameter."""

    def test_gaussian_power_expectation_vs_quadrature(self):
        model = LinearKnownSigma(np.array([[1.0], [2.0]]), 1.1)
        theta, theta_g = np.array([0.8]), np.array([0.2])
        for alpha in [0.15, 0.6]:
            closed = np.exp(model.log_power_expectation_terms(theta, alpha, theta_g))
            for i, z in enumerate([1.0, 2.0]):
                def integrand(x):
                    f = math.exp(-0.5 * (x - z * 0.8) ** 2 / 1.1**2) / (1.1 * math.sqrt(2 * math.pi))
                    g = math.exp(-0.5 * (x - z * 0.2) ** 2 / 1.1**2) / (1.1 * math.sqrt(2 * math.pi))
                    return f**alpha * g
                numeric, _ = integrate.quad(integrand, -15, 15, epsabs=1e-12)
                assert closed[i] == pytest.approx(numeric, rel=1e-9)

    def test_unequal_scales_power_expectation(self):
        model = LinearUnknownSigma(np.array([[1.0]]))
        theta, theta_g = np.array([0.5, 0.9]), np.array([-0.2, 1.4])
        alpha = 0.4
        closed = float(np.exp(model.log_power_expectation_terms(theta, alpha, theta_g))[0])

        def integrand(x):
            f = math.exp(-0.5 * (x - 0.5) ** 2 / 0.9**2) / (0.9 * math.sqrt(2 * math.pi))
            g = math.exp(-0.5 * (x + 0.2) ** 2 / 1.4**2) / (1.4 * math.sqrt(2 * math.pi))
            return f**alpha * g

        numeric, _ = integrate.quad(integrand, -20, 20, epsabs=1e-12)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_expected_log_density_vs_quadrature(self):
        model = LinearKnownSigma(np.array([[1.5]]), 0.7)
        theta, theta_g = np.array([1.0]), np.array([0.3])
        closed = float(model.log_density_expectation_terms(theta, theta_g)[0])

        def integrand(x):
            g = math.exp(-0.5 * (x - 1.5 * 0.3) ** 2 / 0.7**2) / (0.7 * math.sqrt(2 * math.pi))
            logf = -0.5 * math.log(2 * math.pi * 0.7**2) - 0.5 * (x - 1.5) ** 2 / 0.7**2
            return g * logf

        numeric, _ = integrate.quad(integrand, -10, 12, epsabs=1e-12)
        assert closed == pytest.approx(numeric, rel=1e-9)


class _GaussianViaQuadrature(QuadratureFamily):
    """Known-scale linear family re-expressed without closed forms."""

    sigma = 1.0

    @property
    def dim(self):
        return self.n_covariates

    def support(self):
        return (-30.0, 30.0)

    def log_density_scalar(self, i, x, theta):
        mean = float(self.design[i] @ theta)
        return -0.5 * math.log(2 * math.pi) - 0.5 * (x - mean) ** 2

    def in_model_psi_omega(self, theta, alpha):  # pragma: no cover - unused
        raise NotImplementedError

    def sample_responses(self, theta, rng):  # pragma: no cover - unused
        raise NotImplementedError


class TestQuadratureFamily:
    def test_matches_closed_forms(self):
        design = np.array([[1.0], [0.5]])
        generic = _GaussianViaQuadrature(design)
        builtin = LinearKnownSigma(design, 1.0)
        theta = np.array([0.6])
        alpha = 0.35
        assert np.allclose(
            np.exp(generic.log_power_integral_terms(theta, alpha)),
            np.exp(builtin.log_power_integral_terms(theta, alpha)),
            atol=1e-9,
        )
        x = np.array([0.2, -0.4])
        assert np.allclose(
            generic.loss_grad_sum(x, theta, alpha),
            builtin.loss_grad_sum(x, theta, alpha),
            atol=1e-5,
        )


def _slice_cases(gen):
    """(model, x, theta) for every built-in family and a quadrature family."""
    n, p = 6, 2
    design = gen.standard_normal((n, p))
    beta = gen.standard_normal(p)
    yield LinearKnownSigma(design, 1.3), design @ beta + gen.standard_normal(n), beta
    theta = np.append(beta, 0.8)
    yield LinearUnknownSigma(design), design @ beta + gen.standard_normal(n), theta
    yield Logistic(design), gen.integers(0, 2, n).astype(float), beta
    quad = _GaussianViaQuadrature(design[:3, :1])
    yield quad, gen.standard_normal(3), gen.standard_normal(1)


class TestKernelSlices:
    """Per-index and single-point methods are slices of the batched kernels."""

    def test_per_index_derivatives_sum_to_full_data(self):
        gen = np.random.default_rng(11)
        for trial in range(3):
            for model, x, theta in _slice_cases(gen):
                alpha = float(gen.uniform(0.0, 0.8)) if trial else 0.0
                grads = [dpd_loss_grad(model, i, x[i], theta, alpha) for i in range(model.n)]
                hessians = [dpd_loss_hess(model, i, x[i], theta, alpha) for i in range(model.n)]
                assert np.allclose(
                    np.sum(grads, axis=0), model.loss_grad_sum(x, theta, alpha), atol=1e-10
                )
                assert np.allclose(
                    np.sum(hessians, axis=0), model.loss_hess_sum(x, theta, alpha), atol=1e-10
                )

    def test_single_point_value_is_batch_row(self):
        gen = np.random.default_rng(12)
        for alpha in [0.0, 0.3, 1e-9]:
            for model, x, theta in _slice_cases(gen):
                rows = theta + 0.1 * gen.standard_normal((4, theta.size))
                rows[0] = theta
                batch = model.summed_q_value_batch(x, rows, alpha)
                assert model.summed_q_value(x, theta, alpha) == pytest.approx(batch[0], rel=1e-13)
                assert batch.shape == (4,)

    def test_known_scale_is_coefficient_block_of_unknown(self):
        gen = np.random.default_rng(13)
        for _ in range(5):
            design = gen.standard_normal((7, 2))
            sigma = float(gen.uniform(0.5, 2.0))
            known, unknown = LinearKnownSigma(design, sigma), LinearUnknownSigma(design)
            beta, beta_g = gen.standard_normal(2), gen.standard_normal(2)
            theta, theta_g = np.append(beta, sigma), np.append(beta_g, sigma)
            betas = gen.standard_normal((3, 2))
            thetas = np.column_stack([betas, np.full(3, sigma)])
            x = design @ beta_g + sigma * gen.standard_normal(7)
            alpha = float(gen.uniform(0.0, 1.0))
            assert np.allclose(
                known.loss_grad_sum(x, beta, alpha), unknown.loss_grad_sum(x, theta, alpha)[:2]
            )
            assert np.allclose(
                known.loss_hess_sum(x, beta, alpha),
                unknown.loss_hess_sum(x, theta, alpha)[:2, :2],
            )
            for k, u in zip(
                known.in_model_psi_omega(beta, alpha), unknown.in_model_psi_omega(theta, alpha)
            ):
                assert np.allclose(k, u[:2, :2])
            assert np.allclose(
                known.log_power_expectation_batch(betas, alpha, beta_g),
                unknown.log_power_expectation_batch(thetas, alpha, theta_g),
            )
            assert np.allclose(
                known.log_density_expectation_batch(betas, beta_g),
                unknown.log_density_expectation_batch(thetas, theta_g),
            )


    def test_gaussian_log_density_is_the_formula(self):
        from dpdbayes.models import _log_norm

        gen = np.random.default_rng(14)
        design = gen.standard_normal((9, 2))
        x = gen.standard_normal(9)
        betas = gen.standard_normal((4, 2))
        sigmas = gen.uniform(0.5, 2.0, (4, 1))
        r = x - betas @ design.T
        known = LinearKnownSigma(design, 1.7).log_density_batch(x, betas)
        assert np.array_equal(known, _log_norm(1.7) - r * r / (2.0 * 1.7**2))
        free = LinearUnknownSigma(design).log_density_batch(x, np.column_stack([betas, sigmas]))
        assert np.array_equal(free, _log_norm(sigmas) - r * r / (2.0 * sigmas**2))
        r_block = 0.5 - betas @ design[[3, 0]].T
        block = LinearKnownSigma(design, 1.7).log_density_batch(0.5, betas, [3, 0])
        assert np.array_equal(block, _log_norm(1.7) - r_block * r_block / (2.0 * 1.7**2))

    def test_zeta_rejects_free_scale(self):
        with pytest.raises(TypeError, match="known-scale linear model only"):
            LinearUnknownSigma(np.ones((20, 1))).zeta(0.5)


class _CountingGaussian(_GaussianViaQuadrature):
    """Records the observation index of every log-density evaluation."""

    def __init__(self, design):
        super().__init__(design)
        self.indices = []

    def support(self):
        return (-math.inf, math.inf)

    def log_density_scalar(self, i, x, theta):
        self.indices.append(i)
        return super().log_density_scalar(i, x, theta)


class TestQuadratureDerivatives:
    def test_per_index_gradient_integrates_only_that_index(self):
        model = _CountingGaussian(np.array([[1.0], [0.5], [2.0], [1.5]]))
        grad = dpd_loss_grad(model, 2, 0.3, [0.4], 0.5)
        assert set(model.indices) == {2}
        closed = dpd_loss_grad(LinearKnownSigma(model.design, 1.0), 2, 0.3, [0.4], 0.5)
        assert np.allclose(grad, closed, atol=1e-6)

    def test_default_fit_matches_closed_form(self):
        from dpdbayes import fit

        design = np.ones((3, 1))
        data = Dataset(5.0 + np.random.default_rng(3).standard_normal(3), design)
        quad = fit(_CountingGaussian(design), data, 0.5)
        closed = fit(LinearKnownSigma(design, 1.0), data, 0.5)
        assert quad.converged
        assert quad.theta_hat[0] == pytest.approx(closed.theta_hat[0], abs=1e-6)

    def test_vanishing_integral_names_the_index(self):
        model = _GaussianViaQuadrature(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="index 1"):
            model.integral_power(1, [1e3], 0.5)
