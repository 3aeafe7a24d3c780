"""Model-family primitives: densities, integrals, loss terms, derivatives."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate

from dpdbayes import (
    DataFormatError,
    Dataset,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    ModelFamily,
    QuadratureFamily,
    alpha_likelihood,
    check_design_conditions,
    dpd_loss,
    dpd_loss_grad,
    dpd_loss_hess,
    fit,
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

    def test_the_callers_arrays_stay_writable(self):
        y, z = np.array([1.0, 2.0, 3.0]), np.array([[1.0], [2.0], [4.0]])
        data = Dataset(y, z)
        y[0], z[0, 0] = 5.0, 7.0
        assert data.responses[0] == 1.0 and data.design[0, 0] == 1.0
        assert not data.responses.flags.writeable and not data.design.flags.writeable

    def test_an_edit_of_the_callers_base_array_does_not_reach_it(self):
        base = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, -0.5], [1.0, 1.0, 2.0]])
        data = Dataset(base[:, 0], base[:, 1:])
        base[:] = 9.0
        assert np.array_equal(data.responses, [1.0, 0.0, 1.0])
        assert np.array_equal(data.design, [[1.0, 0.5], [1.0, -0.5], [1.0, 2.0]])


class TestModelDesign:
    def test_the_callers_design_stays_writable(self):
        z = np.column_stack([np.ones(5), np.arange(5.0)])
        model = Logistic(z)
        z[0, 0] = 2.0
        assert model.design[0, 0] == 1.0 and not model.design.flags.writeable

    def test_an_edit_of_the_callers_base_array_does_not_reach_it(self):
        base = np.arange(12.0).reshape(4, 3)
        model = LinearKnownSigma(base[:, 1:], 1.0)
        assert not np.shares_memory(model.design, base)
        base[:] = 9.0
        assert np.array_equal(model.design, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0], [10.0, 11.0]])

    @pytest.mark.parametrize("layout", ["view", "fortran"])
    def test_the_design_is_compact_whatever_its_layout(self, layout):
        base = np.random.default_rng(4).standard_normal((50, 4))
        z = base[:, 1:] if layout == "view" else np.asfortranarray(base[:, 1:])
        model = LinearUnknownSigma(z)
        assert model.design.flags.c_contiguous and np.array_equal(model.design, z)


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

    @pytest.mark.parametrize("collinear", [False, True])
    def test_leverage_is_the_hat_matrix_diagonal(self, collinear):
        z = np.random.default_rng(3).standard_normal((40, 3))
        if collinear:
            z[:, 2] = z[:, 0] - z[:, 1]
        hat = z @ np.linalg.pinv(z.T @ z) @ z.T
        report = check_design_conditions(z)
        assert abs(report.max_leverage - np.max(np.diag(hat))) <= 1e-12

    def test_large_design_builds_no_n_by_n_matrix(self):
        # The n-by-n hat matrix would take 3.2 GB; the leverages need O(np).
        z = np.random.default_rng(4).standard_normal((20_000, 3))
        tracemalloc.start()
        try:
            report = check_design_conditions(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.full_column_rank
        assert peak < 8 * z.nbytes


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_requires_finite_alpha(self, linear_problem, alpha):
        model, data, beta = linear_problem
        with pytest.raises(ValueError, match="finite alpha"):
            dpd_loss(model, 0, data.responses[0], beta, alpha)

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
            vals = np.exp(model.log_power_integral_batch(theta, 0.0)[0])
            assert np.allclose(vals, 1.0, atol=1e-10)
            point = 1.0 if isinstance(model, Logistic) else 0.3
            assert np.exp(0.0 * model.log_density_batch(point, theta, [0])[0, 0]) == pytest.approx(1.0)

    def test_linear_closed_form_is_design_free(self):
        model = LinearKnownSigma(np.array([[1.0], [5.0]]), 2.0)
        for alpha in [0.1, 0.5, 1.0]:
            vals = np.exp(model.log_power_integral_batch([0.3], alpha, np.array([0, 1]))[0])
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
        assert np.exp(model.log_power_integral_batch(theta, alpha, [0])[0, 0]) == pytest.approx(
            numeric, abs=1e-8
        )

    def test_logistic_two_term_sum(self):
        model = Logistic(np.array([[0.7]]))
        theta = np.array([1.2])
        p1 = model.success_probabilities(theta)[0]
        for alpha in [0.2, 1.0]:
            expected = p1 ** (1 + alpha) + (1 - p1) ** (1 + alpha)
            assert np.exp(model.log_power_integral_batch(theta, alpha, [0])[0, 0]) == pytest.approx(expected)

    def test_logistic_probabilities_sum_to_one(self, logistic_problem):
        model, _, beta = logistic_problem
        p1 = model.success_probabilities(beta)
        assert np.all((p1 > 0) & (p1 < 1))
        p0 = np.exp(model.log_density_batch(np.zeros(model.n), beta)[0])
        assert np.allclose(p0 + p1, 1.0, atol=1e-14)


class TestExpectations:
    """Closed-form integrals of powered densities against a true parameter."""

    def test_gaussian_power_expectation_vs_quadrature(self):
        model = LinearKnownSigma(np.array([[1.0], [2.0]]), 1.1)
        theta, theta_g = np.array([0.8]), np.array([0.2])
        for alpha in [0.15, 0.6]:
            closed = np.exp(model.log_power_expectation_batch(theta, alpha, theta_g)[0])
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
        closed = float(np.exp(model.log_power_expectation_batch(theta, alpha, theta_g)[0, 0]))

        def integrand(x):
            f = math.exp(-0.5 * (x - 0.5) ** 2 / 0.9**2) / (0.9 * math.sqrt(2 * math.pi))
            g = math.exp(-0.5 * (x + 0.2) ** 2 / 1.4**2) / (1.4 * math.sqrt(2 * math.pi))
            return f**alpha * g

        numeric, _ = integrate.quad(integrand, -20, 20, epsabs=1e-12)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_expected_log_density_vs_quadrature(self):
        model = LinearKnownSigma(np.array([[1.5]]), 0.7)
        theta, theta_g = np.array([1.0]), np.array([0.3])
        closed = float(model.log_density_expectation_batch(theta, theta_g)[0, 0])

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
            np.exp(generic.log_power_integral_batch(theta, alpha)[0]),
            np.exp(builtin.log_power_integral_batch(theta, alpha)[0]),
            atol=1e-9,
        )
        x = np.array([0.2, -0.4])
        assert np.allclose(
            generic.loss_derivative_sums(x, theta, alpha)[0],
            builtin.loss_derivative_sums(x, theta, alpha)[0],
            atol=1e-5,
        )


class _OneDerivativeKernel(ModelFamily):
    """A direct ``ModelFamily`` subclass with only the required methods,
    each delegated to a built-in family."""

    def __init__(self, inner):
        super().__init__(inner.design)
        self.inner = inner

    @property
    def dim(self):
        return self.inner.dim

    def log_density_batch(self, points, thetas, rows=slice(None)):
        return self.inner.log_density_batch(points, thetas, rows)

    def log_power_integral_batch(self, thetas, alpha, rows=slice(None)):
        return self.inner.log_power_integral_batch(thetas, alpha, rows)

    def log_power_expectation_batch(self, thetas, alpha, theta_true, rows=slice(None)):
        return self.inner.log_power_expectation_batch(thetas, alpha, theta_true, rows)

    def log_density_expectation_batch(self, thetas, theta_true, rows=slice(None)):
        return self.inner.log_density_expectation_batch(thetas, theta_true, rows)

    def loss_derivative_sums(self, x, theta, alpha, rows=slice(None)):
        return self.inner.loss_derivative_sums(x, theta, alpha, rows)

    def in_model_psi_omega(self, theta, alpha):
        return self.inner.in_model_psi_omega(theta, alpha)

    def sample_responses(self, theta, rng):
        return self.inner.sample_responses(theta, rng)


@pytest.mark.parametrize("inner_name", ["known", "logistic"])
def test_family_with_one_derivative_kernel_gets_every_derivative_route(
    inner_name, linear_problem, logistic_problem
):
    inner, data, theta = linear_problem if inner_name == "known" else logistic_problem
    model = _OneDerivativeKernel(inner)
    x, alpha = data.responses, 0.4
    for i in (0, model.n - 1):
        assert np.array_equal(
            dpd_loss_grad(model, i, x[i], theta, alpha), dpd_loss_grad(inner, i, x[i], theta, alpha)
        )
        assert np.array_equal(
            dpd_loss_hess(model, i, x[i], theta, alpha), dpd_loss_hess(inner, i, x[i], theta, alpha)
        )
    state = alpha_likelihood(model, data, theta, alpha, derivatives=True)
    expected = alpha_likelihood(inner, data, theta, alpha, derivatives=True)
    assert np.array_equal(state.gradient, expected.gradient)
    assert np.array_equal(state.hessian, expected.hessian)
    result = fit(model, data, alpha)
    assert result.converged
    assert np.allclose(result.theta_hat, fit(inner, data, alpha).theta_hat, rtol=0, atol=1e-8)


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
    """Per-index losses and single-point values read the batched kernels."""

    def test_per_index_derivatives_sum_to_full_data(self):
        gen = np.random.default_rng(11)
        for trial in range(3):
            for model, x, theta in _slice_cases(gen):
                alpha = float(gen.uniform(0.0, 0.8)) if trial else 0.0
                grads = [dpd_loss_grad(model, i, x[i], theta, alpha) for i in range(model.n)]
                hessians = [dpd_loss_hess(model, i, x[i], theta, alpha) for i in range(model.n)]
                grad, hess = model.loss_derivative_sums(x, theta, alpha)
                assert np.allclose(np.sum(grads, axis=0), grad, atol=1e-10)
                assert np.allclose(np.sum(hessians, axis=0), hess, atol=1e-10)

    def test_single_point_value_is_batch_row(self):
        gen = np.random.default_rng(12)
        for alpha in [0.0, 0.3, 1e-9]:
            for model, x, theta in _slice_cases(gen):
                rows = theta + 0.1 * gen.standard_normal((4, theta.size))
                rows[0] = theta
                batch = model.summed_q_value_batch(x, rows, alpha)
                single = model.summed_q_value_batch(x, theta, alpha)
                assert single.shape == (1,)
                assert single[0] == pytest.approx(batch[0], rel=1e-13)
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
            known_grad, known_hess = known.loss_derivative_sums(x, beta, alpha)
            unknown_grad, unknown_hess = unknown.loss_derivative_sums(x, theta, alpha)
            assert np.allclose(known_grad, unknown_grad[:2])
            assert np.allclose(known_hess, unknown_hess[:2, :2])
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

    @pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.1, 0.5, 1.0])
    def test_two_coefficient_derivatives_match_closed_forms(self, alpha):
        gen = np.random.default_rng(16)
        design = np.column_stack([np.ones(8), gen.standard_normal(8)])
        x = design @ [1.0, -0.5] + gen.standard_normal(8)
        quad, closed = _GaussianViaQuadrature(design), LinearKnownSigma(design, 1.0)
        for theta in ([1.0, -0.5], [0.0, 0.0], [2.5, 1.5], [-3.0, 0.7]):
            grad, hess = quad.loss_derivative_sums(x, np.array(theta), alpha)
            exact_grad, exact_hess = closed.loss_derivative_sums(x, np.array(theta), alpha)
            assert np.max(np.abs(grad - exact_grad)) <= 5e-7 * np.max(np.abs(exact_grad))
            assert np.max(np.abs(hess - exact_hess)) <= 5e-5 * np.max(np.abs(exact_hess))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_derivatives_are_one_stencil_of_the_block(self, alpha):
        calls = []

        class Spy(_GaussianViaQuadrature):
            def log_density_batch(self, points, thetas, rows=slice(None)):
                calls.append(np.atleast_2d(thetas).shape[0])
                return super().log_density_batch(points, thetas, rows)

        gen = np.random.default_rng(17)
        for d in (1, 2, 3):
            model = Spy(gen.standard_normal((4, d)))
            calls.clear()
            model.loss_derivative_sums(gen.standard_normal(4), gen.standard_normal(d), alpha)
            assert calls == [1 + 2 * d + 2 * d * (d - 1)]

    def test_vanishing_integral_names_the_index(self):
        model = _GaussianViaQuadrature(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="index 1"):
            model.log_power_integral_batch([1e3], 0.5, [1])


def _ulp_error(value: float, exact: Decimal) -> float:
    """|value - exact| in units in the last place of ``exact`` as a double."""
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


class TestLogisticSoftplus:
    def test_softplus_within_one_ulp_of_a_400_digit_reference(self):
        from dpdbayes.models import _softplus

        tiny = math.ulp(0.0)
        points = np.concatenate([
            np.random.default_rng(15).uniform(-745.0, 745.0, 300),
            np.linspace(-40.0, 40.0, 81),
            [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308, 745.0, -745.0],
        ])
        got = _softplus(points)
        libm = np.logaddexp(0.0, points)
        with localcontext() as ctx:
            ctx.prec = 400
            exact = [(Decimal(1) + Decimal(float(t)).exp()).ln() for t in points]
            errors = [_ulp_error(g, e) for g, e in zip(got, exact)]
            libm_errors = [_ulp_error(g, e) for g, e in zip(libm, exact)]
        # Either form may round a point the other way, so neither worst case
        # bounds the other; each point is at most one rounding step apart.
        assert max(errors) <= 1.0
        assert all(e <= e_libm + 1.0 for e, e_libm in zip(errors, libm_errors))

    def test_kernels_stay_finite_at_extreme_linear_predictors(self):
        # Linear predictors +-700, +-750, +-1000 and +-1e5, for both labels.
        scale = np.array([700.0, 750.0, 1000.0, 1e5])
        design = np.column_stack([np.ones(8), np.concatenate([scale, -scale]) - 1.0])
        model = Logistic(design)
        beta = np.array([1.0, 1.0])
        betas = np.array([[1.0, 1.0], [-2.0, 3.0]])
        x = np.tile([0.0, 1.0], 4)
        outputs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs.append(model.log_density_batch(x, betas))
            outputs.append(model.log_power_integral_batch(betas, 0.5))
            outputs.append(model.log_power_expectation_batch(betas, 0.5, beta))
            outputs.append(model.log_density_expectation_batch(betas, beta))
            outputs.append(model.success_probabilities(beta))
            outputs.extend(model.in_model_psi_omega(beta, 0.5))
            for alpha in (0.0, 0.5):
                outputs.append(model.summed_q_value_batch(x, betas, alpha))
                outputs.extend(model.loss_derivative_sums(x, beta, alpha))
        assert np.all(np.abs(design @ beta) >= 700.0)
        for out in outputs:
            assert np.all(np.isfinite(out))


def _reference_summed_q(design, x, thetas, alpha):
    """The logistic objective in the linear predictor t, one cell at a time:
    x t - max(t, 0) - log1p(exp(-|t|)) for log f(x), and P(X = 1)^(1+a) +
    P(X = 0)^(1+a) from the same pieces, in the order of operations the
    kernel must keep."""
    t = thetas @ design.T
    tail = np.log1p(np.exp(-np.abs(t)))
    pos = np.maximum(t, 0.0)
    ll = t * x[None, :] - pos - tail
    if alpha == 0.0:
        return ll.sum(axis=1) - design.shape[0]
    total = np.expm1(alpha * ll).sum(axis=1) / alpha
    powered = np.exp((t - pos - tail) * (1.0 + alpha)) + np.exp((pos + tail) * -(1.0 + alpha))
    return total - powered.sum(axis=1) / (1.0 + alpha)


class TestLogisticObjectiveKernel:
    """``Logistic.summed_q_value_batch`` reads signed predictors off a
    sign-folded design; every value keeps the bits of the form in t."""

    ALPHAS = (0.0, 1e-12, 1e-6, 0.1, 0.5, 1.0, 2.0)

    @staticmethod
    def _problem(n, seed=0):
        gen = np.random.default_rng(seed)
        design = np.column_stack([np.ones(n), gen.uniform(-1.0, 1.0, (n, 2))])
        x = gen.integers(0, 2, n).astype(float)
        x[:2] = [0.0, 1.0]
        return gen, design, x

    @pytest.mark.parametrize("n", [8, 50, 700, 2000])
    def test_values_keep_the_bits_of_the_form_in_t(self, n):
        gen, design, x = self._problem(n)
        model = Logistic(design)
        data = Dataset(x, design)
        for m in (1, 2, 33):
            # |t| up to 3 * 248 = 744 for both labels
            for scale in (0.3, 5.0, 248.0):
                thetas = scale * gen.uniform(-1.0, 1.0, (m, 3))
                for alpha in self.ALPHAS:
                    want = _reference_summed_q(design, x, thetas, alpha).tobytes()
                    assert model.summed_q_value_batch(data.responses, thetas, alpha).tobytes() == want
                    assert model.summed_q_value_batch(x, thetas, alpha).tobytes() == want

    def test_two_datasets_alternating_on_one_model(self):
        gen, design, x = self._problem(50, seed=1)
        model = Logistic(design)
        thetas = gen.standard_normal((3, 3))
        first, second = Dataset(x, design), Dataset(1.0 - x, design)
        for data in (first, second, first, second):
            got = model.summed_q_value_batch(data.responses, thetas, 0.5)
            want = _reference_summed_q(design, data.responses, thetas, 0.5)
            assert got.tobytes() == want.tobytes()

    def test_a_response_vector_edited_between_calls_gets_fresh_values(self):
        gen, design, x = self._problem(50, seed=2)
        model = Logistic(design)
        thetas = gen.standard_normal((3, 3))
        view = x.view()
        view.flags.writeable = False  # read-only, but its base is not
        for y in (x, view):
            for _ in range(2):
                got = model.summed_q_value_batch(y, thetas, 0.5)
                want = _reference_summed_q(design, y, thetas, 0.5)
                assert got.tobytes() == want.tobytes()
                x[:] = 1.0 - x

    def test_responses_other_than_0_and_1_are_refused(self):
        _, design, _ = self._problem(8)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Logistic(design).summed_q_value_batch(np.full(8, 0.5), np.zeros(3), 0.5)
