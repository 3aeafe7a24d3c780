"""Laplace integral approximation and expansion diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from dpdbayes import (
    Dataset,
    FlatPrior,
    GaussianPrior,
    LinearKnownSigma,
    Logistic,
    alpha_likelihood,
    check_expansion_conditions,
    fit,
    laplace_expectation,
    laplace_integral,
)


@pytest.fixture(scope="module")
def one_dim_problem():
    def build(n, seed=131):
        design = np.ones((n, 1))
        model = LinearKnownSigma(design, 1.0)
        gen = np.random.default_rng(seed)
        data = Dataset(model.sample_responses([5.0], gen), design)
        return model, data

    return build


def _quadrature_log_integral(model, data, q_fn, alpha, lo=0.0, hi=10.0):
    point = fit(model, data, alpha).theta_hat
    shift = alpha_likelihood(model, data, point, alpha).value

    def integrand(b):
        return q_fn(np.array([b])) * math.exp(
            alpha_likelihood(model, data, np.array([b]), alpha).value - shift
        )

    value, _ = integrate.quad(integrand, lo, hi, limit=300)
    return math.log(value) + shift


class TestLaplaceIntegral:
    def test_exact_for_gaussian_objective(self):
        # alpha = 0 known-sigma linear: the objective is exactly quadratic,
        # so with a constant weight the approximation is exact.
        model, data = (
            LinearKnownSigma(np.ones((25, 1)), 1.0),
            None,
        )
        gen = np.random.default_rng(21)
        data = Dataset(model.sample_responses([5.0], gen), np.ones((25, 1)))
        approx = laplace_integral(model, data, lambda th: 1.0, 0.0)
        exact = _quadrature_log_integral(model, data, lambda th: 1.0, 0.0)
        assert approx.integral_value == pytest.approx(exact, abs=1e-9)

    def test_close_to_quadrature_with_prior_weight(self, one_dim_problem):
        model, data = one_dim_problem(50)
        prior = GaussianPrior([5.0], [[1.0]])
        q_fn = lambda th: math.exp(prior.log_density(th))
        approx = laplace_integral(model, data, q_fn, 0.3)
        exact = _quadrature_log_integral(model, data, q_fn, 0.3)
        assert abs(approx.integral_value - exact) < 0.05

    def test_error_shrinks_like_one_over_n(self, one_dim_problem):
        prior = GaussianPrior([5.0], [[1.0]])
        q_fn = lambda th: math.exp(prior.log_density(th))
        errors = {}
        for n in (50, 200):
            model, data = one_dim_problem(n)
            approx = laplace_integral(model, data, q_fn, 0.3)
            exact = _quadrature_log_integral(model, data, q_fn, 0.3)
            errors[n] = abs(approx.integral_value - exact)
        assert errors[200] < 0.5 * errors[50]

    def test_log_domain_shift_invariance(self, one_dim_problem):
        # Multiplying the weight by e^c adds exactly c to the log integral.
        model, data = one_dim_problem(40)
        base = laplace_integral(model, data, lambda th: 1.0, 0.25)
        shifted = laplace_integral(model, data, lambda th: math.exp(3.0), 0.25)
        assert shifted.integral_value - base.integral_value == pytest.approx(3.0, abs=1e-12)

    def test_rejects_nonpositive_weight(self, one_dim_problem):
        model, data = one_dim_problem(40)
        with pytest.raises(ValueError, match="positive"):
            laplace_integral(model, data, lambda th: 0.0, 0.25)


class TestLaplaceExpectation:
    def test_identity_returns_point_estimate(self, one_dim_problem):
        model, data = one_dim_problem(60)
        prior = GaussianPrior([5.0], [[1.0]])
        point = fit(model, data, 0.4).theta_hat
        value = laplace_expectation(model, data, prior, lambda th: th, 0.4)
        assert np.array_equal(value, point)

    def test_flat_prior_rejected(self, one_dim_problem):
        model, data = one_dim_problem(40)
        with pytest.raises(ValueError, match="proper prior"):
            laplace_expectation(model, data, FlatPrior(), lambda th: th, 0.2)

    def test_second_moment_close_to_quadrature(self, one_dim_problem):
        model, data = one_dim_problem(100)
        prior = GaussianPrior([5.0], [[1.0]])
        h = lambda th: th**2
        approx = float(laplace_expectation(model, data, prior, h, 0.3)[0])
        q_fn = lambda th: math.exp(prior.log_density(th))
        log_num = _quadrature_log_integral(
            model, data, lambda th: float(th[0] ** 2) * q_fn(th), 0.3
        )
        log_den = _quadrature_log_integral(model, data, q_fn, 0.3)
        exact = math.exp(log_num - log_den)
        assert abs(approx - exact) / exact < 0.05


class TestExpansionDiagnostics:
    def test_clean_data_has_negative_tail_suprema(self, one_dim_problem):
        model, data = one_dim_problem(60)
        report = check_expansion_conditions(model, data, 0.3, delta_grid=(0.5, 1.0, 2.0))
        assert all(v < 0.0 for v in report.tail_suprema.values())
        assert report.curvature_determinant > 0.0
        assert not report.warnings

    def test_rank_deficient_design_flagged(self):
        design = np.column_stack([np.ones(20), np.ones(20)])
        model = LinearKnownSigma(design, 1.0)
        gen = np.random.default_rng(8)
        data = Dataset(gen.standard_normal(20) + 3.0, design)
        report = check_expansion_conditions(
            model, data, 0.2, theta_hat=np.array([1.5, 1.5])
        )
        assert abs(report.curvature_determinant) < 1e-10
        assert any("flat direction" in w for w in report.warnings)

    def test_separated_logistic_warns(self):
        # Perfectly separated data: the likelihood has no interior maximum
        # and the curvature flattens along the separating direction.
        z = np.concatenate([-np.ones(10), np.ones(10)])
        design = z[:, None]
        responses = (z > 0).astype(float)
        model = Logistic(design)
        data = Dataset(responses, design)
        report = check_expansion_conditions(
            model, data, 0.1, theta_hat=np.array([15.0])
        )
        assert report.curvature_min_eigenvalue < 1e-4
        assert any("flat direction" in w for w in report.warnings)

    def test_separated_logistic_warns_at_its_own_fit(self):
        # Without theta_hat the flat fit is used and reported, not refused.
        x = np.linspace(-1.0, 1.0, 30)
        design = np.column_stack([np.ones(30), x])
        data = Dataset((x > 0.0).astype(float), design)
        report = check_expansion_conditions(Logistic(design), data, 0.3, n_grid=500)
        assert any("flat direction" in w for w in report.warnings)
