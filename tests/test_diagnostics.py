"""Efficiency closed forms and posterior-normality diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpdbayes import (
    TABLE_ARE_REFERENCE,
    are_table,
    bvm_distance,
    efficiency,
    posterior_mean_replications,
)
from dpdbayes.diagnostics import InsufficientSampleError, _anderson_darling_normal
from dpdbayes.models import LinearKnownSigma, LinearUnknownSigma, Logistic
from dpdbayes.posterior import PosteriorChain


def _fake_chain(draws):
    return PosteriorChain(
        draws=draws,
        log_post_values=np.zeros(draws.shape[0]),
        acceptance_rate=0.4,
        seed=0,
        alpha=0.3,
        burn_in=0,
        thinning=1,
    )


class TestEfficiency:
    def test_identity_case(self):
        report = efficiency(0.0)
        assert report.are_beta_percent == pytest.approx(100.0)
        assert report.are_sigma_percent == pytest.approx(100.0)
        assert report.upsilon_beta == pytest.approx(1.0)
        assert report.upsilon_sigma == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha,expected", list(TABLE_ARE_REFERENCE.items()))
    def test_reference_grid(self, alpha, expected):
        report = efficiency(alpha)
        assert abs(report.are_beta_percent - expected[0]) <= 0.005
        assert abs(report.are_sigma_percent - expected[1]) <= 0.005

    def test_zeta_ratio_identity_on_fine_grid(self):
        sigma = 1.37
        for alpha in np.linspace(0.0, 1.0, 51):
            report = efficiency(float(alpha), sigma)
            lhs = efficiency(2 * float(alpha), sigma).zeta_alpha / report.zeta_alpha**2
            assert lhs == pytest.approx(sigma**2 * report.upsilon_beta, abs=1e-12)

    def test_sigma_variance_matches_sandwich_blocks(self):
        # The printed scale-variance formula equals omega_ss / psi_ss^2 from
        # the closed-form asymptotic matrices.
        model = LinearUnknownSigma(np.ones((3, 1)))
        for alpha in [0.05, 0.3, 0.6, 1.0]:
            sigma = 1.21
            psi, omega = model.in_model_psi_omega(np.array([0.4, sigma]), alpha)
            direct = omega[-1, -1] / psi[-1, -1] ** 2
            assert direct == pytest.approx(
                sigma**2 * efficiency(alpha).upsilon_sigma, rel=1e-12
            )

    def test_monotone_decrease(self):
        grid = np.linspace(0.0, 1.0, 101)
        beta = [efficiency(float(a)).are_beta_percent for a in grid]
        sig = [efficiency(float(a)).are_sigma_percent for a in grid]
        assert np.all(np.diff(beta) < 0.0 + 1e-12)
        assert np.all(np.diff(sig) < 0.0 + 1e-12)

    def test_table_consistency_with_single_calls(self):
        reports = are_table([0.1, 0.5])
        assert reports[0].are_beta_percent == efficiency(0.1).are_beta_percent
        assert reports[1].are_sigma_percent == efficiency(0.5).are_sigma_percent

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            efficiency(-0.1)
        with pytest.raises(ValueError):
            efficiency(0.1, sigma=0.0)
        with pytest.raises(ValueError):
            are_table([])


class TestBvmDistance:
    def test_exact_gaussian_draws_have_small_distance(self):
        gen = np.random.default_rng(12)
        n = 9
        psi = np.array([[2.0]])
        draws = 3.0 + gen.standard_normal((50_000, 1)) / math.sqrt(n * 2.0)
        report = bvm_distance(_fake_chain(draws), np.array([3.0]), psi, n)
        assert report.tv_estimate < 0.03

    def test_affine_reparameterization_invariance(self):
        # Scaling the chain and the target covariance consistently moves the
        # estimate by no more than binning noise.
        gen = np.random.default_rng(13)
        draws = gen.standard_normal((30_000, 1)) * 0.5
        base = bvm_distance(_fake_chain(draws), np.zeros(1), np.array([[4.0]]), 1)
        scaled = bvm_distance(_fake_chain(3.0 * draws), np.zeros(1), np.array([[4.0 / 9.0]]), 1)
        assert abs(base.tv_estimate - scaled.tv_estimate) < 0.01

    def test_detects_wrong_scaling(self):
        gen = np.random.default_rng(14)
        draws = gen.standard_normal((30_000, 1))
        good = bvm_distance(_fake_chain(draws), np.zeros(1), np.eye(1), 1)
        bad = bvm_distance(_fake_chain(draws), np.zeros(1), 4.0 * np.eye(1), 1)
        assert bad.tv_estimate > good.tv_estimate + 0.2

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_a_psi_that_is_not_finite_is_refused(self, value):
        draws = np.random.default_rng(16).standard_normal((2000, 1))
        with pytest.raises(ValueError, match="psi must be a finite positive-definite matrix"):
            bvm_distance(_fake_chain(draws), np.zeros(1), np.array([[value]]), 10)

    def test_requires_enough_draws(self):
        draws = np.zeros((100, 1))
        with pytest.raises(InsufficientSampleError):
            bvm_distance(_fake_chain(draws), np.zeros(1), np.eye(1), 1)

    def test_multivariate_reports_marginal_average(self):
        gen = np.random.default_rng(15)
        draws = gen.standard_normal((20_000, 2))
        report = bvm_distance(_fake_chain(draws), np.zeros(2), np.eye(2), 1)
        assert len(report.per_coordinate) == 2
        assert report.tv_estimate == pytest.approx(
            float(np.mean(report.per_coordinate))
        )


class TestReplications:
    def test_known_sigma_small_study(self):
        gen = np.random.default_rng(31)
        design = np.column_stack([np.ones(80), gen.standard_normal(80)])
        model = LinearKnownSigma(design, 1.0)
        report = posterior_mean_replications(
            model, [5.0, 2.0], 0.25, replications=60, seed=5
        )
        assert report.failures == 0
        assert report.failures_by_kind == {}
        assert report.scaled_sigma_var is None
        target = report.upsilon_beta_target * np.eye(2)
        dev = np.linalg.norm(report.scaled_beta_cov - target) / np.linalg.norm(target)
        assert dev < 0.45  # loose: only 60 replications here
        assert len(report.anderson_darling) == 2

    def test_alpha_zero_recovers_classical_scaling(self):
        gen = np.random.default_rng(32)
        design = np.column_stack([np.ones(60), gen.standard_normal(60)])
        model = LinearKnownSigma(design, 1.0)
        report = posterior_mean_replications(model, [1.0, -1.0], 0.0, 60, seed=6)
        assert report.upsilon_beta_target == pytest.approx(1.0)

    def test_unknown_sigma_reports_scale_variance(self):
        gen = np.random.default_rng(33)
        design = np.column_stack([np.ones(80), gen.standard_normal(80)])
        model = LinearUnknownSigma(design)
        report = posterior_mean_replications(model, [5.0, 2.0, 1.0], 0.2, 40, seed=7)
        assert report.scaled_sigma_var is not None
        assert report.upsilon_sigma_target == pytest.approx(
            efficiency(0.2).upsilon_sigma
        )

    def test_logistic_study_counts_failures_by_kind(self):
        # Intercept and slope on 30 points with a steep true slope: 9 data
        # sets are separated (flat fits, refused), and a few heavy-tailed
        # small-n posteriors defeat the importance weights at every inflation.
        design = np.column_stack([np.ones(30), np.linspace(-1.0, 1.0, 30)])
        report = posterior_mean_replications(Logistic(design), [0.0, 4.0], 0.3, 200, seed=1)
        assert report.failures_by_kind["FitNotConvergedError"] == 9
        assert report.failures_by_kind.get("DegenerateWeightsError", 0) <= 10
        assert set(report.failures_by_kind) <= {"FitNotConvergedError", "DegenerateWeightsError"}
        assert report.failures == sum(report.failures_by_kind.values())
        assert report.estimates.shape == (200 - report.failures, 2)

    def test_an_undocumented_error_propagates(self):
        class PriorWithoutBatch:
            is_proper = True

            def log_density(self, theta):
                return 0.0

        gen = np.random.default_rng(31)
        model = LinearKnownSigma(np.column_stack([np.ones(40), gen.standard_normal(40)]), 1.0)
        with pytest.raises(AttributeError, match="log_density_batch"):
            posterior_mean_replications(
                model, [5.0, 2.0], 0.25, 5, seed=5, prior=PriorWithoutBatch()
            )

    def test_anderson_darling_statistic_pinned(self):
        # Value of scipy.stats.anderson(x).statistic for this sample (SciPy 1.17).
        x = np.random.default_rng(0).standard_normal(60)
        assert _anderson_darling_normal(x) == pytest.approx(0.23297306927704398, rel=1e-12)
