"""Influence functions, pseudo-influence surfaces, sensitivities, breakdown."""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdbayes import (
    AllDirections,
    Contaminated,
    GaussianPrior,
    InModel,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    McConfig,
    ModelFamily,
    OneDirection,
    UniformBoxPrior,
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
from dpdbayes import robustness
from dpdbayes.robustness import (
    _scenario_block,
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
                    terms = model.contamination_terms(thetas, alpha, spec.theta_g, rows)
                    got = _summed_scores(model, terms, pts)
                    scale = np.abs(per_index).sum(axis=1)
                    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# The family score kernels: the Gaussian override against a 60-digit
# reference and against the generic route, and the generic route against
# the formula it replaced.
# ---------------------------------------------------------------------------

_SCORE_DESIGN = np.column_stack([np.ones(4), np.random.default_rng(5).standard_normal(4)])
_SCORE_ALPHAS = [0.0, 1e-6, 0.1, 0.5, 0.8]


def _gaussian_score_cases(count: int, seed: int):
    """(model, theta_g, parameter rows) with means near 5; the free scale of
    the rows differs from the truth's."""
    gen = np.random.default_rng(seed)
    known = LinearKnownSigma(_SCORE_DESIGN, 1.3)
    unknown = LinearUnknownSigma(_SCORE_DESIGN)
    cases = []
    for model, theta_g in [(known, np.array([5.0, 1.0])), (unknown, np.array([5.0, 1.0, 1.3]))]:
        thetas = theta_g + 0.3 * gen.standard_normal((count, model.dim))
        if model.scale_index is not None:
            thetas[:, -1] = 0.6 + 1.2 * gen.random(count)
        cases.append((model, theta_g, thetas))
    return cases


def _score_scenarios(t: float, offsets):
    """Common, per-index and one-direction points built from t."""
    return [
        AllDirections(points=t),
        AllDirections(points=t + offsets),
        OneDirection(index=2, point=t),
    ]


def _reference_score(model, theta, theta_g, alpha, rows, points):
    """(summed score, conditioning scale) at 60 digits from the float inputs.

    The scale adds to |k_i| the first-order effect of relative errors in the
    two terms the score compares: f_i^a(t) (|log f_i(t)| + |log m_i|/a) with
    m_i = integral f_i^a dG_i, or |log f_i(t)| + |E log f_i| at a = 0.  Near
    a sign change of k_i the score is a difference of nearly equal terms, and
    only this scale bounds the error of any floating-point route.
    """
    with mp.workdps(60):
        f = mp.mpf
        p = model.n_covariates
        s, sg = (model.sigma, model.sigma) if model.scale_index is None else (theta[p], theta_g[p])
        s, sg, a = f(float(s)), f(float(sg)), f(float(alpha))
        log_norm = -mp.log(2 * mp.pi) / 2 - mp.log(s)
        total = scale = f(0)
        for i, t in zip(rows, np.broadcast_to(points, len(rows))):
            z = [f(float(v)) for v in model.design[i]]
            mu = mp.fsum(zj * f(float(b)) for zj, b in zip(z, theta[:p]))
            delta = mu - mp.fsum(zj * f(float(b)) for zj, b in zip(z, theta_g[:p]))
            log_f = log_norm - (f(float(t)) - mu) ** 2 / (2 * s**2)
            if alpha == 0.0:
                expected_log_f = log_norm - (sg**2 + delta**2) / (2 * s**2)
                k = log_f - expected_log_f
                scale += abs(log_f) + abs(expected_log_f)
            else:
                excess = a * sg**2 / s**2
                log_m = (
                    a * log_norm - mp.log1p(excess) / 2 - a * delta**2 / (2 * s**2 * (1 + excess))
                )
                k = (mp.exp(a * log_f) - mp.exp(log_m)) / a
                scale += mp.exp(a * log_f) * (abs(log_f) + abs(log_m) / a) + abs(k)
            total += k
        return total, scale


def _max_errors(t_grid, offsets, count, seed):
    """Largest |error| / |score| and |error| / scale of the family kernel."""
    worst_rel = worst_scaled = 0.0
    for model, theta_g, thetas in _gaussian_score_cases(count, seed):
        for alpha in _SCORE_ALPHAS:
            for t in t_grid:
                for scenario in _score_scenarios(float(t), offsets):
                    rows, points = _scenario_block(scenario)
                    terms = model.contamination_terms(thetas, alpha, theta_g, rows)
                    got = _summed_scores(model, terms, points)
                    idx = range(model.n) if rows == slice(None) else rows
                    for theta, value in zip(thetas, got):
                        exact, scale = _reference_score(model, theta, theta_g, alpha, idx, points)
                        err = abs(mp.mpf(float(value)) - exact)
                        worst_rel = max(worst_rel, float(err / abs(exact)))
                        worst_scaled = max(worst_scaled, float(err / scale))
    return worst_rel, worst_scaled


def _generic_scores(model, thetas, alpha, theta_g, rows, points):
    """The ``ModelFamily`` score route, which the Gaussian families override."""
    terms = ModelFamily.contamination_terms(model, thetas, alpha, theta_g, rows)
    return ModelFamily.summed_contamination_scores(model, terms, points)


class TestGaussianScoreKernel:
    def test_accuracy_against_a_60_digit_reference(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Contamination points from -100 to 100 stay clear of every
            # score's sign change (the means are near 5): relative accuracy.
            far_rel, far_scaled = _max_errors(
                np.linspace(-100.0, 100.0, 7), np.array([-20.0, -10.0, 15.0, 25.0]), 16, 6
            )
            # Points across the means cross the sign changes: accuracy
            # relative to the conditioning scale.
            _, near_scaled = _max_errors(
                np.linspace(2.0, 8.0, 7), np.array([-2.0, -1.0, 1.0, 2.0]), 8, 7
            )
        assert far_rel <= 1e-15
        assert max(far_scaled, near_scaled) <= 1e-15

    @pytest.mark.parametrize("family", ["known", "unknown"])
    # Deterministic examples: a draw within about 1e-4 of a score's sign
    # change would be ill-conditioned for both routes.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        alpha=st.one_of(st.sampled_from(_SCORE_ALPHAS), st.floats(1e-9, 2.0)),
        t=st.floats(-100.0, 100.0),
        kind=st.sampled_from(["common", "per-index", "one"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_generic_route(self, family, alpha, t, kind, seed):
        known, unknown = _gaussian_score_cases(6, seed)
        model, theta_g, thetas = known if family == "known" else unknown
        offsets = np.random.default_rng(seed).uniform(-10.0, 10.0, model.n)
        scenarios = dict(zip(["common", "per-index", "one"], _score_scenarios(t, offsets)))
        rows, points = _scenario_block(scenarios[kind])
        terms = model.contamination_terms(thetas, alpha, theta_g, rows)
        got = _summed_scores(model, terms, points)
        generic = _generic_scores(model, thetas, alpha, theta_g, rows, points)
        idx = range(model.n) if rows == slice(None) else rows
        pts = np.broadcast_to(points, len(idx))
        magnitude = sum(
            np.abs(_generic_scores(model, thetas, alpha, theta_g, [i], pts[j]))
            for j, i in enumerate(idx)
        )
        assert np.all(np.abs(got - generic) <= 1e-12 * magnitude)


def _summed_scores_before_the_hook(model, theta_g, thetas, alpha, rows, points):
    """The contamination-score formula the generic route keeps: one
    log-density call and in-place updates of its result."""
    work = model.log_density_batch(points, thetas, rows)
    if alpha == 0.0:
        work -= model.log_density_expectation_batch(thetas, theta_g, rows)
    else:
        log_m = model.log_power_expectation_batch(thetas, alpha, theta_g, rows)
        work *= alpha
        work -= log_m
        np.expm1(work, out=work)
        work *= np.exp(log_m)
        work /= alpha
    return work.sum(axis=1)


@pytest.mark.parametrize("alpha", _SCORE_ALPHAS)
def test_logistic_scores_are_bit_identical_to_the_formula(alpha):
    gen = np.random.default_rng(43)
    design = np.column_stack([np.ones(30), gen.standard_normal((30, 2))])
    model = Logistic(design)
    theta_g = np.array([0.5, -1.0, 0.3])
    thetas = theta_g + 0.4 * gen.standard_normal((500, 3))
    per_index = (gen.random(30) < 0.5).astype(float)
    for scenario in [AllDirections(points=1.0), AllDirections(points=per_index),
                     OneDirection(index=7, point=0.0)]:
        rows, points = _scenario_block(scenario)
        terms = model.contamination_terms(thetas, alpha, theta_g, rows)
        got = _summed_scores(model, terms, points)
        expected = _summed_scores_before_the_hook(model, theta_g, thetas, alpha, rows, points)
        assert np.array_equal(got, expected)


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


    def test_a_singular_curvature_falls_back_to_the_identity(self):
        # The second coefficient multiplies an all-zero column and the box
        # prior is flat inside, so the finite-difference curvature is singular.
        model = LinearKnownSigma(np.column_stack([np.ones(20), np.zeros(20)]), 1.0)
        prior = UniformBoxPrior([0.0, -1.0], [10.0, 1.0])
        sample = functional_posterior_sample(
            model, InModel([5.0, 0.0]), prior, 0.5, McConfig(seed=3, draws=5000)
        )
        assert sample.warnings == (
            "curvature at the mode not positive definite; proposal uses the identity",
            "weights accepted at proposal inflation 1.5",
        )
        assert sample.effective_sample_size >= 50.0

    def test_a_regular_sample_has_no_warnings(self, location_setup):
        model, spec, prior = location_setup
        sample = functional_posterior_sample(model, spec, prior, 0.5, McConfig(seed=3, draws=2000))
        assert sample.warnings == ()


def _fd_curvature_one_row_at_a_time(fn, center):
    """The finite-difference curvature as a loop of scalar evaluations, one
    per stencil point: the reference for the one-call stencil."""
    dim = center.size
    h = 1e-4 * np.maximum(1.0, np.abs(center))
    hess = np.empty((dim, dim))
    f0 = fn(center)
    for j in range(dim):
        ej = np.zeros(dim)
        ej[j] = h[j]
        hess[j, j] = (fn(center + ej) - 2.0 * f0 + fn(center - ej)) / h[j] ** 2
        for k in range(j):
            ek = np.zeros(dim)
            ek[k] = h[k]
            mixed = (
                fn(center + ej + ek)
                - fn(center + ej - ek)
                - fn(center - ej + ek)
                + fn(center - ej - ek)
            ) / (4.0 * h[j] * h[k])
            hess[j, k] = hess[k, j] = mixed
    return -hess


def _stencil_case(case):
    z = np.column_stack([np.ones(50), np.random.default_rng(7).standard_normal(50)])
    if case == "known-sigma":
        return LinearKnownSigma(np.ones((20, 1)), 1.0), InModel([5.0]), GaussianPrior([5.0], [[1.0]])
    if case == "known-sigma-contaminated":
        spec = Contaminated(np.array([5.0]), 0.3, 100.0)
        return LinearKnownSigma(np.ones((20, 1)), 1.0), spec, GaussianPrior([5.0], [[1.0]])
    if case == "unknown-sigma":
        return LinearUnknownSigma(z), InModel([5.0, 2.0, 1.0]), GaussianPrior.isotropic([5.0, 2.0, 1.0], 10.0)
    return Logistic(z), InModel([0.5, -1.0]), GaussianPrior.isotropic([0.0, 0.0], 10.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("case", ["known-sigma", "known-sigma-contaminated", "unknown-sigma", "logistic"])
def test_curvature_stencil_is_one_call_with_the_loop_values(case, alpha):
    model, spec, prior = _stencil_case(case)
    calls = []

    def fn_batch(thetas):
        calls.append(thetas.shape[0])
        return robustness._log_posterior_rows(model, spec, thetas, alpha, prior.log_density_batch(thetas))

    center = robustness._population_mode(fn_batch, model, spec)
    calls.clear()
    got = robustness._fd_curvature(fn_batch, center)
    dim = model.dim
    assert calls == [1 + 2 * dim + 2 * dim * (dim - 1)]
    expected = _fd_curvature_one_row_at_a_time(lambda th: float(fn_batch(th[None, :])[0]), center)
    if case != "logistic":
        assert np.array_equal(got, expected)
    else:
        # A multi-row logistic block goes through gemm, a single row through
        # gemv, and their linear predictors differ in the last bits.  The
        # curvature may then move by the stencil's own rounding error,
        # eps |f| / (h_j h_k).
        h = 1e-4 * np.maximum(1.0, np.abs(center))
        rounding = np.finfo(float).eps * abs(fn_batch(center[None, :])[0]) / np.outer(h, h)
        assert np.all(np.abs(got - expected) <= 8.0 * rounding)


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

    @pytest.mark.parametrize("which", ["posterior-mean", "curve", "bayes-estimate", "pseudo"])
    def test_contaminated_truth_rejected(self, location_setup, which):
        model, _, prior = location_setup
        spec = Contaminated(np.array([5.0]), 0.1, 50.0)
        mc = McConfig(seed=27, draws=2000)
        scenario = AllDirections(points=8.0)
        calls = {
            "posterior-mean": lambda: influence_posterior_mean(model, spec, prior, 0.4, scenario, mc),
            "curve": lambda: influence_curve(model, spec, prior, 0.4, [8.0], mc),
            "bayes-estimate": lambda: influence_bayes_estimate(
                model, spec, prior, 0.4, squared_error_loss(), scenario, mc
            ),
            "pseudo": lambda: pseudo_influence(model, spec, prior, 0.4, [[5.0]], [8.0], mc),
        }
        with pytest.raises(TypeError, match="uncontaminated truth"):
            calls[which]()

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

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_posterior_variance_is_the_sample_variance_of_the_scores(self, location_setup, alpha):
        model, spec, prior = location_setup
        mc = McConfig(seed=36, draws=5000)
        t_grid = np.array([-20.0, 0.0, 3.5, 20.0])
        result = pseudo_influence(model, spec, prior, alpha, np.array([[5.0]]), t_grid, mc)
        sample = functional_posterior_sample(model, spec, prior, alpha, mc)
        terms = model.contamination_terms(sample.draws, alpha, spec.theta_g)
        expected = [sample.variance(_summed_scores(model, terms, t)) for t in t_grid]
        assert np.array_equal(result.posterior_variance, expected)


    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision long double"
    )
    def test_centering_check_against_a_long_double_reference(self):
        # The split-half discrepancy is a difference of two nearly equal
        # half means; taken from the centered scores it keeps its accuracy.
        gen = np.random.default_rng(37)
        model = LinearKnownSigma((1.0 + gen.standard_normal(20)).reshape(-1, 1), 1.0)
        spec = InModel([5.0])
        prior = GaussianPrior([5.0], [[1.0]])
        t_grid = np.arange(-100.0, 100.0 + 1e-9, 4.0)
        for alpha, seed in [(0.1, 1), (0.1, 2), (0.8, 3)]:
            mc = McConfig(seed=seed, draws=5000)
            result = pseudo_influence(model, spec, prior, alpha, [[5.0]], t_grid, mc)
            sample = functional_posterior_sample(model, spec, prior, alpha, mc)
            terms = model.contamination_terms(sample.draws, alpha, spec.theta_g)
            w = sample.weights.astype(np.longdouble)
            half = w.size // 2
            reference = []
            for t in t_grid:
                k = _summed_scores(model, terms, t).astype(np.longdouble)
                reference.append(
                    np.sum(w[:half] * k[:half]) / np.sum(w[:half])
                    - np.sum(w[half:] * k[half:]) / np.sum(w[half:])
                )
            reference = np.array(reference)
            error = np.max(np.abs(result.centering_check - reference)) / np.max(np.abs(reference))
            assert error <= 1e-13

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

    def test_every_population_mode_search_converges(self, location_setup, monkeypatch):
        # At a = 0 the contaminated objective reaches -1.9e4 at M = 100, where
        # one ulp exceeds an absolute function tolerance of 1e-12; the search
        # must still stop on its tolerance, not on an iteration cap.
        model, _, prior = location_setup
        minimize = robustness.optimize.minimize
        results = []

        def recording(*args, **kwargs):
            res = minimize(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(robustness.optimize, "minimize", recording)
        mags = np.array([10.0**k for k in range(1, 7)])
        for alpha in [0.0, 0.5]:
            for eps in [0.1, 0.3, 0.45]:
                laplace = breakdown_experiment(
                    model, prior, [5.0], alpha, eps, mags, seed=45, method="laplace"
                )
                breakdown_experiment(model, prior, [5.0], alpha, eps, mags, seed=45, draws=2000)
                if alpha == 0.0:
                    exact = (1.0 - eps) * 5.0 + eps * mags
                    assert np.all(np.abs(laplace.estimates - exact) <= 1e-7 * exact)
        assert len(results) == 2 * 3 * 2 * (1 + mags.size)
        assert [res.message for res in results if not res.success] == []

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
