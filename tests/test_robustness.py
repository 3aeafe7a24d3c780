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
    WeightedDraws,
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

    def test_a_true_parameter_of_the_wrong_length_is_refused(self):
        model = LinearKnownSigma(np.ones((5, 1)), 1.0)
        with pytest.raises(ValueError, match=r"theta_g has 2 coordinates, model.dim is 1"):
            contamination_score(model, InModel([1.0, 2.0]), 0, [1.0], 3.0, 0.5)

    def test_a_true_scale_outside_the_parameter_space_is_refused(self):
        model = LinearUnknownSigma(np.ones((5, 1)))
        with pytest.raises(ValueError, match="outside the parameter space"):
            contamination_score(model, InModel([1.0, -2.0]), 0, [1.0, 1.0], 3.0, 0.5)

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
            np.exp(model.log_power_expectation_batch(theta, alpha, spec.theta_g)[0, 0])
        ) / alpha
        far = contamination_score(model, spec, 0, theta, 1e6, alpha)
        assert far == pytest.approx(limit, rel=1e-12)
        grid = np.linspace(-100, 100, 401)
        values = [contamination_score(model, spec, 0, theta, t, alpha) for t in grid]
        bound = (1.0 / alpha) * max(
            1.0,
            float(np.exp(model.log_power_expectation_batch(theta, alpha, spec.theta_g)[0, 0])),
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
# The family score kernels: the Gaussian terms against a 60-digit reference
# and against the generic route, and the generic route against its formula
# written out.
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


def _generic_score_formula(model, theta_g, thetas, alpha, rows, points):
    """The contamination-score formula of the generic route, written out:
    the point term a log f(t) plus the offset 0 - log m, and at a > 0 its
    expm1 against the weights m/a, summed by row."""
    work = model.log_density_batch(points, thetas, rows)
    if alpha == 0.0:
        work += 0.0 - model.log_density_expectation_batch(thetas, theta_g, rows)
        return np.einsum("ij->i", work)
    log_m = model.log_power_expectation_batch(thetas, alpha, theta_g, rows)
    work *= alpha
    work += 0.0 - log_m
    return np.einsum("ij,ij->i", np.expm1(work), np.exp(log_m) / alpha)


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
        expected = _generic_score_formula(model, theta_g, thetas, alpha, rows, points)
        assert np.array_equal(got, expected)


def _logistic_reference_score(model, theta, theta_g, alpha, rows, points):
    """(summed score, conditioning scale) of a ``Logistic`` model at 60
    digits from the float inputs.

    The scale is ``_reference_score``'s plus the first-order effect of
    relative errors in the two terms of m, g_x p_x^a = e^{a log p_x + log g_x}
    summed in log space: (m/a) d log m, or sum_x g_x p_x^a (|log p_x| +
    |log g_x|/a), which grows like 1/a.
    """
    with mp.workdps(60):
        f = mp.mpf
        a = f(float(alpha))

        def log_p(z, beta):  # log P(X = 1), log P(X = 0)
            eta = mp.fsum(f(float(zj)) * f(float(b)) for zj, b in zip(z, beta))
            return -mp.log1p(mp.exp(-eta)), -mp.log1p(mp.exp(eta))

        total = scale = f(0)
        for i, t in zip(rows, np.broadcast_to(points, len(rows))):
            log_p1, log_p0 = log_p(model.design[i], theta)
            log_g1, log_g0 = log_p(model.design[i], theta_g)
            log_f = log_p1 if t == 1.0 else log_p0
            if alpha == 0.0:
                expected_log_f = mp.exp(log_g1) * log_p1 + mp.exp(log_g0) * log_p0
                k = log_f - expected_log_f
                scale += abs(log_f) + abs(expected_log_f)
            else:
                pairs = [(log_p1, log_g1), (log_p0, log_g0)]
                log_m = mp.log(mp.fsum(mp.exp(a * lp + lg) for lp, lg in pairs))
                k = (mp.exp(a * log_f) - mp.exp(log_m)) / a
                scale += mp.exp(a * log_f) * (abs(log_f) + abs(log_m) / a) + abs(k)
                scale += mp.fsum(mp.exp(a * lp + lg) * (abs(lp) + abs(lg) / a) for lp, lg in pairs)
            total += k
        return total, scale


def _logistic_far_cases():
    """(model, theta_g, parameter rows): truths with intercepts -800, 0.5 and
    800 against rows whose intercepts run from -800 to 800, where the weight
    m/a of a row on the far side of the truth underflows; on an all-ones
    and on a two-column design."""
    gen = np.random.default_rng(44)
    intercepts = np.linspace(-800.0, 800.0, 9)
    cases = [(Logistic(np.ones((4, 1))), np.array([-800.0]), intercepts[:, None])]
    model = Logistic(_SCORE_DESIGN)
    for theta_g in ([-800.0, 0.5], [0.5, -1.0], [800.0, -0.5]):
        thetas = np.column_stack([intercepts, theta_g[1] + gen.standard_normal(9)])
        cases.append((model, np.array(theta_g), thetas))
    return cases


@pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.5, 1.0])
def test_logistic_scores_match_the_60_digit_reference(alpha):
    # Relative to the conditioning scale, down to the smallest normal double:
    # a subnormal score cannot hold 12 digits.
    tiny = np.finfo(float).tiny
    per_index = np.array([1.0, 0.0, 0.0, 1.0])
    for model, theta_g, thetas in _logistic_far_cases():
        for scenario in [AllDirections(points=0.0), AllDirections(points=1.0),
                         AllDirections(points=per_index), OneDirection(index=2, point=0.0),
                         OneDirection(index=2, point=1.0)]:
            rows, points = _scenario_block(scenario)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                terms = model.contamination_terms(thetas, alpha, theta_g, rows)
                got = _summed_scores(model, terms, points)
            idx = range(model.n) if rows == slice(None) else rows
            for theta, value in zip(thetas, got):
                exact, scale = _logistic_reference_score(model, theta, theta_g, alpha, idx, points)
                assert abs(mp.mpf(float(value)) - exact) <= 1e-12 * scale + tiny


def test_logistic_scores_near_the_truth_hold_12_digits_at_small_alpha():
    # Rows near the truth put m = sum_x g_x p_x^a within O(a) of 1.  The
    # scale is the Gaussian kernels' one, |k| + f^a(t) (|log f(t)| +
    # |log m|/a): it has no |log g_x|/a term, so log m must carry its O(a)
    # value to relative, not absolute, round-off.
    model = Logistic(_SCORE_DESIGN)
    theta_g = np.array([0.5, -1.0])
    thetas = theta_g + np.array([[0.0, 0.0], [0.3, -0.2], [-0.4, 0.5]])
    rows, points = _scenario_block(OneDirection(index=0, point=1.0))
    for alpha in (1e-9, 1e-6, 1e-3):
        got = _summed_scores(model, model.contamination_terms(thetas, alpha, theta_g, rows), points)
        with mp.workdps(60):
            a = mp.mpf(alpha)
            eta_g = mp.fsum(mp.mpf(float(z)) * mp.mpf(float(b)) for z, b in zip(model.design[0], theta_g))
            for theta, value in zip(thetas, got):
                eta = mp.fsum(mp.mpf(float(z)) * mp.mpf(float(b)) for z, b in zip(model.design[0], theta))
                log_p1, log_p0 = -mp.log1p(mp.exp(-eta)), -mp.log1p(mp.exp(eta))
                g1 = 1 / (1 + mp.exp(-eta_g))
                log_m = mp.log(g1 * mp.exp(a * log_p1) + (1 - g1) * mp.exp(a * log_p0))
                k = (mp.exp(a * log_p1) - mp.exp(log_m)) / a
                scale = abs(k) + mp.exp(a * log_p1) * (abs(log_p1) + abs(log_m) / a)
                assert abs(mp.mpf(float(value)) - k) <= 1e-12 * scale, (alpha, theta)


@pytest.mark.parametrize("alpha, exact", [(1.0, 1.0), (0.5, 2.0)])
def test_logistic_score_of_a_row_far_from_a_far_truth(alpha, exact):
    # log m is about -799 at a = 1, so m/a underflows where expm1 overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = contamination_score(Logistic(np.ones((4, 1))), InModel([-800.0]), 0, [800.0], 1.0, alpha)
    assert k == exact


def _far_point_cases():
    """(model, theta_g, parameter rows) of both Gaussian families, on a
    design of one repeated row (scored per distinct row) and on one of
    distinct rows; the free scale varies by row."""
    gen = np.random.default_rng(61)
    designs = [np.ones((12, 1)), np.column_stack([np.ones(12), gen.standard_normal(12)])]
    cases = []
    for design in designs:
        p = design.shape[1]
        beta_g = np.r_[5.0, np.ones(p - 1)]
        for model, theta_g in [
            (LinearKnownSigma(design, 1.3), beta_g),
            (LinearUnknownSigma(design), np.r_[beta_g, 1.3]),
        ]:
            thetas = theta_g + 0.3 * gen.standard_normal((200, model.dim))
            if model.scale_index is not None:
                thetas[:, -1] = 0.6 + 1.2 * gen.random(200)
            cases.append(pytest.param(model, theta_g, thetas, id=f"{type(model).__name__}-p{p}"))
    return cases


@pytest.fixture
def expm1_calls(monkeypatch):
    """A list that grows by one at every ``np.expm1`` call."""
    calls = []
    expm1 = np.expm1

    def counting(*args, **kwargs):
        calls.append(1)
        return expm1(*args, **kwargs)

    monkeypatch.setattr(np, "expm1", counting)
    return calls


class TestFarContaminationPoints:
    @pytest.mark.parametrize("model, theta_g, thetas", _far_point_cases())
    @pytest.mark.parametrize("alpha", [1e-9, 0.1, 0.8, 2.0])
    def test_scores_outside_the_hull_skip_the_exponentials_with_the_same_bits(
        self, model, theta_g, thetas, alpha, expm1_calls
    ):
        for scenario in [AllDirections(points=0.0), OneDirection(index=4, point=0.0)]:
            rows, _ = _scenario_block(scenario)
            terms = model.contamination_terms(thetas, alpha, theta_g, rows)
            full = terms._replace(far=None)
            lo, hi = terms.far.lo, terms.far.hi
            width = hi - lo
            grid = np.r_[
                np.linspace(lo - width, hi + width, 61),
                [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf)],
                [np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)],
            ]
            skipped = []
            for t in grid:
                before = len(expm1_calls)
                got = model.summed_contamination_scores(terms, t)
                skipped.append(len(expm1_calls) == before)
                assert np.array_equal(got, model.summed_contamination_scores(full, t))
            outside = (grid < lo) | (grid > hi)
            assert np.array_equal(skipped, outside)
            assert 0 < outside.sum() < grid.size

    @pytest.mark.parametrize("model, theta_g, thetas", _far_point_cases())
    def test_alpha_zero_and_per_index_points_take_the_full_path(
        self, model, theta_g, thetas, expm1_calls
    ):
        assert model.contamination_terms(thetas, 0.0, theta_g).far is None
        terms = model.contamination_terms(thetas, 0.5, theta_g)
        # Every point of the vector lies outside the hull.
        points = terms.far.hi + 1.0 + np.arange(model.n)
        got = model.summed_contamination_scores(terms, points)
        assert expm1_calls
        full = model.summed_contamination_scores(terms._replace(far=None), points)
        assert np.array_equal(got, full)

    @pytest.mark.parametrize("shift", [1e7, 1e9, 1e12])
    def test_offsets_beyond_the_rounding_margin_keep_the_bits(self, shift):
        # Means this far from the truth put offsets of 3e13 to 3e23 in the
        # exponent, whose rounding exceeds the margin beyond about 1e15; the
        # weights underflow to zero there.  Compared bit for bit, signs of
        # zero included.
        model = LinearKnownSigma(np.ones((3, 1)), 1.0)
        terms = model.contamination_terms(np.array([[shift], [5.5]]), 2.0, np.array([5.0]))
        full = terms._replace(far=None)
        lo, hi = terms.far.lo, terms.far.hi
        steps = np.linspace(0.0, 1e-6, 50)
        for t in np.r_[hi + steps * abs(hi), lo - steps * abs(lo)]:
            got = model.summed_contamination_scores(terms, t)
            expected = model.summed_contamination_scores(full, t)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_empty_terms_prepare_no_shortcut(self, location_setup):
        model, spec, prior = location_setup
        assert model.contamination_terms(np.empty((0, 1)), 0.5, spec.theta_g).far is None
        pif = pseudo_influence(
            model, spec, prior, 0.5, np.empty((0, 1)), [0.0, 50.0], McConfig(seed=1, draws=1000)
        )
        assert pif.surface.shape == (0, 2)

    def test_influence_values_at_far_points_are_the_full_paths(self, location_setup, monkeypatch):
        model, spec, prior = location_setup
        mc = McConfig(seed=5, draws=2000)
        t_grid = [-60.0, 5.0, 60.0]
        values, errors, _ = influence_curve(model, spec, prior, 0.5, t_grid, mc)
        far_one = OneDirection(index=2, point=60.0)
        one = influence_posterior_mean(model, spec, prior, 0.5, far_one, mc)
        terms_of = LinearKnownSigma.contamination_terms
        monkeypatch.setattr(
            LinearKnownSigma, "contamination_terms",
            lambda *args: terms_of(*args)._replace(far=None),
        )
        full_values, full_errors, _ = influence_curve(model, spec, prior, 0.5, t_grid, mc)
        full_one = influence_posterior_mean(model, spec, prior, 0.5, far_one, mc)
        assert np.array_equal(values, full_values) and np.array_equal(errors, full_errors)
        assert np.array_equal(one.estimate, full_one.estimate)
        assert np.array_equal(one.standard_error, full_one.standard_error)


def _overflow_cases():
    """(model, theta_g, parameter rows) of both Gaussian families with means
    from -100 to 100 against a truth at 5: at a = 0.5 the offsets of the rows
    farthest from the truth exceed log(DBL_MAX), and the row at 71.5 has a
    subnormal weight m/a.  On a design of one repeated row and on one of
    distinct rows."""
    designs = {"grouped": np.ones((6, 1)), "distinct": np.linspace(0.5, 1.5, 6)[:, None]}
    means = np.r_[np.linspace(-100.0, 100.0, 9), 71.5][:, None]
    cases = []
    for kind, design in designs.items():
        for model, theta_g, thetas in [
            (LinearKnownSigma(design, 1.0), np.array([5.0]), means),
            (LinearUnknownSigma(design), np.array([5.0, 1.0]),
             np.column_stack([means, np.linspace(0.8, 1.2, 10)])),
        ]:
            cases.append(pytest.param(model, theta_g, thetas, id=f"{type(model).__name__}-{kind}"))
    return cases


class TestOverflowingScores:
    """Parameter rows far from the truth, whose weight m/a underflows where
    expm1 of the exponent overflows, score f^a(t)/a - m/a, never inf * 0."""

    @pytest.mark.parametrize(
        "model, theta, theta_g",
        [
            (LinearKnownSigma(np.ones((20, 1)), 1.0), [100.0], [5.0]),
            (LinearUnknownSigma(np.ones((20, 1))), [100.0, 1.0], [5.0, 1.0]),
        ],
        ids=["known", "unknown"],
    )
    def test_score_at_the_mean_of_a_far_row(self, model, theta, theta_g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = contamination_score(model, InModel(theta_g), 0, theta, 100.0, 0.5)
        exact, _ = _reference_score(model, np.array(theta), np.array(theta_g), 0.5, [0], 100.0)
        assert k == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        assert k == pytest.approx(1.26324, abs=1e-5)

    @pytest.mark.parametrize("model, theta_g, thetas", _overflow_cases())
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_scores_match_the_60_digit_reference(self, model, theta_g, thetas, alpha):
        # Relative accuracy down to the smallest normal double; a subnormal
        # score cannot hold 12 digits.
        tiny = np.finfo(float).tiny
        offsets = np.linspace(-3.0, 3.0, model.n)
        for t in np.r_[np.linspace(-100.0, 100.0, 9), 60.0]:
            for scenario in _score_scenarios(float(t), offsets):
                rows, points = _scenario_block(scenario)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    terms = model.contamination_terms(thetas, alpha, theta_g, rows)
                    got = _summed_scores(model, terms, points)
                idx = range(model.n) if rows == slice(None) else rows
                for theta, value in zip(thetas, got):
                    exact, _ = _reference_score(model, theta, theta_g, alpha, idx, points)
                    assert float(value) == pytest.approx(float(exact), rel=1e-12, abs=tiny)

    def test_row_far_beyond_the_rounding_margin(self):
        # A row 1e100 from the truth, whose uncapped offset left a rounding
        # residue near 1e183 in the exponent at the far hull's edge.
        model = LinearKnownSigma(np.ones((3, 1)), 1.0)
        thetas, theta_g = np.array([[1e100], [5.5]]), np.array([5.0])
        terms = model.contamination_terms(thetas, 2.0, theta_g)
        hi = terms.far.hi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in [np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf), 5.5]:
                got = model.summed_contamination_scores(terms, t)
                full = model.summed_contamination_scores(terms._replace(far=None), t)
                assert np.array_equal(got, full) and np.all(np.isfinite(got))
                for theta, value in zip(thetas, got):
                    exact, _ = _reference_score(model, theta, theta_g, 2.0, range(3), t)
                    assert value == pytest.approx(float(exact), rel=1e-12, abs=np.finfo(float).tiny)

    def test_wide_pseudo_influence_grid_is_finite_and_exact(self, location_setup):
        model, spec, prior = location_setup
        theta_grid = np.linspace(-100.0, 100.0, 21)[:, None]
        t_grid = np.linspace(-100.0, 100.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pif = pseudo_influence(
                model, spec, prior, 0.5, theta_grid, t_grid, McConfig(seed=1, draws=2000)
            )
        assert np.all(np.isfinite(pif.surface))
        # Every index shares the one design row, so the summed score is n
        # times index 0's; a column of the surface is the grid's scores less
        # one centering constant.
        for j, t in enumerate(t_grid):
            exact = np.array([
                float(model.n * _reference_score(model, th, spec.theta_g, 0.5, [0], t)[0])
                for th in theta_grid
            ])
            centering = exact - pif.surface[:, j]
            assert np.all(np.abs(centering - centering[0]) <= 1e-12 * np.abs(exact).max())


class TestMcConfig:
    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("draws", 1500.5), ("seed", True)])
    def test_refuses_a_setting_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McConfig(**{"seed": 1, "draws": 2000, field: value})

    def test_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            McConfig(seed=-1)

    def test_takes_numpy_integers(self):
        mc = McConfig(seed=np.uint32(3), draws=np.int64(1000))
        assert (mc.seed, mc.draws) == (3, 1000)


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

    def test_an_infinite_curvature_at_a_box_edge_falls_back_to_the_identity(self):
        # The mode sits on the box's lower edge, where the stencil steps
        # outside the box and the curvature is infinite.
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        sample = functional_posterior_sample(
            model, InModel([5.0]), UniformBoxPrior([5.0], [6.0]), 0.5, McConfig(seed=1, draws=2000)
        )
        assert sample.warnings == (
            "curvature at the mode not positive definite; proposal uses the identity",
            "weights accepted at proposal inflation 1.5",
        )
        assert sample.effective_sample_size >= 50.0
        outside = (sample.draws[:, 0] < 5.0) | (sample.draws[:, 0] > 6.0)
        assert np.all(sample.weights[outside] == 0.0)
        assert 5.0 < float(sample.weights @ sample.draws[:, 0]) < 6.0

    @pytest.mark.parametrize("sigma_g", [-1.0, 0.0])
    def test_a_truth_outside_the_parameter_space_is_refused(self, sigma_g):
        model = LinearUnknownSigma(np.ones((5, 1)))
        prior = GaussianPrior([5.0, 1.0], np.eye(2))
        with pytest.raises(ValueError, match="outside the parameter space"):
            functional_posterior_sample(
                model, InModel([5.0, sigma_g]), prior, 0.5, McConfig(seed=1, draws=2000)
            )

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
    got = robustness._fd_derivatives(fn_batch, center)[0]
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


_MODE_PRIORS = {
    "N(5,1)": GaussianPrior([5.0], [[1.0]]),
    "N(100,0.01^2)": GaussianPrior([100.0], [[1e-4]]),
    "none": None,  # the breakdown's laplace route: the objective alone
}


def _mode_objective(model, spec, alpha, prior):
    if prior is None:
        return lambda thetas: robustness.alpha_likelihood_functional_batch(model, spec, thetas, alpha)
    return lambda thetas: robustness._log_posterior_rows(
        model, spec, thetas, alpha, prior.log_density_batch(thetas)
    )


def _mode_search(model, alpha, eps, mag, prior):
    spec = Contaminated(np.array([5.0]), eps, mag)
    fn_batch = _mode_objective(model, spec, alpha, _MODE_PRIORS[prior])
    return fn_batch, robustness._population_mode(fn_batch, model, spec)


@pytest.mark.parametrize("prior", list(_MODE_PRIORS))
@pytest.mark.parametrize("mag", [1e1, 1e6])
@pytest.mark.parametrize("eps", [0.0, 0.3, 0.7])  # at 0.7 and a > 0 the peak is near M
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_the_mode_is_no_worse_than_a_tight_nelder_mead(location_setup, alpha, eps, mag, prior):
    fn_batch, mode = _mode_search(location_setup[0], alpha, eps, mag, prior)

    def neg(theta):
        return -float(fn_batch(np.atleast_2d(theta))[0])

    reference = -math.inf
    for start in (5.0, mag, 100.0, float(mode[0])):
        res = robustness.optimize.minimize(
            neg, [start], method="Nelder-Mead",
            options={"xatol": 1e-13 * max(1.0, abs(start)),
                     "fatol": 1e-16 * max(1.0, abs(neg([start]))), "maxiter": 4000},
        )
        reference = max(reference, -float(res.fun))
    assert -neg(mode) >= reference - 4.0 * np.finfo(float).eps * abs(reference)


@pytest.mark.parametrize("prior", list(_MODE_PRIORS))
@pytest.mark.parametrize("mag", [1e1, 1e6])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_alpha_zero_mode_is_the_gaussian_closed_form(location_setup, eps, mag, prior):
    model = location_setup[0]
    fn_batch, mode = _mode_search(model, 0.0, eps, mag, prior)
    # Q(theta) = -n ((theta - mu)^2 + var) / (2 sigma^2) + const, mu the
    # contaminated mean, plus the Gaussian log prior if there is one.
    mu = (1.0 - eps) * 5.0 + eps * mag
    precision, weighted = model.n, model.n * mu
    if _MODE_PRIORS[prior] is not None:
        m, v = float(_MODE_PRIORS[prior].mean[0]), float(_MODE_PRIORS[prior].covariance[0, 0])
        precision, weighted = precision + 1.0 / v, weighted + m / v
    exact = weighted / precision
    # The objective is flat to its rounding within this radius of its peak.
    f_star = float(fn_batch(np.array([[exact]]))[0])
    radius = math.sqrt(2.0 * 4.0 * np.finfo(float).eps * abs(f_star) / precision)
    assert abs(mode[0] - exact) <= radius + robustness._BRACKET_TOL * max(1.0, abs(exact))


class TestModeSearchCalls:
    @pytest.mark.parametrize("model_name", ["location", "design7"])
    def test_bench_searches_are_few_batched_calls(self, location_setup, monkeypatch, model_name):
        # The bench influence workload's models, prior and tuning constants.
        location, spec, prior = location_setup
        design7 = (1.0 + np.random.default_rng(1).standard_normal(20)).reshape(-1, 1)
        model = location if model_name == "location" else LinearKnownSigma(design7, 1.0)
        population_mode = robustness._population_mode
        searches = []

        def counting(fn_batch, *args):
            rows = []

            def counted(thetas):
                rows.append(thetas.shape[0])
                return fn_batch(thetas)

            searches.append(rows)
            return population_mode(counted, *args)

        monkeypatch.setattr(robustness, "_population_mode", counting)
        for alpha in [1e-6, 0.1, 0.5, 0.8]:
            functional_posterior_sample(model, spec, prior, alpha, McConfig(seed=1, draws=2000))
        mags = [10.0**k for k in range(1, 7)]
        if model_name == "location":
            breakdown_experiment(model, prior, [5.0], 0.5, 0.3, mags, seed=2, draws=2000)
            breakdown_experiment(model, prior, [5.0], 0.5, 0.3, mags, seed=2, method="laplace")
        assert len(searches) == (4 if model_name == "design7" else 4 + 2 * (1 + len(mags)))
        assert [rows for rows in searches if min(rows) == 1 or len(rows) > 10] == []

    def test_a_box_edge_at_the_truth_is_found(self, location_setup):
        # The local grid holds theta_g itself, the box's lower edge and the
        # objective's peak, so the search never leaves the box; within the
        # objective's rounding it may settle just inside the edge.
        model, spec, _ = location_setup
        fn_batch = _mode_objective(model, spec, 0.5, UniformBoxPrior([5.0], [6.0]))
        mode = robustness._population_mode(fn_batch, model, spec)
        assert 5.0 <= mode[0] <= 5.0 + 1e-7
        assert fn_batch(mode[None, :])[0] >= fn_batch(np.array([[5.0]]))[0]
        sample = functional_posterior_sample(
            model, spec, UniformBoxPrior([5.0], [6.0]), 0.5, McConfig(seed=1, draws=2000)
        )
        assert sample.center.tolist() == mode.tolist()


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
        assert abs(est.estimate[0]) < max(3 * est.standard_error[0], 5e-3)

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
        assert total.estimate[0] == pytest.approx(model.n * single.estimate[0], rel=1e-9)

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
        assert loss.estimate[0] == pytest.approx(erpe.estimate[0], rel=1e-9, abs=1e-12)

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
            ).estimate[0]
            for t in [-50.0, 0.0, 50.0]
        ]
        assert np.all(np.isfinite(values))

    def test_huber_influence_on_bimodal_draws_without_curvature_at_the_mean(self, location_setup):
        from dpdbayes import huber_loss

        model, spec, prior = location_setup
        gen = np.random.default_rng(7)
        draws = np.concatenate([gen.normal(-2, 0.3, 800), gen.normal(3, 0.3, 1200)])
        w = np.full(draws.size, 1.0 / draws.size)
        sample = WeightedDraws(
            draws=draws[:, None], weights=w, effective_sample_size=float(draws.size), center=np.array([1.0])
        )
        loss = huber_loss(0.5)
        assert float(w @ loss.d2(draws, float(w @ draws))) == 0.0  # no draw within delta of the mean
        got = influence_bayes_estimate(
            model, spec, prior, 0.5, loss, AllDirections(points=8.0), McConfig(seed=1), sample=sample
        )
        t_star = loss.action(draws, w)
        scores = _summed_scores(model, model.contamination_terms(sample.draws, 0.5, spec.theta_g), 8.0)
        deviation = -loss.d1(sample.draws, t_star) / float(w @ loss.d2(draws, t_star))
        expected = ((scores - float(w @ scores)) @ (deviation * w[:, None]))[0]
        assert got.estimate[0] == expected and np.isfinite(got.standard_error[0])

    @pytest.mark.parametrize("component", [-1, 1, 0.5])
    def test_a_component_outside_the_parameters_is_refused_before_any_draw(
        self, location_setup, component, monkeypatch
    ):
        model, spec, prior = location_setup
        monkeypatch.setattr(robustness, "functional_posterior_sample", None)  # a draw would raise
        match = rf"component must be an integer in \[0, dim\) for dim = 1, got {component!r}$"
        with pytest.raises(ValueError, match=match):
            influence_bayes_estimate(
                model, spec, prior, 0.5, squared_error_loss(), AllDirections(points=8.0),
                McConfig(seed=1), component=component,
            )

    def test_absolute_error_influence_is_refused(self, location_setup):
        from dpdbayes import absolute_error_loss

        model, spec, prior = location_setup
        mc = McConfig(seed=26, draws=2000)
        with pytest.raises(ValueError, match="loss curvature at the estimate is not positive"):
            influence_bayes_estimate(
                model, spec, prior, 0.5, absolute_error_loss(), AllDirections(points=8.0), mc
            )


def _weighted_cov_vector(draws, weights, scores):
    """The parameter-score covariance as first written, centred per draw:
    the reference for the prepared deviations."""
    mean_theta = weights @ draws
    mean_score = float(weights @ scores)
    centered = (draws - mean_theta[None, :]) * (scores - mean_score)[:, None]
    return weights @ centered


def _fancy_index_estimate(sample, scores, statistic=_weighted_cov_vector):
    """(value, standard error) of ``statistic`` over ``np.array_split`` index
    blocks: the block layout as first written, copies and all."""
    draws, w = sample.draws, sample.weights
    value = np.atleast_1d(statistic(draws, w, scores))
    block_values = []
    for idx in np.array_split(np.arange(w.size), 10):
        wb = w[idx]
        tot = wb.sum()
        if tot > 0.0:
            block_values.append(np.atleast_1d(statistic(draws[idx], wb / tot, scores[idx])))
    block_values = np.asarray(block_values)
    return value, block_values.std(axis=0, ddof=1) / math.sqrt(block_values.shape[0])


def _two_coefficient_setup():
    gen = np.random.default_rng(41)
    model = LinearKnownSigma(np.column_stack([np.ones(15), gen.standard_normal(15)]), 1.0)
    return model, InModel(np.array([1.0, -0.5])), GaussianPrior([1.0, -0.5], np.eye(2))


def _score_calls(monkeypatch):
    """A list that records (rows scored, point) at every ``_summed_scores`` call."""
    calls = []
    summed = robustness._summed_scores

    def spy(model, terms, points):
        calls.append((terms.offset.shape[0], float(points)))
        return summed(model, terms, points)

    monkeypatch.setattr(robustness, "_summed_scores", spy)
    return calls


class TestInfluenceGrids:
    def test_weight_blocks_are_the_array_split_slices(self):
        for size in [*range(0, 23), 1000, 20_003]:
            weights = np.full(size, 1.0 / max(size, 1))
            blocks = WeightedDraws(np.zeros((size, 1)), weights, float(size), np.zeros(1)).blocks()
            assert all(isinstance(b, slice) for b, _ in blocks)
            # Every draw once, in order, in np.array_split's blocks.
            indices = [np.arange(size)[b].tolist() for b, _ in blocks]
            assert sum(indices, []) == list(range(size))
            splits = [idx.tolist() for idx in np.array_split(np.arange(size), 10) if idx.size]
            assert indices == splits
            for b, wb in blocks:
                assert np.array_equal(wb, weights[b] / weights[b].sum())

    def test_weight_blocks_skip_a_block_without_weight(self):
        weights = np.r_[np.zeros(10), np.full(90, 1.0 / 90)]
        blocks = WeightedDraws(np.zeros((100, 1)), weights, 90.0, np.zeros(1)).blocks()
        assert [(b.start, b.stop) for b, _ in blocks] == [(k, k + 10) for k in range(10, 100, 10)]

    @pytest.mark.parametrize("setup", ["location", "two-coefficient"])
    @pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.5])
    def test_curve_matches_the_per_draw_covariance(self, location_setup, setup, alpha):
        model, spec, prior = (
            location_setup if setup == "location" else _two_coefficient_setup()
        )
        mc = McConfig(seed=43, draws=4000)
        t_grid = np.linspace(-80.0, 80.0, 17)
        values, errors, sample = influence_curve(model, spec, prior, alpha, t_grid, mc)
        assert values.shape == errors.shape == (t_grid.size, model.dim)
        terms = model.contamination_terms(sample.draws, alpha, spec.theta_g)
        expected = [_fancy_index_estimate(sample, _summed_scores(model, terms, t)) for t in t_grid]
        scale = np.abs([v for v, _ in expected]).max()
        assert np.abs(values - [v for v, _ in expected]).max() <= 1e-13 * scale
        assert np.abs(errors - [e for _, e in expected]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("scenario", [OneDirection(index=3, point=7.0), AllDirections(points=-4.0)])
    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_posterior_mean_influence_matches_the_per_draw_covariance(self, scenario, alpha):
        model, spec, prior = _two_coefficient_setup()
        mc = McConfig(seed=44, draws=3000)
        sample = functional_posterior_sample(model, spec, prior, alpha, mc)
        got = influence_posterior_mean(model, spec, prior, alpha, scenario, mc, sample=sample)
        rows, points = _scenario_block(scenario)
        terms = model.contamination_terms(sample.draws, alpha, spec.theta_g, rows)
        value, error = _fancy_index_estimate(sample, _summed_scores(model, terms, points))
        scale = np.abs(value).max()
        assert np.abs(got.estimate - value).max() <= 1e-13 * scale
        assert np.abs(got.standard_error - error).max() <= 1e-13 * scale

    @pytest.mark.parametrize("loss_name", ["squared", "huber"])
    @pytest.mark.parametrize("component", [0, 1])
    def test_bayes_estimate_influence_keeps_the_fancy_index_bits(self, loss_name, component):
        from dpdbayes import huber_loss

        model, spec, prior = _two_coefficient_setup()
        loss = squared_error_loss() if loss_name == "squared" else huber_loss(0.3)
        mc = McConfig(seed=45, draws=3001)
        sample = functional_posterior_sample(model, spec, prior, 0.3, mc)
        scenario = AllDirections(points=6.0)
        got = influence_bayes_estimate(
            model, spec, prior, 0.3, loss, scenario, mc, component=component, sample=sample
        )
        draws, w = sample.draws[:, component], sample.weights
        t_star = loss.action(draws, w)
        denom = float(w @ loss.d2(draws, t_star))
        terms = model.contamination_terms(sample.draws, 0.3, spec.theta_g)

        def centred_covariance(x, wb, s):
            return (s - float(wb @ s)) @ ((-loss.d1(x[:, [component]], t_star) / denom) * wb[:, None])

        value, error = _fancy_index_estimate(sample, _summed_scores(model, terms, 6.0), centred_covariance)
        assert np.array_equal(got.estimate, value) and np.array_equal(got.standard_error, error)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_influence_does_not_move_with_the_score_level(self, alpha, monkeypatch):
        from dpdbayes import huber_loss

        model, spec, prior = _two_coefficient_setup()
        mc = McConfig(seed=48, draws=3000)
        sample = functional_posterior_sample(model, spec, prior, alpha, mc)
        scenario = AllDirections(points=6.0)

        def estimates():
            yield influence_posterior_mean(model, spec, prior, alpha, scenario, mc, sample=sample)
            for loss in (squared_error_loss(), huber_loss(0.3)):
                for component in range(model.dim):
                    yield influence_bayes_estimate(
                        model, spec, prior, alpha, loss, scenario, mc, component=component, sample=sample
                    )

        reference = list(estimates())
        summed = robustness._summed_scores
        monkeypatch.setattr(robustness, "_summed_scores", lambda *args: summed(*args) + 1e3)
        for got, ref in zip(estimates(), reference, strict=True):
            assert np.abs(got.estimate - ref.estimate).max() <= 1e-12 * np.abs(ref.estimate).max()
            assert np.abs(got.standard_error / ref.standard_error - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("setup", ["location", "two-coefficient"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_squared_error_influence_is_the_posterior_mean_influence(self, location_setup, setup, alpha):
        model, spec, prior = location_setup if setup == "location" else _two_coefficient_setup()
        mc = McConfig(seed=49, draws=20_000)
        sample = functional_posterior_sample(model, spec, prior, alpha, mc)
        mean, bayes = [], []
        for t in np.arange(-100.0, 100.0 + 1e-9, 10.0):
            mean.append(influence_posterior_mean(model, spec, prior, alpha, AllDirections(t), mc, sample=sample))
            bayes.append([
                influence_bayes_estimate(
                    model, spec, prior, alpha, squared_error_loss(), AllDirections(t), mc,
                    component=component, sample=sample,
                )
                for component in range(model.dim)
            ])
        values = np.array([est.estimate for est in mean])
        errors = np.array([est.standard_error for est in mean])
        bayes_values = np.array([[est.estimate[0] for est in row] for row in bayes])
        bayes_errors = np.array([[est.standard_error[0] for est in row] for row in bayes])
        assert np.abs(bayes_values - values).max() <= 1e-13 * np.abs(values).max()
        assert np.abs(bayes_errors / errors - 1.0).max() <= 1e-12

    def test_curve_scores_inside_points_only(self, location_setup, monkeypatch):
        model, spec, prior = location_setup
        mc = McConfig(seed=46, draws=2000)
        t_grid = np.linspace(-100.0, 100.0, 41)
        sample = functional_posterior_sample(model, spec, prior, 0.5, mc)
        terms = model.contamination_terms(sample.draws, 0.5, spec.theta_g)
        inside = [float(t) for t in t_grid if terms.far_scores(float(t)) is None]
        assert 0 < len(inside) < t_grid.size
        calls = _score_calls(monkeypatch)
        values, errors, _ = influence_curve(model, spec, prior, 0.5, t_grid, mc)
        assert calls == [(sample.draws.shape[0], t) for t in inside]
        # Every far point gets the estimate the per-point route gives its scores.
        deviations = sample.deviations()
        for j, t in enumerate(t_grid):
            if terms.far_scores(float(t)) is not None:
                est = sample.covariance(
                    deviations, model.summed_contamination_scores(terms, float(t))
                )
                assert np.array_equal(values[j], est.estimate)
                assert np.array_equal(errors[j], est.standard_error)

    def test_pseudo_influence_shares_far_statistics_with_the_same_bits(self, monkeypatch):
        gen = np.random.default_rng(47)
        model = LinearKnownSigma((1.0 + gen.standard_normal(20)).reshape(-1, 1), 1.0)
        spec, prior = InModel([5.0]), GaussianPrior([5.0], [[1.0]])
        mc = McConfig(seed=48, draws=2000)
        theta_grid = np.linspace(3.0, 7.0, 21)[:, None]
        t_grid = np.linspace(-100.0, 100.0, 81)
        sample = functional_posterior_sample(model, spec, prior, 0.4, mc)
        draw_terms = model.contamination_terms(sample.draws, 0.4, spec.theta_g)
        grid_terms = model.contamination_terms(theta_grid, 0.4, spec.theta_g)
        draw_far = [draw_terms.far_scores(float(t)) is not None for t in t_grid]
        grid_far = [grid_terms.far_scores(float(t)) is not None for t in t_grid]
        assert 0 < sum(draw_far) < t_grid.size and 0 < sum(grid_far) < t_grid.size
        calls = _score_calls(monkeypatch)
        got = pseudo_influence(model, spec, prior, 0.4, theta_grid, t_grid, mc)
        m, k = sample.draws.shape[0], theta_grid.shape[0]
        assert [t for rows, t in calls if rows == m] == list(t_grid[~np.array(draw_far)])
        assert [t for rows, t in calls if rows == k] == list(t_grid[~np.array(grid_far)])
        terms_of = LinearKnownSigma.contamination_terms
        monkeypatch.setattr(
            LinearKnownSigma, "contamination_terms",
            lambda *args: terms_of(*args)._replace(far=None),
        )
        full = pseudo_influence(model, spec, prior, 0.4, theta_grid, t_grid, mc)
        for field in ("surface", "posterior_variance", "centering_check", "centering_se"):
            assert np.array_equal(getattr(got, field), getattr(full, field)), field

    def test_far_scores_are_shared_only_by_common_far_points(self, location_setup):
        model, spec, _ = location_setup
        thetas = np.linspace(4.0, 6.0, 7)[:, None]
        terms = model.contamination_terms(thetas, 0.5, spec.theta_g)
        far = terms.far_scores(terms.far.hi + 1.0)
        assert far is terms.far.scores
        assert terms.far_scores(np.array([terms.far.lo - 1.0])) is far
        assert terms.far_scores(0.5 * (terms.far.lo + terms.far.hi)) is None
        assert terms.far_scores(np.full(model.n, terms.far.hi + 1.0)) is None
        copied = model.summed_contamination_scores(terms, terms.far.hi + 1.0)
        assert copied is not far and np.array_equal(copied, far)
        assert model.contamination_terms(thetas, 0.0, spec.theta_g).far_scores(1e6) is None


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

    @pytest.mark.parametrize(
        "design, grid",
        [
            (_SCORE_DESIGN, np.arange(12.0).reshape(4, 3)),
            (_SCORE_DESIGN, np.arange(6.0)),
            (_SCORE_DESIGN, np.zeros((2, 3, 2))),
            (np.ones((20, 1)), np.arange(6.0).reshape(3, 2)),
            (np.ones((20, 1)), 5.0),
        ],
        ids=["4x3-for-2", "vector-for-2", "3d-for-2", "3x2-for-1", "scalar-for-1"],
    )
    def test_mis_shaped_grid_rejected(self, design, grid):
        model = LinearKnownSigma(design, 1.0)
        prior = GaussianPrior(np.full(model.dim, 5.0), np.eye(model.dim))
        with pytest.raises(ValueError, match=rf"shape \(k, {model.dim}\)"):
            pseudo_influence(
                model, InModel(np.full(model.dim, 5.0)), prior, 0.5, grid,
                np.array([0.0, 10.0]), McConfig(seed=37, draws=1000),
            )

    def test_vector_grid_is_a_column_when_dim_is_one(self, location_setup):
        model, spec, prior = location_setup
        mc, grid = McConfig(seed=38, draws=1000), np.linspace(4.0, 6.0, 5)
        column = pseudo_influence(model, spec, prior, 0.5, grid[:, None], [0.0, 10.0], mc)
        vector = pseudo_influence(model, spec, prior, 0.5, grid, [0.0, 10.0], mc)
        assert vector.theta_grid.shape == (5, 1)
        assert np.array_equal(vector.surface, column.surface)

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
        # At a = 0 the contaminated objective reaches -2.1e10 at M = 1e5, flat
        # to its last bit within 3e-4 of the optimum; the search must still
        # stop on its bracket tolerance, not on a cap of zooms or walks.
        model, _, prior = location_setup
        bracket_mode = robustness._bracket_mode
        results = []

        def recording(*args, **kwargs):
            res = bracket_mode(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(robustness, "_bracket_mode", recording)
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
        capped = [(mode, half) for mode, half in results if half > robustness._BRACKET_TOL * max(1.0, abs(mode))]
        assert capped == []

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.45])
    def test_classical_functional_is_exact_past_the_objective_rounding(self, location_setup, eps):
        # At a = 0 the functional is (1 - eps) theta_g + eps M.  At M = 1e5
        # the objective is -2.1e10 and flat to its last bit within 3e-4 of
        # the optimum, where the search alone stops.
        model = location_setup[0]
        for mag in 10.0 ** np.arange(1, 7):
            spec = Contaminated(np.array([5.0]), eps, mag)
            got = minimum_divergence_functional(model, spec, 0.0)[0]
            exact = (1.0 - eps) * 5.0 + eps * mag
            assert abs(got - exact) <= 1e-10 * exact

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

    def test_pif_surface_csv_refuses_a_grid_of_several_coordinates(self, tmp_path):
        model = LinearKnownSigma(np.column_stack([np.ones(10), np.linspace(-1.0, 1.0, 10)]), 1.0)
        spec, prior = InModel([5.0, 1.0]), GaussianPrior.isotropic([5.0, 1.0], 10.0)
        # Rows that differ only in the second coordinate: one theta column
        # would write them as identical rows.
        theta_grid = np.array([[5.0, 0.5], [5.0, 1.5]])
        result = pseudo_influence(
            model, spec, prior, 0.4, theta_grid, [0.0, 10.0], McConfig(seed=53, draws=2_000)
        )
        path = tmp_path / "pif.csv"
        with pytest.raises(ValueError, match="dim = 2"):
            result.to_csv(path, alpha=0.4)
        assert not path.exists()

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
