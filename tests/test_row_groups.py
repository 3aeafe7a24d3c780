"""Population sums over distinct design rows.

The population objective and the all-index contamination scores depend on
an index only through its design row, so a family computes them once per
distinct row and weights each by its count.  These tests hold the grouped
sums to the per-index ones, the all-distinct route to the formulas it has
always used, and the shapes of contamination points to what the sums accept.
"""

from __future__ import annotations

import math

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
    OneDirection,
    QuadratureFamily,
    alpha_likelihood_functional_batch,
    influence_curve,
    influence_posterior_mean,
)
from dpdbayes.models import _log_norm
from dpdbayes.robustness import _scenario_block, _summed_scores

_EPS = np.finfo(float).eps


class _QuadratureLocation(QuadratureFamily):
    """x_i ~ N(z_i' theta, 1) through the quadrature fallbacks."""

    @property
    def dim(self):
        return self.n_covariates

    def support(self):
        return (-math.inf, math.inf)

    def log_density_scalar(self, i, x, theta):
        r = x - float(self.design[i] @ theta)
        return -0.5 * math.log(2.0 * math.pi) - 0.5 * r * r


def _family(kind: str, design: np.ndarray):
    """(model, theta_g, contamination points) of a family on ``design``."""
    p = design.shape[1]
    if kind == "known":
        return LinearKnownSigma(design, 1.3), np.linspace(0.5, -0.5, p), [-30.0, 0.7, 4.0]
    if kind == "unknown":
        return LinearUnknownSigma(design), np.append(np.linspace(0.5, -0.5, p), 1.3), [-30.0, 0.7]
    if kind == "logistic":
        return Logistic(design), np.linspace(0.5, -1.0, p), [0.0, 1.0]
    return _QuadratureLocation(design[:, :1]), np.array([0.4]), [-3.0, 1.5]


def _parameter_rows(model, theta_g, m: int, gen) -> np.ndarray:
    thetas = theta_g + 0.3 * gen.standard_normal((m, model.dim))
    if model.scale_index is not None:
        thetas[:, model.scale_index] = np.abs(thetas[:, model.scale_index])
    return thetas


def _objective_terms(model, spec, thetas, alpha):
    """(m, n) per-index terms of the population objective, in the operation
    order of the per-index route."""
    contaminated = isinstance(spec, Contaminated) and spec.eps > 0.0
    if alpha == 0.0:
        eld = model.log_density_expectation_batch(thetas, spec.theta_g)
        if contaminated:
            eld = (1.0 - spec.eps) * eld + spec.eps * model.log_density_batch(spec.points, thetas)
        return eld - 1.0
    log_m = model.log_power_expectation_batch(thetas, alpha, spec.theta_g)
    if contaminated:
        log_f_t = model.log_density_batch(spec.points, thetas)
        data_part = (
            (1.0 - spec.eps) * np.expm1(log_m) + spec.eps * np.expm1(alpha * log_f_t)
        ) / alpha
    else:
        data_part = np.expm1(log_m) / alpha
    return data_part - np.exp(model.log_power_integral_batch(thetas, alpha)) / (1.0 + alpha)


def _per_index_scores(model, thetas, alpha, theta_g, points):
    """(m, n) scores k_i, one index block at a time (no grouping)."""
    pts = np.broadcast_to(np.asarray(points, dtype=float), (model.n,))
    columns = [
        model.summed_contamination_scores(
            model.contamination_terms(thetas, alpha, theta_g, [i]), pts[i]
        )
        for i in range(model.n)
    ]
    return np.column_stack(columns)


def _all_index_scores_per_index_route(model, thetas, alpha, theta_g, points):
    """The all-index score kernel of the per-index route: the same formulas
    as the family's, written out."""
    if isinstance(model, LinearKnownSigma):
        betas, sigma = model._split(thetas)
        if alpha == 0.0:
            offset = _log_norm(sigma) - model.log_density_expectation_batch(thetas, theta_g)
            factor, weights = -0.5 / sigma**2, None
        else:
            log_m = model.log_power_expectation_batch(thetas, alpha, theta_g)
            offset = alpha * _log_norm(sigma) - log_m
            weights = np.exp(log_m) / alpha
            factor = -0.5 * alpha / sigma**2
        work = np.subtract(np.asarray(points, dtype=float), betas @ model.design.T)
        work *= work
        work *= factor
        work += offset
        if weights is None:
            return np.einsum("ij->i", work)
        return np.einsum("ij,ij->i", np.expm1(work), weights)
    work = model.log_density_batch(points, thetas)
    if alpha == 0.0:
        work += 0.0 - model.log_density_expectation_batch(thetas, theta_g)
        return np.einsum("ij->i", work)
    log_m = model.log_power_expectation_batch(thetas, alpha, theta_g)
    work *= alpha
    work += 0.0 - log_m
    return np.einsum("ij,ij->i", np.expm1(work), np.exp(log_m) / alpha)


@st.composite
def _repeated_designs(draw, columns: int, dyadic: bool = False):
    """(design, largest count, seed): 1-3 distinct rows, each repeated 2-5
    times, in shuffled order; ``dyadic`` entries are multiples of 1/4."""
    counts = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if dyadic:
        rows = gen.integers(-8, 9, (len(counts), columns)) / 4.0
    else:
        rows = gen.standard_normal((len(counts), columns))
    design = np.repeat(rows, counts, axis=0)[gen.permutation(sum(counts))]
    return design, max(counts), seed


_KINDS = ["known", "unknown", "logistic", "quadrature"]


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=25, deadline=None)
@given(drawn=_repeated_designs(2), alpha=st.sampled_from([0.0, 1e-6, 0.3, 0.8]),
       eps=st.sampled_from([0.0, 0.2]), choice=st.integers(0, 2))
def test_grouped_objective_equals_the_per_index_sum(kind, drawn, alpha, eps, choice):
    design, largest, seed = drawn
    model, theta_g, points = _family(kind, design)
    gen = np.random.default_rng(seed)
    thetas = _parameter_rows(model, theta_g, 2 if kind == "quadrature" else 6, gen)
    point = points[choice % len(points)]
    spec = Contaminated(theta_g, eps, point) if eps else InModel(theta_g)
    got = alpha_likelihood_functional_batch(model, spec, thetas, alpha)
    terms = _objective_terms(model, spec, thetas, alpha)
    scale = np.abs(terms).sum(axis=1)
    assert np.all(np.abs(got - terms.sum(axis=1)) <= 4 * largest * _EPS * scale)


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=25, deadline=None)
@given(drawn=_repeated_designs(2), alpha=st.sampled_from([0.0, 1e-6, 0.3, 0.8]),
       choice=st.integers(0, 2))
def test_grouped_scores_equal_the_per_index_sum(kind, drawn, alpha, choice):
    design, largest, seed = drawn
    model, theta_g, points = _family(kind, design)
    gen = np.random.default_rng(seed)
    thetas = _parameter_rows(model, theta_g, 2 if kind == "quadrature" else 6, gen)
    point = points[choice % len(points)]
    terms = model.contamination_terms(thetas, alpha, theta_g)
    per_index = _per_index_scores(model, thetas, alpha, theta_g, point)
    scale = np.abs(per_index).sum(axis=1)
    for common in (point, np.array([point])):
        got = _summed_scores(model, terms, common)
        assert np.all(np.abs(got - per_index.sum(axis=1)) <= 4 * largest * _EPS * scale)


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.0, 1e-6, 0.3, 0.8]), eps=st.sampled_from([0.0, 0.2]))
def test_all_distinct_rows_keep_the_per_index_route(kind, n, seed, alpha, eps):
    gen = np.random.default_rng(seed)
    model, theta_g, points = _family(kind, gen.standard_normal((n, 2)))
    assert model._row_groups is None
    thetas = _parameter_rows(model, theta_g, 2 if kind == "quadrature" else 6, gen)
    spec = Contaminated(theta_g, eps, points[0]) if eps else InModel(theta_g)
    got = alpha_likelihood_functional_batch(model, spec, thetas, alpha)
    assert np.array_equal(got, _objective_terms(model, spec, thetas, alpha).sum(axis=1))
    terms = model.contamination_terms(thetas, alpha, theta_g)
    for point in points:
        expected = _all_index_scores_per_index_route(model, thetas, alpha, theta_g, point)
        assert np.array_equal(_summed_scores(model, terms, point), expected)


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=15, deadline=None)
@given(drawn=_repeated_designs(2, dyadic=True), alpha=st.sampled_from([0.0, 1e-6, 0.3, 0.8]))
def test_per_index_points_on_repeated_rows_take_the_per_index_formula(kind, drawn, alpha):
    # Dyadic design rows and parameters make every linear predictor exact,
    # so a product over the distinct rows and one over every row (gemv and
    # gemm) agree bit for bit, and so must the scores built on them.
    design, _, seed = drawn
    model, theta_g, points = _family(kind, design)
    gen = np.random.default_rng(seed)
    m = 2 if kind == "quadrature" else 6
    thetas = theta_g + gen.integers(-4, 5, (m, model.dim)) / 8.0
    if model.scale_index is not None:
        thetas[:, model.scale_index] = gen.integers(5, 17, m) / 8.0
    per_index_points = gen.choice(points, model.n)
    terms = model.contamination_terms(thetas, alpha, theta_g)
    got = _summed_scores(model, terms, per_index_points)
    expected = _all_index_scores_per_index_route(model, thetas, alpha, theta_g, per_index_points)
    assert np.array_equal(got, expected)
    # Per-index contamination of the population objective is summed per index.
    spec = Contaminated(theta_g, 0.2, per_index_points)
    got = alpha_likelihood_functional_batch(model, spec, thetas, alpha)
    assert np.array_equal(got, _objective_terms(model, spec, thetas, alpha).sum(axis=1))


def test_location_influence_curve_scores_one_column(monkeypatch):
    model = LinearKnownSigma(np.ones((20, 1)), 1.0)
    kernel = LinearKnownSigma.summed_contamination_scores
    widths = []

    def spy(self, terms, points):
        widths.append(terms[0].shape[1])
        return kernel(self, terms, points)

    monkeypatch.setattr(LinearKnownSigma, "summed_contamination_scores", spy)
    values, _, _ = influence_curve(
        model, InModel([5.0]), GaussianPrior([5.0], [[1.0]]), 0.5, [0.0, 5.0, 9.0],
        McConfig(seed=3, draws=2000),
    )
    assert widths == [1, 1, 1]
    assert np.all(np.isfinite(values))


class TestContaminationPointShapes:
    def test_one_direction_point_must_be_a_scalar(self):
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        with pytest.raises(ValueError, match="must be a scalar"):
            influence_posterior_mean(
                model, InModel([5.0]), GaussianPrior([5.0], [[1.0]]), 0.5,
                OneDirection(index=3, point=np.zeros(4)), McConfig(seed=1, draws=1000),
            )

    @pytest.mark.parametrize("size", [0, 2, 3, 19, 21])
    def test_all_directions_points_are_one_or_one_per_index(self, size):
        with pytest.raises(ValueError, match="20 values"):
            _scenario_block(AllDirections(points=np.zeros(size)), 20)
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        with pytest.raises(ValueError, match="20 values"):
            influence_posterior_mean(
                model, InModel([5.0]), GaussianPrior([5.0], [[1.0]]), 0.5,
                AllDirections(points=np.zeros(size)), McConfig(seed=1, draws=1000),
            )

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("design", [np.ones((20, 1)), np.linspace(1.0, 2.0, 20)[:, None]])
    def test_contaminated_points_are_one_or_one_per_index(self, eps, design):
        model = LinearKnownSigma(design, 1.0)
        thetas = np.array([[4.0], [5.0], [6.0]])
        with pytest.raises(ValueError, match="20 values"):
            alpha_likelihood_functional_batch(model, Contaminated([5.0], eps, np.zeros(3)), thetas, 0.5)
        common = alpha_likelihood_functional_batch(model, Contaminated([5.0], eps, 8.0), thetas, 0.5)
        single = alpha_likelihood_functional_batch(
            model, Contaminated([5.0], eps, np.array([8.0])), thetas, 0.5
        )
        assert np.array_equal(single, common)

    def test_a_length_one_array_is_a_common_point(self):
        model = LinearKnownSigma(np.ones((20, 1)), 1.0)
        thetas = np.array([[4.0], [5.0], [6.0]])
        for scenario in (AllDirections(points=8.0), AllDirections(points=np.array([8.0]))):
            rows, points = _scenario_block(scenario, model.n)
            terms = model.contamination_terms(thetas, 0.5, [5.0], rows)
            assert np.array_equal(
                _summed_scores(model, terms, points),
                _summed_scores(model, model.contamination_terms(thetas, 0.5, [5.0]), 8.0),
            )
