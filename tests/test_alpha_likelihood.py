"""Objective values, derivatives, and the population functional."""

from __future__ import annotations

import functools
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdbayes import (
    Contaminated,
    Dataset,
    InModel,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    alpha_likelihood,
    alpha_likelihood_batch,
    alpha_likelihood_functional,
    alpha_likelihood_functional_batch,
    dpd_loss,
)
from dpdbayes.alpha_likelihood import _BLOCK_VALUES, _FUNCTIONAL_BLOCK_VALUES

INV_SQRT_2PI = (2.0 * math.pi) ** -0.5


class TestObjectiveValue:
    def test_frozen_linear_example(self):
        # sigma=1, n=1, z=1, beta=0, x=0, a=1.  The raw value keeps the -1/a
        # constant of the definition; the scaled-constant variant of the
        # family-specific closed form differs by exactly n(c - 1)/a with
        # c = (2 pi)^{-a/2} sigma^{-a}.
        model = LinearKnownSigma(np.array([[1.0]]), 1.0)
        data = Dataset([0.0], [[1.0]])
        value = alpha_likelihood(model, data, [0.0], 1.0).value
        c = INV_SQRT_2PI
        assert value == pytest.approx(c - 0.5 * c * 2**-0.5 - 1.0, abs=1e-12)
        assert value == pytest.approx(-0.7421051154855064, abs=1e-12)
        scaled_constant_variant = c * (1.0 - 2.0**-1.5 - 1.0)
        assert scaled_constant_variant == pytest.approx(-0.1410473958869391, abs=1e-12)
        assert value - scaled_constant_variant == pytest.approx(c - 1.0, abs=1e-12)

    def test_frozen_logistic_example(self):
        # z=0 makes the success probability 1/2 for any beta.
        model = Logistic(np.array([[0.0]]))
        data = Dataset([1.0], [[0.0]])
        for beta in [-1.0, 0.0, 2.5]:
            value = alpha_likelihood(model, data, [beta], 1.0).value
            assert value == pytest.approx(-0.75, abs=1e-14)

    def test_small_alpha_approaches_loglikelihood_minus_n(self):
        # The gap scales like alpha * n, so the stated 1e-4 bound is a
        # desk-scale statement; checked here at n = 12.
        gen = np.random.default_rng(41)
        design = np.column_stack([np.ones(12), gen.standard_normal(12)])
        model = LinearKnownSigma(design, 1.0)
        beta = np.array([5.0, 2.0])
        data = Dataset(model.sample_responses(beta, gen), design)
        loglik = float(np.sum(model.log_density_batch(data.responses, beta)[0]))
        near = alpha_likelihood(model, data, beta, 1e-6).value
        exact = alpha_likelihood(model, data, beta, 0.0).value
        assert exact == pytest.approx(loglik - model.n, abs=1e-12)
        assert abs(near - (loglik - model.n)) < 1e-4
        tinier = alpha_likelihood(model, data, beta, 1e-8).value
        assert abs(tinier - (loglik - model.n)) < 1e-6

    @pytest.mark.parametrize(
        "make, theta",
        [
            (LinearUnknownSigma, np.array([5.0, 2.0, 1.3])),
            (Logistic, np.array([0.5, -1.0])),
        ],
        ids=["unknown-sigma", "logistic"],
    )
    def test_small_alpha_approaches_loglikelihood_minus_n_in_every_family(self, make, theta):
        gen = np.random.default_rng(41)
        design = np.column_stack([np.ones(12), gen.standard_normal(12)])
        model = make(design)
        data = Dataset(model.sample_responses(theta, gen), design)
        loglik = float(np.sum(model.log_density_batch(data.responses, theta)[0]))
        exact = alpha_likelihood(model, data, theta, 0.0).value
        assert exact == pytest.approx(loglik - model.n, abs=1e-12)
        near = alpha_likelihood(model, data, theta, 1e-6).value
        assert abs(near - (loglik - model.n)) < 1e-4
        tinier = alpha_likelihood(model, data, theta, 1e-8).value
        assert abs(tinier - (loglik - model.n)) < 1e-6

    def test_loss_sum_identity_up_to_constant(self, linear_problem):
        # Q + n/a = -(1/(1+a)) sum_i V_i exactly.
        model, data, beta = linear_problem
        gen = np.random.default_rng(5)
        for _ in range(5):
            theta = beta + 0.3 * gen.standard_normal(2)
            alpha = float(gen.uniform(0.05, 1.0))
            q = alpha_likelihood(model, data, theta, alpha).value
            loss_sum = sum(
                dpd_loss(model, i, data.responses[i], theta, alpha)
                for i in range(model.n)
            )
            assert q + model.n / alpha == pytest.approx(-loss_sum / (1 + alpha), abs=1e-10)

    def test_batch_matches_scalar(self, logistic_problem):
        model, data, beta = logistic_problem
        gen = np.random.default_rng(6)
        thetas = beta + 0.2 * gen.standard_normal((7, 2))
        for alpha in [0.0, 0.4]:
            batch = alpha_likelihood_batch(model, data, thetas, alpha)
            single = [alpha_likelihood(model, data, t, alpha).value for t in thetas]
            assert np.allclose(batch, single, atol=1e-12)

    def test_rejects_negative_alpha(self, linear_problem):
        model, data, beta = linear_problem
        with pytest.raises(ValueError):
            alpha_likelihood(model, data, beta, -0.1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -0.1])
    @pytest.mark.parametrize(
        "entry",
        ["alpha_likelihood", "batch", "functional", "fit", "log_posterior", "contamination_score",
         "efficiency"],
    )
    def test_every_entry_point_refuses_an_alpha_that_is_not_finite_and_non_negative(
        self, linear_problem, entry, alpha
    ):
        from dpdbayes import FlatPrior, contamination_score, fit, log_posterior_unnorm
        from dpdbayes.diagnostics import efficiency

        model, data, beta = linear_problem
        calls = {
            "alpha_likelihood": lambda: alpha_likelihood(model, data, beta, alpha),
            "batch": lambda: alpha_likelihood_batch(model, data, beta[None, :], alpha),
            "functional": lambda: alpha_likelihood_functional(model, InModel(beta), beta, alpha),
            "fit": lambda: fit(model, data, alpha),
            "log_posterior": lambda: log_posterior_unnorm(model, data, FlatPrior(), beta, alpha),
            "contamination_score": lambda: contamination_score(model, InModel(beta), 0, beta, 1.0, alpha),
            "efficiency": lambda: efficiency(alpha),
        }
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            calls[entry]()

    def test_hessian_symmetric(self, unknown_sigma_problem):
        model, data, theta = unknown_sigma_problem
        state = alpha_likelihood(model, data, theta, 0.3, derivatives=True)
        assert np.allclose(state.hessian, state.hessian.T, atol=1e-10)


@functools.cache
def _block_problem(kind: str, n: int, repeated: bool = False):
    """(model, data, theta) with n observations and three covariates; with
    ``repeated``, n distinct design rows, each repeated 1-3 times, in
    shuffled order."""
    gen = np.random.default_rng(n)
    design = np.column_stack([np.ones(n), gen.standard_normal((n, 2))])
    if repeated:
        design = np.repeat(design, 1 + np.arange(n) % 3, axis=0)
        design = design[gen.permutation(design.shape[0])]
    if kind == "known":
        model, theta = LinearKnownSigma(design, 1.3), np.array([0.5, 1.0, -1.0])
    elif kind == "unknown":
        model, theta = LinearUnknownSigma(design), np.array([0.5, 1.0, -1.0, 1.3])
    else:
        model, theta = Logistic(design), np.array([0.2, 1.0, -1.0])
    return model, Dataset(model.sample_responses(theta, gen), design), theta


# n = 2^16 / 8 gives blocks of 8 rows, n = 3000 blocks of 21.
@pytest.mark.parametrize("kind", ["known", "unknown", "logistic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([_BLOCK_VALUES // 8, 3000]),
       alpha=st.sampled_from([0.0, 0.3]))
def test_row_blocks_do_not_change_values(kind, data, n, alpha):
    model, dataset, theta = _block_problem(kind, n)
    step = _BLOCK_VALUES // n
    one_row_tails = [k * step + 1 for k in (0, 1, 2, 3)]
    m = data.draw(st.one_of(st.integers(1, 3 * step + 1), st.sampled_from(one_row_tails)), label="m")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    thetas = theta + 0.2 * np.random.default_rng(seed).standard_normal((m, theta.size))
    if model.scale_index is not None:
        thetas[:, model.scale_index] = np.abs(thetas[:, model.scale_index])
    got = alpha_likelihood_batch(model, dataset, thetas, alpha)
    # Blocks of ``step`` rows; a one-row tail joins the block before it.
    starts = list(range(0, m, step))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    x = dataset.responses
    blocks = [model.summed_q_value_batch(x, thetas[a:b], alpha)
              for a, b in zip(starts, starts[1:] + [m])]
    assert np.array_equal(got, np.concatenate(blocks))
    # gemm rows do not depend on the rows beside them and every kernel sum is
    # row-local, so the blocks give the unblocked values too.
    assert np.array_equal(got, model.summed_q_value_batch(x, thetas, alpha))


_SPEC_POINTS = {"known": 40.0, "unknown": -40.0, "logistic": 1.0}


# n = 2^14 / 8 distinct rows give blocks of 8 rows, n = 700 blocks of 23;
# a design with repeated rows sizes its blocks by its distinct rows.
@pytest.mark.parametrize("kind", ["known", "unknown", "logistic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([_FUNCTIONAL_BLOCK_VALUES // 8, 700]),
       alpha=st.sampled_from([0.0, 0.3]), eps=st.sampled_from([0.0, 0.2]),
       repeated=st.booleans())
def test_functional_row_blocks_do_not_change_values(kind, data, n, alpha, eps, repeated):
    model, _, theta = _block_problem(kind, n, repeated)
    groups = model._row_groups
    assert (groups is not None) == repeated and (not repeated or groups.first.size == n)
    spec = Contaminated(theta, eps, _SPEC_POINTS[kind]) if eps else InModel(theta)
    step = _FUNCTIONAL_BLOCK_VALUES // n
    one_row_tails = [k * step + 1 for k in (0, 1, 2, 3)]
    m = data.draw(st.one_of(st.integers(1, 3 * step + 1), st.sampled_from(one_row_tails)), label="m")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    thetas = theta + 0.2 * np.random.default_rng(seed).standard_normal((m, theta.size))
    if model.scale_index is not None:
        thetas[:, model.scale_index] = np.abs(thetas[:, model.scale_index])
    got = alpha_likelihood_functional_batch(model, spec, thetas, alpha)
    starts = list(range(0, m, step))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [m]))
    blocks = [alpha_likelihood_functional_batch(model, spec, thetas[a:b], alpha) for a, b in bounds]
    assert np.array_equal(got, np.concatenate(blocks))
    with pytest.MonkeyPatch.context() as patch:
        module = importlib.import_module("dpdbayes.alpha_likelihood")
        patch.setattr(module, "_FUNCTIONAL_BLOCK_VALUES", 1 << 62)
        unblocked = alpha_likelihood_functional_batch(model, spec, thetas, alpha)
    # Every kernel sum is row-local, so the blocks give the unblocked values
    # wherever BLAS gives a row of the linear predictors the same bits in a
    # block as in the whole product.  OpenBLAS does not for some shapes: at
    # n = 700 with two or more coefficients, rows differ in the last bit.
    p, z = model.n_covariates, model.design if groups is None else model.design[groups.first]
    predictors = thetas[:, :p] @ z.T
    if all(np.array_equal(thetas[a:b, :p] @ z.T, predictors[a:b]) for a, b in bounds):
        assert np.array_equal(got, unblocked)
    else:
        assert np.allclose(got, unblocked, rtol=1e-13, atol=0.0)


def test_contaminated_functional_batch_peak_memory_is_a_few_blocks():
    # Unblocked, one (20000, 20) float64 array is 3.05 MiB and the batch
    # peaked at 12-24 MiB.
    gen = np.random.default_rng(3)
    n, m = 20, 20_000
    design = np.column_stack([np.ones(n), gen.standard_normal(n)])
    cases = [
        (LinearKnownSigma(design, 1.0), [5.0, 1.0], 1e3),
        (LinearUnknownSigma(design), [5.0, 1.0, 1.0], 1e3),
        (Logistic(design), [0.5, 1.0], 1.0),
    ]
    for model, theta_g, point in cases:
        thetas = np.asarray(theta_g) + 0.1 * gen.standard_normal((m, len(theta_g)))
        spec = Contaminated(theta_g, 0.3, point)
        for alpha in (0.0, 0.5):
            tracemalloc.start()
            try:
                alpha_likelihood_functional_batch(model, spec, thetas, alpha)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            name = type(model).__name__
            assert peak < 2 * 2**20, f"{name}: peak {peak / 2**20:.1f} MiB at a = {alpha}"


class _BlockLog(Logistic):
    """Logistic family that records the rows of each kernel call."""

    def __init__(self, design):
        super().__init__(design)
        self.calls = []

    def summed_q_value_batch(self, x, thetas, alpha):
        self.calls.append(len(thetas))
        return super().summed_q_value_batch(x, thetas, alpha)


def test_no_block_has_one_row_unless_m_is_one():
    n = 3000
    step = _BLOCK_VALUES // n
    model, data, theta = _block_problem("logistic", n)
    logged = _BlockLog(model.design)
    for m in [1, 2, step, step + 1, step + 2, 2 * step + 1, 3 * step, 3 * step + 1]:
        logged.calls.clear()
        alpha_likelihood_batch(logged, data, np.tile(theta, (m, 1)), 0.3)
        assert sum(logged.calls) == m
        assert all(2 <= k <= step + 1 for k in logged.calls) or logged.calls == [1] == [m]


def test_logistic_batch_peak_memory_is_a_few_blocks():
    # Unblocked, one (2048, 2000) float64 array alone is 31 MiB.
    gen = np.random.default_rng(16)
    n, m = 2000, 2048
    design = np.column_stack([np.ones(n), gen.standard_normal((n, 9))])
    model = Logistic(design)
    beta = 0.3 * gen.standard_normal(10)
    data = Dataset(model.sample_responses(beta, gen), design)
    thetas = beta + 0.05 * gen.standard_normal((m, 10))
    for alpha in (0.0, 0.5):
        tracemalloc.start()
        try:
            alpha_likelihood_batch(model, data, thetas, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB at a = {alpha}"


class TestObjectiveDerivatives:
    def test_gradient_and_hessian_match_finite_differences(self, unknown_sigma_problem):
        model, data, theta0 = unknown_sigma_problem
        gen = np.random.default_rng(11)
        for alpha in [0.0, 0.25, 0.8]:
            theta = theta0 + np.append(0.2 * gen.standard_normal(2), 0.1)
            state = alpha_likelihood(model, data, theta, alpha, derivatives=True)
            h = 1e-6
            for j in range(model.dim):
                e = np.zeros(model.dim)
                e[j] = h * max(1.0, abs(theta[j]))
                qp = alpha_likelihood(model, data, theta + e, alpha).value
                qm = alpha_likelihood(model, data, theta - e, alpha).value
                fd = (qp - qm) / (2 * e[j])
                denom = abs(fd) + abs(state.gradient[j]) + 1e-10
                assert abs(state.gradient[j] - fd) / denom < 1e-6
                gp = alpha_likelihood(model, data, theta + e, alpha, derivatives=True).gradient
                gm = alpha_likelihood(model, data, theta - e, alpha, derivatives=True).gradient
                fd_row = (gp - gm) / (2 * e[j])
                scale = np.abs(fd_row) + np.abs(state.hessian[j]) + 1e-10
                assert np.max(np.abs(state.hessian[j] - fd_row) / scale) < 1e-6


    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_logistic_derivatives_take_one_softplus_pass(self, alpha, logistic_problem, monkeypatch):
        # One pass for the value and one for both derivatives.
        model, data, beta = logistic_problem
        models = importlib.import_module("dpdbayes.models")
        tail, calls = models._softplus_tail, []

        def counted(t, out=None):
            calls.append(t.shape)
            return tail(t, out)

        monkeypatch.setattr(models, "_softplus_tail", counted)
        alpha_likelihood(model, data, beta, alpha, derivatives=True)
        assert len(calls) == 2


class TestFunctional:
    def test_in_model_frozen_value(self):
        # theta = theta_g, sigma=1, alpha=1, one unit design point:
        # (1/a) int f^a dG - (1/(1+a)) int f^{1+a} - 1/a
        #   = c/sqrt(2) - c/(2 sqrt 2) - 1 with c = (2 pi)^{-1/2}.
        model = LinearKnownSigma(np.array([[1.0]]), 1.0)
        value = alpha_likelihood_functional(model, InModel([0.4]), [0.4], 1.0)
        c = INV_SQRT_2PI
        expected = c * 2**-0.5 - 0.5 * c * 2**-0.5 - 1.0
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-0.8589526041130609, abs=1e-12)

    def test_in_model_value_vs_monte_carlo(self, rng):
        # Oracle: average the observed-data objective over draws from G.
        design = np.array([[1.0], [2.0]])
        model = LinearKnownSigma(design, 1.0)
        theta_g = np.array([0.7])
        theta = np.array([0.3])
        alpha = 0.5
        closed = alpha_likelihood_functional(model, InModel(theta_g), theta, alpha)
        draws = 200_000
        gen = np.random.default_rng(99)
        total = np.zeros(draws)
        for i, z in enumerate([1.0, 2.0]):
            x = z * 0.7 + gen.standard_normal(draws)
            ll = -0.5 * np.log(2 * np.pi) - 0.5 * (x - z * 0.3) ** 2
            term = np.expm1(alpha * ll) / alpha - float(
                np.exp(model.log_power_integral_batch(theta, alpha)[0, i])
            ) / (1 + alpha)
            total += term
        mc, se = float(total.mean()), float(total.std(ddof=1) / math.sqrt(draws))
        assert abs(closed - mc) < 3 * se

    def test_zero_contamination_reduces_to_in_model(self, location_problem):
        model, theta_g = location_problem
        theta = np.array([4.2])
        for alpha in [0.0, 0.3]:
            clean = alpha_likelihood_functional(model, InModel(theta_g), theta, alpha)
            eps0 = alpha_likelihood_functional(
                model, Contaminated(theta_g, 0.0, 17.0), theta, alpha
            )
            assert clean == pytest.approx(eps0, abs=1e-12)

    def test_maximizer_is_true_parameter(self, location_problem):
        model, theta_g = location_problem
        grid = np.linspace(3.0, 7.0, 801)
        for alpha in [0.2, 0.7]:
            vals = alpha_likelihood_functional_batch(
                model, InModel(theta_g), grid[:, None], alpha
            )
            best = grid[int(np.argmax(vals))]
            assert abs(best - theta_g[0]) <= (grid[1] - grid[0])

    def test_contaminated_mixture_formula(self, location_problem):
        model, theta_g = location_problem
        theta = np.array([4.5])
        alpha, eps, point = 0.4, 0.25, 11.0
        mixed = alpha_likelihood_functional(
            model, Contaminated(theta_g, eps, point), theta, alpha
        )
        clean_part = np.exp(
            model.log_power_expectation_batch(theta, alpha, theta_g)[0]
        )
        atom_part = np.exp(alpha * model.log_density_batch(np.full(model.n, point), theta)[0])
        ints = np.exp(model.log_power_integral_batch(theta, alpha)[0])
        expected = float(
            np.sum(
                ((1 - eps) * clean_part + eps * atom_part - 1.0) / alpha
                - ints / (1 + alpha)
            )
        )
        assert mixed == pytest.approx(expected, rel=1e-10)

    def test_small_alpha_functional_stability(self, location_problem):
        model, theta_g = location_problem
        theta = np.array([4.8])
        tiny = alpha_likelihood_functional(model, InModel(theta_g), theta, 1e-8)
        zero = alpha_likelihood_functional(model, InModel(theta_g), theta, 0.0)
        assert abs(tiny - zero) < 1e-5

    @pytest.mark.parametrize(
        "model, theta_g, theta",
        [
            (LinearUnknownSigma(np.ones((20, 1))), np.array([5.0, 1.0]), np.array([4.8, 1.2])),
            (
                Logistic(np.column_stack([np.ones(20), np.linspace(-1.0, 1.0, 20)])),
                np.array([0.5, -1.0]),
                np.array([0.3, -0.8]),
            ),
        ],
        ids=["unknown-sigma", "logistic"],
    )
    def test_small_alpha_functional_stability_in_every_family(self, model, theta_g, theta):
        tiny = alpha_likelihood_functional(model, InModel(theta_g), theta, 1e-8)
        zero = alpha_likelihood_functional(model, InModel(theta_g), theta, 0.0)
        assert abs(tiny - zero) < 1e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_true_parameter_is_refused(self, bad):
        with pytest.raises(ValueError, match="theta_g must be finite"):
            InModel([bad])
        with pytest.raises(ValueError, match="theta_g must be finite"):
            Contaminated([5.0, bad], 0.1, 3.0)

    def test_true_parameter_of_the_wrong_length_names_the_dimension(self):
        model = LinearKnownSigma(np.ones((5, 1)), 1.0)
        for spec in (InModel([1.0, 2.0]), Contaminated([1.0, 2.0], 0.1, 3.0)):
            with pytest.raises(ValueError, match=r"theta_g has 2 coordinates, model.dim is 1"):
                alpha_likelihood_functional(model, spec, [1.0], 0.5)
            with pytest.raises(ValueError, match="model.dim is 1"):
                alpha_likelihood_functional_batch(model, spec, np.ones((3, 1)), 0.0)

    @pytest.mark.parametrize("sigma_g", [-1.0, 0.0])
    def test_true_parameter_outside_the_parameter_space_is_refused(self, sigma_g):
        # sigma_g enters the Gaussian forms only as its square.
        model = LinearUnknownSigma(np.ones((5, 1)))
        for spec in (InModel([5.0, sigma_g]), Contaminated([5.0, sigma_g], 0.1, 3.0)):
            with pytest.raises(ValueError, match="outside the parameter space"):
                alpha_likelihood_functional(model, spec, [5.0, 1.0], 0.5)
            with pytest.raises(ValueError, match="outside the parameter space"):
                alpha_likelihood_functional_batch(model, spec, np.ones((3, 2)), 0.0)


class TestDataFit:
    def test_objective_grid_maximum_at_point_estimate(self):
        from dpdbayes import fit

        gen = np.random.default_rng(71)
        design = np.ones((40, 1))
        model = LinearKnownSigma(design, 1.0)
        data = Dataset(model.sample_responses([5.0], gen), design)
        for alpha in [0.2, 0.6]:
            point = fit(model, data, alpha).theta_hat[0]
            grid = np.linspace(3.0, 7.0, 2001)
            values = alpha_likelihood_batch(model, data, grid[:, None], alpha)
            best = grid[int(np.argmax(values))]
            assert abs(best - point) <= grid[1] - grid[0]
