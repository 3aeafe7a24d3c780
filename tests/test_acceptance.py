"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run pytest with -s or
check captured output) and then asserts.  Tolerances are pinned here and
nowhere else; nothing is deferred to later calibration.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

from dpdbayes import (
    Dataset,
    GaussianPrior,
    InModel,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    McConfig,
    SamplerConfig,
    alpha_likelihood,
    are_table,
    asymptotic_covariance,
    breakdown_experiment,
    bvm_distance,
    dpd_loss_grad,
    dpd_loss_hess,
    fit,
    influence_closed_form_alpha0,
    influence_curve,
    laplace_expectation,
    posterior_mean_replications,
    pseudo_influence,
    sample,
    sandwich,
    sensitivities,
)
from dpdbayes.cli import main as cli_main
from dpdbayes.diagnostics import TABLE_ARE_REFERENCE


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {name}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


# -------------------------------------------------------------------- 1 ----


def test_criterion_1_efficiency_table():
    start = time.perf_counter()
    reports = are_table(sorted(TABLE_ARE_REFERENCE))
    worst = 0.0
    for rep in reports:
        ref_beta, ref_sigma = TABLE_ARE_REFERENCE[round(rep.alpha, 2)]
        worst = max(
            worst,
            abs(rep.are_beta_percent - ref_beta),
            abs(rep.are_sigma_percent - ref_sigma),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "efficiency table reproduction",
        worst <= 0.01 and elapsed < 1.0,
        f"max deviation {worst:.4f} pp (limit 0.01), {elapsed:.3f}s (limit 1s)",
    )


# -------------------------------------------------------------------- 2 ----


def test_criterion_2_coefficient_covariance_monte_carlo():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    n = 200
    design = np.column_stack([np.ones(n), gen.standard_normal(n)])
    model = LinearKnownSigma(design, 1.0)
    report = posterior_mean_replications(
        model, [5.0, 2.0], alpha=0.25, replications=500, seed=77
    )
    target = report.upsilon_beta_target * np.eye(2)
    deviation = np.linalg.norm(report.scaled_beta_cov - target) / np.linalg.norm(target)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "coefficient-error covariance vs closed form (n=200, a=0.25, 500 reps)",
        deviation <= 0.15 and elapsed < 600.0,
        f"Frobenius-relative deviation {deviation:.4f} (limit 0.15), "
        f"failures_by_kind {report.failures_by_kind}, {elapsed:.1f}s (limit 600s)",
    )


# -------------------------------------------------------------------- 3 ----


def test_criterion_3_scale_variance_monte_carlo():
    gen = np.random.default_rng(2024)
    n = 200
    design = np.column_stack([np.ones(n), gen.standard_normal(n)])
    model = LinearUnknownSigma(design)
    report = posterior_mean_replications(
        model, [5.0, 2.0, 1.0], alpha=0.25, replications=500, seed=78
    )
    rel = abs(report.scaled_sigma_var - report.upsilon_sigma_target) / report.upsilon_sigma_target
    _report(
        3,
        "scale-error variance vs closed form (unknown scale)",
        rel <= 0.20,
        f"relative deviation {rel:.4f} (limit 0.20), "
        f"empirical {report.scaled_sigma_var:.4f} vs target {report.upsilon_sigma_target:.4f}, "
        f"failures_by_kind {report.failures_by_kind}",
    )


# -------------------------------------------------------------------- 4 ----


def test_criterion_4_posterior_normality_trend():
    alpha = 0.3
    beta_g = np.array([5.0])
    prior_sd = 2.0
    tv_true: dict[int, list[float]] = {}
    tv_hat: dict[int, list[float]] = {}
    for n in (25, 100, 400):
        design = np.ones((n, 1))
        model = LinearKnownSigma(design, 1.0)
        prior = GaussianPrior([5.0], [[prior_sd**2]])
        sw_true = sandwich(model, InModel(beta_g), beta_g, alpha)
        for seed in (1, 2, 3):
            data = Dataset(
                model.sample_responses(beta_g, np.random.default_rng(1000 * seed + n)),
                design,
            )
            point = fit(model, data, alpha)
            chain = sample(
                model, data, prior, alpha,
                SamplerConfig(seed=seed, chain_length=50_000, burn_in=5_000),
            )
            rep = bvm_distance(chain, point.theta_hat, sw_true.psi, n)
            sw_obs = sandwich(model, data, point.theta_hat, alpha)
            rep_hat = bvm_distance(
                chain, point.theta_hat, sw_obs.psi_hat, n, "psi_hat_at_theta_hat"
            )
            tv_true.setdefault(n, []).append(rep.tv_estimate)
            tv_hat.setdefault(n, []).append(rep_hat.tv_estimate)
    decreasing = sum(
        tv_true[25][s] > tv_true[100][s] > tv_true[400][s] for s in range(3)
    )
    final_ok = all(v < 0.15 for v in tv_true[400])
    scaling_gap = max(
        abs(a - b) for n in (25, 100, 400) for a, b in zip(tv_true[n], tv_hat[n])
    )
    _report(
        4,
        "standardized-posterior distance shrinks with n",
        decreasing >= 2 and final_ok and scaling_gap < 0.05,
        f"strictly-decreasing seeds {decreasing}/3 (need >=2), "
        f"tv(400)={['%.3f' % v for v in tv_true[400]]} (limit 0.15 each), "
        f"observed-scaling gap {scaling_gap:.3f} (limit 0.05)",
    )


# -------------------------------------------------------------------- 5 ----


def test_criterion_5_laplace_error_decay():
    alpha = 0.3
    prior = GaussianPrior([7.0], [[1.0]])
    gen = np.random.default_rng(31)
    x_all = 5.0 + gen.standard_normal(200)

    def gap(n):
        design = np.ones((n, 1))
        model = LinearKnownSigma(design, 1.0)
        data = Dataset(x_all[:n], design)
        plug_in = float(laplace_expectation(model, data, prior, lambda th: th, alpha)[0])
        point = fit(model, data, alpha).theta_hat
        shift = alpha_likelihood(model, data, point, alpha).value + prior.log_density(point)

        def weight(b):
            return math.exp(
                alpha_likelihood(model, data, np.array([b]), alpha).value
                + prior.log_density(np.array([b]))
                - shift
            )

        norm, _ = integrate.quad(weight, 0.0, 12.0, limit=300)
        mean_num, _ = integrate.quad(lambda b: b * weight(b), 0.0, 12.0, limit=300)
        return abs(mean_num / norm - plug_in)

    gap_small, gap_large = gap(50), gap(200)
    ratio = gap_large / gap_small
    _report(
        5,
        "plug-in posterior mean error decays like 1/n",
        ratio <= 0.35 and gap_large < 0.05,
        f"|error| {gap_small:.4f} (n=50) -> {gap_large:.4f} (n=200), "
        f"ratio {ratio:.3f} (limit 0.35), absolute limit 0.05",
    )


# -------------------------------------------------------------------- 6 ----


def test_criterion_6_influence_closed_forms():
    n = 20
    design = np.ones((n, 1))
    model = LinearKnownSigma(design, 1.0)
    spec = InModel(np.array([5.0]))
    prior = GaussianPrior([5.0], [[1.0]])

    # (a) exact closed form at a = 0 equals n(t - mean(z) beta_g)/(n+1)
    exact_ok = True
    for t in np.linspace(-30.0, 30.0, 13):
        value = influence_closed_form_alpha0(model, prior, spec, float(t))[0]
        exact_ok &= abs(value - n * (t - 5.0) / (n + 1)) < 1e-12

    # (b) tiny-a Monte Carlo pipeline within 5% of the closed form
    mc = McConfig(seed=42, draws=50_000)
    t_grid = np.arange(-20.0, 20.0 + 1e-9, 2.0)
    values, _, _ = influence_curve(model, spec, prior, 1e-6, t_grid, mc)
    closed = np.array(
        [influence_closed_form_alpha0(model, prior, spec, float(t))[0] for t in t_grid]
    )
    sup_closed = float(np.max(np.abs(closed)))
    mc_gap = np.max(
        np.abs(values[:, 0] - closed) / np.maximum(np.abs(closed), 0.02 * sup_closed)
    )

    # (c) bounded, redescending influence at a = 0.5
    t_wide = np.arange(-100.0, 100.0 + 1e-9, 1.0)
    robust_vals, _, _ = influence_curve(model, spec, prior, 0.5, t_wide, mc)
    curve = np.abs(robust_vals[:, 0])
    sup_robust = float(curve.max())
    tails = max(curve[0], curve[-1])
    _report(
        6,
        "influence closed forms and redescending robust curve",
        exact_ok and mc_gap <= 0.05 and np.isfinite(sup_robust) and tails < 0.2 * sup_robust,
        f"a=0 exact: {exact_ok}, tiny-a max relative gap {mc_gap:.4f} (limit 0.05), "
        f"a=0.5 sup {sup_robust:.3f} with tail share {tails / sup_robust:.4f} (limit 0.2)",
    )


# -------------------------------------------------------------------- 7 ----


def test_criterion_7_sensitivity_ordering():
    gen = np.random.default_rng(17)
    n = 20
    design = (1.0 + gen.standard_normal(n)).reshape(-1, 1)
    model = LinearKnownSigma(design, 1.0)
    beta_g = np.array([5.0])
    spec = InModel(beta_g)
    prior = GaussianPrior([5.0], [[1.0]])
    sw = sandwich(model, spec, beta_g, 0.1)
    sd = float(np.sqrt(asymptotic_covariance(sw, n)[0, 0]))
    theta_grid = np.linspace(5.0 - 5 * sd, 5.0 + 5 * sd, 201).reshape(-1, 1)
    t_grid = np.arange(-100.0, 100.0 + 1e-9, 0.5)
    stars = {}
    for alpha in (0.1, 0.8):
        surface = pseudo_influence(
            model, spec, prior, alpha, theta_grid, t_grid, McConfig(seed=11, draws=20_000)
        )
        stars[alpha] = sensitivities(surface).gamma_star
    _report(
        7,
        "global sensitivity decreases with the tuning constant",
        stars[0.8] < stars[0.1],
        f"gamma*(0.8)={stars[0.8]:.3f} < gamma*(0.1)={stars[0.1]:.3f}",
    )


# -------------------------------------------------------------------- 8 ----


def test_criterion_8_breakdown_plateau():
    start = time.perf_counter()
    design = np.ones((20, 1))
    model = LinearKnownSigma(design, 1.0)
    prior = GaussianPrior([5.0], [[1.0]])
    magnitudes = [10.0**k for k in range(1, 7)]
    # Deterministic route through the minimum-divergence functional, to which
    # the posterior-mean functional is asymptotically equivalent.
    robust = breakdown_experiment(
        model, prior, [5.0], 0.5, 0.3, magnitudes, seed=99, method="laplace"
    )
    plateau_change = abs(float(robust.shifts[3:].max()) - float(robust.shifts[2]))
    plateau_ok = plateau_change <= 0.01 * float(robust.shifts.max()) + 1e-9
    # The sampled route stays bounded as well (Monte Carlo noise level).
    sampled = breakdown_experiment(
        model, prior, [5.0], 0.5, 0.3, magnitudes, seed=99, draws=20_000
    )
    bounded_ok = float(sampled.shifts.max()) < 0.1
    classical = breakdown_experiment(
        model, prior, [5.0], 0.0, 0.3, magnitudes, seed=99, method="laplace"
    )
    grows = bool(
        np.all(np.diff(classical.shifts) > 0.0)
        and classical.shifts[-1] > 10 * classical.shifts[-3]
    )
    elapsed = time.perf_counter() - start
    _report(
        8,
        "robust breakdown curve plateaus while the classical curve diverges",
        plateau_ok and bounded_ok and grows and elapsed < 300.0,
        f"plateau change {plateau_change:.2e} (limit 1% of max shift "
        f"{float(robust.shifts.max()):.2e}), sampled max shift "
        f"{float(sampled.shifts.max()):.4f} (limit 0.1), classical shift at 1e6 = "
        f"{classical.shifts[-1]:.3e}, {elapsed:.1f}s (limit 300s)",
    )


# -------------------------------------------------------------------- 9 ----


def test_criterion_9_oracle_equivalences():
    # (a) a = 0 linear fit equals ordinary least squares
    gen = np.random.default_rng(101)
    design = np.column_stack([np.ones(60), gen.standard_normal(60)])
    model = LinearKnownSigma(design, 1.0)
    data = Dataset(model.sample_responses([5.0, 2.0], gen), design)
    ols_gap = float(
        np.max(
            np.abs(
                fit(model, data, 0.0).theta_hat
                - np.linalg.lstsq(design, data.responses, rcond=None)[0]
            )
        )
    )

    # (b) a = 0 logistic fit matches an independently coded IRLS oracle
    design_l = np.column_stack([np.ones(120), gen.standard_normal(120)])
    model_l = Logistic(design_l)
    data_l = Dataset(model_l.sample_responses([0.5, -1.0], gen), design_l)
    beta = np.zeros(2)
    for _ in range(60):
        eta = design_l @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1.0 - p)
        adj = eta + (data_l.responses - p) / w
        beta = np.linalg.solve(
            design_l.T @ (w[:, None] * design_l), design_l.T @ (w * adj)
        )
    irls_gap = float(np.max(np.abs(fit(model_l, data_l, 0.0).theta_hat - beta)))

    # (c) analytic loss derivatives vs central finite differences, 100 probes
    def fd_gap(model_, i, x, theta, alpha):
        dim = theta.size
        grad_fd = np.zeros(dim)
        hess_fd = np.zeros((dim, dim))
        from dpdbayes.models import dpd_loss

        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1e-6 * max(1.0, abs(theta[j]))
            grad_fd[j] = (
                dpd_loss(model_, i, x, theta + e, alpha)
                - dpd_loss(model_, i, x, theta - e, alpha)
            ) / (2 * e[j])
            hess_fd[j] = (
                dpd_loss_grad(model_, i, x, theta + e, alpha)
                - dpd_loss_grad(model_, i, x, theta - e, alpha)
            ) / (2 * e[j])
        ga = dpd_loss_grad(model_, i, x, theta, alpha)
        ha = dpd_loss_hess(model_, i, x, theta, alpha)
        g_rel = np.linalg.norm(ga - grad_fd) / (
            np.linalg.norm(ga) + np.linalg.norm(grad_fd) + 1e-10
        )
        h_rel = np.linalg.norm(ha - 0.5 * (hess_fd + hess_fd.T)) / (
            np.linalg.norm(ha) + np.linalg.norm(hess_fd) + 1e-10
        )
        return max(g_rel, h_rel)

    probe_gen = np.random.default_rng(55)
    worst_fd = 0.0
    for trial in range(100):
        z = probe_gen.standard_normal((5, 2))
        alpha = float(probe_gen.uniform(0.05, 1.0))
        kind = trial % 3
        if kind == 0:
            model_p = LinearKnownSigma(z, float(probe_gen.uniform(0.5, 2.0)))
            theta = probe_gen.standard_normal(2)
            x = float(probe_gen.standard_normal() * 2)
        elif kind == 1:
            model_p = LinearUnknownSigma(z)
            theta = np.append(probe_gen.standard_normal(2), probe_gen.uniform(0.5, 2.0))
            x = float(probe_gen.standard_normal() * 2)
        else:
            model_p = Logistic(z)
            theta = probe_gen.standard_normal(2)
            x = float(probe_gen.integers(0, 2))
        worst_fd = max(worst_fd, fd_gap(model_p, int(probe_gen.integers(0, 5)), x, theta, alpha))

    _report(
        9,
        "oracle equivalences (least squares, IRLS, finite differences)",
        ols_gap < 1e-8 and irls_gap < 1e-4 and worst_fd < 1e-6,
        f"OLS gap {ols_gap:.2e} (limit 1e-8), IRLS gap {irls_gap:.2e} (limit 1e-4), "
        f"worst derivative relative error {worst_fd:.2e} over 100 probes (limit 1e-6)",
    )


# ------------------------------------------------------------------- 10 ----


def test_criterion_10_byte_identical_reruns(tmp_path):
    gen = np.random.default_rng(5)
    design = np.column_stack([np.ones(40), gen.standard_normal(40)])
    model = LinearKnownSigma(design, 1.0)
    x = model.sample_responses([5.0, 2.0], gen)
    data_path = tmp_path / "data.csv"
    data_path.write_text(
        "\n".join(
            f"{float(x[i])!r},{float(design[i, 0])!r},{float(design[i, 1])!r}"
            for i in range(40)
        )
        + "\n"
    )
    outputs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = cli_main(
            [
                "sample", str(data_path), "--model", "linear", "--sigma", "1.0",
                "--alpha", "0.3", "--seed", "11", "--out", str(outdir),
                "--set", "sampler.chain_length=4000", "--set", "sampler.burn_in=400",
                "--set", "prior.mean=5,2", "--set", "prior.sd=3",
            ]
        )
        assert code == 0
        outputs.append(
            (outdir / "chain.csv").read_bytes() + (outdir / "estimate.csv").read_bytes()
        )
        code = cli_main(
            ["are-table", "--out", str(outdir), "--check"]
        )
        assert code == 0
        outputs[-1] += (outdir / "are_table.csv").read_bytes()
    identical = outputs[0] == outputs[1]
    _report(
        10,
        "identical configuration and seed give byte-identical outputs",
        identical,
        f"{len(outputs[0])} output bytes compared",
    )
