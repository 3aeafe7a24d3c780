"""The three benchmark workloads: ``chains``, ``influence`` and ``fits``.

Each workload builds its inputs from the seed (the package only ever sees
the generated data), runs a short warm-up slice, and exposes its jobs.  The
jobs call the package the way its users do and check every output against a
reference from ``references``, which never calls the package.

Why these three:

* ``chains`` times random-walk Metropolis on exp(Q_a) * prior.  At n = 25 a
  step is mostly per-step Python and prior overhead; at p = 10, n = 2000 it
  is the m = 1 model kernel.  A sampler change and a kernel change each show
  here, on different jobs.  One in-process ``dpdbayes sample`` run covers CSV
  parsing and writing.
* ``influence`` times population robustness: the (m, n) functional kernels
  once per contamination point plus importance sampling.  It never samples a
  chain or fits data, so a sampler change must read "no change" here, while
  vectorising over the contamination grid shows only here.
* ``fits`` times many small fit-plus-posterior-mean requests, the
  replication recipe: derivative kernels, Newton/Armijo, per-call
  validation and m = 2048 importance batches.  A few requests use a
  quadrature family, whose O(n^2) integrals move ``wall_s`` and sit above
  the 95th percentile.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from dpdbayes import cli, diagnostics, laplace, mdpde, posterior, robustness
from dpdbayes.alpha_likelihood import InModel
from dpdbayes.models import (
    Dataset,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    QuadratureFamily,
)

import references as ref
from ess import bulk_ess

ACCEPT_RANGE = (0.05, 0.7)


def _identity(theta):
    return theta


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _check_acceptance(t, rate: float, what: str) -> None:
    lo, hi = ACCEPT_RANGE
    t.expect(lo <= rate <= hi, f"{what}: acceptance {rate:.3f} outside [{lo}, {hi}]")


class GaussianLocationByQuadrature(QuadratureFamily):
    """Unit-scale normal location model declared only through its log
    density, so every integral goes through the quadrature fallback."""

    @property
    def dim(self) -> int:
        return 1

    def support(self):
        return (-math.inf, math.inf)

    def log_density_scalar(self, i, x, theta):
        r = x - self.design[i, 0] * theta[0]
        return -0.5 * ref.LOG_2PI - 0.5 * r * r


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


class Chains:
    unit = "Metropolis steps"
    min_jobs = 1

    C4_SIZES = (25, 100, 400)
    C4_ALPHA = 0.3
    C4_CHAIN = (10_000, 1_000)  # (chain_length, burn_in)
    KERNEL_ALPHA = 0.5
    KERNEL_CHAIN = (2_000, 200)
    CLI_CHAIN = (4_000, 400)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        sampler_seeds = _seeds(seed, 8)
        self.beta_g = np.array([5.0])
        self.c4 = []
        for k, n in enumerate(self.C4_SIZES):
            design = np.ones((n, 1))
            model = LinearKnownSigma(design, 1.0)
            data = Dataset(model.sample_responses(self.beta_g, rng), design)
            self.c4.append((n, model, data, sampler_seeds[k]))
        self.c4_prior = posterior.GaussianPrior([5.0], [[4.0]])

        n, p = 2000, 10
        z = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        lus = LinearUnknownSigma(z)
        theta = np.append(0.5 * rng.standard_normal(p), 1.0)
        logit = Logistic(z)
        beta = 0.3 * rng.standard_normal(p)
        self.kernels = [
            ("kernel-unknown-sigma", lus, Dataset(lus.sample_responses(theta, rng), z),
             posterior.GaussianPrior.isotropic(np.append(np.zeros(p), 1.0), 10.0), sampler_seeds[3]),
            ("kernel-logistic", logit, Dataset(logit.sample_responses(beta, rng), z),
             posterior.GaussianPrior.isotropic(np.zeros(p), 10.0), sampler_seeds[4]),
        ]

        n = 100
        z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = z @ np.array([5.0, 2.0]) + rng.standard_normal(n)
        self.csv_path = workdir / "chains-data.csv"
        self.csv_path.write_text(
            "".join(f"{float(y[i])!r},{float(z[i, 0])!r},{float(z[i, 1])!r}\n" for i in range(n))
        )
        self.cli_out = workdir / "chains-cli"
        self.cli_seed = sampler_seeds[5] % 2**31
        self.means = None

    def references(self) -> None:
        self.means = [
            ref.location_posterior_mean(data.responses, self.C4_ALPHA, 5.0, 2.0)
            for _, _, data, _ in self.c4
        ]

    def _cli_args(self, chain_length: int, burn_in: int) -> list[str]:
        return [
            "sample", str(self.csv_path), "--model", "linear", "--sigma", "1.0",
            "--alpha", "0.3", "--seed", str(self.cli_seed), "--out", str(self.cli_out),
            "--set", f"sampler.chain_length={chain_length}",
            "--set", f"sampler.burn_in={burn_in}",
            "--set", "prior.mean=5,2", "--set", "prior.sd=3",
        ]

    def _run_cli(self, args) -> int:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(args)

    def warmup(self) -> None:
        _, model, data, seed = self.c4[0]
        fit = mdpde.fit(model, data, self.C4_ALPHA)
        chain = posterior.sample(model, data, self.c4_prior, self.C4_ALPHA,
                                 posterior.SamplerConfig(seed=seed, chain_length=1000, burn_in=100),
                                 start=fit.theta_hat)
        posterior.posterior_mean(chain)
        diagnostics.bvm_distance(chain, fit.theta_hat, np.eye(1), model.n)
        for _, model, data, prior, seed in self.kernels:
            fit = mdpde.fit(model, data, self.KERNEL_ALPHA)
            posterior.sample(model, data, prior, self.KERNEL_ALPHA,
                             posterior.SamplerConfig(seed=seed, chain_length=100, burn_in=10),
                             start=fit.theta_hat)
        self._run_cli(self._cli_args(200, 20))

    def jobs(self):
        out = [(f"c4-n{n}", self._c4_job(k)) for k, n in enumerate(self.C4_SIZES)]
        out += [(spec[0], self._kernel_job(spec)) for spec in self.kernels]
        out.append(("cli-sample", self._cli_job))
        return out

    def _c4_job(self, k: int):
        n, model, data, seed = self.c4[k]
        alpha = self.C4_ALPHA
        length, burn = self.C4_CHAIN
        config = posterior.SamplerConfig(seed=seed, chain_length=length, burn_in=burn)

        def job(t):
            fit = mdpde.fit(model, data, alpha)
            t.expect(fit.converged, "fit did not converge")
            with t.timed():
                chain = posterior.sample(model, data, self.c4_prior, alpha, config, start=fit.theta_hat)
            t.work += length + burn
            est = posterior.posterior_mean(chain)
            psi_true = mdpde.sandwich(model, InModel(self.beta_g), self.beta_g, alpha).psi
            tv_true = diagnostics.bvm_distance(chain, fit.theta_hat, psi_true, n).tv_estimate
            psi_hat = mdpde.sandwich(model, data, fit.theta_hat, alpha).psi_hat
            tv_hat = diagnostics.bvm_distance(
                chain, fit.theta_hat, psi_hat, n, "psi_hat_at_theta_hat"
            ).tv_estimate
            draws = chain.draws[:, 0]
            ess = bulk_ess(draws)
            t.ess += ess
            mcse = float(draws.std(ddof=1)) / math.sqrt(ess)
            gap = abs(float(est.estimate[0]) - self.means[k])
            t.expect(gap <= 4.0 * mcse, f"chain mean off the quadrature mean by {gap / mcse:.1f} MCSE")
            _check_acceptance(t, chain.acceptance_rate, "chain")
            t.expect(0.0 <= tv_true <= 1.0 and 0.0 <= tv_hat <= 1.0,
                     f"distances outside [0, 1]: {tv_true}, {tv_hat}")

        return job

    def _kernel_job(self, spec):
        _, model, data, prior, seed = spec
        alpha = self.KERNEL_ALPHA
        length, burn = self.KERNEL_CHAIN
        config = posterior.SamplerConfig(seed=seed, chain_length=length, burn_in=burn)

        def job(t):
            fit = mdpde.fit(model, data, alpha)
            t.expect(fit.converged, "fit did not converge")
            with t.timed():
                chain = posterior.sample(model, data, prior, alpha, config, start=fit.theta_hat)
            t.work += length + burn
            t.ess += min(bulk_ess(chain.draws[:, j]) for j in range(chain.draws.shape[1]))
            _check_acceptance(t, chain.acceptance_rate, "chain")

        return job

    def _cli_job(self, t):
        length, burn = self.CLI_CHAIN
        code = self._run_cli(self._cli_args(length, burn))
        t.expect(code == 0, f"exit code {code}")
        chain_file = self.cli_out / "chain.csv"
        estimate_file = self.cli_out / "estimate.csv"
        t.counters["cli.bytes_written"] = float(
            chain_file.stat().st_size + estimate_file.stat().st_size
        )
        draws = np.loadtxt(chain_file, delimiter=",", skiprows=1)[:, 1:-1]
        with open(estimate_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        estimate = np.array([float(r["estimate"]) for r in rows])
        t.expect(draws.shape == (length, 2), f"chain.csv has shape {draws.shape}")
        t.expect(np.allclose(estimate, draws.mean(axis=0), rtol=1e-12, atol=0.0),
                 "estimate.csv differs from the mean of chain.csv")
        moved = float(np.mean(np.any(draws[1:] != draws[:-1], axis=1)))
        _check_acceptance(t, moved, "CLI chain")


# ---------------------------------------------------------------------------
# influence
# ---------------------------------------------------------------------------


class Influence:
    unit = "contamination points"
    min_jobs = 1

    TINY_ALPHA = 1e-6
    TINY_GRID = np.arange(-20.0, 20.0 + 1e-9, 2.0)
    TINY_DRAWS = 50_000
    WIDE_ALPHA = 0.5
    WIDE_GRID = np.arange(-100.0, 100.0 + 1e-9, 2.0)
    WIDE_DRAWS = 20_000
    PIF_ALPHAS = (0.1, 0.8)
    PIF_T_GRID = np.arange(-100.0, 100.0 + 1e-9, 0.5)
    PIF_DRAWS = 5_000
    BREAKDOWN = dict(alpha=0.5, epsilon=0.3, magnitudes=[10.0**k for k in range(1, 7)], draws=20_000)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.mc_seeds = _seeds(seed, 6)
        n = 20
        self.beta_g = np.array([5.0])
        self.spec = InModel(self.beta_g)
        self.prior = posterior.GaussianPrior([5.0], [[1.0]])
        self.location = LinearKnownSigma(np.ones((n, 1)), 1.0)
        self.design7 = (1.0 + rng.standard_normal(n)).reshape(-1, 1)
        self.model7 = LinearKnownSigma(self.design7, 1.0)
        sd = math.sqrt(ref.linear_covariance(self.design7, 0.1, 1.0, False)[0, 0])
        self.theta_grid = np.linspace(5.0 - 5 * sd, 5.0 + 5 * sd, 201).reshape(-1, 1)
        self.gamma_star: dict[float, float] = {}
        self.closed = None

    def references(self) -> None:
        self.closed = np.array([
            ref.influence_alpha0(self.location.design, 1.0, self.prior.covariance, self.beta_g, t)[0]
            for t in self.TINY_GRID
        ])

    def warmup(self) -> None:
        mc = robustness.McConfig(seed=self.mc_seeds[5], draws=2000)
        robustness.influence_curve(self.location, self.spec, self.prior, 0.5, [0.0, 5.0, 10.0], mc)
        pif = robustness.pseudo_influence(self.model7, self.spec, self.prior, 0.8,
                                          self.theta_grid[::50], [0.0, 5.0, 10.0], mc)
        robustness.sensitivities(pif)
        robustness.influence_closed_form_alpha0(self.location, self.prior, self.spec, 1.0)
        robustness.breakdown_experiment(self.location, self.prior, self.beta_g, 0.5, 0.3, [10.0],
                                        seed=self.mc_seeds[5], draws=2000)

    def jobs(self):
        return [
            ("curve-tiny-alpha", self._tiny_job),
            ("curve-wide", self._wide_job),
            *[(f"pif-{a}", self._pif_job(k, a)) for k, a in enumerate(self.PIF_ALPHAS)],
            ("breakdown", self._breakdown_job),
        ]

    def _tiny_job(self, t):
        mc = robustness.McConfig(seed=self.mc_seeds[0], draws=self.TINY_DRAWS)
        with t.timed():
            values, _, sample = robustness.influence_curve(
                self.location, self.spec, self.prior, self.TINY_ALPHA, self.TINY_GRID, mc
            )
        t.work += self.TINY_GRID.size
        t.ess += sample.effective_sample_size
        exact = np.array([
            robustness.influence_closed_form_alpha0(self.location, self.prior, self.spec, float(x))[0]
            for x in self.TINY_GRID
        ])
        t.expect(np.max(np.abs(exact - self.closed)) < 1e-12 * max(1.0, np.max(np.abs(self.closed))),
                 "closed-form influence differs from the reference")
        sup = float(np.max(np.abs(self.closed)))
        gap = float(np.max(np.abs(values[:, 0] - self.closed)
                           / np.maximum(np.abs(self.closed), 0.02 * sup)))
        t.expect(gap <= 0.05, f"tiny-alpha curve off the closed form by {gap:.4f} (limit 0.05)")

    def _wide_job(self, t):
        mc = robustness.McConfig(seed=self.mc_seeds[1], draws=self.WIDE_DRAWS)
        with t.timed():
            values, _, sample = robustness.influence_curve(
                self.location, self.spec, self.prior, self.WIDE_ALPHA, self.WIDE_GRID, mc
            )
        t.work += self.WIDE_GRID.size
        t.ess += sample.effective_sample_size
        curve = np.abs(values[:, 0])
        t.expect(bool(np.all(np.isfinite(curve))), "influence curve not finite")
        share = max(curve[0], curve[-1]) / float(curve.max())
        t.expect(share < 0.2, f"influence does not redescend: tail share {share:.3f} (limit 0.2)")

    def _pif_job(self, k: int, alpha: float):
        def job(t):
            mc = robustness.McConfig(seed=self.mc_seeds[2 + k], draws=self.PIF_DRAWS)
            with t.timed():
                pif = robustness.pseudo_influence(
                    self.model7, self.spec, self.prior, alpha, self.theta_grid, self.PIF_T_GRID, mc
                )
            t.work += self.PIF_T_GRID.size
            t.ess += pif.effective_sample_size
            if k == 0:
                self.gamma_star.clear()
            self.gamma_star[alpha] = robustness.sensitivities(pif).gamma_star
            if k == len(self.PIF_ALPHAS) - 1:
                lo, hi = self.PIF_ALPHAS
                ok = self.gamma_star.get(hi, math.inf) < self.gamma_star.get(lo, -math.inf)
                t.expect(ok, f"gamma* not decreasing in alpha: {self.gamma_star}")

        return job

    def _breakdown_job(self, t):
        b = self.BREAKDOWN
        curve = robustness.breakdown_experiment(
            self.location, self.prior, self.beta_g, b["alpha"], b["epsilon"], b["magnitudes"],
            seed=self.mc_seeds[4], draws=b["draws"],
        )
        shift = float(curve.shifts.max())
        t.expect(shift < 0.1, f"sampled breakdown shift {shift:.4f} (limit 0.1)")


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


class Fits:
    unit = "requests"
    min_jobs = 200

    ALPHAS = (0.0, 0.25, 0.5, 0.8)
    IS_DRAWS = 2048
    OUTLIER_SHARE = 0.1
    QUAD_N = 5
    QUAD_ALPHA = 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        families = []
        n = 200
        z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        families.append(("known", LinearKnownSigma(z, 1.0), np.array([5.0, 2.0])))
        z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        families.append(("unknown", LinearUnknownSigma(z), np.array([5.0, 2.0, -1.0, 1.0])))
        n = 2000
        z = np.column_stack([np.ones(n), rng.standard_normal((n, 9))])
        families.append(("logistic", Logistic(z), 0.3 * rng.standard_normal(10)))
        self.requests = []
        for kind, model, theta in families:
            for outliers in (False, True):
                y = model.sample_responses(theta, rng)
                if outliers:
                    y = self._contaminate(kind, model, theta, y, rng)
                data = Dataset(y, model.design)
                prior = posterior.GaussianPrior.isotropic(np.zeros(model.dim), 100.0)
                for alpha in self.ALPHAS:
                    label = f"{kind}-{'dirty' if outliers else 'clean'}-a{alpha}"
                    self.requests.append((label, kind, model, data, prior, alpha))
        self.is_seeds = _seeds(seed, len(self.requests))
        design = np.ones((self.QUAD_N, 1))
        self.quad = GaussianLocationByQuadrature(design)
        self.quad_data = Dataset(5.0 + rng.standard_normal(self.QUAD_N), design)
        self.quad_prior = posterior.GaussianPrior([0.0], [[1e4]])
        self.refs = None

    def _contaminate(self, kind, model, theta, y, rng):
        k = int(self.OUTLIER_SHARE * y.size)
        y = y.copy()
        if kind == "logistic":
            # Gross outliers for a binary response: the most confidently
            # predicted points get the opposite label.
            t = model.design @ theta
            idx = np.argsort(-np.abs(t))[:k]
            y[idx] = (t[idx] < 0.0).astype(float)
        else:
            idx = rng.choice(y.size, k, replace=False)
            y[idx] += 15.0
        return y

    def references(self) -> None:
        self.refs = []
        for _, kind, model, data, prior, alpha in self.requests:
            z, y = model.design, data.responses
            entry = {}
            if alpha == 0.0:
                if kind == "logistic":
                    entry["theta"] = ref.irls(z, y)
                else:
                    beta = ref.ols(z, y)
                    entry["theta"] = beta if kind == "known" else np.append(
                        beta, math.sqrt(float(np.mean((y - z @ beta) ** 2))))
                if kind == "known":
                    entry["posterior_mean"] = ref.conjugate_posterior_mean(
                        z, y, 1.0, prior.mean, prior.covariance)
            self.refs.append(entry)
        self.quad_ref = ref.location_dpd_estimate(self.quad_data.responses, self.QUAD_ALPHA)

    def warmup(self) -> None:
        for label, kind, model, data, prior, alpha in self.requests[1::8]:
            self._request(model, data, prior, alpha, self.is_seeds[0])

    def jobs(self):
        out = [(label, self._job(k)) for k, (label, *_rest) in enumerate(self.requests)]
        out.append(("quadrature", self._quad_job))
        return out

    def _request(self, model, data, prior, alpha, seed):
        fit = mdpde.fit(model, data, alpha)
        sw = mdpde.sandwich(model, data, fit.theta_hat, alpha)
        cov = mdpde.asymptotic_covariance(sw, model.n)
        plug_in = laplace.laplace_expectation(model, data, prior, _identity, alpha,
                                              theta_hat=fit.theta_hat)
        laplace_cov = np.linalg.inv(model.n * sw.psi_hat)
        proposal = posterior.GaussianPrior(fit.theta_hat, 1.5**2 * 0.5 * (laplace_cov + laplace_cov.T))
        result = posterior.importance_expectation(
            model, data, prior, alpha, _identity, proposal, self.IS_DRAWS, seed
        )
        return fit, cov, plug_in, result

    def _job(self, k: int):
        label, kind, model, data, prior, alpha = self.requests[k]
        seed = self.is_seeds[k]
        z, y = model.design, data.responses

        def job(t):
            with t.timed():
                fit, cov, plug_in, result = self._request(model, data, prior, alpha, seed)
            t.work += 1
            t.ess += result.effective_sample_size
            theta = fit.theta_hat
            expected = self.refs[k]
            t.expect(fit.converged, "fit did not converge")
            if "theta" in expected:
                limit = 1e-4 if kind == "logistic" else 1e-8
                gap = float(np.max(np.abs(theta - expected["theta"])))
                t.expect(gap < limit, f"a = 0 oracle gap {gap:.2e} (limit {limit:g})")
            else:
                grad = ref.objective_gradient(kind, z, y, theta, alpha)
                t.expect(float(np.linalg.norm(grad)) <= 1e-6 * model.n,
                         f"gradient norm {np.linalg.norm(grad):.2e} at the estimate")
            if kind != "logistic":
                sigma = 1.0 if kind == "known" else float(theta[-1])
                closed = ref.linear_covariance(z, alpha, sigma, kind == "unknown")
                dev = float(np.max(np.abs(cov - closed)) / np.max(np.abs(closed)))
                t.expect(dev < 1e-8, f"asymptotic covariance off the closed form by {dev:.1e}")
            else:
                t.expect(bool(np.all(np.linalg.eigvalsh(cov) > 0.0)), "covariance not positive definite")
            t.expect(np.array_equal(plug_in, theta), "Laplace plug-in differs from the estimate")
            est = result.estimate
            t.expect(bool(np.all(np.isfinite(est))), "importance estimate not finite")
            if "posterior_mean" in expected:
                z_score = float(np.max(np.abs(est - expected["posterior_mean"]) / result.standard_error))
                t.expect(z_score <= 4.0, f"importance mean off the conjugate mean by {z_score:.1f} SE")

        return job

    def _quad_job(self, t):
        # Started at the median: the default continuation begins at a = 0,
        # where the finite-difference derivatives of V at a = 1e-8 make the
        # quadrature fit take seconds.  The family has no closed-form
        # sandwich, and 2048 importance draws would need 10^4 quadratures,
        # so the request is fit plus Laplace plug-in.
        y = self.quad_data.responses
        with t.timed():
            fit = mdpde.fit(self.quad, self.quad_data, self.QUAD_ALPHA, init=[float(np.median(y))])
            plug_in = laplace.laplace_expectation(self.quad, self.quad_data, self.quad_prior,
                                                  _identity, self.QUAD_ALPHA, theta_hat=fit.theta_hat)
        t.work += 1
        t.expect(fit.converged, "fit did not converge")
        gap = abs(float(fit.theta_hat[0]) - self.quad_ref)
        t.expect(gap < 1e-6, f"quadrature estimate off the reference by {gap:.2e}")
        t.expect(np.array_equal(plug_in, fit.theta_hat), "Laplace plug-in differs from the estimate")


WORKLOADS = {"chains": Chains, "influence": Influence, "fits": Fits}
