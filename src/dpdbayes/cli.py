"""Command-line interface: estimation, sampling, and experiment orchestration.

Configuration lives in an INI-style file with sections (``[model]``,
``[prior]``, ``[sampler]``, ``[experiment]``, ``[output]``); command-line
flags override file values, and ``--set section.key=value`` overrides
anything.  Every output row carries the tuning constant, the seed, and a
canonical configuration digest, so runs are fully reproducible: identical
configuration and seed give byte-identical outputs.  Seeds are mandatory for
stochastic subcommands; there is no wall-clock fallback.

Exit codes: 0 success; 1 input errors (unreadable or malformed data, bad
configuration, data the model rejects); 2 numerical failures (singular or
indefinite curvature, collapsed importance weights, a point estimate that
did not converge or sits at a flat optimum such as separated logistic data,
no sampler starting point with finite posterior) and a failed
``are-table --check``.  A library error is printed as one line,
``error: ...``, not as a traceback.

Subcommands
-----------
fit         point estimate, sandwich matrices, asymptotic covariance
sample      run a posterior chain, write draws and a posterior-mean report
erpe        alias of sample; ``--laplace`` swaps in the plug-in approximation
are-table   closed-form asymptotic relative efficiencies (``--check`` gates
            against the published reference values)
influence   influence-function curve over a contamination grid
breakdown   estimator-shift curve as contamination magnitude grows
bvm         posterior-normality distance over a grid of sample sizes

The CSV files are the plotting interface; nothing plots here.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, laplace, mdpde, posterior, robustness
from .alpha_likelihood import InModel
from .models import (
    Dataset,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
)

#: Environment variable that overrides only the output directory.
OUTPUT_DIR_ENV = "DPDBAYES_OUTPUT_DIR"

_DEFAULTS = {
    "model": {"family": "linear", "sigma": "1.0", "header": "false"},
    "prior": {"kind": "gaussian", "mean": "0.0", "sd": "10.0"},
    "sampler": {
        "alpha": "0.5",
        "chain_length": "50000",
        "burn_in": "5000",
        "thinning": "1",
    },
    "experiment": {
        "beta_g": "5.0",
        "n": "20",
        "design": "gaussian",
        "design_seed": "1",
        "alphas": "0.0,0.5",
        "t_min": "-100",
        "t_max": "100",
        "t_step": "0.5",
        "epsilon": "0.3",
        "magnitudes": "1e1,1e2,1e3,1e4,1e5,1e6",
        "n_grid": "25,100,400",
        "seeds": "1,2,3",
        "mc_draws": "50000",
    },
    "output": {"directory": "out", "format": "csv"},
}

#: Every section.key a subcommand reads: the defaults, the box prior's half
#: widths and the seed, which has no default.
_KEYS = {(sec, key) for sec, kv in _DEFAULTS.items() for key in kv} | {
    ("prior", "halfwidth"),
    ("sampler", "seed"),
}


class CliError(Exception):
    """User-facing input error (exit code 1)."""


def _fmt(value: float) -> str:
    """Shortest round-trip float formatting, for byte-stable outputs."""
    return repr(float(value))


class Config:
    """Layered configuration: defaults < file < --set < dedicated flags."""

    def __init__(self) -> None:
        self._values: dict[tuple[str, str], str] = {
            (sec, key): val
            for sec, kv in _DEFAULTS.items()
            for key, val in kv.items()
        }

    def load_file(self, path: str) -> None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise CliError(f"cannot read config file {path!r}")
        for sec in parser.sections():
            for key, val in parser.items(sec):
                self._set(sec, key, val)

    def set_override(self, dotted: str) -> None:
        if "=" not in dotted or "." not in dotted.split("=", 1)[0]:
            raise CliError(f"--set expects section.key=value, got {dotted!r}")
        target, val = dotted.split("=", 1)
        sec, key = target.split(".", 1)
        self._set(sec, key, val)

    def _set(self, sec: str, key: str, val: str) -> None:
        """Store a file or ``--set`` value; a key no subcommand reads is refused."""
        target = (sec.lower(), key.lower())
        if target not in _KEYS:
            raise CliError(f"unknown configuration key {'.'.join(target)}")
        self._values[target] = val

    def put(self, sec: str, key: str, val) -> None:
        if val is not None:
            self._values[(sec, key)] = str(val)

    def get(self, sec: str, key: str) -> str:
        try:
            return self._values[(sec, key)]
        except KeyError:
            raise CliError(f"missing configuration value {sec}.{key}") from None

    def get_float(self, sec: str, key: str) -> float:
        try:
            return float(self.get(sec, key))
        except ValueError:
            raise CliError(f"{sec}.{key} must be a number") from None

    def get_int(self, sec: str, key: str, minimum: int | None = None) -> int:
        try:
            value = int(self.get(sec, key))
        except ValueError:
            raise CliError(f"{sec}.{key} must be an integer") from None
        if minimum is not None and value < minimum:
            raise CliError(f"{sec}.{key} must be >= {minimum}, got {value}")
        return value

    def get_bool(self, sec: str, key: str) -> bool:
        word = self.get(sec, key).strip().lower()
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[word]
        except KeyError:
            raise CliError(f"{sec}.{key} must be true or false, got {word!r}") from None

    def get_floats(self, sec: str, key: str) -> list[float]:
        raw = self.get(sec, key)
        try:
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise CliError(f"{sec}.{key} must be a comma-separated number list") from None
        if not values:
            raise CliError(f"{sec}.{key} must list at least one number")
        return values

    def get_ints(self, sec: str, key: str, minimum: int | None = None) -> list[int]:
        values = self.get_floats(sec, key)
        if not all(v.is_integer() for v in values):
            raise CliError(f"{sec}.{key} must be a comma-separated integer list")
        if minimum is not None and min(values) < minimum:
            raise CliError(f"{sec}.{key} entries must be >= {minimum}, got {int(min(values))}")
        return [int(v) for v in values]

    def seed(self) -> int:
        if ("sampler", "seed") not in self._values:
            raise CliError("a seed is mandatory: set sampler.seed or pass --seed")
        return self.get_int("sampler", "seed")

    def digest(self) -> str:
        """Canonical configuration hash; the output directory is excluded so
        relocating results does not change provenance."""
        lines = sorted(
            f"{sec}.{key}={val}"
            for (sec, key), val in self._values.items()
            if (sec, key) != ("output", "directory")
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]

    def output_dir(self) -> Path:
        directory = os.environ.get(OUTPUT_DIR_ENV) or self.get("output", "directory")
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def output_format(self) -> str:
        fmt = self.get("output", "format").lower()
        if fmt not in {"csv", "json"}:
            raise CliError("output.format must be csv or json")
        return fmt


def _write_table(path: Path, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        path = path.with_suffix(".json")
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row)
            )
        path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _build_model(config: Config, design: np.ndarray):
    family = config.get("model", "family").lower()
    if family == "linear":
        return LinearKnownSigma(design, config.get_float("model", "sigma"))
    if family in {"linear-unknown", "linear_unknown"}:
        return LinearUnknownSigma(design)
    if family == "logistic":
        return Logistic(design)
    raise CliError(f"unknown model family {family!r}")


def _experiment_model(config: Config, design: np.ndarray):
    # influence, breakdown and bvm are written for the known-scale linear family.
    family = config.get("model", "family").lower()
    if family != "linear":
        raise CliError(f"this subcommand runs model.family = linear only, not {family!r}")
    return _build_model(config, design)


def _per_coordinate(config: Config, key: str, dim: int) -> np.ndarray:
    """A prior setting given as one value or one per coordinate."""
    values = config.get_floats("prior", key)
    if len(values) == 1:
        values = values * dim
    if len(values) != dim:
        raise CliError(
            f"prior.{key} needs one value or one per coordinate ({dim}), got {len(values)}"
        )
    return np.asarray(values)


def _build_prior(config: Config, dim: int):
    kind = config.get("prior", "kind").lower()
    if kind == "flat":
        return posterior.FlatPrior()
    mean = _per_coordinate(config, "mean", dim)
    if kind == "gaussian":
        sd = _per_coordinate(config, "sd", dim)
        return posterior.GaussianPrior(mean, np.diag(np.square(sd)))
    if kind == "box":
        half = _per_coordinate(config, "halfwidth", dim)
        return posterior.UniformBoxPrior(mean - half, mean + half)
    raise CliError(f"unknown prior kind {kind!r}")


def _sampler_config(config: Config, seed: int) -> posterior.SamplerConfig:
    return posterior.SamplerConfig(
        seed=seed,
        chain_length=config.get_int("sampler", "chain_length"),
        burn_in=config.get_int("sampler", "burn_in"),
        thinning=config.get_int("sampler", "thinning"),
    )


def _experiment_design(config: Config) -> np.ndarray:
    n = config.get_int("experiment", "n", minimum=1)
    kind = config.get("experiment", "design").lower()
    if kind == "ones":
        return np.ones((n, 1))
    if kind == "gaussian":
        # Covariates drawn once from N(1, 1) and then treated as fixed.
        rng = np.random.default_rng(config.get_int("experiment", "design_seed", minimum=0))
        return 1.0 + rng.standard_normal((n, 1))
    raise CliError("experiment.design must be 'ones' or 'gaussian'")


def _load_dataset(config: Config, path: str) -> Dataset:
    return Dataset.from_csv(path, header=config.get_bool("model", "header"))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_fit(args, config: Config) -> int:
    data = _load_dataset(config, args.data)
    model = _build_model(config, data.design)
    model.validate_data(data)
    alpha = config.get_float("sampler", "alpha")
    # An ascent that diverges overflows on its way; its verdict reports that.
    with np.errstate(over="ignore", invalid="ignore"):
        result = mdpde.fit(model, data, alpha)
    gnorm = result.gradient_norm
    print(f"family: {config.get('model', 'family')}  alpha: {_fmt(alpha)}")
    print(f"config: {config.digest()}")
    print("theta_hat: " + " ".join(_fmt(v) for v in result.theta_hat))
    print(
        f"converged: {result.converged}  iterations: {result.iterations}  "
        f"gradient_norm: {_fmt(gnorm) if math.isfinite(gnorm) else 'not finite'}"
    )
    if not result.converged:
        print("sandwich: not computed, the fit did not converge")
        return 2
    sw = mdpde.sandwich(model, data, result.theta_hat, alpha)
    cov = mdpde.asymptotic_covariance(sw, model.n)
    for name, matrix in (
        ("psi", sw.psi),
        ("omega", sw.omega),
        ("psi_hat", sw.psi_hat),
        ("asymptotic_covariance", cov),
    ):
        print(name + ":")
        for row in np.atleast_2d(matrix):
            print("  " + " ".join(_fmt(v) for v in row))
    return 0


def _cmd_sample(args, config: Config) -> int:
    data = _load_dataset(config, args.data)
    model = _build_model(config, data.design)
    model.validate_data(data)
    alpha = config.get_float("sampler", "alpha")
    seed = config.seed()
    prior = _build_prior(config, model.dim)
    outdir = config.output_dir()
    fmt = config.output_format()
    digest = config.digest()

    header = ["coordinate", "estimate", "standard_error", "method", "alpha", "seed", "config"]
    if args.laplace:
        estimate = laplace.laplace_expectation(model, data, prior, lambda th: th, alpha)
        rows = [
            [j, float(estimate[j]), 0.0, "laplace-plugin", float(alpha), seed, digest]
            for j in range(model.dim)
        ]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # as in ``fit``
            start = mdpde.fit(model, data, alpha).converged_estimate()
        chain = posterior.sample(model, data, prior, alpha, _sampler_config(config, seed), start=start)
        est = posterior.posterior_mean(chain)  # before any output: it refuses a one-draw chain
        chain.to_csv(outdir / "chain.csv")
        print(f"wrote {outdir / 'chain.csv'}")
        for warning in chain.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        rows = [
            [j, float(est.estimate[j]), float(est.standard_error[j]), "mcmc-mean",
             float(alpha), seed, digest]
            for j in range(model.dim)
        ]
    _write_table(outdir / "estimate.csv", header, rows, fmt)
    return 0


def _cmd_are_table(args, config: Config) -> int:
    alphas = (
        [float(a) for a in args.alphas]
        if args.alphas
        else sorted(diagnostics.TABLE_ARE_REFERENCE)
    )
    reports = diagnostics.are_table(alphas)
    digest = config.digest()
    header = ["alpha", "are_beta_percent", "are_sigma_percent", "config"]
    rows = [
        [float(r.alpha), r.are_beta_percent, r.are_sigma_percent, digest]
        for r in reports
    ]
    for r in reports:
        print(f"alpha={r.alpha:<6g} beta {r.are_beta_percent:7.2f}%  sigma {r.are_sigma_percent:7.2f}%")
    outdir = config.output_dir()
    _write_table(outdir / "are_table.csv", header, rows, config.output_format())
    if args.check:
        worst = 0.0
        for r in reports:
            ref = diagnostics.TABLE_ARE_REFERENCE.get(round(r.alpha, 2))
            if ref is None:
                continue
            worst = max(
                worst,
                abs(r.are_beta_percent - ref[0]),
                abs(r.are_sigma_percent - ref[1]),
            )
        print(f"max deviation from reference: {worst:.4f} percentage points")
        if worst > 0.01:
            print("reference check FAILED", file=sys.stderr)
            return 2
        print("reference check passed")
    return 0


def _cmd_influence(args, config: Config) -> int:
    model = _experiment_model(config, _experiment_design(config))
    beta_g = np.array([config.get_float("experiment", "beta_g")])
    spec = InModel(beta_g)
    prior = _build_prior(config, model.dim)
    seed = config.seed()
    digest = config.digest()
    mc = robustness.McConfig(seed=seed, draws=config.get_int("experiment", "mc_draws", minimum=1000))
    t_min, t_max, t_step = (config.get_float("experiment", k) for k in ("t_min", "t_max", "t_step"))
    if not (t_step > 0.0 and t_min <= t_max):
        raise CliError(f"experiment.t_step ({t_step}) must be > 0 and t_min ({t_min}) <= t_max ({t_max})")
    t_grid = np.arange(t_min, t_max + 1e-9, t_step)
    header = ["alpha", "t", "influence", "standard_error", "seed", "config"]
    rows: list[list] = []
    for alpha in config.get_floats("experiment", "alphas"):
        if alpha == 0.0:
            if not isinstance(prior, posterior.GaussianPrior):
                raise CliError("the exact alpha=0 influence curve needs a gaussian prior")
            for t in t_grid:
                value = robustness.influence_closed_form_alpha0(model, prior, spec, float(t))
                rows.append([float(alpha), float(t), float(value[0]), 0.0, seed, digest])
        else:
            values, errors, sample = robustness.influence_curve(model, spec, prior, alpha, t_grid, mc)
            for warning in sample.warnings:
                print(f"warning: {warning}", file=sys.stderr)
            for t, v, e in zip(t_grid, values[:, 0], errors[:, 0]):
                rows.append([float(alpha), float(t), float(v), float(e), seed, digest])
    _write_table(config.output_dir() / "influence.csv", header, rows, config.output_format())
    return 0


def _cmd_breakdown(args, config: Config) -> int:
    model = _experiment_model(config, np.ones((config.get_int("experiment", "n", minimum=1), 1)))
    beta_g = np.array([config.get_float("experiment", "beta_g")])
    prior = _build_prior(config, model.dim)
    seed = config.seed()
    digest = config.digest()
    epsilon = config.get_float("experiment", "epsilon")
    magnitudes = config.get_floats("experiment", "magnitudes")
    draws = config.get_int("experiment", "mc_draws", minimum=1000)
    method = args.method
    header = ["alpha", "epsilon", "magnitude", "estimate", "shift", "method", "seed", "config"]
    rows: list[list] = []
    for alpha in config.get_floats("experiment", "alphas"):
        curve = robustness.breakdown_experiment(
            model,
            prior,
            beta_g,
            alpha,
            epsilon,
            magnitudes,
            seed=seed,
            method=method,
            draws=draws,
        )
        for mag, est, shift in zip(curve.magnitudes, curve.estimates, curve.shifts):
            rows.append(
                [float(alpha), float(epsilon), float(mag), float(est), float(shift),
                 method, seed, digest]
            )
    _write_table(config.output_dir() / "breakdown.csv", header, rows, config.output_format())
    return 0


def _cmd_bvm(args, config: Config) -> int:
    beta_g = np.array([config.get_float("experiment", "beta_g")])
    alpha = config.get_float("sampler", "alpha")
    digest = config.digest()
    header = ["alpha", "n", "seed", "tv", "tv_observed_scaling", "config"]
    rows: list[list] = []
    n_grid = config.get_ints("experiment", "n_grid", minimum=1)
    seeds = config.get_ints("experiment", "seeds", minimum=0)
    for n in n_grid:
        design = np.ones((n, 1))
        model = _experiment_model(config, design)
        prior = _build_prior(config, model.dim)
        sw_true = mdpde.sandwich(model, InModel(beta_g), beta_g, alpha)
        for seed in seeds:
            rng = np.random.default_rng(1000 * seed + n)
            data = Dataset(model.sample_responses(beta_g, rng), design)
            theta_hat = mdpde.fit(model, data, alpha).converged_estimate()
            cfg = _sampler_config(config, seed)
            chain = posterior.sample(model, data, prior, alpha, cfg, start=theta_hat)
            report = diagnostics.bvm_distance(chain, theta_hat, sw_true.psi, n, "psi_at_theta_g")
            sw_obs = mdpde.sandwich(model, data, theta_hat, alpha)
            report_hat = diagnostics.bvm_distance(
                chain, theta_hat, sw_obs.psi_hat, n, "psi_hat_at_theta_hat"
            )
            rows.append(
                [float(alpha), n, seed, float(report.tv_estimate),
                 float(report_hat.tv_estimate), digest]
            )
    _write_table(config.output_dir() / "bvm.csv", header, rows, config.output_format())
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdbayes",
        description="Robust pseudo-Bayesian inference for fixed-design regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_data: bool = False) -> None:
        if needs_data:
            p.add_argument("data", help="CSV file: response column first, covariates after")
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override any configuration value")
        p.add_argument("--alpha", type=float, help="tuning constant")
        p.add_argument("--seed", type=int, help="random seed (mandatory for stochastic runs)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        p.add_argument("--model", help="model family: linear | linear-unknown | logistic")
        p.add_argument("--sigma", type=float, help="known error scale (linear family)")
        p.add_argument("--header", action="store_true", help="data CSV has a header row")

    p_fit = sub.add_parser("fit", help="point estimate with sandwich matrices")
    common(p_fit, needs_data=True)

    p_sample = sub.add_parser("sample", aliases=["erpe"],
                              help="posterior chain and mean report (alias: erpe)")
    common(p_sample, needs_data=True)
    p_sample.add_argument("--laplace", action="store_true",
                          help="replace the chain mean by the plug-in approximation")

    p_are = sub.add_parser("are-table", help="asymptotic relative efficiency table")
    common(p_are)
    p_are.add_argument("--alphas", nargs="*", help="grid of tuning constants")
    p_are.add_argument("--check", action="store_true",
                       help="compare against the published reference values")

    p_inf = sub.add_parser("influence", help="influence curve over contamination points")
    common(p_inf)

    p_bd = sub.add_parser("breakdown", help="breakdown curve over magnitudes")
    common(p_bd)
    p_bd.add_argument("--method", choices=["is", "laplace"], default="is")

    p_bvm = sub.add_parser("bvm", help="posterior-normality distance over sample sizes")
    common(p_bvm)
    return parser


_COMMANDS = {
    "fit": _cmd_fit,
    "sample": _cmd_sample,
    "erpe": _cmd_sample,
    "are-table": _cmd_are_table,
    "influence": _cmd_influence,
    "breakdown": _cmd_breakdown,
    "bvm": _cmd_bvm,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = Config()
    try:
        if args.config:
            config.load_file(args.config)
        for override in args.set:
            config.set_override(override)
        config.put("sampler", "alpha", args.alpha)
        config.put("sampler", "seed", args.seed)
        config.put("output", "directory", args.out)
        config.put("output", "format", args.format)
        config.put("model", "family", args.model)
        config.put("model", "sigma", args.sigma)
        if args.header:
            config.put("model", "header", "true")
        return _COMMANDS[args.command](args, config)
    except (CliError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        posterior.DegenerateWeightsError,
        posterior.NoFiniteStartError,
        mdpde.FitNotConvergedError,
        mdpde.SingularHessianError,
        laplace.IndefiniteCurvatureError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
