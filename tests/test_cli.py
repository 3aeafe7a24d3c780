"""Command-line interface: contracts, exit codes, reproducibility."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from dpdbayes.cli import main
from dpdbayes.models import LinearKnownSigma, Logistic


def _write_linear_csv(path, n=40, seed=5):
    gen = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), gen.standard_normal(n)])
    model = LinearKnownSigma(design, 1.0)
    x = model.sample_responses([5.0, 2.0], gen)
    lines = [
        f"{float(x[i])!r},{float(design[i, 0])!r},{float(design[i, 1])!r}"
        for i in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")
    return design, x


def _write_logistic_csv(path, n=80, seed=6):
    gen = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), gen.standard_normal(n)])
    model = Logistic(design)
    x = model.sample_responses([0.5, -1.0], gen)
    lines = [
        f"{float(x[i])!r},{float(design[i, 0])!r},{float(design[i, 1])!r}"
        for i in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")
    return design, x


class TestFitCommand:
    def test_linear_alpha_zero_prints_ols(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        design, x = _write_linear_csv(data_path)
        code = main(["fit", str(data_path), "--model", "linear", "--sigma", "1.0", "--alpha", "0"])
        assert code == 0
        out = capsys.readouterr().out
        theta_line = next(l for l in out.splitlines() if l.startswith("theta_hat:"))
        theta = np.array([float(v) for v in theta_line.split()[1:]])
        ols = np.linalg.lstsq(design, x, rcond=None)[0]
        assert np.allclose(theta, ols, atol=1e-8)
        assert "psi_hat:" in out and "asymptotic_covariance:" in out

    def test_logistic_alpha_zero_matches_irls(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        design, x = _write_logistic_csv(data_path)
        code = main(["fit", str(data_path), "--model", "logistic", "--alpha", "0"])
        assert code == 0
        out = capsys.readouterr().out
        theta_line = next(l for l in out.splitlines() if l.startswith("theta_hat:"))
        theta = np.array([float(v) for v in theta_line.split()[1:]])
        beta = np.zeros(2)
        for _ in range(60):
            eta = design @ beta
            p = 1.0 / (1.0 + np.exp(-eta))
            w = p * (1 - p)
            adj = eta + (x - p) / w
            beta = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * adj))
        assert np.max(np.abs(theta - beta)) < 1e-4

    def test_parse_error_reports_position_and_exits_one(self, tmp_path, capsys):
        data_path = tmp_path / "bad.csv"
        data_path.write_text("1.0,2.0\n3.0,not-a-number\n")
        code = main(["fit", str(data_path), "--model", "linear", "--alpha", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2, column 2" in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["fit", "/nonexistent.csv", "--model", "linear", "--alpha", "0"]) == 1


class TestLibraryErrorExitCodes:
    def test_rank_deficient_design_exits_two(self, tmp_path, capsys):
        gen = np.random.default_rng(8)
        z = gen.standard_normal(30)
        rows = np.column_stack([1.0 + 2.0 * z + gen.standard_normal(30), z, 2.0 * z])
        data_path = tmp_path / "rank.csv"
        np.savetxt(data_path, rows, delimiter=",")
        assert main(["fit", str(data_path), "--model", "linear", "--alpha", "0.3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_exactly_fitting_responses_exit_two(self, tmp_path, capsys, alpha):
        # The ascent drives sigma to 1e-153, where a sandwich would be inf and
        # NaN: the fit reports no sandwich and lets no overflow warning out.
        z = np.random.default_rng(1).standard_normal(30)
        data_path = tmp_path / "exact.csv"
        np.savetxt(data_path, np.column_stack([5.0 + 2.0 * z, np.ones(30), z]), delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", str(data_path), "--model", "linear-unknown", "--alpha", alpha])
        out, err = capsys.readouterr()
        assert code == 2
        assert "converged: False" in out
        assert [str(w.message) for w in caught] == [] and "Warning" not in err
        assert "nan" not in out and "inf" not in out
        assert out.splitlines()[-1] == "sandwich: not computed, the fit did not converge"

    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_exactly_fitting_responses_sample_exits_two(self, tmp_path, capsys, alpha):
        # The chain's start is the same fit, with the same guard.
        z = np.random.default_rng(1).standard_normal(30)
        data_path = tmp_path / "exact.csv"
        np.savetxt(data_path, np.column_stack([5.0 + 2.0 * z, np.ones(30), z]), delimiter=",")
        args = ["sample", str(data_path), "--model", "linear-unknown", "--alpha", alpha,
                "--seed", "1", "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert err.startswith("error: point estimate did not converge") and err.count("\n") == 1
        assert not (tmp_path / "out" / "chain.csv").exists()

    def test_one_draw_chain_exits_one(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        args = ["sample", str(data_path), "--seed", "1", "--set", "sampler.chain_length=1",
                "--out", str(tmp_path / "out")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: batch-means standard errors need at least 2 draws; the chain has 1\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_indefinite_curvature_exits_two(self, tmp_path, capsys, monkeypatch):
        from dpdbayes import laplace

        def indefinite(*args, **kwargs):
            raise laplace.IndefiniteCurvatureError("not positive definite")

        monkeypatch.setattr(laplace, "laplace_expectation", indefinite)
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        args = ["erpe", str(data_path), "--laplace", "--seed", "1", "--out", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: not positive definite\n"

    def test_non_binary_logistic_response_exits_one(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("0.5,1.0,0.2\n1.0,1.0,-0.3\n0.0,1.0,1.1\n")
        assert main(["fit", str(data_path), "--model", "logistic", "--alpha", "0"]) == 1
        assert "error: logistic responses must be coded 0/1" in capsys.readouterr().err

    def test_no_finite_starting_point_exits_two(self, tmp_path, capsys):
        gen = np.random.default_rng(9)
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.column_stack([5.0 + gen.standard_normal(30), np.ones(30)]),
                   delimiter=",")
        # The box prior puts all its mass on sigma in [-3, -1].
        args = [
            "sample", str(data_path), "--model", "linear-unknown", "--seed", "3",
            "--out", str(tmp_path / "out"), "--set", "prior.kind=box",
            "--set", "prior.mean=5,-2", "--set", "prior.halfwidth=1",
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: could not find a starting point with finite posterior\n"

    def test_separated_logistic_sample_exits_two(self, tmp_path, capsys):
        x = np.linspace(-1.0, 1.0, 30)
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.column_stack([(x > 0.0).astype(float), np.ones(30), x]),
                   delimiter=",")
        base = ["sample", str(data_path), "--model", "logistic", "--alpha", "0.3",
                "--seed", "1", "--out", str(tmp_path / "out")]
        for extra in ([], ["--laplace"]):
            assert main(base + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: point estimate did not converge")
            assert err.count("\n") == 1
        assert not (tmp_path / "out" / "chain.csv").exists()

    def test_box_halfwidth_per_coordinate_exits_one(self, tmp_path, capsys):
        gen = np.random.default_rng(9)
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.column_stack([2.0 + gen.standard_normal(30), np.ones(30)]),
                   delimiter=",")
        for halfwidth, given in (("1,50", 2), ("1,2,3", 3)):
            args = [
                "sample", str(data_path), "--seed", "1", "--out", str(tmp_path / "out"),
                "--set", "prior.kind=box", "--set", "prior.mean=2",
                "--set", f"prior.halfwidth={halfwidth}",
            ]
            assert main(args) == 1
            err = capsys.readouterr().err
            assert err == (
                f"error: prior.halfwidth needs one value or one per coordinate (1), got {given}\n"
            )
        assert not (tmp_path / "out" / "chain.csv").exists()

    @pytest.mark.parametrize("mean", ["nan,2", "5,inf"])
    def test_non_finite_prior_mean_exits_one(self, tmp_path, capsys, mean):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        args = ["sample", str(data_path), "--seed", "1", "--out", str(tmp_path / "out"),
                "--set", f"prior.mean={mean}", "--set", "prior.sd=3"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: prior mean must be finite\n"
        assert not (tmp_path / "out" / "chain.csv").exists()

    def test_fewer_rows_than_covariates_exits_one(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("1.0,1.0,2.0,3.0\n2.0,4.0,5.0,7.0\n")
        assert main(["fit", str(data_path), "--model", "linear", "--alpha", "0"]) == 1
        assert "error: need n >= p" in capsys.readouterr().err


class TestAreTableCommand:
    def test_check_passes_on_reference_grid(self, tmp_path, capsys):
        code = main(["are-table", "--check", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "reference check passed" in out
        table = (tmp_path / "are_table.csv").read_text().splitlines()
        assert len(table) == 11  # header + 10 grid rows

    def test_single_alpha_zero(self, tmp_path, capsys):
        code = main(["are-table", "--alphas", "0", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "are_table.csv").read_text().splitlines()
        cells = rows[1].split(",")
        assert float(cells[1]) == 100.0 and float(cells[2]) == 100.0

    def test_json_format(self, tmp_path):
        code = main(["are-table", "--alphas", "0.1", "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "are_table.json").read_text())
        assert payload[0]["alpha"] == 0.1


class TestSampleCommand:
    def test_byte_identical_reruns(self, tmp_path):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            code = main(
                [
                    "sample", str(data_path), "--model", "linear", "--sigma", "1.0",
                    "--alpha", "0.3", "--seed", "11", "--out", str(outdir),
                    "--set", "sampler.chain_length=2000",
                    "--set", "sampler.burn_in=200",
                    "--set", "prior.mean=5,2", "--set", "prior.sd=3",
                ]
            )
            assert code == 0
            outs.append(
                (
                    (outdir / "chain.csv").read_bytes(),
                    (outdir / "estimate.csv").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_estimate_report_has_errors_and_provenance(self, tmp_path):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        outdir = tmp_path / "out"
        code = main(
            [
                "erpe", str(data_path), "--model", "linear", "--sigma", "1.0",
                "--alpha", "0.2", "--seed", "4", "--out", str(outdir),
                "--set", "sampler.chain_length=2000", "--set", "sampler.burn_in=200",
                "--set", "prior.mean=5,2", "--set", "prior.sd=3",
            ]
        )
        assert code == 0
        rows = (outdir / "estimate.csv").read_text().splitlines()
        assert rows[0] == "coordinate,estimate,standard_error,method,alpha,seed,config"
        assert len(rows) == 3
        cells = rows[1].split(",")
        assert float(cells[2]) > 0.0  # Monte Carlo standard error present
        assert cells[3] == "mcmc-mean"

    def test_laplace_flag_swaps_method_and_annotates(self, tmp_path):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        outdir = tmp_path / "out"
        code = main(
            [
                "erpe", str(data_path), "--model", "linear", "--sigma", "1.0",
                "--alpha", "0.2", "--seed", "4", "--out", str(outdir), "--laplace",
                "--set", "prior.mean=5,2", "--set", "prior.sd=3",
            ]
        )
        assert code == 0
        rows = (outdir / "estimate.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "laplace-plugin"
        assert not (outdir / "chain.csv").exists()

    def test_seed_is_mandatory(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        code = main(
            ["sample", str(data_path), "--model", "linear", "--alpha", "0.2",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[sampler]\nalpha = 0.9\nseed = 1\n\n[output]\nformat = csv\n"
        )
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        outdir = tmp_path / "out"
        code = main(
            [
                "erpe", str(data_path), "--config", str(cfg), "--model", "linear",
                "--sigma", "1.0", "--alpha", "0.1", "--out", str(outdir), "--laplace",
                "--set", "prior.mean=5,2", "--set", "prior.sd=3",
            ]
        )
        assert code == 0
        rows = (outdir / "estimate.csv").read_text().splitlines()
        assert rows[1].split(",")[4] == "0.1"  # flag beat the file value

    def test_config_hash_stable_and_output_dir_free(self, tmp_path):
        from dpdbayes.cli import Config

        a, b = Config(), Config()
        a.put("output", "directory", "here")
        b.put("output", "directory", "elsewhere")
        assert a.digest() == b.digest()
        b.put("sampler", "alpha", "0.77")
        assert a.digest() != b.digest()

    def test_environment_overrides_output_dir_only(self, tmp_path, monkeypatch):
        from dpdbayes.cli import OUTPUT_DIR_ENV

        target = tmp_path / "env_out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        code = main(["are-table", "--alphas", "0.1", "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (target / "are_table.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestExperimentCommandsRefuseOtherFamilies:
    @pytest.mark.parametrize("command", ["influence", "breakdown", "bvm"])
    @pytest.mark.parametrize("family", ["logistic", "linear-unknown"])
    def test_exits_one_without_output(self, command, family, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main([command, "--seed", "1", "--model", family, "--out", str(outdir)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "model.family = linear" in err[0]
        assert not list(outdir.glob("*.csv"))


class TestConfigValues:
    @pytest.mark.parametrize(
        "setting", ["experiment.n_grid=25.9", "experiment.seeds=1.7", "experiment.seeds=1,inf"]
    )
    def test_non_integer_list_exits_one(self, setting, tmp_path, capsys):
        code = main(["bvm", "--seed", "1", "--out", str(tmp_path), "--set", setting])
        assert code == 1
        key = setting.split("=")[0]
        assert capsys.readouterr().err == f"error: {key} must be a comma-separated integer list\n"

    @pytest.mark.parametrize(
        "command, key",
        [
            ("influence", "experiment.alphas"),
            ("breakdown", "experiment.magnitudes"),
            ("bvm", "experiment.n_grid"),
            ("bvm", "experiment.seeds"),
        ],
    )
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_exits_one_without_output(self, command, key, value, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main([command, "--seed", "1", "--out", str(outdir), "--set", f"{key}={value}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {key} must list at least one number\n"
        assert not list(outdir.glob("*.csv"))

    @pytest.mark.parametrize(
        "settings, step, low, high",
        [
            (["experiment.t_step=0"], "0.0", "-100.0", "100.0"),
            (["experiment.t_step=-1"], "-1.0", "-100.0", "100.0"),
            (["experiment.t_step=nan"], "nan", "-100.0", "100.0"),
            (["experiment.t_min=5", "experiment.t_max=4"], "0.5", "5.0", "4.0"),
        ],
    )
    def test_empty_influence_grid_exits_one_without_output(
        self, settings, step, low, high, tmp_path, capsys
    ):
        outdir = tmp_path / "out"
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        code = main(["influence", "--seed", "1", "--out", str(outdir), *overrides])
        assert code == 1
        message = f"experiment.t_step ({step}) must be > 0 and t_min ({low}) <= t_max ({high})"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(outdir.glob("*.csv"))

    def test_integral_float_list_entries_are_read(self):
        from dpdbayes.cli import Config

        config = Config()
        config.set_override("experiment.seeds=1,2.0,3e1")
        assert config.get_ints("experiment", "seeds") == [1, 2, 30]

    def test_unknown_boolean_word_exits_one(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        code = main(["fit", str(data_path), "--set", "model.header=ture"])
        assert code == 1
        assert capsys.readouterr().err == "error: model.header must be true or false, got 'ture'\n"

    @pytest.mark.parametrize("word, value", [("Yes", True), ("on", True), ("0", False), ("off", False)])
    def test_boolean_words(self, word, value):
        from dpdbayes.cli import Config

        config = Config()
        config.set_override(f"model.header={word}")
        assert config.get_bool("model", "header") is value


class TestSettingRanges:
    @pytest.mark.parametrize(
        "command, settings, message",
        [
            ("bvm", ["experiment.seeds=-1", "experiment.n_grid=25"],
             "experiment.seeds entries must be >= 0, got -1"),
            ("bvm", ["experiment.seeds=1,-2"], "experiment.seeds entries must be >= 0, got -2"),
            ("bvm", ["experiment.n_grid=-5"], "experiment.n_grid entries must be >= 1, got -5"),
            ("bvm", ["experiment.n_grid=25,0"], "experiment.n_grid entries must be >= 1, got 0"),
            ("influence", ["experiment.n=-3"], "experiment.n must be >= 1, got -3"),
            ("influence", ["experiment.n=0", "experiment.design=ones"],
             "experiment.n must be >= 1, got 0"),
            ("influence", ["experiment.design_seed=-2"],
             "experiment.design_seed must be >= 0, got -2"),
            ("breakdown", ["experiment.n=-3"], "experiment.n must be >= 1, got -3"),
            ("influence", ["experiment.mc_draws=10"], "experiment.mc_draws must be >= 1000, got 10"),
            ("breakdown", ["experiment.mc_draws=10"], "experiment.mc_draws must be >= 1000, got 10"),
        ],
    )
    def test_out_of_range_setting_exits_one_naming_the_key(
        self, command, settings, message, tmp_path, capsys
    ):
        outdir = tmp_path / "out"
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        code = main([command, "--seed", "1", "--out", str(outdir), *overrides])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(outdir.glob("*.csv"))


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("are-table", "bogus.key=1", "bogus.key"),
            ("breakdown", "experiment.draws=0", "experiment.draws"),
            ("bvm", "Sampler.Chain_Lenght=10", "sampler.chain_lenght"),
        ],
    )
    def test_set_exits_one_naming_the_key(self, command, setting, key, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main([command, "--seed", "1", "--out", str(outdir), "--set", setting])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown configuration key {key}\n"
        assert not outdir.exists()

    def test_config_file_exits_one_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sampler]\nseed = 1\n\n[experiment]\nmc_draws = 2000\ndraws = 0\n")
        code = main(["breakdown", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown configuration key experiment.draws\n"

    def test_the_known_keys_are_the_keys_the_subcommands_read(self, tmp_path, monkeypatch):
        from dpdbayes import cli

        read = set()
        get = cli.Config.get

        def spy(self, sec, key):
            read.add((sec, key))
            return get(self, sec, key)

        monkeypatch.setattr(cli.Config, "get", spy)
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        out = ["--seed", "1", "--out", str(tmp_path / "out")]
        short = ["--set", "sampler.chain_length=1100", "--set", "sampler.burn_in=50",
                 "--set", "prior.mean=5", "--set", "prior.sd=2"]
        runs = [
            ["fit", str(data_path)],
            ["sample", str(data_path), "--laplace", "--set", "prior.kind=box",
             "--set", "prior.halfwidth=3", "--set", "prior.mean=5,2"],
            ["sample", str(data_path), *short[:4], "--set", "prior.mean=5,2"],
            ["are-table", "--alphas", "0.1"],
            ["influence", "--set", "experiment.mc_draws=1000", "--set", "experiment.t_min=0",
             "--set", "experiment.t_max=1", "--set", "prior.mean=5"],
            ["breakdown", "--method", "laplace", "--set", "experiment.magnitudes=10,100"],
            ["bvm", "--set", "experiment.n_grid=25", "--set", "experiment.seeds=1", *short],
        ]
        for args in runs:
            assert main([*args, *out]) == 0, args
        assert read == cli._KEYS


class TestNonFiniteAlpha:
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["fit", "sample"])
    def test_exits_one_with_one_error_line(self, command, alpha, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        _write_linear_csv(data_path)
        code = main([command, str(data_path), "--alpha", alpha, "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert "converged" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: alpha must be a finite number >= 0")


class TestFlatPriorAtPositiveAlpha:
    @pytest.mark.parametrize(
        "command, settings",
        [
            ("influence", ["experiment.mc_draws=1000", "experiment.t_min=0", "experiment.t_max=1"]),
            ("breakdown", ["experiment.mc_draws=5000"]),
        ],
    )
    def test_exits_one_without_output(self, command, settings, tmp_path, capsys):
        args = [command, "--seed", "1", "--out", str(tmp_path / "out"),
                "--set", "prior.kind=flat", "--set", "experiment.alphas=0.5"]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "needs a proper prior" in err[0]
        assert not (tmp_path / "out").exists()


class TestBvmCommand:
    def test_sampler_thinning_reaches_the_chain(self, tmp_path, monkeypatch):
        from dpdbayes import posterior

        thinning = []
        real_sample = posterior.sample

        def spy(model, data, prior, alpha, config, **kwargs):
            thinning.append(config.thinning)
            return real_sample(model, data, prior, alpha, config, **kwargs)

        monkeypatch.setattr(posterior, "sample", spy)
        code = main(
            [
                "bvm", "--seed", "1", "--alpha", "0.3", "--out", str(tmp_path),
                "--set", "experiment.n_grid=25", "--set", "experiment.seeds=1",
                "--set", "sampler.chain_length=4000", "--set", "sampler.burn_in=400",
                "--set", "sampler.thinning=4",
                "--set", "prior.mean=5", "--set", "prior.sd=2",
            ]
        )
        assert code == 0
        assert thinning == [4]

    def test_emits_rows_per_n_and_seed(self, tmp_path):
        outdir = tmp_path / "out"
        code = main(
            [
                "bvm", "--seed", "1", "--alpha", "0.3", "--out", str(outdir),
                "--set", "experiment.n_grid=25,50",
                "--set", "experiment.seeds=1,2",
                "--set", "sampler.chain_length=4000",
                "--set", "sampler.burn_in=400",
                "--set", "prior.mean=5", "--set", "prior.sd=2",
            ]
        )
        assert code == 0
        rows = (outdir / "bvm.csv").read_text().splitlines()
        assert rows[0] == "alpha,n,seed,tv,tv_observed_scaling,config"
        assert len(rows) == 5  # header + 2 n-values x 2 seeds
        for row in rows[1:]:
            cells = row.split(",")
            assert 0.0 <= float(cells[3]) <= 1.0
            assert 0.0 <= float(cells[4]) <= 1.0


class TestBreakdownCommand:
    def test_two_curve_shapes(self, tmp_path):
        outdir = tmp_path / "out"
        code = main(
            [
                "breakdown", "--seed", "3", "--out", str(outdir), "--method", "laplace",
                "--set", "experiment.alphas=0.0,0.5", "--set", "experiment.n=20",
                "--set", "prior.mean=5", "--set", "prior.sd=1",
            ]
        )
        assert code == 0
        rows = (outdir / "breakdown.csv").read_text().splitlines()[1:]
        shifts = {}
        for row in rows:
            cells = row.split(",")
            shifts.setdefault(float(cells[0]), []).append(float(cells[4]))
        classical = np.array(shifts[0.0])
        robust = np.array(shifts[0.5])
        assert np.all(np.diff(classical) > 0)  # grows without plateau
        assert robust[3:].max() < 0.02  # plateau at the clean value
