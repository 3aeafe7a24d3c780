"""Command-line interface: contracts, exit codes, reproducibility."""

from __future__ import annotations

import json

import numpy as np

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


class TestBvmCommand:
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
