import json
import math
import os

import numpy as np
import pytest

from fbo_lab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExperimentConfig,
    build_config,
    config_to_text,
    load_config_file,
    main,
)


def read(path):
    with open(path) as fh:
        return fh.read()


class TestConfig:
    def test_round_trip_through_text(self, tmp_path):
        config = ExperimentConfig(subcommand="simulate", alpha=(1.1, 1.5), s=None)
        path = tmp_path / "c.cfg"
        path.write_text(config_to_text(config))
        values = load_config_file(path)
        rebuilt = ExperimentConfig(**values)
        assert rebuilt == config

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("whatever=1\nanother=2\nalpha=1.5\n")
        with pytest.raises(ValueError, match="another.*whatever|whatever.*another"):
            load_config_file(path)

    def test_cli_overrides_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=1.1\nseed=5\n")
        config = build_config(
            ["simulate", "--config", str(path), "--seed", "9"]
        )
        assert config.alpha == (1.1,)
        assert config.seed == 9

    def test_no_zero_mean_overrides_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("zero_mean=true\n")
        assert build_config(["simulate", "--config", str(path)]).zero_mean is True
        config = build_config(["simulate", "--config", str(path), "--no-zero-mean"])
        assert config.zero_mean is False
        assert build_config(["simulate", "--zero-mean"]).zero_mean is True

    def test_number_list_starting_negative(self):
        config = build_config(["sweep", "--alpha", "1.2", "--s", "-0.5,-0.4"])
        assert config.s == (-0.5, -0.4)
        assert build_config(["sweep", "--s", "-0.5"]).s == (-0.5,)
        assert build_config(["sweep", "--s=-0.5,-0.4"]).s == (-0.5, -0.4)
        assert build_config(["sweep", "--s", "none"]).s is None

    def test_conflicting_subcommand_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("subcommand=picard\n")
        with pytest.raises(ValueError):
            build_config(["simulate", "--config", str(path)])


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope=1\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_exits_2(self):
        assert main(["simulate", "--config", "/no/such/file"]) == EXIT_CONFIG

    def test_blowup_exits_3(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(
                [
                    "simulate",
                    "--n-modes", "64",
                    "--box-length", "16",
                    "--amplitude", "80",
                    "--t-span", "5",
                    "--dt", "0.05",
                    "--out", str(tmp_path / "blow"),
                ]
            )
        assert rc == EXIT_NUMERICAL

    def test_bad_params_exit_2(self, tmp_path):
        rc = main(
            [
                "verify-estimate",
                "--kind", "smoothing",
                "--b", "0.9",  # outside (1/2, b'+1)
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert rc == EXIT_CONFIG


class TestSimulate:
    def test_zero_amplitude_run(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(
            [
                "simulate",
                "--n-modes", "64",
                "--box-length", "16",
                "--t-span", "0.2",
                "--dt", "0.01",
                "--amplitude", "0.0",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = read(out / "conservation.csv").strip().split("\n")
        header = rows[0].split(",")
        assert header == [
            "run_id", "alpha", "omega", "T", "initial_norm", "sup_norm",
            "fitted_C", "l2_drift",
        ]
        values = rows[1].split(",")
        assert float(values[7]) == 0.0  # l2_drift
        assert float(values[6]) == 0.0  # fitted_C convention for zero data
        assert (out / "traj.csv").exists()
        assert (out / "traj.bin").exists()
        assert (out / "manifest.txt").exists()

    def test_manifest_reproduces_run(self, tmp_path):
        first = tmp_path / "a"
        rc = main(
            [
                "simulate",
                "--n-modes", "64",
                "--box-length", "16",
                "--t-span", "0.1",
                "--dt", "0.01",
                "--amplitude", "0.3",
                "--seed", "3",
                "--out", str(first),
            ]
        )
        assert rc == EXIT_OK
        manifest = read(first / "manifest.txt")
        second = tmp_path / "b"
        cfg = tmp_path / "echo.cfg"
        cfg.write_text(manifest.replace(str(first), str(second)))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert read(first / "traj.csv") == read(second / "traj.csv")
        assert read(first / "conservation.csv") == read(second / "conservation.csv")


class TestVerifyResonance:
    def test_reports_per_alpha_and_determinism(self, tmp_path):
        args = [
            "verify-resonance",
            "--alpha", "1.3,1.7",
            "--samples", "20000",
            "--seed", "4",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in ("resonance_alpha_1.3.json", "resonance_alpha_1.7.json"):
            assert read(out1 / name) == read(out2 / name)
            payload = json.loads(read(out1 / name))
            assert payload["inf_ratio"] > 0.0
        summary = read(out1 / "summary.csv").strip().split("\n")
        assert summary[0] == "kind,alpha,s,b,b_prime,sup_or_inf,n_samples,resolution,seed"
        assert len(summary) == 3

    def test_thread_count_does_not_change_results(self, tmp_path):
        args = [
            "verify-resonance",
            "--alpha", "1.2,1.5,1.8",
            "--samples", "5000",
            "--seed", "1",
        ]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        os.environ["FBO_LAB_THREADS"] = "3"
        try:
            assert main(args + ["--out", str(out2)]) == EXIT_OK
        finally:
            del os.environ["FBO_LAB_THREADS"]
        assert read(out1 / "summary.csv") == read(out2 / "summary.csv")


class TestVerifyEstimate:
    def test_smoothing_kind(self, tmp_path):
        out = tmp_path / "est"
        rc = main(
            [
                "verify-estimate",
                "--kind", "smoothing",
                "--alpha", "1.5",
                "--samples", "20000",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(read(out / "estimate_smoothing.json"))
        assert payload["inf_ratio"] >= 1.0
        summary = read(out / "summary.csv").strip().split("\n")
        assert summary[1].startswith("smoothing,1.5,")

    def test_bilinear_kind_small(self, tmp_path):
        out = tmp_path / "est2"
        rc = main(
            [
                "verify-estimate",
                "--kind", "dual_bilinear",
                "--alpha", "1.5",
                "--samples", "2",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(read(out / "estimate_dual_bilinear.json"))
        assert payload["sup_ratio"] > 0.0


class TestPicardCommand:
    def test_history_and_cross_validation(self, tmp_path):
        out = tmp_path / "pic"
        rc = main(
            [
                "picard",
                "--n-modes", "64",
                "--box-length", "16",
                "--t-span", "0.3",
                "--dt", "0.01",
                "--amplitude", "0.1",
                "--tol", "1e-8",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(read(out / "picard_history.json"))
        assert payload["converged"]
        assert payload["cross_validation_sup_gap"] <= 1e-3
        rows = read(out / "picard_vs_reference.csv").strip().split("\n")
        assert rows[0] == "t,l2_gap_vs_reference"
        assert len(rows) > 10


    def test_mismatched_dt_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys):
        import fbo_lab.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("no solve may start before the dt check")

        monkeypatch.setattr(cli, "picard_solve", never)
        monkeypatch.setattr(cli, "solve_reference", never)
        argv = ["picard", "--n-modes", "32", "--box-length", "16", "--amplitude", "0.1"]
        out = str(tmp_path / "pic")
        rc = main(argv + ["--t-span", "0.3", "--dt", "0.007", "--out", out])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "off the Picard time grid" in err
        fit = err.split("use dt=")[1].split(",")[0]
        assert main(argv + ["--t-span", "0.3", "--dt", "0.5", "--out", out]) == EXIT_CONFIG
        assert "exceeds t_span" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(argv + ["--t-span", "0.3", "--dt", fit, "--out", out]) == EXIT_OK


class TestSweep:
    def test_threshold_table(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--alpha", "1.5",
                "--s=-0.575,-0.275",
                "--samples", "3",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = read(out / "sweep.csv").strip().split("\n")
        assert rows[0].split(",")[:3] == ["alpha", "s", "s_threshold"]
        assert len(rows) == 3
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[2]) == pytest.approx(-0.375)
            assert math.isfinite(float(cells[7]))
