import json
import math
import os
import shlex
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fbo_lab.cli as cli
import fbo_lab.estimates as estimates
from fbo_lab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RUN,
    SUBCOMMAND_KEYS,
    ExperimentConfig,
    build_config,
    config_to_text,
    load_config_file,
    main,
)
from fbo_lab.estimates import estimate_ratio
from fbo_lab.evolution import _check_dt, picard_solve, solve_reference
from fbo_lab.spectral import FrequencyGrid, _l2_raw
from fbo_lab.norms import EstimateParams

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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

    def test_a_diverging_picard_iteration_exits_3_without_numpy_warnings(self, tmp_path, capsys):
        import warnings

        argv = ["picard", "--n-modes", "64", "--box-length", "16", "--t-span", "5",
                "--dt", "0.05", "--amplitude", "80", "--out", str(tmp_path / "pic")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv)
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical sentinel: Picard iterate difference 8 is inf: the iteration diverged\n")

    @pytest.mark.parametrize("error", [ValueError("low >= high"), OSError("disk full")])
    def test_runner_error_after_the_manifest_is_no_config_error(
        self, tmp_path, monkeypatch, capsys, error
    ):
        def fail(config, *inputs):
            raise error

        monkeypatch.setitem(cli._RUNNERS, "verify-resonance", fail)
        out = tmp_path / "res"
        assert main(["verify-resonance", "--samples", "10", "--out", str(out)]) == EXIT_RUN
        assert (out / "manifest.txt").exists()
        err = capsys.readouterr().err
        assert err == f"run error: {type(error).__name__}: {error}\n"
        # a bad config is still a config error, and leaves no manifest
        bad = tmp_path / "bad"
        assert main(["verify-resonance", "--samples", "0", "--out", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ") and not bad.exists()

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

    @pytest.mark.parametrize(
        "argv, alpha, bound, fix",
        [
            (["sweep", "--alpha", "1.3,1.5,1.7"], "1.3", "0.075", "0.075"),
            (["verify-estimate", "--alpha", "1.2"], "1.2", "0.05", "0.05"),
            # s=-0.06 is below alpha=1.2's floor at epsilon 0.1 but not at 0.075
            (["sweep", "--alpha", "1.2,1.3", "--s=-0.06"], "1.3", "0.075", "0.05"),
        ],
    )
    def test_epsilon_too_large_names_the_fix(
        self, tmp_path, monkeypatch, capsys, argv, alpha, bound, fix
    ):
        import fbo_lab.cli as cli

        class Reached(Exception):
            pass

        def reached(kind, options, p, seed):
            raise Reached(p)

        monkeypatch.setattr(cli, "estimate_ratio", reached)
        argv = argv + ["--samples", "2", "--out", str(tmp_path / "eps")]
        assert main(argv) == EXIT_CONFIG  # the default epsilon, 0.1
        err = capsys.readouterr().err
        assert f"epsilon=0.1 exceeds (alpha-1)/4 = {bound} at alpha={alpha}" in err
        assert f"pass --epsilon {fix} or smaller" in err
        with pytest.raises(Reached) as reached_with:
            main(argv + ["--epsilon", fix])
        assert reached_with.value.args[0].epsilon == float(fix)
        # a point whose s lies below its floor is not bound by epsilon
        with pytest.raises(Reached):
            main(argv + ["--s=-0.5"])


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

    def test_op_holds_one_trajectory(self, tmp_path):
        # the trajectory is the one array that grows with the number of times
        import tracemalloc

        argv = ["simulate", "--n-modes", "128", "--box-length", "32", "--zero-mean"]
        assert main(argv + ["--t-span", "0.01", "--out", str(tmp_path / "warm")]) == EXIT_OK
        tracemalloc.start()
        try:
            rc = main(argv + ["--t-span", "1", "--dt", "1e-3", "--out", str(tmp_path / "sim")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        trajectory = 2001 * 128 * 16
        assert os.path.getsize(tmp_path / "sim" / "traj.bin") == 36 + 2001 * (8 + 128 * 16)
        assert peak < 1.25 * trajectory

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-resonance", "--alpha", "1.2,1.5,1.8", "--samples", "5000", "--seed", "1"],
            ["sweep", "--alpha", "1.5", "--s=-0.5,-0.4,-0.3", "--samples", "2", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch, argv):
        # the pool takes a thread per CPU of the affinity, at most one per point
        pools = []

        class Recording(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        artifacts = []
        for cpus in (1, 3, 8):
            affinity = set(range(cpus))
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity, raising=False)
            out = tmp_path / f"cpus{cpus}"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            names = sorted(name for name in os.listdir(out) if name != "manifest.txt")
            artifacts.append({name: read(out / name) for name in names})
        assert pools == [3, 3]
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_the_pool_size_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert [cli._pool_size(points) for points in (1, 3, 4, 9)] == [1, 3, 4, 4]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # undetermined
        assert cli._pool_size(9) == 1


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

    def test_infimum_sample_count_is_the_draws(self, tmp_path):
        # one of the two draws (beta = -1) has xi = 0 and is skipped
        out = tmp_path / "est"
        argv = ["verify-estimate", "--kind", "smoothing", "--samples", "2", "--out", str(out)]
        assert main(argv) == EXIT_OK
        payload = json.loads(read(out / "estimate_smoothing.json"))
        assert payload["sample_count"] == 2 and payload["skipped"] == 1
        assert read(out / "summary.csv").strip().split("\n")[1].split(",")[6] == "2"

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


    PICARD_ARGV = ["picard", "--n-modes", "32", "--box-length", "16", "--amplitude", "0.1"]

    def test_any_simulate_dt_runs_on_the_reference_grid(self, tmp_path):
        # 0.3 / 0.007 is no whole number, and 2.0 / (0.3 / 43) neither
        out = tmp_path / "pic"
        argv = ["--t-span", "0.3", "--dt", "0.007", "--out", str(out)]
        assert main(self.PICARD_ARGV + argv) == EXIT_OK
        rows = read(out / "picard_vs_reference.csv").strip().split("\n")[1:]
        times = np.arange(-43, 44) * (0.3 / 43)
        assert [row.split(",")[0] for row in rows] == [repr(float(t)) for t in times]
        assert max(float(row.split(",")[1]) for row in rows) <= 1e-5

    @settings(max_examples=20, deadline=None)
    @given(t_span=st.floats(0.1, 3.0, exclude_min=True), dt=st.floats(0.004, 0.3))
    @example(t_span=0.5, dt=0.005)
    @example(t_span=1.5, dt=0.003)
    @example(t_span=0.25, dt=0.007)
    @example(t_span=1.0, dt=0.001)
    @example(t_span=0.3, dt=0.11)
    def test_reference_is_the_middle_of_the_picard_grid(self, t_span, dt):
        assume(dt <= t_span)
        argv = self.PICARD_ARGV + ["--t-span", repr(t_span), "--dt", repr(dt), "--max-iter", "1"]
        config = build_config(argv)
        u0 = cli._initial_field(config, FrequencyGrid(config.n_modes, config.box_length))
        traj, _ = picard_solve(u0, t_span, 1.5, max_iter=1, dt=dt)
        reference = solve_reference(u0, t_span, dt, 1.5)
        # the oracle: each reference time looked up on the Picard grid
        on_picard_grid = [traj.index_of_time(float(t)) for t in reference.times]
        n_p, n_r = traj.n_times // 2, reference.n_times // 2
        assert list(range(n_p - n_r, n_p + n_r + 1)) == on_picard_grid
        gaps = _l2_raw(traj.coeffs[on_picard_grid] - reference.coeffs, u0.grid.spacing).tolist()
        expected = "t,l2_gap_vs_reference\n" + "".join(
            f"{float(t)!r},{gap!r}\n" for t, gap in zip(reference.times, gaps)
        )
        with tempfile.TemporaryDirectory() as tmp:
            assert main(argv + ["--out", tmp]) == EXIT_OK
            assert read(os.path.join(tmp, "picard_vs_reference.csv")) == expected
            payload = json.loads(read(os.path.join(tmp, "picard_history.json")))
        assert payload["cross_validation_sup_gap"] == max(gaps)

    #: picard_history.json of --max-iter 8 runs at (t_span, dt) whose reference
    #: step also divided 2 max(t_span, 1), as written when the Picard grid
    #: was stepped by 2 max(t_span, 1) / round(2 max(t_span, 1) / dt).  The
    #: t_span > 1 history is that grid's with the free term cut by
    #: bump(t / max(T, 1)), as duhamel_apply cuts it.  The digits are those
    #: of the nonlinearity kernel whose constants sit in two weights.
    EARLIER_HISTORIES = {
        ("0.5", "0.005"): (
            "0.11195151379152735", "0.002199473342832827", "4.505466987109844e-05",
            "7.869024433211789e-07", "1.3134356145294875e-08", "2.0036646677735344e-10",
            "1.7767723729491233e-07",
        ),
        ("1.5", "0.01"): (
            "0.11195151379152735", "0.003401478500841086", "9.782324395866138e-05",
            "2.7264260207213275e-06", "6.39172751994031e-08", "1.476659773212485e-09",
            "7.109329808506492e-07",
        ),
    }

    def test_t_span_above_one_iterates_to_the_flow(self, tmp_path):
        # the free term is cut by bump(t / 1.5), which is 1 on |t| <= 1.5;
        # cut by bump(t), the gap was 7.3e-3 at t = 1.25 and 5.6e-2 at 1.5
        out = tmp_path / "pic"
        argv = ["--t-span", "1.5", "--dt", "0.01", "--max-iter", "8", "--out", str(out)]
        assert main(self.PICARD_ARGV + argv) == EXIT_OK
        rows = read(out / "picard_vs_reference.csv").strip().split("\n")[1:]
        gaps = {float(t): float(gap) for t, gap in (row.split(",") for row in rows)}
        assert min(gaps) == -1.5 and max(gaps) == 1.5
        assert max(gaps.values()) <= 1e-6

    @pytest.mark.parametrize("t_span, dt", list(EARLIER_HISTORIES), ids=["T<1", "T>1"])
    def test_history_bytes_match_the_earlier_grid(self, tmp_path, t_span, dt):
        *gaps, sup_gap = self.EARLIER_HISTORIES[t_span, dt]
        expected = "".join([
            '{\n  "converged": true,\n  "cross_validation_sup_gap": ', sup_gap,
            ',\n  "iterate_differences": [\n    ', ",\n    ".join(gaps),
            '\n  ],\n  "iterations": 6\n}\n',
        ])
        out = tmp_path / "pic"
        argv = ["--t-span", t_span, "--dt", dt, "--max-iter", "8", "--out", str(out)]
        assert main(self.PICARD_ARGV + argv) == EXIT_OK
        assert read(out / "picard_history.json") == expected


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


class Reached(Exception):
    """Raised by a stubbed compute entry point: every check before it passed."""


def reached(*args, **kwargs):
    raise Reached


#: Where each subcommand's compute starts, as the CLI and estimate_ratio call it.
#: The initial field of simulate and picard is built by the config check.
COMPUTE_ENTRY_POINTS = [
    (cli, "solve_reference"), (cli, "picard_solve"), (cli, "resonance_infimum"),
    (estimates, "_smoothing_report"), (estimates, "_draw_samples"),
]


def reads_message(subcommand, unread=()):
    keys = [key for key in SUBCOMMAND_KEYS[subcommand] if key not in unread]
    return f"It reads {' '.join('--' + key.replace('_', '-') for key in keys)} and --out"


ALPHA_MESSAGE = "alpha must lie in (1, 2), got alpha={}: pass --alpha 1.5"

SMOOTHING_BAND_MESSAGE = (
    "verify-estimate --kind smoothing does not read band: remove --band. "
    + reads_message("verify-estimate", unread=("band",))
)


class TestSubcommandKeys:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--kind", "strichartz"], reads_message("simulate")),
            (["sweep", "--kind", "bilinear_str"], reads_message("sweep")),
            (["verify-estimate", "--box-length", "32"], reads_message("verify-estimate")),
            (["verify-estimate", "--kind", "smoothing", "--band", "2"], SMOOTHING_BAND_MESSAGE),
            (["simulate", "--alpha", "1.3,1.5"], "simulate runs one point"),
            (["verify-estimate", "--s=-0.3,-0.2"], "verify-estimate runs one point"),
            (["verify-estimate", "--kind", "foo"], "unknown estimate kind 'foo'"),
            (
                ["verify-estimate", "--alpha", "1.2", "--epsilon", "0.5"],
                "epsilon=0.5 exceeds (alpha-1)/4 = 0.05 at alpha=1.2",
            ),
            (["picard", "--t-span", "0.3", "--dt", "0.5"], "dt=0.5 exceeds t_span=0.3; use dt <="),
            (["picard", "--tol", "0"], "tol must be positive, got 0.0: pass --tol 1e-08"),
            (["picard", "--max-iter", "0"], "max_iter must be at least 1, got 0: pass --max-iter"),
            (
                ["simulate", "--retained-modes", "-1", "--n-modes", "32"],
                "retained_modes must be at least 0, got -1: pass --retained-modes 16",
            ),
            (["sweep", "--alpha", "1.3,1.5"], "epsilon=0.1 exceeds (alpha-1)/4 = 0.075"),
            (["verify-estimate", "--kind", "smoothing", "--b", "0.9"], "b must lie in (1/2, b'+1)"),
            (["simulate", "--dt", "0"], "t_span and dt must be positive, got 1.0, 0.0"),
            (
                ["simulate", "--t-span", "inf"],
                "t_span and dt must be finite, got inf, 0.001; use t_span=1.0 and dt=0.001, say",
            ),
            (["picard", "--t-span", "inf"], "t_span and dt must be finite, got inf, 0.001"),
            (["simulate", "--t-span", "inf", "--dt", "inf"], "must be finite, got inf, inf"),
            (["picard", "--dt=-inf"], "t_span and dt must be finite, got 1.0, -inf"),
            (["simulate", "--dt", "nan"], "t_span and dt must be finite, got 1.0, nan"),
            (
                ["simulate", "--family", "random_bandlimited", "--band", "1000"],
                "band 1000.0 exceeds the largest paired grid frequency",
            ),
            (
                ["verify-estimate", "--kind", "bilinear_str", "--samples", "0"],
                "verify-estimate needs at least one sample, got samples=0: "
                "pass --samples 1 or more",
            ),
            (["verify-estimate", "--samples", "-3"], "got samples=-3: pass --samples 1 or more"),
            (["sweep", "--samples", "0"], "sweep needs at least one sample"),
            (["verify-resonance", "--samples", "0"], "verify-resonance needs at least one sample"),
            (
                ["verify-estimate", "--kind", "strichartz", "--band", "12"],
                "pi/dt = 314.159: the largest band that fits is 9.9227",
            ),
            (
                ["verify-estimate", "--kind", "strichartz", "--band", "13"],
                "band 13.0 does not fit the coarsest grid, 256 modes on a box of 64.0: "
                "the largest band that fits is 9.9227",
            ),
            (["verify-estimate", "--band", "nan"], "band must be positive, got nan: pass band=10.0"),
            (
                ["verify-estimate", "--kind", "dual_bilinear", "--band", "-1"],
                "band must be positive, got -1.0: pass band=3.0",
            ),
            (
                ["verify-estimate", "--kind", "main_bilinear", "--band", "-1"],
                "band must be positive, got -1.0: pass band=10.0",
            ),
            (
                ["verify-estimate", "--kind", "strichartz", "--band", "-1"],
                "band must be positive, got -1.0: pass band=8.0",
            ),
            (
                ["verify-estimate", "--kind", "bilinear_str", "--band", "0"],
                "band must be positive, got 0.0: pass band=3.0",
            ),
            (["simulate", "--alpha", "2.5"], ALPHA_MESSAGE.format("2.5")),
            (["picard", "--alpha", "2.5"], ALPHA_MESSAGE.format("2.5")),
            (["verify-resonance", "--alpha", "2.5"], ALPHA_MESSAGE.format("2.5")),
            (["verify-resonance", "--alpha", "0.5"], ALPHA_MESSAGE.format("0.5")),
            (["verify-resonance", "--alpha", "1.3,2.0"], ALPHA_MESSAGE.format("2.0")),
            (["simulate", "--alpha", "nan"], ALPHA_MESSAGE.format("nan")),
            (["verify-resonance", "--alpha", "nan"], ALPHA_MESSAGE.format("nan")),
            (["simulate", "--amplitude", "nan"], "amplitude must be finite, got nan"),
            (["picard", "--amplitude", "nan"], "amplitude must be finite, got nan"),
            (
                ["simulate", "--family", "random_bandlimited", "--amplitude", "inf"],
                "amplitude must be finite, got inf",
            ),
            (
                ["verify-estimate", "--kind", "main_bilinear", "--s", "inf"],
                "s, b and b' must be finite, got inf,",
            ),
            (
                ["verify-estimate", "--kind", "main_bilinear", "--s", "nan"],
                "s, b and b' must be finite, got nan,",
            ),
            (["sweep", "--s", "nan"], "s, b and b' must be finite, got nan,"),
            (["verify-estimate", "--b", "nan"], "s, b and b' must be finite, got -0.275, nan,"),
            (["verify-estimate", "--b-prime", "inf"], "s, b and b' must be finite"),
            (["sweep", "--epsilon", "nan"], "epsilon must be nonnegative, got nan"),
            (
                ["simulate", "--n-modes", "64", "--box-length", "16", "--t-span", "1e9"],
                "simulate's trajectory needs more than the machine's",
            ),
            (["picard", "--t-span", "1e9"], "and n_modes=1024, the largest t_span that fits is"),
            (
                ["simulate", "--t-span", "1e300", "--dt", "1e-300"],
                "t_span/dt overflows, got 1e+300, 1e-300; use a larger dt",
            ),
            (["sweep", "--s", " "], "s expects comma-separated numbers or none, got ''"),
            (["verify-estimate", "--s", " "], "s expects comma-separated numbers or none, got ''"),
            (["verify-resonance", "--alpha", " "], "alpha expects comma-separated numbers, got ''"),
            (
                ["verify-estimate", "--kind", "bilinear_str", "--band", "0.2"],
                "band 0.2 admits no nonzero mode: the smallest band that does is the grid "
                "spacing 0.39269908169872414",
            ),
            (["verify-estimate", "--kind", "dual_bilinear", "--band", "0.1"], "spacing 0.392699"),
            (["verify-estimate", "--kind", "strichartz", "--band", "0.05"], "spacing 0.0981747"),
            (
                ["simulate", "--family", "random_bandlimited", "--band", "0.01"],
                "band 0.01 admits no nonzero mode: the smallest band that does is the grid "
                "spacing 0.04908738521234052",
            ),
            (
                ["verify-resonance", "--samples", "10000000000"],
                "samples=10000000000 needs more than the machine's",
            ),
            (
                ["verify-estimate", "--kind", "smoothing", "--samples", "10000000000"],
                "runs 1 smoothing scan(s) at once, at 88 bytes a sample; the largest --samples",
            ),
        ],
        ids=["simulate-kind", "sweep-kind", "estimate-box-length", "smoothing-band",
             "simulate-alpha-list", "estimate-s-list", "estimate-kind", "estimate-epsilon",
             "picard-dt", "picard-tol", "picard-max-iter", "simulate-retained-modes",
             "sweep-epsilon", "estimate-b", "simulate-dt", "simulate-t-span-inf",
             "picard-t-span-inf", "simulate-both-inf", "picard-dt-minus-inf", "simulate-dt-nan",
             "simulate-band", "estimate-samples",
             "estimate-negative-samples", "sweep-samples", "resonance-samples",
             "strichartz-tau-nyquist", "strichartz-band", "estimate-band-nan",
             "dual-bilinear-negative-band", "main-bilinear-negative-band",
             "strichartz-negative-band", "bilinear-str-zero-band", "simulate-alpha",
             "picard-alpha", "resonance-alpha-high", "resonance-alpha-low",
             "resonance-alpha-list", "simulate-alpha-nan", "resonance-alpha-nan",
             "simulate-amplitude-nan", "picard-amplitude-nan", "random-amplitude-inf",
             "main-bilinear-s-inf", "main-bilinear-s-nan", "sweep-s-nan", "estimate-b-nan",
             "estimate-b-prime-inf", "sweep-epsilon-nan", "simulate-t-span-memory",
             "picard-t-span-memory", "simulate-step-count-overflow", "sweep-empty-s",
             "estimate-empty-s", "resonance-empty-alpha", "bilinear-str-band-below-spacing",
             "dual-bilinear-band-below-spacing", "strichartz-band-below-spacing",
             "simulate-band-below-spacing", "resonance-samples-memory",
             "smoothing-samples-memory"],
    )
    def test_rejected_before_any_compute(self, tmp_path, monkeypatch, capsys, argv, message):
        for module, name in COMPUTE_ENTRY_POINTS:
            monkeypatch.setattr(module, name, reached)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()  # not even a manifest

    @pytest.mark.parametrize("subcommand", ["simulate", "picard"])
    def test_the_largest_t_span_named_fits(self, tmp_path, monkeypatch, capsys, subcommand):
        for module, name in COMPUTE_ENTRY_POINTS:
            monkeypatch.setattr(module, name, reached)
        # a machine of 1 MiB: 4096 states of 16 modes
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
        argv = [subcommand, "--n-modes", "16", "--box-length", "16", "--dt", "0.001"]
        assert main(argv + ["--t-span", "100", "--out", str(tmp_path / "a")]) == EXIT_CONFIG
        largest = float(capsys.readouterr().err.split("the largest t_span that fits is ")[1])
        # the solver's own step count at that t_span
        n, dt_eff = _check_dt(largest, 0.001)
        if subcommand == "picard":
            n = math.ceil(2.0 * max(largest, 1.0) / dt_eff - 1e-9)
        assert 4000 < 2 * n + 1 <= 4096
        cli._check_config(build_config(argv + ["--t-span", repr(largest)]))
        with pytest.raises(cli.ConfigError, match="the largest t_span that fits is"):
            cli._check_config(build_config(argv + ["--t-span", repr(largest + 0.002)]))
        # no simulate step fits in 512 bytes; in 8 KiB, no picard grid reaches 2
        size = 512 if subcommand == "simulate" else 8192
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": size}.get)
        with pytest.raises(cli.ConfigError, match="n_modes=16, no t_span fits"):
            cli._check_config(build_config(argv + ["--t-span", "1"]))

    @pytest.mark.parametrize(
        "argv, scans",
        [
            (["verify-resonance", "--alpha", "1.3,1.5,1.7"], 2),
            (["verify-resonance", "--alpha", "1.5"], 1),
            (["verify-estimate", "--kind", "smoothing"], 1),
        ],
        ids=["resonance-two-scans", "resonance-one-scan", "smoothing"],
    )
    def test_the_largest_samples_named_fits(self, tmp_path, monkeypatch, capsys, argv, scans):
        for module, name in COMPUTE_ENTRY_POINTS:
            monkeypatch.setattr(module, name, reached)
        # a machine of 1 MiB whose process may run on 2 CPUs: nothing is allocated
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(argv + ["--samples", "1000000", "--out", str(tmp_path / "a")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"runs {scans} " in err
        largest = int(err.split("the largest --samples that fits is ")[1])
        scan = "smoothing" if "smoothing" in argv else "resonance"
        assert largest == 2**20 // (scans * estimates.SCAN_SAMPLE_BYTES[scan])
        cli._check_config(build_config(argv + ["--samples", str(largest)]))
        with pytest.raises(cli.ConfigError, match="the largest --samples that fits is"):
            cli._check_config(build_config(argv + ["--samples", str(largest + 1)]))
        # 64 bytes hold no sample
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 64}.get)
        with pytest.raises(cli.ConfigError, match="a sample; no --samples fits"):
            cli._check_config(build_config(argv + ["--samples", "1"]))

    def test_unread_config_file_key_names_the_lines(self, tmp_path, monkeypatch, capsys):
        for module, name in COMPUTE_ENTRY_POINTS:
            monkeypatch.setattr(module, name, reached)
        path = tmp_path / "old.cfg"
        path.write_text("subcommand=picard\nalpha=1.5\nsamples=100\nkind=main_bilinear\n")
        assert main(["picard", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"remove the lines samples= kind= from {path}" in err
        assert reads_message("picard") in err

    def test_band_the_kind_does_not_read_is_rejected_before_the_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        for module, name in COMPUTE_ENTRY_POINTS:
            monkeypatch.setattr(module, name, reached)
        out = tmp_path / "out"
        argv = ["verify-estimate", "--kind", "smoothing", "--band", "2", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "remove --band." in err and "--samples" in err and "n_samples" not in err
        path = tmp_path / "smoothing.cfg"
        path.write_text("subcommand=verify-estimate\nkind=smoothing\nband=2.0\n")
        assert main(["verify-estimate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"remove the lines band= from {path}" in capsys.readouterr().err
        assert not out.exists()

    def test_smoothing_manifest_replays(self, tmp_path):
        # the manifest records the unset band as band=none, which is no band
        first, second = tmp_path / "a", tmp_path / "b"
        argv = ["verify-estimate", "--kind", "smoothing", "--samples", "3", "--out", str(first)]
        assert main(argv) == EXIT_OK
        manifest = read(first / "manifest.txt")
        assert "band=none\n" in manifest
        cfg = tmp_path / "echo.cfg"
        cfg.write_text(manifest.replace(str(first), str(second)))
        assert main(["verify-estimate", "--config", str(cfg)]) == EXIT_OK
        assert read(second / "manifest.txt") == cfg.read_text()
        names = sorted(os.listdir(first))
        assert sorted(os.listdir(second)) == names
        for name in names:
            if name != "manifest.txt":
                assert read(first / name) == read(second / name)

    @pytest.mark.parametrize("subcommand", list(SUBCOMMAND_KEYS))
    def test_manifest_holds_the_keys_read(self, subcommand):
        text = config_to_text(ExperimentConfig(subcommand=subcommand))
        keys = [line.split("=")[0] for line in text.splitlines()[1:]]
        order = [f.name for f in fields(ExperimentConfig)]
        assert sorted(keys, key=order.index) == keys
        assert set(keys) == {"subcommand", "out", *SUBCOMMAND_KEYS[subcommand]}

    def test_band_reaches_the_estimate(self, tmp_path):
        argv = ["verify-estimate", "--kind", "strichartz", "--samples", "3", "--seed", "7"]
        out, plain = tmp_path / "band", tmp_path / "plain"
        assert main(argv + ["--band", "2.0", "--out", str(out)]) == EXIT_OK
        assert main(argv + ["--out", str(plain)]) == EXIT_OK
        p = EstimateParams.default_admissible(1.5, 0.1)
        expected = estimate_ratio("strichartz", {"n_samples": 3, "band": 2.0}, p, 7)
        report = read(out / "estimate_strichartz.json")
        assert report == json.dumps(expected.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report != read(plain / "estimate_strichartz.json")
        cfg = tmp_path / "echo.cfg"
        cfg.write_text(read(out / "manifest.txt").replace(str(out), str(tmp_path / "again")))
        assert main(["verify-estimate", "--config", str(cfg)]) == EXIT_OK
        assert read(tmp_path / "again" / "estimate_strichartz.json") == report

    @pytest.mark.parametrize(
        "values",
        [
            dict(subcommand="simulate", t_span=0.02, dt=0.01),
            dict(subcommand="picard", t_span=0.1, dt=0.01),
            dict(subcommand="verify-resonance", samples=100),
            dict(subcommand="verify-estimate", kind="strichartz", samples=1, band=2.0),
            dict(subcommand="sweep", s=(-0.2,), samples=1),
        ],
        ids=lambda values: values["subcommand"],
    )
    def test_table_lists_the_keys_each_run_reads(self, tmp_path, monkeypatch, values):
        """A run reads exactly its declared keys, subcommand and out.

        The random_bandlimited family makes simulate and picard read band.
        The manifest writer is stubbed: it reads the declared keys by
        construction, so it would hide a declared key no computation reads.
        """
        names = {f.name for f in fields(ExperimentConfig)}
        read_keys = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in names:
                    read_keys.add(name)
                return super().__getattribute__(name)

        small = dict(
            n_modes=32, box_length=16.0, family="random_bandlimited", band=2.0,
            amplitude=0.1, out=str(tmp_path / "run"),
        )
        config = Recording(**{**small, **values})
        monkeypatch.setattr(cli, "config_to_text", lambda config: "")
        assert cli.run(config) == EXIT_OK
        subcommand = values["subcommand"]
        assert read_keys == {"subcommand", "out", *SUBCOMMAND_KEYS[subcommand]}


def readme_commands():
    """Each fbo-lab command of README's CLI block, as an argv list."""
    with open(README) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("fbo-lab ")]


class TestReadmeCommands:
    def test_block_lists_every_subcommand(self):
        assert sorted(argv[0] for argv in readme_commands()) == sorted(SUBCOMMAND_KEYS)

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_command_passes_its_checks(self, tmp_path, monkeypatch, argv):
        config = build_config(argv)
        for name in ("solve_reference", "picard_solve", "resonance_infimum", "estimate_ratio"):
            monkeypatch.setattr(cli, name, reached)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(Reached):
            cli.run(config)
