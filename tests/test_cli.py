from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest

import stepdirect.car
import stepdirect.treg
from stepdirect.car import car_dump_csv, car_synthetic
from stepdirect.cli import build_parser, main
from stepdirect.cmp import CmpParams, cmp_target
from stepdirect.rngstats import Rng
from stepdirect.sampler import GIBBS_STEP_CONFIG, DirectSampler, SamplerConfig


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestCmpSample:
    def test_artifacts_and_rerun_identical(self, tmp_path):
        args = ["cmp-sample", "--nu", "2.0", "--n-draws", "2000", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert set(a) == {"config.txt", "pmf.csv", "draws.csv", "report.csv"}
        assert a == b

    def test_config_captures_flags(self, tmp_path):
        main(["cmp-sample", "--nu", "5.0", "--n-draws", "100", "--out", str(tmp_path)])
        text = (tmp_path / "config.txt").read_text()
        assert "nu=5.0\n" in text and "seed=0\n" in text and "out=" not in text

    def test_report_contents(self, tmp_path):
        main(["cmp-sample", "--n-draws", "1000", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "report.csv")
        row = dict(zip(rows[0], rows[1]))
        assert int(row["n_draws"]) == 1000
        assert float(row["tv"]) < 0.1

    def test_heights_that_rise_with_u_exit_3(self, tmp_path, capsys):
        # log w rounds by about 3 nats at this target's mode (log_c = 2.9e13),
        # so the greedy knots solve a P(A_u) that rises with u.
        args = ["cmp-sample", "--lam", "10.627472835292822", "--nu", "0.07022383468430263"]
        assert main(args + ["--n-draws", "10", "--out", str(tmp_path)]) == 3
        assert "the solved P(A_u) rises" in capsys.readouterr().err


class TestCmpStepDiag:
    def test_knot_table_written(self, tmp_path):
        assert main(["cmp-step-diag", "--n-knots", "13", "--out", str(tmp_path)]) == 0
        knots = read_csv(tmp_path / "knots.csv")
        assert knots[0] == ["j", "u", "log_prob", "rect_area"]
        assert len(knots) >= 14
        report = dict(zip(*read_csv(tmp_path / "report.csv")[:2]))
        assert float(report["total_rect_area"]) > 0.0
        assert int(report["n_knots"]) >= 13

    def test_report_matches_sampler_diagnostics(self, tmp_path):
        # Default flags: lam 2, nu 0.5, 13 intervals, greedy geometric, omega 1/2.
        assert main(["cmp-step-diag", "--out", str(tmp_path)]) == 0
        report = dict(zip(*read_csv(tmp_path / "report.csv")[:2]))
        config = SamplerConfig(n_init_knots=13, midpoint_kind="geometric", omega=0.5)
        diag = DirectSampler(cmp_target(CmpParams(2.0, 0.5)), config).diagnostics
        assert float(report["rejection_bound"]) == diag.rejection_bound
        assert int(report["n_knots"]) == diag.n_knots
        assert float(report["u_lo"]) == diag.u_lo
        assert len(read_csv(tmp_path / "knots.csv")) == diag.n_knots + 1


class TestThreadsFlag:
    @pytest.mark.parametrize("subcommand", ["cmp-sample", "cmp-step-diag", "car", "treg"])
    def test_rejected_where_unused(self, subcommand):
        with pytest.raises(SystemExit):
            build_parser().parse_args([subcommand, "--threads", "2", "--out", "x"])

    def test_nu_compare_takes_threads(self):
        args = build_parser().parse_args(["nu-compare", "--threads", "2", "--out", "x"])
        assert args.threads == 2


class TestGibbsConfig:
    """car and treg run the library's Gibbs step, with the knot flags applied
    to it: no method adapts an envelope that is used for one draw."""

    @pytest.mark.parametrize(
        "command, module, run, library",
        [
            ("car", stepdirect.car, "car_gibbs_run", GIBBS_STEP_CONFIG),
            ("treg", stepdirect.treg, "treg_gibbs_run", GIBBS_STEP_CONFIG),
        ],
    )
    def test_default_is_library_config(self, command, module, run, library, tmp_path, monkeypatch):
        configs = []
        original = getattr(module, run)

        def spy(*args, config, **kwargs):
            configs.append(config)
            return original(*args, config=config, **kwargs)

        monkeypatch.setattr(module, run, spy)
        base = [command, "--iters", "3", "--burnin", "0"]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        equal = ["--knot-method", "equal", "--n-knots", "50"]
        assert main(base + equal + ["--out", str(tmp_path / "b")]) == 0
        # --n-knots (default 200) reaches every method; level knots ignore it.
        assert configs == [
            replace(library, n_init_knots=200),
            replace(library, n_init_knots=50, knot_method="equal"),
        ]


class TestCar:
    def test_synthetic_run(self, tmp_path):
        assert (
            main(
                [
                    "car",
                    "--grid-side", "2",
                    "--n-rep", "2",
                    "--iters", "30",
                    "--burnin", "10",
                    "--n-knots", "50",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        names = {p.name for p in tmp_path.iterdir()}
        assert {"config.txt", "draws.csv", "summary.csv", "diagnostics.csv", "report.csv"} <= names
        draws = read_csv(tmp_path / "draws.csv")
        assert draws[0][-1] == "rho" and len(draws) == 21

    def test_csv_mode_round_trip(self, tmp_path):
        data = car_synthetic(2, [1.0, 0.5], 0.5, 1.0, 0.5, Rng(4), n_rep=2)
        car_dump_csv(data, tmp_path / "data")
        assert (
            main(
                [
                    "car",
                    "--mode", "csv",
                    "--y-csv", str(tmp_path / "data" / "y.csv"),
                    "--x-csv", str(tmp_path / "data" / "x.csv"),
                    "--adjacency-csv", str(tmp_path / "data" / "adjacency.csv"),
                    "--iters", "20",
                    "--burnin", "5",
                    "--n-knots", "50",
                    "--out", str(tmp_path / "run"),
                ]
            )
            == 0
        )
        assert (tmp_path / "run" / "summary.csv").exists()

    def test_malformed_csv_cell_exits_3(self, tmp_path, capsys):
        data = car_synthetic(2, [1.0, 0.5], 0.5, 1.0, 0.5, Rng(4), n_rep=2)
        car_dump_csv(data, tmp_path / "data")
        (tmp_path / "data" / "y.csv").write_text("area,y\n1,x\n")
        code = main(
            [
                "car",
                "--mode", "csv",
                "--y-csv", str(tmp_path / "data" / "y.csv"),
                "--x-csv", str(tmp_path / "data" / "x.csv"),
                "--adjacency-csv", str(tmp_path / "data" / "adjacency.csv"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        assert f"stepdirect: error: {tmp_path / 'data' / 'y.csv'}:2: " in capsys.readouterr().err


    def test_nan_hyperparameter_exits_3(self, tmp_path, capsys):
        base = ["car", "--grid-side", "2", "--iters", "3", "--burnin", "0"]
        assert main(base + ["--m-sigma", "nan", "--out", str(tmp_path / "nan")]) == 3
        assert "stepdirect: error: hyperparameters must be positive" in capsys.readouterr().err
        # An infinite bound means no truncation, and stays allowed.
        assert main(base + ["--m-sigma", "inf", "--m-tau", "inf", "--out", str(tmp_path / "inf")]) == 0


class TestTreg:
    def test_nan_hyperparameter_exits_3(self, tmp_path, capsys):
        code = main(["treg", "--n", "20", "--iters", "3", "--burnin", "0", "--sigma-beta2", "nan", "--out", str(tmp_path)])
        assert code == 3
        assert "stepdirect: error: hyperparameters must be positive" in capsys.readouterr().err

    def test_synthetic_run_and_rerun(self, tmp_path):
        args = [
            "treg",
            "--n", "40",
            "--n-internal-knots", "2",
            "--iters", "30",
            "--burnin", "10",
            "--n-knots", "50",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert "curve.csv" in a
        assert a == b

    def test_csv_mode_with_r_column(self, tmp_path):
        rng = np.random.default_rng(5)
        r = np.sort(rng.uniform(0, 10, 40))
        y = r * 0.3 + rng.standard_normal(40)
        with open(tmp_path / "data.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "r"])
            w.writerows(zip(y, r))
        assert (
            main(
                [
                    "treg",
                    "--mode", "csv",
                    "--data-csv", str(tmp_path / "data.csv"),
                    "--n-internal-knots", "2",
                    "--iters", "20",
                    "--burnin", "5",
                    "--n-knots", "50",
                    "--out", str(tmp_path / "run"),
                ]
            )
            == 0
        )
        assert (tmp_path / "run" / "curve.csv").exists()

    def test_bad_csv_header_fails_cleanly(self, tmp_path, capsys):
        with open(tmp_path / "bad.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["a", "b"], ["1", "2"]])
        code = main(
            [
                "treg",
                "--mode", "csv",
                "--data-csv", str(tmp_path / "bad.csv"),
                "--iters", "5",
                "--burnin", "0",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_csv_cell_exits_3(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("y,r\n1.5,abc\n")
        code = main(["treg", "--mode", "csv", "--data-csv", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "run")])
        assert code == 3
        assert f"stepdirect: error: {tmp_path / 'bad.csv'}:2: " in capsys.readouterr().err

    def test_header_only_csv_exits_3(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("y,r\n")
        code = main(["treg", "--mode", "csv", "--data-csv", str(tmp_path / "empty.csv"), "--out", str(tmp_path / "run")])
        assert code == 3
        assert f"stepdirect: error: {tmp_path / 'empty.csv'}: no data rows" in capsys.readouterr().err


class TestNuCompare:
    def test_small_grid(self, tmp_path):
        assert (
            main(
                [
                    "nu-compare",
                    "--n", "20",
                    "--a-values", "12,15",
                    "--n-knots-values", "5,20",
                    "--n-draws", "500",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        rows = read_csv(tmp_path / "rejections.csv")
        assert rows[0] == ["A", "method", "n_knots", "n_draws", "n_rejected"]
        assert len(rows) == 7  # two A values, (two direct + one geweke) each

    def test_thread_count_does_not_change_the_counts(self, tmp_path):
        # Each cell owns its stream, so the rows do not depend on the workers.
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            args = ["nu-compare", "--n", "20", "--a-values", "12,15", "--n-knots-values", "5,20"]
            assert main(args + ["--n-draws", "500", "--threads", threads, "--out", str(out)]) == 0
            outputs.append((out / "rejections.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["-1", "0"])
    def test_threads_below_one_exit_3(self, tmp_path, capsys, threads):
        args = ["nu-compare", "--n", "20", "--a-values", "12", "--n-knots-values", "5", "--n-draws", "100"]
        assert main(args + ["--threads", threads, "--out", str(tmp_path)]) == 3
        assert f"stepdirect: error: --threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "rejections.csv").exists()

    def test_infeasible_a_exits_with_error(self, tmp_path, capsys):
        code = main(
            [
                "nu-compare",
                "--n", "20",
                "--a-values", "5",
                "--n-draws", "100",
                "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert "infeasible" in capsys.readouterr().err
