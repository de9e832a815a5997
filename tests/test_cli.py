"""Command-line surface: I/O formats, exit codes, determinism."""

import json
import re

import numpy as np
import pytest

from bfchart import cli
from bfchart.linalg import make_rng, sample_mvn

SIGMA = np.array([[1.0, 2.0], [2.0, 5.0]])


def write_stream(path, n, seed, shift=0.0):
    """An in-control stream from the reference target, optionally mean-shifted."""
    data = sample_mvn(np.zeros(2), SIGMA, n, make_rng(seed))
    data[:, 0] += shift
    cli.write_data(str(path), data)
    return data


@pytest.fixture(scope="module")
def fit_artifacts(tmp_path_factory):
    """A fitted model produced through the CLI, shared across tests."""
    root = tmp_path_factory.mktemp("cli-fit")
    train = root / "train.csv"
    model = root / "model.json"
    write_stream(train, 250, seed=80)
    code = cli.main([
        "fit", str(train),
        "--out", str(model),
        "--estimate-target",
        "--delta-grid", "0.8,0.9",
        "--reps", "300",
        "--seed", "4",
    ])
    assert code == cli.EXIT_OK
    return root, train, model


class TestDataIO:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "data.csv"
        data = make_rng(81).standard_normal((20, 3)) * 1e3
        cli.write_data(str(path), data, names=["a", "b", "c"])
        names, back = cli.read_data(str(path))
        assert names == ["a", "b", "c"]
        np.testing.assert_array_equal(back, data)

    def test_time_column_optional(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        names, data = cli.read_data(str(path))
        assert names == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n1,2.0\n2,oops\n")
        with pytest.raises(cli.ParseError, match=r"bad\.csv:3: column 2"):
            cli.read_data(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(cli.ParseError, match="expected 2 fields"):
            cli.read_data(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\ninf\n")
        with pytest.raises(cli.ParseError, match="non-finite"):
            cli.read_data(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(cli.ParseError):
            cli.read_data(str(path))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(cli.ParseError):
            cli.read_data(str(tmp_path / "absent.csv"))


class TestSimulateCommand:
    def test_scenario_row_count(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main([
            "simulate", "--scenario", "in_control", "-n", "1000",
            "--seed", "7", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        _, data = cli.read_data(str(out))
        assert data.shape == (1000, 2)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(["simulate", "--scenario", "mean_shift", "-n", "100",
                      "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_scenario(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", "nope",
                         "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_PARSE
        assert "unknown scenario" in capsys.readouterr().err

    def test_dwr_generator(self, tmp_path):
        out = tmp_path / "dwr.csv"
        code = cli.main(["simulate", "--dwr", "--dim", "3", "--delta", "0.8",
                        "-n", "40", "--seed", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        _, data = cli.read_data(str(out))
        assert data.shape == (40, 3)

    def test_lbf_study_outputs(self, tmp_path):
        code = cli.main(["simulate", "--scenario", "all", "--lbf", "-n", "150",
                         "--warmup", "100", "--seed", "0",
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        for name in ("in_control", "mean_shift", "cov_shift", "both_shift"):
            hist = tmp_path / f"lbf_hist_{name}.csv"
            assert hist.exists()
            lines = hist.read_text().splitlines()
            assert lines[0] == "bin_left,bin_right,count"
            counts = [int(line.split(",")[2]) for line in lines[1:]]
            assert sum(counts) == 150
        summary = (tmp_path / "lbf_summary.csv").read_text().splitlines()
        assert summary[0] == "scenario,n,warmup,delta,mean,skewness"
        assert len(summary) == 5


class TestCalibrateCommand:
    def test_shewhart_point(self, capsys):
        code = cli.main(["calibrate", "--lambda", "1.0", "--phi", "0.0",
                         "--reps", "2000", "--seed", "0"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        c = float(out.splitlines()[0].split("=")[1])
        assert c == pytest.approx(3.0, abs=0.06)
        assert re.search(
            r"^achieved ARL = [0-9.]+ \+/- [0-9.]+ "
            r"\(2000 replications, [1-9][0-9]* rounds, 0 censored\)$",
            out.splitlines()[1],
        )

    def test_low_reps_warns(self, capsys):
        cli.main(["calibrate", "--lambda", "1.0", "--reps", "100", "--seed", "0"])
        assert "wide ARL standard error" in capsys.readouterr().err

    def test_grid_mode_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli.main(["calibrate", "--lambda", "1.0",
                         "--grid-lambda", "0.5,1.0", "--grid-phi", "0.0",
                         "--reps", "1000", "--seed", "0", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,phi,c,arl,arl_se"
        assert len(lines) == 3


class TestFitCommand:
    def test_requires_target_choice(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_stream(data, 60, seed=82)
        code = cli.main(["fit", str(data), "--out", str(tmp_path / "m.json")])
        assert code == cli.EXIT_PARSE
        assert "--target-file or --estimate-target" in capsys.readouterr().err

    def test_model_document_shape(self, fit_artifacts):
        _, _, model_path = fit_artifacts
        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "bfchart-model"
        assert doc["schema_version"] == 1
        assert doc["metadata"]["seed"] == 4
        assert doc["metadata"]["target_estimated"] is True
        assert len(doc["m_opt"]) == 2
        assert len(doc["s_opt"]["data"]) == 4

    def test_rerun_is_byte_identical(self, fit_artifacts, tmp_path):
        root, train, model_path = fit_artifacts
        again = tmp_path / "again.json"
        code = cli.main([
            "fit", str(train), "--out", str(again), "--estimate-target",
            "--delta-grid", "0.8,0.9", "--reps", "300", "--seed", "4",
        ])
        assert code == cli.EXIT_OK
        assert again.read_bytes() == model_path.read_bytes()

    def test_target_file_input(self, tmp_path):
        data = tmp_path / "d.csv"
        write_stream(data, 120, seed=83)
        target = tmp_path / "target.json"
        estimated = __import__("bfchart").workflow.estimate_target(
            cli.read_data(str(data))[1]
        )
        target.write_text(json.dumps({
            "mu": estimated.mu.tolist(),
            "v": {"dim": 2, "data": estimated.V.reshape(-1).tolist()},
        }))
        code = cli.main([
            "fit", str(data), "--out", str(tmp_path / "m.json"),
            "--target-file", str(target),
            "--delta-grid", "0.9", "--reps", "200", "--seed", "1",
        ])
        assert code == cli.EXIT_OK

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,x\n")
        code = cli.main(["fit", str(bad), "--out", str(tmp_path / "m.json"),
                         "--estimate-target"])
        assert code == cli.EXIT_PARSE

    def test_degenerate_data_exit_code(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = "\n".join("1.0,1.0" for _ in range(60))
        flat.write_text("a,b\n" + rows + "\n")
        code = cli.main(["fit", str(flat), "--out", str(tmp_path / "m.json"),
                         "--estimate-target"])
        assert code == cli.EXIT_DEGENERATE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", [1.0, 0.1, 3.7])
    @pytest.mark.parametrize("target_from", ["estimate", "file"])
    def test_constant_column_exit_code(self, tmp_path, capsys, value, target_from):
        data = sample_mvn(np.zeros(2), SIGMA, 60, make_rng(84))
        data[:, 1] = value
        path = tmp_path / "flat.csv"
        cli.write_data(str(path), data)
        if target_from == "file":
            target = tmp_path / "target.json"
            target.write_text(json.dumps({
                "mu": [0.0, 0.0], "v": {"dim": 2, "data": SIGMA.reshape(-1).tolist()}
            }))
            how = ["--target-file", str(target)]
        else:
            how = ["--estimate-target"]
        code = cli.main(["fit", str(path), "--out", str(tmp_path / "m.json"),
                         *how, "--reps", "200"])
        assert code == cli.EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            f"error: column 1 is constant: every value is {value}\n"
        )
        assert not (tmp_path / "m.json").exists()


class TestMonitorCommand:
    def test_in_control_stream_no_signal(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 40, seed=84)
        report = tmp_path / "report.json"
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--out", str(report)])
        assert code == cli.EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["signals"] == []
        assert doc["kind"] == "bfchart-report"
        assert "no signals" in capsys.readouterr().out

    def test_shifted_stream_signals(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "shifted.csv"
        write_stream(stream, 60, seed=85, shift=6.0)
        report = tmp_path / "report.json"
        plot = tmp_path / "chart.svg"
        code = cli.main(["monitor", str(stream), "--model", str(model_path),
                         "--out", str(report), "--plot", str(plot)])
        assert code == cli.EXIT_SIGNAL
        doc = json.loads(report.read_text())
        assert doc["signals"]
        assert doc["model_sha256"] == cli._sha256(str(model_path))
        svg_text = plot.read_text()
        assert svg_text.startswith("<svg")
        assert "polyline" in svg_text
        assert "signal(s)" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, fit_artifacts, tmp_path):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=86)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            cli.main(["monitor", str(stream), "--model", str(model_path),
                      "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_tracking_flag_changes_report(self, fit_artifacts, tmp_path):
        _, _, model_path = fit_artifacts
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=87)
        frozen, tracking = tmp_path / "f.json", tmp_path / "t.json"
        cli.main(["monitor", str(stream), "--model", str(model_path),
                  "--out", str(frozen)])
        cli.main(["monitor", str(stream), "--model", str(model_path),
                  "--out", str(tracking), "--tracking"])
        assert (json.loads(frozen.read_text())["lbf"]
                != json.loads(tracking.read_text())["lbf"])

    def test_corrupt_model_schema_exit(self, fit_artifacts, tmp_path, capsys):
        _, _, model_path = fit_artifacts
        broken = tmp_path / "broken.json"
        doc = json.loads(model_path.read_text())
        doc["kind"] = "not-a-model"
        broken.write_text(json.dumps(doc))
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=88)
        code = cli.main(["monitor", str(stream), "--model", str(broken)])
        assert code == cli.EXIT_SCHEMA
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_schema_exit(self, fit_artifacts, tmp_path):
        _, _, model_path = fit_artifacts
        mangled = tmp_path / "mangled.json"
        mangled.write_text("{not json")
        stream = tmp_path / "stream.csv"
        write_stream(stream, 30, seed=89)
        code = cli.main(["monitor", str(stream), "--model", str(mangled)])
        assert code == cli.EXIT_SCHEMA


def _cut_m_opt(doc):
    doc["m_opt"] = doc["m_opt"][:1]


def _one_by_one_s_opt(doc):
    doc["s_opt"] = {"dim": 1, "data": [1.0]}


def _long_target_mean(doc):
    doc["target"]["mu"] = [0.0, 0.0, 0.0]


def _delta_out_of_range(doc):
    doc["delta"] = 5


def _negative_p_star(doc):
    doc["p_star"] = -0.5


def _p_star_of_another_delta(doc):
    doc["p_star"] *= 1.0 + 1e-9


def _indefinite_s_opt(doc):
    doc["s_opt"]["data"] = [1.0, 2.0, 2.0, 1.0]


def _no_phase1_rows(doc):
    doc["n_phase1"] = 0


def _nan_in_m_opt(doc):
    doc["m_opt"][0] = float("nan")


class TestModelValidation:
    """Every inconsistent model file exits 4 before any scoring."""

    @pytest.mark.parametrize("tracking", [False, True])
    @pytest.mark.parametrize("mutate", [
        _cut_m_opt, _one_by_one_s_opt, _long_target_mean, _delta_out_of_range,
        _negative_p_star, _p_star_of_another_delta, _indefinite_s_opt,
        _no_phase1_rows, _nan_in_m_opt,
    ], ids=lambda f: f.__name__.strip("_"))
    def test_inconsistent_model_exits_schema(self, fit_artifacts, tmp_path, capsys,
                                             mutate, tracking):
        _, _, model_path = fit_artifacts
        doc = json.loads(model_path.read_text())
        mutate(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        stream = tmp_path / "stream.csv"
        write_stream(stream, 50, seed=90, shift=6.0)
        args = ["monitor", str(stream), "--model", str(broken)]
        code = cli.main(args + (["--tracking"] if tracking else []))
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("error: ")
