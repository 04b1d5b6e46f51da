"""Command-line behavior: artifacts, exit codes, determinism."""

import csv
import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import voltgrid.timeseries
from voltgrid.cli import _guarded, cmd_forecast, main
from voltgrid.errors import SolverError
from voltgrid.forecast import validation

from conftest import START


def write_series_csv(path, values, start=START, stamp_format=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for k, v in enumerate(values):
            stamp = start + dt.timedelta(hours=k)
            text = stamp.strftime(stamp_format) if stamp_format else stamp.isoformat(sep=" ")
            writer.writerow([text, f"{v:.10g}"])


def write_kernel(path, value=1.0):
    path.write_text(json.dumps({
        "n": 1,
        "K": [{"type": "const", "value": value}],
        "G": [{"type": "linear"}],
    }))


# cells float() reads as infinite; every CSV reader rejects them
INFINITE_CELLS = ["inf", "-Infinity", "1e999"]


def write_load_with_cell(path, cell):
    """A four-hour load series whose third row (line 4) holds ``cell``."""
    write_series_csv(path, [1.0, 2.0, 3.0, 4.0])
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + f",{cell}"
    path.write_text("\n".join(lines) + "\n")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def all_output(result):
    # click >= 8.2 keeps stderr separate; errors land there
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


@pytest.fixture
def runner():
    return CliRunner()


class TestIngest:
    def test_writes_dataset_and_summary(self, runner, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.arange(48.0) + 1)
        write_series_csv(tmp_path / "gen.csv", np.arange(48.0) * 2 + 1,
                         start=START + dt.timedelta(hours=24))
        result = runner.invoke(main, [
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["rows"] == 24
        assert summary["columns"] == ["load", "gen"]
        assert summary["start"] == "2019-01-02T00:00:00"
        assert summary["na_counts"] == {"load": 0, "gen": 0}
        rows = read_rows(tmp_path / "run" / "dataset.csv")
        assert rows[0] == ["timestamp", "load", "gen"]
        assert len(rows) == 25

    def test_disjoint_ranges_exit_2(self, runner, tmp_path):
        write_series_csv(tmp_path / "load.csv", [1.0, 2.0])
        write_series_csv(tmp_path / "gen.csv", [1.0, 2.0],
                         start=START + dt.timedelta(days=7))
        result = runner.invoke(main, [
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2
        assert "overlap" in all_output(result)

    @pytest.mark.parametrize("cell", INFINITE_CELLS)
    def test_infinite_cell_exit_2(self, runner, tmp_path, cell):
        # inf used to pass as a number: dataset.csv held it and na_counts read 0
        load = tmp_path / "load.csv"
        write_load_with_cell(load, cell)
        result = runner.invoke(main, ["ingest", "--load", str(load),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, all_output(result)
        assert f"error: {load}: line 4: bad value '{cell}'" in all_output(result)
        assert not (tmp_path / "run").exists()

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "ingest", "--load", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2
        assert "does not exist" in all_output(result)

    def test_holidays_and_na_counts(self, runner, tmp_path):
        path = tmp_path / "load.csv"
        write_series_csv(path, [1.0, 2.0, 3.0, 4.0])
        text = path.read_text().replace("2019-01-01 02:00:00,3", "2019-01-01 02:00:00,")
        path.write_text(text)
        (tmp_path / "hol.txt").write_text("2019-01-01\n")
        result = runner.invoke(main, [
            "ingest", "--load", str(path),
            "--holidays", str(tmp_path / "hol.txt"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["na_counts"] == {"load": 1}
        assert summary["holidays"] == ["2019-01-01"]

    def test_custom_timestamp_format(self, runner, tmp_path):
        write_series_csv(tmp_path / "load.csv", [1.0, 2.0],
                         stamp_format="%d.%m.%Y %H:%M")
        result = runner.invoke(main, [
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--timestamp-format", "%d.%m.%Y %H:%M",
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("stem", ["load", "gen", "res", "timestamp"])
    def test_reserved_temperature_stem_exit_2(self, runner, tmp_path, stem):
        # a station column named gen or res would pass for that series in
        # dispatch; one named timestamp made a dataset.csv no command could read
        write_series_csv(tmp_path / "demand.csv", np.arange(24.0) + 1)
        (tmp_path / "stations").mkdir()
        temp = tmp_path / "stations" / f"{stem}.csv"
        write_series_csv(temp, np.linspace(-5.0, 5.0, 24))
        result = runner.invoke(main, [
            "ingest", "--load", str(tmp_path / "demand.csv"), "--temp", str(temp),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2
        assert f"error: {temp}: --temp file stem '{stem}' is reserved" in all_output(result)
        assert not (tmp_path / "run").exists()

    def test_file_for_several_series_is_read_once(self, runner, tmp_path, opened):
        for name in ("data", "copy_a", "copy_b"):
            write_series_csv(tmp_path / f"{name}.csv", np.arange(24.0) + 1)
        outputs = {}
        for out, files in (("once", ["data", "copy_a", "data"]), ("apart", ["data", "copy_a", "copy_b"])):
            opened.clear()
            paths = [str(tmp_path / f"{name}.csv") for name in files]
            result = runner.invoke(main, [
                "ingest", "--load", paths[0], "--gen", paths[1], "--res", paths[2],
                "--out", str(tmp_path / out),
            ])
            assert result.exit_code == 0, all_output(result)
            assert opened.count(tmp_path / "data.csv") == 1
            outputs[out] = [(tmp_path / out / name).read_bytes()
                            for name in ("dataset.csv", "summary.json")]
        assert outputs["once"] == outputs["apart"]
        assert read_rows(tmp_path / "once" / "dataset.csv")[0] == ["timestamp", "load", "gen", "res"]


def make_dataset(runner, tmp_path, values, name="run"):
    write_series_csv(tmp_path / "load.csv", values)
    result = runner.invoke(main, [
        "ingest", "--load", str(tmp_path / "load.csv"),
        "--out", str(tmp_path / name),
    ])
    assert result.exit_code == 0, result.output
    return tmp_path / name / "dataset.csv"


class TestForecast:
    def test_constant_load_scores_zero(self, runner, tmp_path):
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm",
            "--blocks", "3", "--tail", "120",
            "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "fc" / "metrics.json").read_text())
        assert metrics["validation"]["rmse"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["validation"]["mape_percent"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["model"] == "lm"
        assert metrics["seed"] == 0
        rows = read_rows(tmp_path / "fc" / "forecast.csv")
        assert rows[0] == ["timestamp", "predicted", "actual"]
        assert len(rows) == 121

    def test_bad_dataset_cell_exit_2(self, runner, tmp_path):
        data = tmp_path / "dataset.csv"
        data.write_text("timestamp,load\n2019-01-01T00:00:00,1\n2019-01-01T01:00:00,abc\n")
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm", "--tail", "1",
            "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert f"{data}: line 3: bad value 'abc'" in all_output(result)
        assert "Traceback" not in all_output(result)

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        data = make_dataset(runner, tmp_path, 100 + rng.normal(0, 5, 1200))
        args = ["forecast", "--data", str(data), "--model", "rf",
                "--trees", "5", "--blocks", "2", "--tail", "100", "--seed", "9"]
        for out in ("fc1", "fc2"):
            result = runner.invoke(main, args + ["--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        for name in ("forecast.csv", "metrics.json"):
            a = (tmp_path / "fc1" / name).read_bytes()
            b = (tmp_path / "fc2" / name).read_bytes()
            assert a == b

    def test_seed_env_var_and_flag(self, runner, tmp_path):
        rng = np.random.default_rng(2)
        data = make_dataset(runner, tmp_path, 100 + rng.normal(0, 5, 1200))
        base = ["forecast", "--data", str(data), "--model", "rf", "--trees", "3",
                "--blocks", "2", "--tail", "60"]
        r_env = runner.invoke(main, base + ["--out", str(tmp_path / "env")],
                              env={"VOLTGRID_SEED": "7"})
        assert r_env.exit_code == 0, r_env.output
        r_flag = runner.invoke(main, base + ["--seed", "7",
                                             "--out", str(tmp_path / "flag")])
        assert r_flag.exit_code == 0, r_flag.output
        assert ((tmp_path / "env" / "forecast.csv").read_bytes()
                == (tmp_path / "flag" / "forecast.csv").read_bytes())
        # explicit flag beats the environment
        r_mix = runner.invoke(main, base + ["--seed", "7",
                                            "--out", str(tmp_path / "mix")],
                              env={"VOLTGRID_SEED": "3"})
        assert r_mix.exit_code == 0, r_mix.output
        assert json.loads((tmp_path / "mix" / "metrics.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("model", ["lm", "rf", "gbdt"])
    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], {}), ([], {"VOLTGRID_SEED": "-3"})])
    def test_negative_seed_exit_2(self, runner, tmp_path, model, flag, env):
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", model, "--blocks", "2",
            "--tail", "60", *flag, "--out", str(tmp_path / "fc"),
        ], env=env)
        assert result.exit_code == 2, all_output(result)
        assert "Invalid value for '--seed'" in all_output(result)
        assert "is not in the range x>=0" in all_output(result)
        assert not (tmp_path / "fc").exists()

    def test_trees_flag_rejected_for_lm(self, runner, tmp_path):
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm", "--trees", "9",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2
        assert "--trees" in all_output(result)

    def test_data_error_in_a_worker_exit_2(self, runner, tmp_path, monkeypatch):
        # two workers whatever this machine has: the fits raise in the children
        monkeypatch.setattr(validation, "_available_cores", lambda: 2)
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "rf", "--trees", "0",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "n_trees must be >= 1, got 0" in all_output(result)
        assert "Traceback" not in all_output(result)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_model_choices_are_the_model_table(self):
        option = next(p for p in cmd_forecast.params if p.name == "model_name")
        assert list(option.type.choices) == list(validation.MODELS)

    def test_unknown_model_exit_2(self, runner, tmp_path):
        data = make_dataset(runner, tmp_path, np.full(400, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "svm",
            "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2

    def test_save_model_artifact(self, runner, tmp_path):
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm",
            "--blocks", "2", "--tail", "60",
            "--save-model", str(tmp_path / "model.json"),
            "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["kind"] == "lm"
        assert doc["format"] == "voltgrid-model/2"
        assert doc["params"] == {}


class TestDispatch:
    def test_balanced_inputs_idle_storage(self, runner, tmp_path):
        values = 50.0 + np.sin(np.arange(24.0))
        write_series_csv(tmp_path / "load.csv", values)
        write_series_csv(tmp_path / "gen.csv", values)
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "disp" / "dispatch.csv")
        assert rows[0] == ["t", "x", "v", "E"]
        assert all(row[1] == "0" for row in rows[1:])
        report = json.loads((tmp_path / "disp" / "report.json").read_text())
        assert report["min_capacity"] == 0.0
        assert report["violations"] == []

    def test_hand_solved_ramp_gives_unit_power(self, runner, tmp_path):
        # surplus t against a unit kernel: x(t) = 1, exact in binary
        write_series_csv(tmp_path / "gen.csv", np.arange(5.0))
        write_series_csv(tmp_path / "load.csv", np.zeros(5))
        write_kernel(tmp_path / "kernel.json", value=1.0)
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "disp" / "dispatch.csv")
        assert [row[1] for row in rows[1:]] == ["1"] * 5

    def test_accepts_forecast_csv_as_load(self, runner, tmp_path):
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        fc = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert fc.exit_code == 0, fc.output
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "fc" / "forecast.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "disp" / "report.json").read_text())
        # constant load alone: f = -load + load_0 = 0 everywhere
        assert report["max_abs_power"] == pytest.approx(0.0, abs=1e-6)

    def test_value_column_override_leaves_other_series_alone(self, runner, tmp_path):
        # schedule against the actual column of a forecast file while the
        # gen series keeps its conventional "value" header
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        fc = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert fc.exit_code == 0, fc.output
        write_series_csv(tmp_path / "gen.csv", np.full(1300, 7.0))
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "fc" / "forecast.csv"),
            "--value-column", "actual",
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, all_output(result)
        # constant actuals and constant gen: zero imbalance after the shift
        rows = read_rows(tmp_path / "disp" / "dispatch.csv")
        assert all(row[1] == "0" for row in rows[1:])

    def test_storage_spec_violations_reported(self, runner, tmp_path):
        write_series_csv(tmp_path / "gen.csv", np.arange(6.0) * 10)
        write_series_csv(tmp_path / "load.csv", np.zeros(6))
        write_kernel(tmp_path / "kernel.json")
        (tmp_path / "storage.json").write_text(json.dumps(
            {"e_max": 5.0, "interpretation": "power"}))
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--storage", str(tmp_path / "storage.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "disp" / "report.json").read_text())
        assert any(v["constraint"] == "E_max" for v in report["violations"])

    def test_grid_n_truncates(self, runner, tmp_path):
        write_series_csv(tmp_path / "gen.csv", np.arange(10.0))
        write_series_csv(tmp_path / "load.csv", np.zeros(10))
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--grid-n", "4",
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        assert len(read_rows(tmp_path / "disp" / "dispatch.csv")) == 6

    def test_grid_n_out_of_range(self, runner, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.zeros(5))
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--grid-n", "40",
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2
        assert "--grid-n" in all_output(result)

    def test_bad_kernel_json_exit_2(self, runner, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.zeros(5))
        (tmp_path / "kernel.json").write_text("{not json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("kernel_text, storage_text", [
        ('{"n": 1, "K": [{"type": "const", "value": NaN}], "G": [{"type": "linear"}],'
         ' "kernel_floor": NaN}', None),
        ('{"n": 1, "K": [{"type": "exp_decay", "value": 1.0, "rate": Infinity}],'
         ' "G": [{"type": "linear"}]}', None),
        (None, '{"e_max": NaN}'),
        (None, '{"e_init": Infinity}'),
    ])
    def test_non_finite_config_exit_2(self, runner, tmp_path, kernel_text, storage_text):
        # JSON's NaN and Infinity tokens parse as floats; they must not reach the solver
        write_series_csv(tmp_path / "load.csv", np.arange(5.0))
        write_kernel(tmp_path / "kernel.json")
        if kernel_text:
            (tmp_path / "kernel.json").write_text(kernel_text)
        args = ["dispatch", "--load", str(tmp_path / "load.csv"),
                "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / "disp")]
        if storage_text:
            (tmp_path / "storage.json").write_text(storage_text)
            args += ["--storage", str(tmp_path / "storage.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, all_output(result)
        assert not (tmp_path / "disp" / "dispatch.csv").exists()

    @pytest.mark.parametrize("storage_text, message", [
        ('{"rated_cycles": 2.5}', "rated_cycles must be an integer"),
        ('{"efficiency": true}', "efficiency must be a number"),
    ])
    def test_bad_storage_number_exit_2(self, runner, tmp_path, storage_text, message):
        write_series_csv(tmp_path / "load.csv", np.arange(5.0))
        write_kernel(tmp_path / "kernel.json")
        (tmp_path / "storage.json").write_text(storage_text)
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--storage", str(tmp_path / "storage.json"), "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert message in all_output(result)
        assert not (tmp_path / "disp" / "dispatch.csv").exists()

    def test_fractional_band_count_exit_2(self, runner, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.arange(5.0))
        (tmp_path / "kernel.json").write_text(
            '{"n": 1.7, "K": [{"type": "const", "value": 1.0}], "G": [{"type": "linear"}]}')
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "band count" in all_output(result)
        assert not (tmp_path / "disp" / "dispatch.csv").exists()

    def test_file_for_several_series_is_read_once(self, runner, tmp_path, opened):
        t = np.arange(48.0)
        frame = voltgrid.timeseries.align_hourly([
            voltgrid.timeseries.TimeSeries(START, 50 + np.sin(t), name="load"),
            voltgrid.timeseries.TimeSeries(START, 20 + t / 4, name="gen"),
            voltgrid.timeseries.TimeSeries(START, np.cos(t), name="res")])
        for name in ("data", "copy_a", "copy_b"):
            voltgrid.timeseries.write_frame_csv(frame, tmp_path / f"{name}.csv")
        write_kernel(tmp_path / "kernel.json")
        outputs = {}
        for out, files in (("once", ["data"] * 3), ("apart", ["data", "copy_a", "copy_b"])):
            opened.clear()
            paths = [str(tmp_path / f"{name}.csv") for name in files]
            result = runner.invoke(main, [
                "dispatch", "--load", paths[0], "--gen", paths[1], "--res", paths[2],
                "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / out),
            ])
            assert result.exit_code == 0, all_output(result)
            assert opened.count(tmp_path / "data.csv") == 1
            outputs[out] = [(tmp_path / out / name).read_bytes()
                            for name in ("dispatch.csv", "report.json")]
        assert outputs["once"] == outputs["apart"]

    @pytest.mark.parametrize("grid_n", [None, 20])
    def test_omitted_series_is_zero(self, runner, tmp_path, grid_n):
        write_series_csv(tmp_path / "load.csv", 50 + 5 * np.sin(np.arange(30.0) / 3))
        write_series_csv(tmp_path / "zero.csv", np.zeros(30))
        write_kernel(tmp_path / "kernel.json", value=0.92)
        zero = str(tmp_path / "zero.csv")
        outputs = []
        for out, extra in (("alone", []), ("zeros", ["--gen", zero, "--res", zero])):
            result = runner.invoke(main, [
                "dispatch", "--load", str(tmp_path / "load.csv"), *extra,
                "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / out),
                *(["--grid-n", str(grid_n)] if grid_n else []),
            ])
            assert result.exit_code == 0, all_output(result)
            outputs.append([(tmp_path / out / name).read_bytes()
                            for name in ("dispatch.csv", "report.json")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == (grid_n or 29) + 2

    @pytest.mark.parametrize("cell", INFINITE_CELLS)
    def test_infinite_cell_exit_2(self, runner, tmp_path, cell):
        # named as the bad value it is, not as a missing value
        load = tmp_path / "load.csv"
        write_load_with_cell(load, cell)
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(load), "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert f"error: {load}: line 4: bad value '{cell}'" in all_output(result)

    def test_value_column_missing_exit_2(self, runner, tmp_path):
        (tmp_path / "load.csv").write_text("timestamp,megawatts\n2019-01-01,1\n")
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2
        assert (f"{tmp_path / 'load.csv'}: value column 'value' or 'load' or 'predicted' "
                f"not in header ['timestamp', 'megawatts']") in all_output(result)


class TestReport:
    def run_dispatch(self, runner, tmp_path, name, surplus):
        write_series_csv(tmp_path / f"{name}_gen.csv", surplus)
        write_series_csv(tmp_path / f"{name}_load.csv", np.zeros(len(surplus)))
        write_kernel(tmp_path / "kernel.json")
        result = runner.invoke(main, [
            "dispatch", "--load", str(tmp_path / f"{name}_load.csv"),
            "--gen", str(tmp_path / f"{name}_gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / name),
        ])
        assert result.exit_code == 0, result.output
        return tmp_path / name / "dispatch.csv"

    def test_single_run_table(self, runner, tmp_path):
        a = self.run_dispatch(runner, tmp_path, "a", np.sin(np.arange(12.0)))
        result = runner.invoke(main, [
            "report", "--dispatch", str(a), "--out", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert len(doc["runs"]) == 1
        assert doc["runs"][0]["series"] == "a"
        assert doc["pairwise"] == []
        # the 12-digit CSV round trip keeps report's sizing equal to dispatch's
        dispatched = json.loads((tmp_path / "a" / "report.json").read_text())
        for key in ("min_capacity", "equivalent_cycles", "max_abs_power"):
            assert doc["runs"][0][key] == pytest.approx(dispatched[key], rel=1e-9)

    def test_pairwise_difference(self, runner, tmp_path):
        surplus = np.sin(np.arange(12.0))
        a = self.run_dispatch(runner, tmp_path, "a", surplus)
        b = self.run_dispatch(runner, tmp_path, "b", 1.5 * surplus)
        result = runner.invoke(main, [
            "report", "--dispatch", str(a), "--dispatch", str(b),
            "--out", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert len(doc["runs"]) == 2
        # linearity: run b solves 1.5x the imbalance, and with a unit kernel
        # x is the per-step increment of the shifted surplus
        diff = doc["pairwise"][0]["max_abs_x_diff"]
        assert diff == pytest.approx(0.5 * np.abs(np.diff(surplus)).max(), rel=1e-6)
        rows = read_rows(tmp_path / "cmp" / "comparison.csv")
        assert rows[0] == ["t", "series", "x", "E"]
        assert {row[1] for row in rows[1:]} == {"a", "b"}

    def test_mismatched_grids_exit_2(self, runner, tmp_path):
        a = self.run_dispatch(runner, tmp_path, "a", np.sin(np.arange(12.0)))
        b = self.run_dispatch(runner, tmp_path, "b", np.sin(np.arange(8.0)))
        result = runner.invoke(main, [
            "report", "--dispatch", str(a), "--dispatch", str(b),
            "--out", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 2
        assert "grids differ" in all_output(result)

    @pytest.mark.parametrize("body, message", [
        ("", "no data rows"),
        ("0,0,0,0\n1,nan,0,0\n", "non-finite"),
    ])
    def test_bad_dispatch_csv_exit_2(self, runner, tmp_path, body, message):
        path = tmp_path / "dispatch.csv"
        path.write_text("t,x,v,E\n" + body)
        result = runner.invoke(main, [
            "report", "--dispatch", str(path), "--out", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 2
        assert message in all_output(result)


def failing_run(command, tmp_path):
    """Arguments for one ``command`` run that exits 2, and its message."""
    write_series_csv(tmp_path / "load.csv", np.arange(24.0))
    write_kernel(tmp_path / "kernel.json")
    if command == "ingest":
        for station in ("a", "b"):
            (tmp_path / station).mkdir()
            write_series_csv(tmp_path / station / "x.csv", np.arange(24.0))
        return ["ingest", "--load", str(tmp_path / "load.csv"), "--temp",
                str(tmp_path / "a" / "x.csv"), "--temp", str(tmp_path / "b" / "x.csv")], \
            "duplicate series names"
    if command == "forecast":
        return ["forecast", "--data", str(tmp_path / "load.csv"), "--model", "lm",
                "--tail", "24"], "validation_tail 24 must be smaller"
    if command == "dispatch":
        (tmp_path / "kernel.json").write_text("{")
        return ["dispatch", "--load", str(tmp_path / "load.csv"),
                "--kernel", str(tmp_path / "kernel.json")], "invalid kernel JSON"
    for name, t_end in (("a", 1), ("b", 2)):
        (tmp_path / f"{name}.csv").write_text(f"t,x,v,E\n0,0,0,0\n{t_end},0,0,0\n")
    return ["report", "--dispatch", str(tmp_path / "a.csv"),
            "--dispatch", str(tmp_path / "b.csv")], "grids differ"


class TestFailedRun:
    @pytest.mark.parametrize("command", ["ingest", "forecast", "dispatch", "report"])
    def test_leaves_no_output_directory(self, runner, tmp_path, command):
        args, message = failing_run(command, tmp_path)
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2, all_output(result)
        assert message in all_output(result)
        assert not (tmp_path / "out").exists()

    def test_unwritable_model_path_leaves_no_output_directory(self, runner, tmp_path):
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        result = runner.invoke(main, [
            "forecast", "--data", str(data), "--model", "lm", "--blocks", "2", "--tail", "60",
            "--save-model", str(tmp_path / "missing" / "model.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "No such file or directory" in all_output(result)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, message", [
        ("imbalance", "imbalance res + gen - load overflows at node 1"),
        ("trajectory", "the schedule's energy trajectory overflows: overflow encountered in"),
        ("comparison", "the dispatch runs overflow the comparison: overflow encountered in"),
        ("forecast", "the frame's values overflow the forecast: overflow encountered in"),
    ])
    def test_finite_inputs_that_overflow_exit_2(self, runner, tmp_path, case, message):
        # every input is finite; numpy's overflow warning must not leak
        write_kernel(tmp_path / "kernel.json")
        if case == "forecast":
            load = 100 + np.sin(np.arange(600.0))
            load[500] = 1.7e308
            args = ["forecast", "--data", str(make_dataset(runner, tmp_path, load)),
                    "--model", "lm", "--blocks", "2", "--tail", "60"]
        elif case == "comparison":
            (tmp_path / "a.csv").write_text("t,x,v,E\n0,0,0,0\n1,1.7e308,0,0\n")
            (tmp_path / "b.csv").write_text("t,x,v,E\n0,0,0,0\n1,-1.7e308,0,0\n")
            args = ["report", "--dispatch", str(tmp_path / "a.csv"),
                    "--dispatch", str(tmp_path / "b.csv")]
        else:
            # the imbalance alternates sign at full scale, or steps up to it twice
            big = [1.7e308, -1.7e308] * 6 if case == "imbalance" else [0, 1e308, 1e308, 0]
            write_series_csv(tmp_path / "big.csv", big)
            write_series_csv(tmp_path / "zero.csv", np.zeros(len(big)))
            args = ["dispatch", "--load", str(tmp_path / "big.csv"),
                    "--gen", str(tmp_path / "zero.csv"), "--kernel", str(tmp_path / "kernel.json")]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2, all_output(result)
        assert message in all_output(result)
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_solver_error_maps_to_3(self, runner):
        @click.command()
        @_guarded
        def boom():
            raise SolverError("degenerate last cell at node 4")

        result = runner.invoke(boom, [])
        assert result.exit_code == 3
        assert "node 4" in all_output(result)

    def test_data_error_maps_to_2(self, runner):
        from voltgrid.errors import DataError

        @click.command()
        @_guarded
        def bad():
            raise DataError("bad input")

        result = runner.invoke(bad, [])
        assert result.exit_code == 2


def modules_after_cli_import(names, *args):
    """Which of ``names`` and their submodules a fresh interpreter holds after
    ``import voltgrid.cli`` and, given ``args``, after running that command
    with two forecast workers (this one may have imported them for other
    tests)."""
    src = str(Path(voltgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = ("from voltgrid.forecast import validation; validation._available_cores = lambda: 2; "
           f"voltgrid.cli.main({list(args)!r}, standalone_mode=False); ") if args else ""
    code = (f"import sys, voltgrid.cli; {run}print(*[m for m in sys.modules if any("
            f"m == n or m.startswith(n + '.') for n in {list(names)!r})])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1].split()


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        assert modules_after_cli_import(["scipy"]) == []

    def test_cli_import_leaves_forecasting_out(self):
        # only the forecast command imports it
        assert modules_after_cli_import(["voltgrid.forecast"]) == []

    def test_cli_import_leaves_process_pools_out(self):
        assert modules_after_cli_import(
            ["multiprocessing", "concurrent.futures.process"]) == []

    def test_forest_forecast_imports_no_process_pools(self, runner, tmp_path):
        # the fits fork their workers themselves
        data = make_dataset(runner, tmp_path, np.full(1200, 100.0))
        assert modules_after_cli_import(
            ["multiprocessing", "concurrent.futures"],
            "forecast", "--data", str(data), "--model", "rf", "--trees", "2",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc")) == []
        assert (tmp_path / "fc" / "metrics.json").is_file()
