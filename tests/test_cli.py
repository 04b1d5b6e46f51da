"""Command-line behavior: artifacts, exit codes, determinism."""

import csv
import datetime as dt
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voltgrid.cli
import voltgrid.timeseries
from voltgrid.errors import DataError, SolverError
from voltgrid.forecast import models, validation
from voltgrid.ioutil import fmt12
from voltgrid.storage import StorageSpec, dispatch
from voltgrid.volterra import Grid, load_kernel

from conftest import START, hourly, invoke


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
    # errors land on stderr
    return result.output + result.stderr


class TestIngest:
    def test_writes_dataset_and_summary(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.arange(48.0) + 1)
        write_series_csv(tmp_path / "gen.csv", np.arange(48.0) * 2 + 1,
                         start=START + dt.timedelta(hours=24))
        result = invoke([
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

    def test_disjoint_ranges_exit_2(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", [1.0, 2.0])
        write_series_csv(tmp_path / "gen.csv", [1.0, 2.0],
                         start=START + dt.timedelta(days=7))
        result = invoke([
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2
        assert "overlap" in all_output(result)

    @pytest.mark.parametrize("cell", INFINITE_CELLS)
    def test_infinite_cell_exit_2(self, tmp_path, cell):
        # inf used to pass as a number: dataset.csv held it and na_counts read 0
        load = tmp_path / "load.csv"
        write_load_with_cell(load, cell)
        result = invoke(["ingest", "--load", str(load), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, all_output(result)
        assert f"error: {load}: line 4: bad value '{cell}'" in all_output(result)
        assert not (tmp_path / "run").exists()

    def test_missing_file_exit_2(self, tmp_path):
        result = invoke([
            "ingest", "--load", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2
        assert "does not exist" in all_output(result)

    def test_holidays_and_na_counts(self, tmp_path):
        path = tmp_path / "load.csv"
        write_series_csv(path, [1.0, 2.0, 3.0, 4.0])
        text = path.read_text().replace("2019-01-01 02:00:00,3", "2019-01-01 02:00:00,")
        path.write_text(text)
        (tmp_path / "hol.txt").write_text("2019-01-01\n")
        result = invoke([
            "ingest", "--load", str(path),
            "--holidays", str(tmp_path / "hol.txt"),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["na_counts"] == {"load": 1}
        assert summary["holidays"] == ["2019-01-01"]

    def test_custom_timestamp_format(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", [1.0, 2.0],
                         stamp_format="%d.%m.%Y %H:%M")
        result = invoke([
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--timestamp-format", "%d.%m.%Y %H:%M",
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("stem", ["load", "gen", "res", "timestamp"])
    def test_reserved_temperature_stem_exit_2(self, tmp_path, stem):
        # a station column named gen or res would pass for that series in
        # dispatch; one named timestamp made a dataset.csv no command could read
        write_series_csv(tmp_path / "demand.csv", np.arange(24.0) + 1)
        (tmp_path / "stations").mkdir()
        temp = tmp_path / "stations" / f"{stem}.csv"
        write_series_csv(temp, np.linspace(-5.0, 5.0, 24))
        result = invoke([
            "ingest", "--load", str(tmp_path / "demand.csv"), "--temp", str(temp),
            "--out", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2
        assert f"error: {temp}: --temp file stem '{stem}' is reserved" in all_output(result)
        assert not (tmp_path / "run").exists()

    def test_value_column_naming_the_timestamp_exit_2(self, tmp_path):
        # the stamps read as numbers failed the block but no one-row check,
        # so a bare ValueError escaped with exit 1
        load = tmp_path / "load.csv"
        write_series_csv(load, np.arange(24.0))
        result = invoke(["ingest", "--load", str(load), "--value-column", "timestamp",
                         "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == f"error: {load}: line 2: bad value '2019-01-01 00:00:00'\n"

    def test_station_names_that_need_quotes_reach_forecast(self, tmp_path):
        # the stems become header names that the writer must quote
        write_series_csv(tmp_path / "load.csv", 100 + np.sin(np.arange(600.0)))
        temps = [tmp_path / "a,b.csv", tmp_path / 'q"x.csv']
        for k, temp in enumerate(temps):
            write_series_csv(temp, k + np.cos(np.arange(600.0)))
        runs = {"run": [arg for temp in temps for arg in ("--temp", str(temp))], "plain": []}
        for out, stations in runs.items():
            assert invoke(["ingest", "--load", str(tmp_path / "load.csv"), *stations,
                           "--out", str(tmp_path / out)]).exit_code == 0
            result = invoke(["forecast", "--data", str(tmp_path / out / "dataset.csv"),
                             "--model", "lm", "--blocks", "2", "--tail", "48",
                             "--save-model", str(tmp_path / f"{out}.json"),
                             "--out", str(tmp_path / out / "fc")])
            assert result.exit_code == 0, all_output(result)
        with open(tmp_path / "run" / "dataset.csv", "rb") as fh:
            assert fh.readline() == b'timestamp,load,"a,b","q""x"\r\n'
        run, plain = (json.loads((tmp_path / f"{out}.json").read_text()) for out in ("run", "plain"))
        assert run["feature_names"] == plain["feature_names"] + ["a,b", 'q"x']
        assert run["n_features"] == plain["n_features"] + 2

    def test_file_for_several_series_is_read_once(self, tmp_path, opened):
        for name in ("data", "copy_a", "copy_b"):
            write_series_csv(tmp_path / f"{name}.csv", np.arange(24.0) + 1)
        outputs = {}
        for out, files in (("once", ["data", "copy_a", "data"]), ("apart", ["data", "copy_a", "copy_b"])):
            opened.clear()
            paths = [str(tmp_path / f"{name}.csv") for name in files]
            result = invoke([
                "ingest", "--load", paths[0], "--gen", paths[1], "--res", paths[2],
                "--out", str(tmp_path / out),
            ])
            assert result.exit_code == 0, all_output(result)
            assert opened.count(tmp_path / "data.csv") == 1
            outputs[out] = [(tmp_path / out / name).read_bytes()
                            for name in ("dataset.csv", "summary.json")]
        assert outputs["once"] == outputs["apart"]
        assert read_rows(tmp_path / "once" / "dataset.csv")[0] == ["timestamp", "load", "gen", "res"]


def make_dataset(tmp_path, values, name="run"):
    write_series_csv(tmp_path / "load.csv", values)
    result = invoke([
        "ingest", "--load", str(tmp_path / "load.csv"),
        "--out", str(tmp_path / name),
    ])
    assert result.exit_code == 0, result.output
    return tmp_path / name / "dataset.csv"


class TestForecast:
    def test_constant_load_scores_zero(self, tmp_path):
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        result = invoke([
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

    def test_bad_dataset_cell_exit_2(self, tmp_path):
        data = tmp_path / "dataset.csv"
        data.write_text("timestamp,load\n2019-01-01T00:00:00,1\n2019-01-01T01:00:00,abc\n")
        result = invoke([
            "forecast", "--data", str(data), "--model", "lm", "--tail", "1",
            "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert f"{data}: line 3: bad value 'abc'" in all_output(result)
        assert "Traceback" not in all_output(result)

    @pytest.mark.parametrize("hours, tail, message", [
        (1200, "-1", "validation_tail must be >= 0, got -1"),
        (100, "10", "no usable training rows: frame too short for the configured lags"),
    ])
    def test_unusable_split_exit_2(self, tmp_path, hours, tail, message):
        data = make_dataset(tmp_path, np.full(hours, 100.0))
        result = invoke(["forecast", "--data", str(data), "--model", "lm", "--tail", tail,
                         "--out", str(tmp_path / "fc")])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "fc").exists()

    def test_dataset_without_value_columns_exit_2(self, tmp_path):
        data = tmp_path / "dataset.csv"
        data.write_text("timestamp\n2019-01-01T00:00:00\n")
        result = invoke(["forecast", "--data", str(data), "--model", "lm", "--tail", "1",
                         "--out", str(tmp_path / "fc")])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == f"error: {data}: no value columns\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        data = make_dataset(tmp_path, 100 + rng.normal(0, 5, 1200))
        args = ["forecast", "--data", str(data), "--model", "rf",
                "--trees", "5", "--blocks", "2", "--tail", "100", "--seed", "9"]
        for out in ("fc1", "fc2"):
            result = invoke(args + ["--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        for name in ("forecast.csv", "metrics.json"):
            a = (tmp_path / "fc1" / name).read_bytes()
            b = (tmp_path / "fc2" / name).read_bytes()
            assert a == b

    @pytest.mark.parametrize("value", ["7", "-3", "abc"])
    def test_seed_env_var_is_ignored(self, tmp_path, monkeypatch, value):
        # --seed is the seed's only source: a set VOLTGRID_SEED, valid or not,
        # neither seeds a run nor fails one
        rng = np.random.default_rng(2)
        data = make_dataset(tmp_path, 100 + rng.normal(0, 5, 1200))
        base = ["forecast", "--data", str(data), "--model", "rf", "--trees", "3",
                "--blocks", "2", "--tail", "60"]
        plain = invoke(base + ["--out", str(tmp_path / "plain")])
        assert plain.exit_code == 0, all_output(plain)
        monkeypatch.setenv("VOLTGRID_SEED", value)
        for out, flag, seed in (("env", [], 0), ("flag", ["--seed", "7"], 7)):
            result = invoke(base + [*flag, "--out", str(tmp_path / out)])
            assert result.exit_code == 0, all_output(result)
            assert json.loads((tmp_path / out / "metrics.json").read_text())["seed"] == seed
        assert ((tmp_path / "env" / "forecast.csv").read_bytes()
                == (tmp_path / "plain" / "forecast.csv").read_bytes())

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity", "sched_setaffinity"])
    def test_fits_serially_without_fork_or_cpu_affinity(self, tmp_path, monkeypatch, missing):
        # as on macOS and Windows: the forest fits in-process, with the same bytes
        data = make_dataset(tmp_path, 100 + np.random.default_rng(3).normal(0, 5, 1200))
        base = ["forecast", "--data", str(data), "--model", "rf", "--trees", "3",
                "--blocks", "2", "--tail", "60", "--seed", "4"]
        forked = invoke(base + ["--out", str(tmp_path / "forked")])
        assert forked.exit_code == 0, all_output(forked)
        monkeypatch.delattr(os, missing)
        serial = invoke(base + ["--out", str(tmp_path / "serial")])
        assert serial.exit_code == 0, all_output(serial)
        assert "Traceback" not in all_output(serial)
        for name in ("forecast.csv", "metrics.json"):
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "forked" / name).read_bytes())

    @pytest.mark.parametrize("model", ["lm", "rf", "gbdt"])
    def test_negative_seed_exit_2(self, tmp_path, model):
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        result = invoke([
            "forecast", "--data", str(data), "--model", model, "--blocks", "2",
            "--tail", "60", "--seed", "-1", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "error: argument --seed: -1 is not in the range x>=0" in all_output(result)
        assert not (tmp_path / "fc").exists()

    def test_trees_flag_rejected_for_lm(self, tmp_path):
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        result = invoke([
            "forecast", "--data", str(data), "--model", "lm", "--trees", "9",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2
        assert "--trees" in all_output(result)

    def test_data_error_in_a_worker_exit_2(self, tmp_path, monkeypatch):
        # two workers whatever this machine has: the fits raise in the children
        monkeypatch.setattr(validation, "_available_cores", lambda: 2)
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        result = invoke([
            "forecast", "--data", str(data), "--model", "rf", "--trees", "0",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "n_trees must be >= 1, got 0" in all_output(result)
        assert "Traceback" not in all_output(result)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_model_choices_are_the_model_table(self):
        # the CLI lists the names itself: the table's module imports numpy
        result = invoke(["forecast", "--model", "svm"])
        choices = re.search(r"\(choose from (.*)\)", result.stderr).group(1)
        assert [name.strip(" '") for name in choices.split(",")] == list(models.MODELS)

    def test_unknown_model_exit_2(self, tmp_path):
        data = make_dataset(tmp_path, np.full(400, 100.0))
        result = invoke([
            "forecast", "--data", str(data), "--model", "svm",
            "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert result.exit_code == 2

    def test_save_model_artifact(self, tmp_path):
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        result = invoke([
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
    def test_balanced_inputs_idle_storage(self, tmp_path):
        values = 50.0 + np.sin(np.arange(24.0))
        write_series_csv(tmp_path / "load.csv", values)
        write_series_csv(tmp_path / "gen.csv", values)
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
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

    def test_a_kernel_key_it_does_not_take_is_a_usage_error(self, tmp_path):
        values = 50.0 + np.sin(np.arange(24.0))
        write_series_csv(tmp_path / "load.csv", values)
        write_series_csv(tmp_path / "gen.csv", values)
        (tmp_path / "kernel.json").write_text(json.dumps({
            "n": 1, "K": [{"type": "const", "value": 1.0}], "G": [{"type": "linear"}],
            "kernal_floor": 1e-3}))
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "unknown kernel config keys: ['kernal_floor']" in result.stderr
        assert not (tmp_path / "disp").exists()

    def test_hand_solved_ramp_gives_unit_power(self, tmp_path):
        # surplus t against a unit kernel: x(t) = 1, exact in binary
        write_series_csv(tmp_path / "gen.csv", np.arange(5.0))
        write_series_csv(tmp_path / "load.csv", np.zeros(5))
        write_kernel(tmp_path / "kernel.json", value=1.0)
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "disp" / "dispatch.csv")
        assert [row[1] for row in rows[1:]] == ["1"] * 5

    def test_accepts_forecast_csv_as_load(self, tmp_path):
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        fc = invoke([
            "forecast", "--data", str(data), "--model", "lm",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert fc.exit_code == 0, fc.output
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
            "dispatch", "--load", str(tmp_path / "fc" / "forecast.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "disp" / "report.json").read_text())
        # constant load alone: f = -load + load_0 = 0 everywhere
        assert report["max_abs_power"] == pytest.approx(0.0, abs=1e-6)

    def test_value_column_override_leaves_other_series_alone(self, tmp_path):
        # schedule against the actual column of a forecast file while the
        # gen series keeps its conventional "value" header
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        fc = invoke([
            "forecast", "--data", str(data), "--model", "lm",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc"),
        ])
        assert fc.exit_code == 0, fc.output
        write_series_csv(tmp_path / "gen.csv", np.full(1300, 7.0))
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
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

    def test_storage_spec_violations_reported(self, tmp_path):
        write_series_csv(tmp_path / "gen.csv", np.arange(6.0) * 10)
        write_series_csv(tmp_path / "load.csv", np.zeros(6))
        write_kernel(tmp_path / "kernel.json")
        (tmp_path / "storage.json").write_text(json.dumps(
            {"e_max": 5.0, "interpretation": "power"}))
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--storage", str(tmp_path / "storage.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "disp" / "report.json").read_text())
        assert any(v["constraint"] == "E_max" for v in report["violations"])

    def test_soc_efficiency_matches_the_library(self, tmp_path):
        # surplus and deficit hours: with the flag, E scales charging and
        # discharging by the spec's efficiency, as dispatch(soc_efficiency=True)
        gen, load = np.array([0, 3, 7, 8, 6, 2, 1, 4, 9, 5, 0, 2.0]), np.full(12, 4.0)
        write_series_csv(tmp_path / "gen.csv", gen)
        write_series_csv(tmp_path / "load.csv", load)
        write_kernel(tmp_path / "kernel.json", value=0.92)
        (tmp_path / "storage.json").write_text('{"interpretation": "power"}')
        columns = {}
        for soc_efficiency, flag in ((False, []), (True, ["--soc-efficiency"])):
            out = tmp_path / f"disp-{soc_efficiency}"
            result = invoke([
                "dispatch", "--load", str(tmp_path / "load.csv"),
                "--gen", str(tmp_path / "gen.csv"),
                "--kernel", str(tmp_path / "kernel.json"),
                "--storage", str(tmp_path / "storage.json"), *flag,
                "--out", str(out),
            ])
            assert result.exit_code == 0, all_output(result)
            columns[soc_efficiency] = [row[3] for row in read_rows(out / "dispatch.csv")[1:]]
            report = dispatch(hourly(np.zeros(12), "res"), hourly(gen, "gen"), hourly(load),
                              load_kernel(tmp_path / "kernel.json"),
                              StorageSpec(interpretation="power"), Grid(11.0, 11),
                              soc_efficiency=soc_efficiency)
            assert columns[soc_efficiency] == [fmt12(e) for e in report.E]
        assert columns[True] != columns[False]

    def test_grid_n_truncates(self, tmp_path):
        write_series_csv(tmp_path / "gen.csv", np.arange(10.0))
        write_series_csv(tmp_path / "load.csv", np.zeros(10))
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--gen", str(tmp_path / "gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--grid-n", "4",
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 0, result.output
        assert len(read_rows(tmp_path / "disp" / "dispatch.csv")) == 6

    def test_grid_n_out_of_range(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.zeros(5))
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--grid-n", "40",
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2
        assert "--grid-n" in all_output(result)

    def test_two_aligned_rows_exit_2(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.zeros(2))
        write_kernel(tmp_path / "kernel.json")
        result = invoke(["dispatch", "--load", str(tmp_path / "load.csv"),
                         "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / "disp")])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == "error: need at least 3 aligned samples, got 2\n"

    @pytest.mark.parametrize("config, message", [
        ({"n": 0}, "band count must be >= 1, got 0"),
        ({"n": 1, "alphas": {"type": "proportional", "c": [0.5]}},
         "a single-band kernel takes no interior boundaries"),
        ({"n": 2, "alphas": {"type": "proportional", "c": [0.3, 0.6]}},
         "'alphas.c' must list 1 fractions"),
        ({"n": 2, "alphas": {"type": "table", "t": [0, 5], "alpha": []}},
         "'alphas.alpha' must list 1 boundary rows"),
        ({"n": 2, "alphas": {"type": "table", "t": 5, "alpha": [[0, 1]]}},
         "alphas.t must be a list of numbers, got 5"),
        ({"n": 1, "K": [{"type": "exp_decay", "value": 1.0}], "G": [{"type": "linear"}]},
         "K[0]: exp_decay factor needs a 'rate'"),
        ({"n": 2, "alphas": {"type": "table", "t": [0, 5, 3], "alpha": [[0, 1, 2]]},
          "K": [{"type": "const", "value": 1.0}] * 2, "G": [{"type": "linear"}] * 2},
         "boundary table needs strictly increasing t knots"),
        ({"n": 2, "alphas": {"type": "table", "t": [0, 5], "alpha": [[0]]},
          "K": [{"type": "const", "value": 1.0}] * 2, "G": [{"type": "linear"}] * 2},
         "each boundary row must match the t knots in length"),
    ], ids=["no-bands", "single-band-c", "c-length", "alpha-length", "t-not-list",
            "decay-without-rate", "knots-unsorted", "row-short"])
    def test_bad_kernel_config_exit_2(self, tmp_path, config, message):
        write_series_csv(tmp_path / "load.csv", np.arange(5.0))
        (tmp_path / "kernel.json").write_text(json.dumps(config))
        result = invoke(["dispatch", "--load", str(tmp_path / "load.csv"),
                         "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / "disp")])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "disp").exists()

    def test_bad_kernel_json_exit_2(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.zeros(5))
        (tmp_path / "kernel.json").write_text("{not json")
        result = invoke([
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
    def test_non_finite_config_exit_2(self, tmp_path, kernel_text, storage_text):
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
        result = invoke(args)
        assert result.exit_code == 2, all_output(result)
        assert not (tmp_path / "disp" / "dispatch.csv").exists()

    @pytest.mark.parametrize("storage_text, message", [
        ('{"rated_cycles": 2.5}', "rated_cycles must be an integer"),
        ('{"efficiency": true}', "efficiency must be a number"),
    ])
    def test_bad_storage_number_exit_2(self, tmp_path, storage_text, message):
        write_series_csv(tmp_path / "load.csv", np.arange(5.0))
        write_kernel(tmp_path / "kernel.json")
        (tmp_path / "storage.json").write_text(storage_text)
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--storage", str(tmp_path / "storage.json"), "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert message in all_output(result)
        assert not (tmp_path / "disp" / "dispatch.csv").exists()

    def test_fractional_band_count_exit_2(self, tmp_path):
        write_series_csv(tmp_path / "load.csv", np.arange(5.0))
        (tmp_path / "kernel.json").write_text(
            '{"n": 1.7, "K": [{"type": "const", "value": 1.0}], "G": [{"type": "linear"}]}')
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert "band count" in all_output(result)
        assert not (tmp_path / "disp" / "dispatch.csv").exists()

    def test_file_for_several_series_is_read_once(self, tmp_path, opened):
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
            result = invoke([
                "dispatch", "--load", paths[0], "--gen", paths[1], "--res", paths[2],
                "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / out),
            ])
            assert result.exit_code == 0, all_output(result)
            assert opened.count(tmp_path / "data.csv") == 1
            outputs[out] = [(tmp_path / out / name).read_bytes()
                            for name in ("dispatch.csv", "report.json")]
        assert outputs["once"] == outputs["apart"]

    @pytest.mark.parametrize("grid_n", [None, 20])
    def test_omitted_series_is_zero(self, tmp_path, grid_n):
        write_series_csv(tmp_path / "load.csv", 50 + 5 * np.sin(np.arange(30.0) / 3))
        write_series_csv(tmp_path / "zero.csv", np.zeros(30))
        write_kernel(tmp_path / "kernel.json", value=0.92)
        zero = str(tmp_path / "zero.csv")
        outputs = []
        for out, extra in (("alone", []), ("zeros", ["--gen", zero, "--res", zero])):
            result = invoke([
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
    def test_infinite_cell_exit_2(self, tmp_path, cell):
        # named as the bad value it is, not as a missing value
        load = tmp_path / "load.csv"
        write_load_with_cell(load, cell)
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
            "dispatch", "--load", str(load), "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2, all_output(result)
        assert f"error: {load}: line 4: bad value '{cell}'" in all_output(result)

    def test_value_column_missing_exit_2(self, tmp_path):
        (tmp_path / "load.csv").write_text("timestamp,megawatts\n2019-01-01,1\n")
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
            "dispatch", "--load", str(tmp_path / "load.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / "disp"),
        ])
        assert result.exit_code == 2
        assert (f"{tmp_path / 'load.csv'}: value column 'value' or 'load' or 'predicted' "
                f"not in header ['timestamp', 'megawatts']") in all_output(result)


class TestReport:
    def run_dispatch(self, tmp_path, name, surplus):
        write_series_csv(tmp_path / f"{name}_gen.csv", surplus)
        write_series_csv(tmp_path / f"{name}_load.csv", np.zeros(len(surplus)))
        write_kernel(tmp_path / "kernel.json")
        result = invoke([
            "dispatch", "--load", str(tmp_path / f"{name}_load.csv"),
            "--gen", str(tmp_path / f"{name}_gen.csv"),
            "--kernel", str(tmp_path / "kernel.json"),
            "--out", str(tmp_path / name),
        ])
        assert result.exit_code == 0, result.output
        return tmp_path / name / "dispatch.csv"

    def test_single_run_table(self, tmp_path):
        a = self.run_dispatch(tmp_path, "a", np.sin(np.arange(12.0)))
        result = invoke([
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

    def test_pairwise_difference(self, tmp_path):
        surplus = np.sin(np.arange(12.0))
        a = self.run_dispatch(tmp_path, "a", surplus)
        b = self.run_dispatch(tmp_path, "b", 1.5 * surplus)
        result = invoke([
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

    def test_same_directory_name_gets_a_numbered_label(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = self.run_dispatch(tmp_path / "a", "run", np.sin(np.arange(12.0)))
        second = self.run_dispatch(tmp_path / "b", "run", np.cos(np.arange(12.0)))
        result = invoke(["report", "--dispatch", str(first), "--dispatch", str(second),
                         "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 0, all_output(result)
        doc = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert [run["series"] for run in doc["runs"]] == ["run", "run#2"]
        assert [(pair["a"], pair["b"]) for pair in doc["pairwise"]] == [("run", "run#2")]

    def test_mismatched_grids_exit_2(self, tmp_path):
        a = self.run_dispatch(tmp_path, "a", np.sin(np.arange(12.0)))
        b = self.run_dispatch(tmp_path, "b", np.sin(np.arange(8.0)))
        result = invoke([
            "report", "--dispatch", str(a), "--dispatch", str(b),
            "--out", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 2
        assert "grids differ" in all_output(result)

    @pytest.mark.parametrize("body, message", [
        ("", "no data rows"),
        ("0,0,0,0\n1,nan,0,0\n", "non-finite"),
    ])
    def test_bad_dispatch_csv_exit_2(self, tmp_path, body, message):
        path = tmp_path / "dispatch.csv"
        path.write_text("t,x,v,E\n" + body)
        result = invoke([
            "report", "--dispatch", str(path), "--out", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 2
        assert message in all_output(result)


class TestByteOrderMark:
    def test_inputs_with_a_bom_give_the_same_artifacts(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
        src = tmp_path / "src"
        src.mkdir()
        hours = np.arange(1200.0)
        write_series_csv(src / "load.csv", 100 + 10 * np.sin(2 * np.pi * hours / 24))
        write_series_csv(src / "gen.csv", 60 + np.cos(hours))
        write_series_csv(src / "res.csv", 40 + np.sin(hours / 7))
        write_series_csv(src / "berlin.csv", 5 + np.sin(hours / 24))
        (src / "holidays.txt").write_text("# new year\n2019-01-01\n2019-02-01\n")
        (src / "kernel.json").write_text(json.dumps({
            "n": 2, "alphas": {"type": "proportional", "c": [0.5]},
            "K": [{"type": "const", "value": 0.9}, {"type": "exp_decay", "value": 1.0, "rate": 0.01}],
            "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.001}]}))
        (src / "storage.json").write_text('{"e_max": 50.0, "v_max": 20.0}')

        artifacts = {}
        for variant in ("plain", "bom"):
            run = tmp_path / variant

            def given(path):
                """A copy of ``path`` under the run; the bom run's starts with the mark."""
                copy = run / "in" / path.parent.name / path.name
                copy.parent.mkdir(parents=True, exist_ok=True)
                copy.write_bytes(b"\xef\xbb\xbf" * (variant == "bom") + path.read_bytes())
                return str(copy)

            holidays = given(src / "holidays.txt")
            steps = [
                ["ingest", "--load", given(src / "load.csv"), "--gen", given(src / "gen.csv"),
                 "--res", given(src / "res.csv"), "--temp", given(src / "berlin.csv"),
                 "--holidays", holidays, "--out", str(run / "ingest")],
                lambda: ["forecast", "--data", given(run / "ingest" / "dataset.csv"),
                         "--model", "lm", "--blocks", "3", "--tail", "120",
                         "--holidays", holidays, "--out", str(run / "fc")],
                lambda: ["dispatch", "--load", given(run / "fc" / "forecast.csv"),
                         "--gen", given(run / "ingest" / "dataset.csv"),
                         "--res", given(run / "ingest" / "dataset.csv"),
                         "--kernel", given(src / "kernel.json"),
                         "--storage", given(src / "storage.json"), "--out", str(run / "disp")],
                lambda: ["report", "--dispatch", given(run / "disp" / "dispatch.csv"),
                         "--out", str(run / "cmp")],
            ]
            for args in steps:
                result = invoke(args() if callable(args) else args)
                assert result.exit_code == 0, all_output(result)
            artifacts[variant] = {path.relative_to(run): path.read_bytes()
                                  for path in sorted(run.glob("*/*")) if path.parent.name != "in"}
        assert len(artifacts["plain"]) == 8
        assert artifacts["bom"] == artifacts["plain"]


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
    def test_leaves_no_output_directory(self, tmp_path, command):
        args, message = failing_run(command, tmp_path)
        result = invoke(args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2, all_output(result)
        assert message in all_output(result)
        assert not (tmp_path / "out").exists()

    def test_unwritable_model_path_leaves_no_output_directory(self, tmp_path):
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        result = invoke([
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
        ("forecast rf", "the frame's values overflow the forecast: overflow encountered in"),
    ])
    def test_finite_inputs_that_overflow_exit_2(self, tmp_path, case, message):
        # every input is finite; numpy's overflow warning must not leak
        write_kernel(tmp_path / "kernel.json")
        if case.startswith("forecast"):
            # rf overflows inside its fit, whose own gate defers to this one
            model = case.partition(" ")[2] or "lm"
            load = 100 + np.sin(np.arange(600.0))
            load[500] = 1.7e308
            args = ["forecast", "--data", str(make_dataset(tmp_path, load)),
                    "--model", model, "--blocks", "2", "--tail", "60",
                    *(["--trees", "2"] if model == "rf" else [])]
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
        result = invoke(args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2, all_output(result)
        assert message in all_output(result)
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    @staticmethod
    def report_raising(error, tmp_path, monkeypatch):
        """Run ``report`` with its command replaced by one that raises ``error``."""
        def boom(dispatch_paths, out_dir):
            raise error

        monkeypatch.setattr(voltgrid.cli, "cmd_report", boom)
        (tmp_path / "dispatch.csv").touch()
        return invoke(["report", "--dispatch", str(tmp_path / "dispatch.csv"),
                       "--out", str(tmp_path / "cmp")])

    def test_solver_error_maps_to_3(self, tmp_path, monkeypatch):
        result = self.report_raising(SolverError("degenerate last cell at node 4"),
                                     tmp_path, monkeypatch)
        assert result.exit_code == 3
        assert "node 4" in all_output(result)
        assert result.stderr == "solver error: degenerate last cell at node 4\n"

    def test_data_error_maps_to_2(self, tmp_path, monkeypatch):
        result = self.report_raising(DataError("bad input"), tmp_path, monkeypatch)
        assert result.exit_code == 2
        assert result.stderr == "error: bad input\n"


USAGE_ERRORS = [
    (["unknown"], "voltgrid: error: argument COMMAND: invalid choice: 'unknown'"),
    (["ingest", "--out", "{out}"],
     "voltgrid ingest: error: the following arguments are required: --load"),
    (["ingest", "--load", "{load}", "--out", "{out}", "--bogus"],
     "voltgrid ingest: error: unrecognized arguments: --bogus"),
    (["forecast", "--data", "{load}", "--model", "xgb", "--tail", "1", "--out", "{out}"],
     "voltgrid forecast: error: argument --model: invalid choice: 'xgb'"),
    (["forecast", "--data", "{load}", "--model", "lm", "--tail", "abc", "--out", "{out}"],
     "voltgrid forecast: error: argument --tail: invalid int value: 'abc'"),
    (["ingest", "--load", "{tmp}/missing.csv", "--out", "{out}"],
     "voltgrid ingest: error: argument --load: file '{tmp}/missing.csv' does not exist"),
    (["dispatch", "--load", "{load}", "--kernel", "{tmp}", "--out", "{out}"],
     "voltgrid dispatch: error: argument --kernel: file '{tmp}' is a directory"),
    (["forecast", "--data", "{load}", "--model", "lm", "--tail", "1", "--seed", "-1",
      "--out", "{out}"],
     "voltgrid forecast: error: argument --seed: -1 is not in the range x>=0"),
    (["forecast", "--data", "{load}", "--model", "lm", "--tail", "1", "--seed", "abc",
      "--out", "{out}"],
     "voltgrid forecast: error: argument --seed: invalid int value: 'abc'"),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS, ids=[
    "unknown-command", "missing-load", "unknown-option", "model-xgb", "tail-abc",
    "missing-file", "directory-kernel", "seed-negative", "seed-abc"])
def test_usage_error_exit_2(tmp_path, args, message):
    write_series_csv(tmp_path / "load.csv", np.arange(24.0))
    paths = {"tmp": tmp_path, "load": tmp_path / "load.csv", "out": tmp_path / "out"}
    result = invoke([arg.format(**paths) for arg in args])
    assert result.exit_code == 2, all_output(result)
    assert result.stderr.startswith("usage: voltgrid")
    assert message.format(**paths) in result.stderr.splitlines()[-1]
    assert "Traceback" not in result.stderr
    assert result.output == ""
    assert not (tmp_path / "out").exists()


def fresh_env():
    """This environment, with the source tree of the voltgrid under test first
    on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(voltgrid.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def modules_after_cli_import(names, *args):
    """Which of ``names`` and their submodules a fresh interpreter holds after
    ``import voltgrid.cli`` and, given ``args``, after running that command
    with two forecast workers (this one may have imported them for other
    tests)."""
    env = fresh_env()
    run = ("from voltgrid.forecast import validation; validation._available_cores = lambda: 2; "
           f"voltgrid.cli.main({list(args)!r}); ") if args else ""
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

    def test_forest_forecast_imports_no_process_pools(self, tmp_path):
        # the fits fork their workers themselves
        data = make_dataset(tmp_path, np.full(1200, 100.0))
        assert modules_after_cli_import(
            ["multiprocessing", "concurrent.futures"],
            "forecast", "--data", str(data), "--model", "rf", "--trees", "2",
            "--blocks", "2", "--tail", "60", "--out", str(tmp_path / "fc")) == []
        assert (tmp_path / "fc" / "metrics.json").is_file()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's thread list")
def test_commands_run_numpy_on_one_thread(tmp_path):
    # with these unset, numpy's OpenBLAS started a thread pool at import,
    # beside which the forked forecast fits then ran
    env = fresh_env()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(name, None)
    write_series_csv(tmp_path / "load.csv", np.arange(24.0))
    code = ("import os, sys, voltgrid.cli; voltgrid.cli.main(sys.argv[1:]); "
            "print(len(os.listdir('/proc/self/task')))")
    args = ["ingest", "--load", str(tmp_path / "load.csv"), "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "1"
