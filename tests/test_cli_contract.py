"""The CLI contract under hostile input, for all four commands.

Each command runs in-process through ``conftest.invoke`` on drawn CSV, kernel
and storage files of at most 60 data rows (forecast also gets a clean
400-hour history ahead of its drawn rows, since its lags reach back a
week). Every run must:

- exit 0, 2 or 3, with no exception but SystemExit leaving the command
  (tier-1 turns warnings into errors, so a leaked numpy warning fails too);
- leave no ``--out`` behind after a nonzero exit;
- after exit 0, write artifacts that parse, with no empty or NaN number
  outside these allowed cases:
  - ``dataset.csv``: a missing input cell stays an empty cell, and
    ``summary.json``'s ``na_counts`` counts it; no cell is infinite;
  - ``report.json``: an infinite lifetime (a store that never cycles) is
    ``null``;
  - ``metrics.json``: ``mape_percent`` is ``null`` when an actual value is
    not positive, and ``mae_by_weekday``/``mae_by_hour`` are ``null`` for a
    weekday or hour the validation tail does not hold.
"""

import datetime as dt
import json
import math
import re
import tempfile
import traceback
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from voltgrid.forecast import models
from voltgrid.storage import read_dispatch_csv
from voltgrid.timeseries import read_frame_csv

from conftest import assert_document_holds, invoke, strict_json

START = dt.datetime(2019, 1, 1)
MAX_ROWS = 60
HISTORY = 400  # forecast's clean hours: lags reach back a week, and block 0 needs rows
CONTRACT = settings(deadline=None, max_examples=80)

# half the draws spell an infinity, so a run that lets one through is likely
# to end in a successful ingest that the dataset check catches
HOSTILE_CELLS = st.sampled_from([
    "0", "1.7e308", "-1.7e308", "1e308", "", " ", "NA", "n/a", "NaN", "null", "-", "abc",
    '"12"', '"1,5"', '"a""b"', '"open']) | st.sampled_from(["inf", "-inf", "Infinity", "1e999"])
# hours from one row to the next: a duplicate, a gap, a step back, off the grid
HOSTILE_STEPS = st.sampled_from([0, 3, -2, 0.5])


@st.composite
def rarely(draw, rare, common, odds=8):
    """A draw from ``rare`` one time in ``odds``, else from ``common``."""
    return draw(rare) if draw(st.integers(1, odds)) == 1 else draw(common)


def sometimes(strategy):
    """None or a draw from ``strategy``, for an input that may be left out."""
    return st.none() | strategy


def cells(draw, k, columns, level, hostile):
    """Row ``k``'s ``columns`` numbers around ``level``; in a ``hostile``
    file about one row in eight has one cell from HOSTILE_CELLS instead.
    Only the hostile cells are drawn, which keeps an example cheap."""
    row = [repr(level + math.sin(k + c)) for c in range(columns)]
    if hostile and draw(st.integers(1, 8)) == 1:
        row[draw(st.integers(0, columns - 1))] = draw(HOSTILE_CELLS)
    return row


@st.composite
def rows(draw, columns, min_rows=1, start=START):
    """CSV data lines, a timestamp plus ``columns`` cells each. A file's
    stamps and its cells are each clean (hourly, finite) or, one time in
    five, hostile."""
    n = draw(st.integers(min_rows, MAX_ROWS))
    level = draw(st.floats(-1e3, 1e3))
    hostile_stamps, hostile_cells = (draw(st.integers(1, 5)) == 1 for _ in range(2))
    offset = dt.timedelta(minutes=30 * (hostile_stamps and draw(st.integers(1, 4)) == 1))
    sep, zone = draw(st.sampled_from([("T", ""), (" ", ""), ("T", "Z")]))
    hour, lines = 0, []
    for k in range(n):
        if k:
            hour += draw(rarely(HOSTILE_STEPS, st.just(1))) if hostile_stamps else 1
        stamp = (start + offset + dt.timedelta(hours=hour)).isoformat(sep=sep) + zone
        lines.append(",".join([stamp, *cells(draw, k, columns, level, hostile_cells)]))
    return lines


@st.composite
def series_text(draw, min_rows=1):
    header = draw(rarely(st.sampled_from(["timestamp,value,value", "time,value"]),
                         st.just("timestamp,value"), 20))
    return "\n".join([header, *draw(rows(1, min_rows))]) + "\n"


UNIT_KERNEL = {"n": 1, "K": [{"type": "const", "value": 1.0}], "G": [{"type": "linear"}]}
KERNELS = st.sampled_from([
    UNIT_KERNEL,
    {"n": 1, "K": [{"type": "exp_decay", "value": 0.92, "rate": 0.05}],
     "G": [{"type": "cubic", "a": 1.0, "b": 0.1}]},
    {"n": 2, "alphas": {"type": "proportional", "c": [0.5]},
     "K": [{"type": "const", "value": 0.5}, {"type": "const", "value": 2.0}],
     "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.01}]},
]).map(json.dumps)
BROKEN_KERNELS = st.sampled_from([
    {"n": 2, "K": [{"type": "const", "value": 1.0}], "G": [{"type": "linear"}]},
    {"n": 1, "K": [{"type": "const", "value": "1"}], "G": [{"type": "linear"}]},
    {"n": 1, "K": [{"type": "exp_decay", "value": 1.0, "rate": -1}], "G": [{"type": "linear"}]},
    {"n": 1, "K": [{"type": "const", "value": 0.0}], "G": [{"type": "linear"}]},
    {"n": 1, "K": [{"type": "const", "value": 1.0}], "G": [{"type": "cubic", "a": 1, "b": -1}]},
]).map(json.dumps) | st.just("{")

STORAGES = st.sampled_from([
    {}, {"v_max": 2.0, "e_min": -5.0, "e_max": 5.0}, {"interpretation": "power", "efficiency": 0.9},
    {"e_min": None, "e_max": 1e308, "rated_cycles": 2},
]).map(json.dumps)
BROKEN_STORAGES = st.sampled_from([
    {"efficiency": 0}, {"e_min": 1.0, "e_max": 0.0}, {"volume": 3}, {"rated_cycles": 2.5},
    {"interpretation": "both"},
]).map(json.dumps) | st.just("[")


def run(args, out: Path) -> bool:
    """Run one command into ``out`` (which does not exist yet), check the
    exit-code contract, and say whether it succeeded."""
    result = invoke([*args, "--out", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError("".join(traceback.format_exception(*result.exc_info)))
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        assert not out.exists(), result.output
    return result.exit_code == 0


def numbers(value, path="") -> list:
    """(path, value) of every number or null in a JSON document."""
    if isinstance(value, dict):
        return [item for key, v in value.items() for item in numbers(v, f"{path}.{key}")]
    if isinstance(value, list):
        return [item for i, v in enumerate(value) for item in numbers(v, f"{path}[{i}]")]
    return [(path, value)] if value is None or isinstance(value, (int, float)) else []


def assert_numbers(doc, allowed_null=()):
    """No number in ``doc`` is NaN, and only paths matching one of the
    ``allowed_null`` patterns are null."""
    for path, value in numbers(doc):
        if value is None:
            assert any(re.fullmatch(pattern, path) for pattern in allowed_null), path
        else:
            assert not math.isnan(value), path


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def pinned_loads(**others):
    """Run the test on each of PINNED_LOADS as its load file, with ``others``
    as its other arguments, whatever the derandomized draw reaches."""
    def pin(test):
        for load in PINNED_LOADS:
            test = example(load=load, **others)(test)
        return test
    return pin


def series_file(*cells, stamps=range(4)):
    """A series CSV with one row per cell, at ``stamps`` hours from START."""
    return "".join(["timestamp,value\n", *(
        f"{(START + dt.timedelta(hours=h)).isoformat()},{cell}\n" for h, cell in zip(stamps, cells))])


# one load file per hostile class, run every time: cells that overflow the
# arithmetic, quoted cells (numbers, then one holding a comma), an off-grid
# stamp and an infinite cell
PINNED_LOADS = [
    series_file("1.7e308", "-1.7e308", "1.7e308", "1"),
    series_file('"12"', '"1.5e1"', '" 4 "', '"-3"'),
    series_file("1", '"1,5"', "3", "4"),
    series_file("1", "2", "3", "4", stamps=(0, 1, 1.5, 2.5)),
    series_file("1", "inf", "3", "4"),
]


@CONTRACT
@given(load=series_text(), gen=sometimes(series_text()), res=sometimes(series_text()),
       temp=sometimes(series_text()),
       holidays=sometimes(st.sampled_from(["2019-01-01\n", "# none\n\n", "2019-13-01\n"])))
@pinned_loads(gen=None, res=None, temp=None, holidays=None)
def test_ingest(load, gen, res, temp, holidays):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = ["ingest", "--load", write(tmp / "load.csv", load)]
        for flag, name, text in (("--gen", "gen.csv", gen), ("--res", "res.csv", res),
                                 ("--temp", "t0.csv", temp), ("--holidays", "holidays.txt", holidays)):
            if text is not None:
                args += [flag, write(tmp / name, text)]
        if not run(args, tmp / "out"):
            return
        frame = read_frame_csv(tmp / "out" / "dataset.csv")
        summary = json.loads((tmp / "out" / "summary.json").read_text())
        assert_numbers(summary)
        assert summary["rows"] == frame.n_rows
        assert summary["na_counts"] == {name: int(np.isnan(col).sum())
                                        for name, col in frame.columns.items()}
        assert not any(np.isinf(col).any() for col in frame.columns.values())


@CONTRACT
@given(data=st.data())
def test_forecast(data):
    history = [f"{(START + dt.timedelta(hours=h)).isoformat()},{100 + 10 * math.sin(h / 4):.6f}"
               for h in range(HISTORY)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tail = data.draw(rows(1, start=START + dt.timedelta(hours=HISTORY)))
        model = data.draw(st.sampled_from(["lm", "lm", "rf", "gbdt"]))
        args = ["forecast", "--data", write(tmp / "data.csv", "\n".join(
                    ["timestamp,load", *history, *tail]) + "\n"),
                "--model", model, "--horizon", str(data.draw(st.integers(1, 6))),
                "--blocks", str(data.draw(st.integers(2, 3))),
                "--tail", str(data.draw(st.integers(1, 40)))]
        if model != "lm":
            args += ["--trees", "2"]
        model_path = None
        if data.draw(st.booleans()):  # one time in four into a missing directory
            model_path = tmp / data.draw(rarely(st.just("missing"), st.just("."), 4)) / "model.json"
            args += ["--save-model", str(model_path)]
        with mock.patch.object(models, "save_model", wraps=models.save_model) as save:
            if not run(args, tmp / "out"):
                return
        if model_path:
            (model, _), _ = save.call_args
            assert_document_holds(strict_json(model_path), model)
        forecast = (tmp / "out" / "forecast.csv").read_text().splitlines()
        assert forecast[0] == "timestamp,predicted,actual"
        for line in forecast[1:]:
            assert all(map(math.isfinite, map(float, line.split(",")[1:]))), line
        metrics = json.loads((tmp / "out" / "metrics.json").read_text())
        assert_numbers(metrics, (r"\.(per_block\[\d+\]|validation)\.mape_percent",
                                 r"\.mae_by_(weekday|hour)\[\d+\]"))


@CONTRACT
@given(load=series_text(3), kernel=rarely(BROKEN_KERNELS, KERNELS, 4),
       gen=sometimes(series_text(3)), res=sometimes(series_text(3)),
       storage=sometimes(rarely(BROKEN_STORAGES, STORAGES, 4)),
       grid_n=sometimes(st.integers(1, MAX_ROWS)), soc_efficiency=st.booleans())
@pinned_loads(kernel=json.dumps(UNIT_KERNEL), gen=None, res=None, storage=None, grid_n=None,
              soc_efficiency=False)
def test_dispatch(load, kernel, gen, res, storage, grid_n, soc_efficiency):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = ["dispatch", "--load", write(tmp / "load.csv", load),
                "--kernel", write(tmp / "kernel.json", kernel)]
        for flag, name, text in (("--gen", "gen.csv", gen), ("--res", "res.csv", res),
                                 ("--storage", "storage.json", storage)):
            if text is not None:
                args += [flag, write(tmp / name, text)]
        if grid_n is not None:
            args += ["--grid-n", str(grid_n)]
        if soc_efficiency:
            args.append("--soc-efficiency")
        if not run(args, tmp / "out"):
            return
        t, _, _, _ = read_dispatch_csv(tmp / "out" / "dispatch.csv")
        report = json.loads((tmp / "out" / "report.json").read_text())
        idle = report["equivalent_cycles"] == 0
        assert_numbers(report, (r"\.lifetime_(horizons|hours)",) if idle else ())
        assert len(t) == report["n_cells"] + 1


@CONTRACT
@given(data=st.data())
def test_report(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        n = data.draw(st.integers(1, MAX_ROWS))
        args = ["report"]
        for k in range(data.draw(st.integers(1, 3))):
            # most runs share one grid; one in four draws its own length
            length = data.draw(rarely(st.integers(1, MAX_ROWS), st.just(n), 4))
            level = data.draw(st.floats(-1e3, 1e3))
            hostile = data.draw(st.integers(1, 5)) == 1
            lines = [",".join([str(float(i)), *cells(data.draw, i, 3, level, hostile)])
                     for i in range(length)]
            args += ["--dispatch", write(tmp / f"run{k}.csv", "\n".join(["t,x,v,E", *lines]) + "\n")]
        if not run(args, tmp / "out"):
            return
        comparison = json.loads((tmp / "out" / "comparison.json").read_text())
        assert_numbers(comparison)
        lines = (tmp / "out" / "comparison.csv").read_text().splitlines()
        assert lines[0] == "t,series,x,E"
        for line in lines[1:]:
            t, _, x, e = line.split(",")
            assert all(map(math.isfinite, map(float, (t, x, e)))), line
