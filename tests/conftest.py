"""Shared fixtures, the in-process CLI runner, the model-document check and
the acceptance-summary hook."""

import datetime as dt
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from voltgrid import ioutil
from voltgrid.cli import main
from voltgrid.forecast.models import FORMAT, MODELS, RegressionTree
from voltgrid.timeseries import TimeSeries, align_hourly
from voltgrid.volterra import kernel_from_config

# every property test draws the same examples on every run, and none are
# saved to replay, so a tier-1 run depends on the code alone
settings.register_profile("voltgrid", derandomize=True, database=None)
settings.load_profile("voltgrid")

# One line per acceptance criterion, echoed after the normal pytest summary
# so the pass/fail verdicts are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


START = dt.datetime(2019, 1, 1)


@dataclass
class Result:
    """One in-process CLI run: its exit code, what it printed to stdout
    (``output``) and stderr, and the exception that ended it, if any."""

    exit_code: int
    output: str
    stderr: str
    exception: BaseException | None
    exc_info: tuple | None


def invoke(args) -> Result:
    """Run ``voltgrid.cli.main(args)`` in-process with stdout and stderr
    captured. An exception other than SystemExit is recorded and reported as
    exit 1, so a crash is not mistaken for a usage error."""
    out, err, exc_info = io.StringIO(), io.StringIO(), None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
            exc_info = sys.exc_info() if code else None
        except Exception:
            code, exc_info = 1, sys.exc_info()
    return Result(code, out.getvalue(), err.getvalue(), exc_info and exc_info[1], exc_info)


def strict_json(path):
    """The file parsed as standard JSON: ``NaN`` and ``Infinity``, which
    Python's json module writes and reads by default, are errors."""
    def reject(name):
        raise ValueError(f"{path}: {name} is not standard JSON")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)


def assert_document_holds(doc, model):
    """``doc``, a parsed model document, states ``model``'s kind and params,
    and every tree array, weight, intercept, base score and feature name of
    the fitted model, bit for bit, and each tree node's children."""
    def same(values, array):
        array = np.asarray(array)
        assert np.asarray(values, dtype=array.dtype).tobytes() == array.tobytes()

    assert doc["format"] == FORMAT
    assert MODELS[doc["kind"]] is type(model)
    assert doc["params"] == model.get_params()
    assert doc["n_features"] == model.n_features_
    names = getattr(model, "feature_names_", None)
    assert doc.get("feature_names") == (None if names is None else list(names))
    if doc["kind"] == "lm":
        same(doc["weights"], model.weights_)
        same(doc["intercept"], float(model.intercept_))
    else:
        assert len(doc["trees"]) == len(model.trees_)
        for tree_doc, tree in zip(doc["trees"], model.trees_):
            assert tree_doc.keys() == {*RegressionTree.FIELDS, "left", "right"}
            for key in RegressionTree.FIELDS:
                same(tree_doc[key], getattr(tree, key))
            # level order: the split nodes' children are nodes 1, 2, 3, ... in pairs
            split = tree.feature >= 0
            left = np.full(tree.n_nodes, -1)
            left[split] = 1 + 2 * np.arange(split.sum())
            same(tree_doc["left"], left)
            same(tree_doc["right"], np.where(split, left + 1, -1))
    if doc["kind"] == "gbdt":
        same(doc["base_score"], float(model.base_score_))


def hourly(values, name="load", start=START):
    return TimeSeries(start, np.asarray(values, dtype=float), name=name)


def synthetic_load(n_hours, noise=500.0, seed=42, start=START):
    """Daily + weekly sinusoids on a 50 GW base with a working-day bump."""
    t = np.arange(n_hours)
    days = (np.datetime64(start, "s") + (t * 3600).astype("timedelta64[s]"))
    dow = (days.astype("datetime64[D]").astype(np.int64) + 3) % 7
    working = (dow < 5).astype(float)
    rng = np.random.default_rng(seed)
    values = (50000.0
              + 8000.0 * np.sin(2 * np.pi * t / 24)
              + 4000.0 * np.sin(2 * np.pi * t / 168)
              + 3000.0 * working
              + rng.normal(0.0, noise, n_hours))
    return TimeSeries(start, values, name="load")


@pytest.fixture
def opened(monkeypatch):
    """The paths of the files ``voltgrid.ioutil`` opens, in order."""
    paths = []

    def counting_open(file, *args, **kwargs):
        paths.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(ioutil, "open", counting_open, raising=False)
    return paths


@pytest.fixture
def load_frame():
    """Six weeks of synthetic hourly load, enough for all default lags."""
    return align_hourly([synthetic_load(6 * 168)])


def identity_kernel(value=1.0):
    return kernel_from_config({
        "n": 1,
        "K": [{"type": "const", "value": value}],
        "G": [{"type": "linear"}],
    })


def two_band_kernel(c1=0.5, k1=1.0, k2=2.0):
    return kernel_from_config({
        "n": 2,
        "alphas": {"type": "proportional", "c": [c1]},
        "K": [{"type": "const", "value": k1}, {"type": "const", "value": k2}],
        "G": [{"type": "linear"}, {"type": "linear"}],
    })
