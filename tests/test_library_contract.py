"""The library contract of the series, the forecasters, the solver and the
dispatch, drawn at random.

``TimeSeries``, ``align_hourly`` and ``read_series`` take any start time,
values, step and name, and any CSV text of timestamps and values. Each call
either raises ``DataError`` or returns hourly series whose times are
datetimes.

``make_model``, ``fit``, ``predict``, ``save_model`` and
``block_cross_validate`` take any value of their documented types: a model
name, integer ``n_trees``, ``seed``, ``n_blocks``, ``validation_tail`` and
horizon, float matrices and vectors of any shape and any float values.
Each call either raises ``DataError`` or returns a finite result, and no
numpy warning escapes; ``save_model`` writes a document only for a fitted
forecaster.

``Grid``, ``kernel_from_config``, ``solve_apf`` and ``forward_apply`` take
any horizon and cell count, any kernel document whose objects hold the keys
they take with any numbers, and node values of any shape and any float
values. Each call raises ``DataError`` or ``SolverError`` or returns a
finite result, and no numpy warning escapes. So does ``dispatch`` for any
three series, kernel, storage values and grid.
"""

import json
import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voltgrid.errors import DataError, SolverError
from voltgrid.forecast import validation
from voltgrid.forecast.features import FeatureConfig
from voltgrid.forecast.models import MODELS, RegressionTree, make_model, save_model
from voltgrid.forecast.validation import block_cross_validate
from voltgrid.storage import StorageSpec, dispatch
from voltgrid.timeseries import SECONDS_PER_HOUR, TimeSeries, align_hourly, read_series
from voltgrid.volterra import Grid, forward_apply, kernel_from_config, solve_apf

from conftest import assert_document_holds, synthetic_load

KINDS = sorted(MODELS)
BIG = float(np.finfo(float).max)
TINY = float(np.finfo(float).smallest_subnormal)

# the values a draw's cells come from: ordinary, subnormal, near the float
# maximum, or all of them at once
REGIMES = {
    "plain": st.floats(-1e3, 1e3),
    "subnormal": st.sampled_from([0.0, TINY, -TINY, 7 * TINY, 1e-310, -2e-308]),
    "huge": st.floats(1e306, BIG) | st.floats(-BIG, -1e306),
}
REGIMES["mixed"] = st.one_of(*REGIMES.values())
POISON = [np.nan, np.inf, -np.inf]
# integer parameters of the wrong type or value, and right ones
BAD_INTEGERS = [2.5, float("nan"), float("inf"), True, False, "3", None, -1, 0]


@st.composite
def matrices(draw, rows, cols):
    """A float array of ``rows`` x ``cols`` cells of one regime, at times
    poisoned with one NaN or inf, at times reshaped to 0, 1 or 3 dims."""
    n, p = draw(rows), draw(cols)
    X = draw(arrays(float, (n, p), elements=REGIMES[draw(st.sampled_from(list(REGIMES)))]))
    if X.size and draw(st.booleans()):
        X.flat[draw(st.integers(0, X.size - 1))] = draw(st.sampled_from(POISON))
    shape = draw(st.sampled_from(["matrix"] * 6 + ["scalar", "vector", "cube"]))
    if shape == "scalar":
        return X.ravel()[:1].reshape(()) if X.size else np.float64(1.0)
    if shape == "vector":
        return X.ravel()
    if shape == "cube":
        return X.reshape(1, *X.shape)
    return X


def vectors(n):
    return arrays(float, n, elements=REGIMES["mixed"] | st.sampled_from(POISON))


def finite(array) -> bool:
    return bool(np.all(np.isfinite(array)))


def document_is_finite(doc) -> bool:
    """Every float in a model document, however nested, is finite."""
    if isinstance(doc, dict):
        return all(document_is_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(document_is_finite(v) for v in doc)
    return not isinstance(doc, float) or np.isfinite(doc)


def outcome(call, *args, errors=DataError, **kwargs):
    """``call(*args, **kwargs)`` with every warning an error: its result, or
    the exception of ``errors`` it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except errors as exc:
            return exc


def saved_document(model):
    """``save_model(model)`` into a temporary directory: the document it
    wrote, parsed, or the DataError it raised, having written nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        error = outcome(save_model, model, path)
        if error is not None:
            assert not path.exists()
            return error
        return json.loads(path.read_text(encoding="utf-8"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS + ["svm", ""]),
       st.sampled_from(BAD_INTEGERS) | st.integers(-3, 2**70),
       st.sampled_from(BAD_INTEGERS) | st.integers(-3, 2**70),
       st.booleans())
def test_make_model_builds_or_raises_data_error(name, n_trees, seed, via_params):
    params = {"n_trees": n_trees}
    if via_params:
        params["seed"] = seed
    if name == "lm" and not via_params:  # a parameter lm does not take, or none
        params = {}
    model = outcome(make_model, name, params, seed)
    assert isinstance(model, DataError) or isinstance(model, MODELS[name])


@pytest.mark.parametrize("kind", ["rf", "gbdt"])
@pytest.mark.parametrize("key, value", [("seed", 2.5), ("seed", float("nan")),
                                        ("seed", True), ("n_trees", True)])
def test_a_non_integer_parameter_is_a_data_error(kind, key, value):
    # a float seed passed the gate and made numpy raise a TypeError in fit
    with pytest.raises(DataError, match=f"^{key} must be an integer, got {value!r}$"):
        MODELS[kind](**{key: value})


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(KINDS), matrices(st.integers(0, 40), st.integers(0, 6)),
       st.data())
def test_fit_then_predict_is_finite_or_data_error(kind, X, data):
    n = len(X) if X.ndim else 0
    y = data.draw(vectors(data.draw(st.sampled_from([n, n, n, max(n - 1, 0), n + 1]))))
    model = make_model(kind, {} if kind == "lm" else {"n_trees": 2},
                       seed=data.draw(st.integers(0, 2**32 - 1)))
    fitted = outcome(model.fit, X, y)
    if isinstance(fitted, DataError):
        return
    assert fitted is model
    doc = saved_document(model)
    assert isinstance(doc, dict) and document_is_finite(doc)
    predicted = outcome(model.predict, X)
    if not isinstance(predicted, DataError):
        assert predicted.shape == (len(X),) and finite(predicted)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 5))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + rng.normal(size=60)
    return {kind: make_model(kind, {} if kind == "lm" else {"n_trees": 3}).fit(X, y)
            for kind in KINDS}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.booleans(),
       matrices(st.integers(0, 8), st.sampled_from([5, 5, 4, 0])))
def test_predict_is_finite_or_data_error(fitted, kind, is_fitted, X):
    model = fitted[kind] if is_fitted else make_model(kind)
    predicted = outcome(model.predict, X)
    if not isinstance(predicted, DataError):
        assert predicted.shape == (len(X),) and finite(predicted)
    if not is_fitted:
        assert isinstance(predicted, DataError)
        assert isinstance(saved_document(model), DataError)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prediction_rejects_non_finite_input(fitted, kind, bad):
    # predict returned NaN for a NaN row, where fit rejects one
    X = np.zeros((2, 5))
    X[1, 3] = bad
    with pytest.raises(DataError, match="^prediction data contains non-finite values$"):
        fitted[kind].predict(X)


# --- the solver ---------------------------------------------------------------

SOLVER_ERRORS = (DataError, SolverError)
ANY_FLOAT = REGIMES["mixed"] | st.sampled_from(POISON)
# cell counts a grid may take, and ones it must refuse; none allocates much
CELL_COUNTS = st.integers(-3, 24) | st.sampled_from([True, False, np.int64(6), 2.0, 2**70])


@settings(max_examples=150, deadline=None)
@given(ANY_FLOAT | st.floats(1e-3, 1e3), CELL_COUNTS)
def test_grid_builds_or_raises_data_error(horizon, n_cells):
    grid = outcome(Grid, horizon, n_cells)
    if not isinstance(grid, DataError):
        nodes = outcome(grid.nodes)
        assert nodes.shape == (grid.n_cells + 1,) and finite(nodes)
        assert nodes[0] == 0.0 and nodes[-1] == horizon


def fractions(n):
    """n strictly increasing floats in (0, 1), some next to either end."""
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    edges = st.sampled_from([TINY, 1e-300, 2**-52, 0.5, 1 - 2**-53, 1 - 2**-52])
    return st.lists(inner | edges, min_size=n, max_size=n, unique=True).map(sorted)


def mostly(draw, plausible, hostile=ANY_FLOAT):
    """A draw from ``plausible`` 7 times in 8, from ``hostile`` otherwise."""
    return draw(hostile if draw(st.integers(0, 7)) == 0 else plausible)


@st.composite
def kernel_docs(draw):
    """A well-typed kernel document: each object holds the keys it takes,
    and any number may come from any regime, NaN and inf included."""
    def number():
        return mostly(draw, st.floats(0.0, 3.0))

    n = draw(st.integers(1, 3))
    doc = {"n": n}
    if n > 1:
        cs = draw(fractions(n - 1))
        if draw(st.booleans()):
            doc["alphas"] = {"type": "proportional", "c": cs}
        else:
            top = mostly(draw, st.floats(1.0, 1e3))
            doc["alphas"] = {"type": "table", "t": [0.0, top],
                             "alpha": [[0.0, c * top] for c in cs]}
    doc["K"] = [{"type": "const", "value": number()} if draw(st.booleans())
                else {"type": "exp_decay", "value": number(), "rate": number()}
                for _ in range(n)]
    doc["G"] = [{"type": "linear"} if draw(st.booleans())
                else {"type": "cubic", "a": number(), "b": number()}
                for _ in range(n)]
    if draw(st.booleans()):
        doc["kernel_floor"] = mostly(draw, st.floats(1e-12, 1e-3))
    return doc


def node_values(data, grid, f_zero: bool):
    """Node values for ``grid`` of one regime, at times of a wrong length,
    poisoned or (``f_zero``) not starting at zero."""
    n = data.draw(st.sampled_from([grid.n_cells + 1] * 6 + [grid.n_cells, grid.n_cells + 2, 0]))
    values = data.draw(arrays(float, n, elements=REGIMES[data.draw(st.sampled_from(list(REGIMES)))]))
    if n and f_zero and data.draw(st.integers(0, 9)):
        values[0] = 0.0
    if n and not data.draw(st.integers(0, 4)):
        values[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(POISON))
    return values


@settings(max_examples=300, deadline=None)
@given(kernel_docs(), st.integers(2, 12), st.data())
def test_the_solver_is_finite_or_raises_a_package_error(doc, n_cells, data):
    kernel = outcome(kernel_from_config, doc)
    grid = outcome(Grid, mostly(data.draw, st.floats(1e-3, 1e3)), n_cells)
    if isinstance(kernel, DataError) or isinstance(grid, DataError):
        return
    f = node_values(data, grid, f_zero=True)
    solved = outcome(solve_apf, kernel, grid, f, errors=SOLVER_ERRORS)
    if not isinstance(solved, SOLVER_ERRORS):
        assert solved.x.shape == (n_cells + 1,) and finite(solved.x)
        assert np.isfinite(solved.residual)
    x = node_values(data, grid, f_zero=False)
    applied = outcome(forward_apply, kernel, grid, x, errors=SOLVER_ERRORS)
    if not isinstance(applied, SOLVER_ERRORS):
        assert applied.shape == (n_cells + 1,) and finite(applied)


# --- the series ---------------------------------------------------------------

# times next to either end of the datetime range, and UTC offsets that push
# them past it
EDGES = ([datetime.min + timedelta(hours=k) for k in range(3)]
         + [datetime.max - timedelta(hours=k) for k in range(3)])
ZONES = [None, None, timezone.utc, timezone(timedelta(hours=14)), timezone(timedelta(hours=-12))]


@st.composite
def start_times(draw):
    """Any datetime, often next to either end of the range, naive or with a
    UTC offset."""
    start = draw(st.sampled_from(EDGES) | st.datetimes())
    return start.replace(tzinfo=draw(st.sampled_from(ZONES)))


@settings(max_examples=200, deadline=None)
@given(start_times(), arrays(float, st.sampled_from([(), (0,), (1,), (2,), (5,), (2, 2)]),
                             elements=ANY_FLOAT),
       st.sampled_from([SECONDS_PER_HOUR] * 6 + [60.0, 0.0, -SECONDS_PER_HOUR, np.nan]),
       st.text(max_size=3), start_times())
def test_a_series_builds_and_aligns_or_raises_data_error(start, values, step, name, other_start):
    series = outcome(TimeSeries, start, values, step, name)
    if isinstance(series, DataError):
        return
    assert series.start.tzinfo is None and series.values.ndim == 1
    if len(series):
        assert series.end - series.start == timedelta(hours=len(series) - 1)
    other = outcome(TimeSeries, other_start, np.ones(3), name=name + "'")
    for group in [[series]] + ([] if isinstance(other, DataError) else [[series, other]]):
        frame = outcome(align_hourly, group)
        if not isinstance(frame, DataError):
            assert frame.n_rows >= 1 and frame.start >= series.start
            assert frame.column(name).end == frame.start + timedelta(hours=frame.n_rows - 1)


@st.composite
def csv_texts(draw):
    """A CSV file of a timestamp and a value column: stamps within hours of
    any time, at times off the hour, repeated, out of order or with a UTC
    offset, and values of any regime, NA or not numbers."""
    base = draw(st.sampled_from(EDGES) | st.datetimes()).replace(minute=0, second=0, microsecond=0)
    rows = ["timestamp,value"]
    for _ in range(draw(st.integers(1, 6))):
        minutes = 60 * draw(st.integers(-3, 3)) + draw(st.sampled_from([0] * 5 + [30]))
        try:
            stamp = base + timedelta(minutes=minutes)
        except OverflowError:
            continue
        zone = draw(st.sampled_from(["", "", "Z", "+14:00", "-12:00"]))
        value = draw(REGIMES["mixed"].map(repr) | st.sampled_from(["NA", "", "abc", "1e999"]))
        rows.append(f"{stamp.isoformat()}{zone},{value}")
    return "\n".join(rows) + "\n"


@settings(max_examples=200, deadline=None)
@given(csv_texts(), st.sampled_from([None, None, None, "%Y-%m-%dT%H:%M:%S"]))
def test_read_series_reads_hourly_series_or_raises_data_error(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_text(text, encoding="utf-8")
        read = outcome(read_series, [("load", path), ("gen", path)], lambda name: ("value",),
                       timestamp_format=fmt)
    if not isinstance(read, DataError):
        load, gen = read
        assert load.start == gen.start and load.end >= load.start
        assert not np.isinf(load.values).any()
        np.testing.assert_array_equal(load.values, gen.values)


# --- the forecast harness -----------------------------------------------------

def seldom(data, plausible, hostile):
    """A draw from ``hostile`` one time in 8, from ``plausible`` otherwise."""
    return data.draw(data.draw(st.sampled_from([plausible] * 7 + [hostile])))


def an_integer(data, plausible):
    """A draw from ``plausible``, or one time in 8 a wrong integer parameter."""
    return seldom(data, plausible, st.sampled_from(BAD_INTEGERS + [2**70]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS * 3 + ["svm"]), st.integers(24 * 30, 24 * 33), st.data())
def test_block_cross_validate_is_finite_or_data_error(name, rows, data):
    values = synthetic_load(rows).values * seldom(data, st.just(1.0),
                                                  st.sampled_from([1e300, 1e-310]))
    if seldom(data, st.just(False), st.just(True)):
        values[data.draw(st.integers(0, rows - 1))] = data.draw(st.sampled_from(POISON))
    frame = align_hourly([TimeSeries(synthetic_load(1).start, values, name="load")])
    trees = {} if name == "lm" else {"n_trees": seldom(data, st.integers(1, 3),
                                                       st.sampled_from(BAD_INTEGERS))}
    params = seldom(data, st.just(trees), st.sampled_from([{"n_trees": 2}, {"depth": 3}]))
    config = outcome(FeatureConfig, an_integer(data, st.integers(1, 48)))
    if isinstance(config, DataError):
        return
    # one worker: the forked schedule has tests of its own
    with mock.patch.object(validation, "_available_cores", lambda: 1):
        report = outcome(block_cross_validate, name, frame, an_integer(data, st.integers(2, 3)),
                         an_integer(data, st.integers(24, 72)), params=params, config=config,
                         seed=an_integer(data, st.integers(0, 9)))
    if not isinstance(report, DataError):
        assert finite(report.predicted)
        assert_document_holds(saved_document(report.final_model), report.final_model)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(["fitted", "unfitted", "tree", "other"]),
       st.booleans())
def test_save_model_writes_only_a_fitted_forecaster(fitted, kind, what, named):
    model = {"fitted": fitted[kind], "unfitted": make_model(kind),
             "tree": RegressionTree([-1], [0.0], [1.0]), "other": kind}[what]
    doc = saved_document(model)
    if what != "fitted":
        assert isinstance(doc, DataError)
        return
    assert_document_holds(doc, model)


# --- the dispatch -------------------------------------------------------------

STORAGE_VALUES = {
    "v_max": st.floats(0.1, 1e3) | st.just(np.inf), "e_min": st.floats(-1e3, 0.0),
    "e_max": st.floats(0.0, 1e3), "efficiency": st.floats(0.5, 1.0),
    "rated_cycles": st.integers(1, 10**4), "e_init": st.floats(-5.0, 5.0),
    "interpretation": st.sampled_from(["literal", "power"]),
}


# kernels that solve most right-hand sides
PLAIN_KERNELS = [
    {"n": 1, "K": [{"type": "const", "value": 0.92}], "G": [{"type": "linear"}]},
    {"n": 2, "alphas": {"type": "proportional", "c": [0.5]},
     "K": [{"type": "exp_decay", "value": 0.9, "rate": 0.1}, {"type": "const", "value": 0.95}],
     "G": [{"type": "cubic", "a": 1.0, "b": 0.05}, {"type": "linear"}]},
]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.data())
def test_dispatch_is_finite_or_raises_a_package_error(n_cells, data):
    kernel = outcome(kernel_from_config, seldom(data, st.sampled_from(PLAIN_KERNELS), kernel_docs()))
    values = {key: data.draw(plausible) for key, plausible in STORAGE_VALUES.items()}
    if seldom(data, st.just(False), st.just(True)):  # one value of any type
        values[data.draw(st.sampled_from(sorted(values)))] = data.draw(
            ANY_FLOAT | st.booleans() | st.integers(-2, 2) | st.text(max_size=2))
    spec = outcome(StorageSpec, **values)
    grid = outcome(Grid, seldom(data, st.just(float(n_cells)), ANY_FLOAT), n_cells)
    if any(isinstance(made, DataError) for made in (kernel, spec, grid)):
        return
    # three series of one regime, at times of a wrong length or start, or poisoned
    start = synthetic_load(1).start
    lengths = seldom(data, st.just([n_cells + 1] * 3),
                     st.lists(st.integers(n_cells, n_cells + 2), min_size=3, max_size=3))
    regime = REGIMES[seldom(data, st.just("plain"), st.sampled_from(list(REGIMES)))]
    series = [TimeSeries(start, data.draw(arrays(float, length, elements=regime)), name=name)
              for name, length in zip(("res", "gen", "load"), lengths)]
    if seldom(data, st.just(False), st.just(True)):
        series[0] = TimeSeries(start + timedelta(hours=1), series[0].values, name="res")
    if seldom(data, st.just(False), st.just(True)):
        series[2].values[-1] = data.draw(st.sampled_from(POISON))
    report = outcome(dispatch, *series, kernel, spec, grid, errors=SOLVER_ERRORS,
                     soc_efficiency=data.draw(st.booleans()))
    if not isinstance(report, SOLVER_ERRORS):
        assert finite(report.x) and finite(report.v) and finite(report.E)
        assert finite([report.residual, report.min_capacity, report.max_abs_power,
                       report.equivalent_cycles]) and report.lifetime_horizons > 0
        assert finite(report.violations.magnitude) and np.all(report.violations.magnitude > 0)
