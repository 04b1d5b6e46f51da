"""The library contract of the forecasters and the solver, drawn at random.

``make_model``, ``fit``, ``predict`` and ``model_to_dict`` of lm, rf and
gbdt take any value of their documented types: a model name, integer
``n_trees`` and ``seed``, float matrices and vectors of any shape and any
float values. Each call either raises ``DataError`` or returns a finite
result, and no numpy warning escapes.

``Grid``, ``kernel_from_config``, ``solve_apf`` and ``forward_apply`` take
any horizon and cell count, any kernel document whose objects hold the keys
they take with any numbers, and node values of any shape and any float
values. Each call raises ``DataError`` or ``SolverError`` or returns a
finite result, and no numpy warning escapes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voltgrid.errors import DataError, SolverError
from voltgrid.forecast.models import MODELS, make_model, model_to_dict
from voltgrid.volterra import Grid, forward_apply, kernel_from_config, solve_apf

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


def outcome(call, *args, errors=DataError):
    """``call(*args)`` with every warning an error: its result, or the
    exception of ``errors`` it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except errors as exc:
            return exc


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS + ["svm", ""]),
       st.sampled_from(BAD_INTEGERS) | st.integers(-3, 2**70),
       st.sampled_from(BAD_INTEGERS) | st.integers(-3, 2**70),
       st.booleans())
def test_make_model_builds_or_raises_data_error(name, n_trees, seed, via_params):
    params = {"n_trees": n_trees}
    if via_params:
        params["seed"] = seed
    if name == "lm":
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
    assert document_is_finite(model_to_dict(model))
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
        assert isinstance(outcome(model_to_dict, model), DataError)


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
