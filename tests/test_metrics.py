"""Error metric formulas."""

import numpy as np
import pytest

from voltgrid.errors import DataError
from voltgrid.forecast.validation import compute_metrics, mae_by_group


def test_worked_example_is_exact():
    m = compute_metrics([110.0, 190.0], [100.0, 200.0])
    assert m.rmse == 10.0
    assert m.mae == 10.0
    assert m.mape_percent == 7.5


def test_perfect_forecast_is_zero():
    m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (m.rmse, m.mae, m.mape_percent) == (0.0, 0.0, 0.0)


def test_rmse_dominates_mae():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 400))
        actual = rng.uniform(1.0, 100.0, n)
        predicted = actual + rng.normal(0.0, 5.0, n)
        m = compute_metrics(predicted, actual)
        assert m.rmse >= m.mae


def test_mape_undefined_for_nonpositive_actuals():
    assert compute_metrics([1.0, 1.0], [2.0, 0.0]).mape_percent is None
    assert compute_metrics([1.0], [-3.0]).mape_percent is None
    # rmse/mae still come back
    m = compute_metrics([1.0, 1.0], [2.0, 0.0])
    assert m.rmse == pytest.approx(1.0)


def test_shape_validation():
    with pytest.raises(DataError, match="equal-length"):
        compute_metrics([1.0, 2.0], [1.0])
    with pytest.raises(DataError, match="empty"):
        compute_metrics([], [])


@pytest.mark.parametrize("e", [700, -530])
def test_rmse_scales_with_its_errors_by_a_power_of_two(e):
    # the squares of errors past 2**512 overflowed, and those of errors
    # below 2**-537 underflowed to an RMSE of 0 with a positive MAE
    rng = np.random.default_rng(3)
    actual = rng.uniform(1.0, 100.0, 50)
    predicted = actual + rng.normal(0.0, 5.0, 50)
    plain = compute_metrics(predicted, actual)
    scaled = compute_metrics(np.ldexp(predicted, e), np.ldexp(actual, e))
    assert (scaled.rmse, scaled.mae) == (np.ldexp(plain.rmse, e), np.ldexp(plain.mae, e))
    assert scaled.mape_percent == plain.mape_percent


@pytest.mark.parametrize("predicted, actual, expected", [
    ([1.7e308], [1e307], (1.6e308, 1.6e308, 1600.0)),
    # an error of -2e308, past the maximum, in finite metrics
    ([-1e308, 1e308], [1e308, 2e307], (2.32 ** 0.5 * 1e308, 1.4e308, 300.0)),
])
def test_errors_past_a_hundredth_of_the_maximum_keep_finite_metrics(predicted, actual, expected):
    # |error| * 100 overflowed before the division by the actual value, and
    # an error itself where predicted and actual have opposite signs
    m = compute_metrics(predicted, actual)
    assert (m.rmse, m.mae, m.mape_percent) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("predicted, actual", [
    ([np.finfo(float).max], [-np.finfo(float).max]),  # the error is twice the maximum
    ([1.0], [1e-308]),  # so is the percentage
])
def test_a_metric_past_the_maximum_is_a_data_error(predicted, actual):
    with pytest.raises(DataError, match="^the metrics overflow: overflow encountered in ldexp$"):
        compute_metrics(predicted, actual)


def test_group_maes_are_the_groups_metrics():
    rng = np.random.default_rng(5)
    actual = rng.uniform(1.0, 100.0, 90)
    predicted = actual + rng.normal(0.0, 5.0, 90)
    groups = rng.integers(0, 4, 90)
    expected = [compute_metrics(predicted[groups == g], actual[groups == g]).mae for g in range(4)]
    assert mae_by_group(predicted, actual, groups, 5) == expected + [None]


@pytest.mark.parametrize("predicted, actual", [
    ([np.inf], [1.0]), ([np.nan], [1.0]), ([1.0, 2.0], [1.0, -np.inf]),
])
def test_non_finite_inputs_are_a_data_error(predicted, actual):
    # they gave inf or NaN metrics
    for metrics in (lambda: compute_metrics(predicted, actual),
                    lambda: mae_by_group(predicted, actual, np.zeros(len(actual), int), 1)):
        with pytest.raises(DataError, match="^metric inputs contain non-finite values$"):
            metrics()


def test_a_group_mae_past_the_maximum_is_a_data_error():
    # it ended in numpy's overflow warning
    top = np.finfo(float).max
    with pytest.raises(DataError, match="^the metrics overflow: overflow encountered in ldexp$"):
        mae_by_group([top, top], [-top, -top], [0, 0], 1)
