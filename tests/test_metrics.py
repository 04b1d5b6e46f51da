"""Error metric formulas."""

import numpy as np
import pytest

from voltgrid.errors import DataError
from voltgrid.forecast.validation import compute_metrics


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
