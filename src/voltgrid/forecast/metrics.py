"""Forecast error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class Metrics:
    """rmse/mae in target units; mape_percent is None when any actual value
    is not strictly positive (the percentage is undefined there)."""

    rmse: float
    mae: float
    mape_percent: float | None


def compute_metrics(predicted, actual) -> Metrics:
    """RMSE, MAE, and MAPE of predictions against real values.

    MAPE averages |error| * 100 / actual per sample, so integer-friendly
    inputs stay exact (the (110,190) vs (100,200) oracle is 7.5 on the nose).
    """
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise DataError(f"metric inputs must be equal-length vectors, got "
                        f"{predicted.shape} vs {actual.shape}")
    if len(predicted) == 0:
        raise DataError("cannot compute metrics of an empty sample")
    err = predicted - actual
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    if np.all(actual > 0.0):
        mape = float(np.mean(np.abs(err) * 100.0 / actual))
    else:
        mape = None
    return Metrics(rmse=rmse, mae=mae, mape_percent=mape)
