"""Feature engineering for day-ahead load forecasting.

Every feature of a row targeting time t+H is computable from data at or
before the forecast origin t; the leakage test in the suite re-derives rows
from truncated history to hold this to bit-exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..timeseries import (SECONDS_PER_HOUR, AlignedFrame, calendar_arrays, ema, lag,
                          previous_day_stats)


LAGS = (1, 24, 168)  # hours of load history
EMA_PERIODS = (12, 24, 48, 168)  # hours


@dataclass(frozen=True)
class FeatureConfig:
    """The forecast horizon in hours. The layout is fixed: load, calendar,
    lags, previous-day stats and EMAs, then every other frame column as a
    temperature station."""

    horizon: int = 24

    def __post_init__(self):
        if self.horizon < 1:
            raise DataError(f"forecast horizon must be >= 1 hour, got {self.horizon}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Design matrix rows aligned with their target time and frame row."""

    X: np.ndarray
    y: np.ndarray
    timestamps: np.ndarray
    target_rows: np.ndarray
    feature_names: tuple
    horizon: int

    @property
    def n_rows(self) -> int:
        return len(self.y)


def build_feature_matrix(frame: AlignedFrame, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Assemble features at origin t for the load target at t+H.

    Calendar features describe the target hour; everything else (current
    load, lags, previous-day stats, EMAs, temperatures) is measured at the
    origin. Rows containing any NA are dropped.
    """
    if "load" not in frame.columns:
        raise DataError(f"frame has no 'load' column (have {sorted(frame.columns)})")
    load = frame.column("load")
    if np.isnan(load.values).any():
        raise DataError(
            "column 'load' has gaps; the EMA recursion needs a "
            "complete history, fill or trim them first"
        )

    horizon = config.horizon
    target_stamps = frame.timestamps() + np.timedelta64(int(horizon * SECONDS_PER_HOUR), "s")
    calendar = calendar_arrays(target_stamps, frame.holiday_calendar)
    columns: list[tuple[str, np.ndarray]] = [
        ("load", load.values),
        *((name, values.astype(float)) for name, values in calendar.items()),
        *((f"load_lag_{k}", lag(load, k).values) for k in LAGS),
        ("prev_day_mean", previous_day_stats(load, "mean").values),
        ("prev_day_min", previous_day_stats(load, "min").values),
        *((f"ema_{period}", ema(load, period).values) for period in EMA_PERIODS),
        *((name, values) for name, values in frame.columns.items() if name != "load"),
    ]

    n = frame.n_rows
    n_targets = max(0, n - horizon)
    X = np.column_stack([vals for _, vals in columns])[:n_targets] if n_targets else \
        np.empty((0, len(columns)))
    y = load.values[horizon:]
    stamps = frame.timestamps()[horizon:]
    target_rows = np.arange(horizon, n)

    keep = np.all(np.isfinite(X), axis=1) & np.isfinite(y)
    return FeatureMatrix(
        X=np.ascontiguousarray(X[keep]),
        y=y[keep],
        timestamps=stamps[keep],
        target_rows=target_rows[keep],
        feature_names=tuple(name for name, _ in columns),
        horizon=horizon,
    )
