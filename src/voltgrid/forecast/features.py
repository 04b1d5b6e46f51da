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


@dataclass(frozen=True)
class FeatureConfig:
    """Feature toggles around the default 14-column layout.

    ``temperature_columns=None`` picks up every non-load column in the frame;
    pass an empty tuple to drop temperatures entirely.
    """

    horizon: int = 24
    load_column: str = "load"
    lags: tuple = (1, 24, 168)
    ema_periods: tuple = (12, 24, 48, 168)
    include_calendar: bool = True
    include_prev_day: bool = True
    temperature_columns: tuple | None = None

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
    if config.load_column not in frame.columns:
        raise DataError(
            f"frame has no {config.load_column!r} column (have {sorted(frame.columns)})"
        )
    load = frame.column(config.load_column)
    if np.isnan(load.values).any():
        raise DataError(
            f"column {config.load_column!r} has gaps; the EMA recursion needs a "
            "complete history, fill or trim them first"
        )

    horizon = config.horizon
    columns: list[tuple[str, np.ndarray]] = [(config.load_column, load.values)]

    if config.include_calendar:
        target_stamps = frame.timestamps() + np.timedelta64(int(horizon * SECONDS_PER_HOUR), "s")
        cal = calendar_arrays(target_stamps, frame.holiday_calendar)
        for name in ("day_of_week", "hour_of_day", "is_working_day"):
            columns.append((name, cal[name].astype(float)))

    for k in config.lags:
        columns.append((f"{config.load_column}_lag_{k}", lag(load, k).values))
    if config.include_prev_day:
        columns.append(("prev_day_mean", previous_day_stats(load, "mean").values))
        columns.append(("prev_day_min", previous_day_stats(load, "min").values))
    for period in config.ema_periods:
        columns.append((f"ema_{period}", ema(load, period).values))

    temp_names = config.temperature_columns
    if temp_names is None:
        temp_names = tuple(name for name in frame.columns if name != config.load_column)
    for name in temp_names:
        if name not in frame.columns:
            raise DataError(f"temperature column {name!r} not in frame")
        columns.append((name, frame.columns[name]))

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
