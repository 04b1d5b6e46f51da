"""Feature engineering for day-ahead load forecasting.

Every feature of a row targeting time t+H is computable from data at or
before the forecast origin t; the leakage test in the suite re-derives rows
from truncated history to hold this to bit-exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..ioutil import config_number
from ..timeseries import GRID_SERIES, AlignedFrame, calendar_arrays


LAGS = (1, 24, 168)  # hours of load history
EMA_PERIODS = (12, 24, 48, 168)  # hours


@dataclass(frozen=True)
class FeatureConfig:
    """The forecast horizon in hours. The layout is fixed: load, calendar,
    lags, previous-day stats and EMAs, then every frame column other than
    load, gen and res as a temperature station."""

    horizon: int = 24

    def __post_init__(self):
        object.__setattr__(self, "horizon", config_number(self.horizon, "forecast horizon",
                                                          integer=True))
        if self.horizon < 1:
            raise DataError(f"forecast horizon must be >= 1 hour, got {self.horizon}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Design matrix rows and their targets; ``target_rows`` gives each
    target's frame row, and the frame gives its time."""

    X: np.ndarray
    y: np.ndarray
    target_rows: np.ndarray
    feature_names: tuple


def _lag(v: np.ndarray, k: int) -> np.ndarray:
    """v shifted k steps into the future; the first k entries are NaN."""
    out = np.full(len(v), np.nan)
    if k < len(v):
        out[k:] = v[:-k]
    return out


def _ema(v: np.ndarray, period: int) -> np.ndarray:
    """Exponential moving average, smoothing 2/(period+1), seeded with v[0]."""
    beta = 2.0 / (period + 1.0)
    keep = 1.0 - beta
    # y[k] = (1-beta)*y[k-1] + beta*v[k], started from y[-1] = v[0]
    out = []
    prev = float(v[0])
    for vk in v.tolist():
        prev = keep * prev + beta * vk
        out.append(prev)
    return np.array(out)


def _previous_day_stats(v: np.ndarray, stamps: np.ndarray):
    """(mean, min) over all of day D-1, stamped on every sample of day D.
    The stamps are consecutive hours, so day d - days[0] is the d-th run."""
    day = stamps.astype("datetime64[D]").astype(np.int64)
    day -= day[0]
    starts = np.flatnonzero(np.diff(day, prepend=-1))
    counts = np.diff(starts, append=len(v))
    # day 0 has no previous day; day d takes the stats of run d - 1
    return [np.append(np.nan, per_day)[day]
            for per_day in (np.add.reduceat(v, starts) / counts, np.minimum.reduceat(v, starts))]


def build_feature_matrix(frame: AlignedFrame, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Assemble features at origin t for the load target at t+H.

    Calendar features describe the target hour; everything else (current
    load, lags, previous-day stats, EMAs, temperatures) is measured at the
    origin. Rows containing any NA are dropped.
    """
    if "load" not in frame.columns:
        raise DataError(f"frame has no 'load' column (have {sorted(frame.columns)})")
    load = np.asarray(frame.columns["load"], dtype=float)
    if not len(load):
        raise DataError("frame has no rows")
    if np.isnan(load).any():
        raise DataError(
            "column 'load' has gaps; the EMA recursion needs a "
            "complete history, fill or trim them first"
        )

    # row t targets row t + horizon; a horizon of n rows or more leaves none
    n = frame.n_rows
    horizon = min(config.horizon, n)
    stamps = frame.timestamps()
    target_stamps = stamps + np.timedelta64(horizon, "h")
    calendar = calendar_arrays(target_stamps, frame.holiday_calendar)
    prev_day_mean, prev_day_min = _previous_day_stats(load, stamps)
    columns: list[tuple[str, np.ndarray]] = [
        ("load", load),
        *((name, values.astype(float)) for name, values in calendar.items()),
        *((f"load_lag_{k}", _lag(load, k)) for k in LAGS),
        ("prev_day_mean", prev_day_mean),
        ("prev_day_min", prev_day_min),
        *((f"ema_{period}", _ema(load, period)) for period in EMA_PERIODS),
        *((name, values) for name, values in frame.columns.items() if name not in GRID_SERIES),
    ]

    X = np.column_stack([vals for _, vals in columns])[:n - horizon]
    y = load[horizon:]
    keep = np.all(np.isfinite(X), axis=1) & np.isfinite(y)
    return FeatureMatrix(
        X=np.ascontiguousarray(X[keep]),
        y=y[keep],
        target_rows=np.arange(horizon, n)[keep],
        feature_names=tuple(name for name, _ in columns),
    )
