"""Feature engineering: column content, row retention, and leakage.

Row semantics: ``target_rows[i]`` is the frame row of the forecast target, so
the forecast origin sits ``horizon`` rows earlier; origin-side features are
checked against that offset throughout.
"""

import datetime as dt

import numpy as np
import pytest

from voltgrid import AlignedFrame, DataError, TimeSeries, align_hourly, ema
from voltgrid.forecast import FeatureConfig, build_feature_matrix

from conftest import START, hourly, synthetic_load

DEFAULT_NAMES = (
    "load", "day_of_week", "hour_of_day", "is_working_day",
    "load_lag_1", "load_lag_24", "load_lag_168",
    "prev_day_mean", "prev_day_min",
    "ema_12", "ema_24", "ema_48", "ema_168",
)


class TestMatrixShape:
    def test_default_feature_names(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        assert matrix.feature_names == DEFAULT_NAMES
        assert matrix.X.shape[1] == 13

    def test_rows_require_full_history_and_target(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        # earliest origin needs a lag-168 value; targets run to the last row
        rows = matrix.target_rows
        assert rows.min() == 168 + 24
        assert rows.max() == load_frame.n_rows - 1
        assert matrix.X.shape[0] == len(rows) == load_frame.n_rows - 168 - 24

    def test_no_nan_in_retained_rows(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        assert np.isfinite(matrix.X).all()
        assert np.isfinite(matrix.y).all()

    def test_temperature_column_appended(self):
        load = synthetic_load(400)
        temp = TimeSeries(START, np.linspace(-5, 20, 400), name="t_station")
        frame = align_hourly([load, temp])
        matrix = build_feature_matrix(frame)
        assert matrix.feature_names[-1] == "t_station"
        assert matrix.X.shape[1] == 14
        # temperature enters at the forecast origin, not the target hour
        k = matrix.feature_names.index("t_station")
        origins = matrix.target_rows - matrix.horizon
        np.testing.assert_array_equal(matrix.X[:, k],
                                      frame.columns["t_station"][origins])

    def test_missing_load_column_rejected(self):
        frame = align_hourly([hourly(np.ones(300), name="gen")])
        with pytest.raises(DataError, match="load"):
            build_feature_matrix(frame)

    def test_nan_load_rejected(self):
        values = np.ones(300)
        values[5] = np.nan
        frame = align_hourly([hourly(values, name="load")])
        with pytest.raises(DataError, match="complete"):
            build_feature_matrix(frame)

    def test_too_short_frame_yields_no_rows(self):
        frame = align_hourly([hourly(np.ones(100), name="load")])
        matrix = build_feature_matrix(frame)
        assert matrix.n_rows == 0


class TestColumnContent:
    def test_target_is_load_at_target_row(self, load_frame):
        matrix = build_feature_matrix(load_frame, FeatureConfig(horizon=24))
        load = load_frame.columns["load"]
        np.testing.assert_array_equal(matrix.y, load[matrix.target_rows])

    def test_timestamps_are_target_times(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        stamps = load_frame.timestamps()
        np.testing.assert_array_equal(matrix.timestamps,
                                      stamps[matrix.target_rows])

    def test_current_load_is_at_origin(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        load = load_frame.columns["load"]
        origins = matrix.target_rows - matrix.horizon
        k = matrix.feature_names.index("load")
        np.testing.assert_array_equal(matrix.X[:, k], load[origins])

    def test_lag_columns(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        load = load_frame.columns["load"]
        origins = matrix.target_rows - matrix.horizon
        for lag_hours in (1, 24, 168):
            k = matrix.feature_names.index(f"load_lag_{lag_hours}")
            np.testing.assert_array_equal(matrix.X[:, k], load[origins - lag_hours])

    def test_ema_columns_match_transform(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        origins = matrix.target_rows - matrix.horizon
        for period in (12, 24, 48, 168):
            k = matrix.feature_names.index(f"ema_{period}")
            expected = ema(load_frame.column("load"), period).values[origins]
            np.testing.assert_array_equal(matrix.X[:, k], expected)

    def test_calendar_is_for_target_hour(self, load_frame):
        matrix = build_feature_matrix(load_frame, FeatureConfig(horizon=24))
        k_hour = matrix.feature_names.index("hour_of_day")
        k_dow = matrix.feature_names.index("day_of_week")
        stamps = matrix.timestamps
        days = stamps.astype("datetime64[D]")
        np.testing.assert_array_equal(matrix.X[:, k_dow],
                                      (days.astype(np.int64) + 3) % 7)
        np.testing.assert_array_equal(
            matrix.X[:, k_hour],
            (stamps - days).astype("timedelta64[h]").astype(np.int64))

    def test_holiday_affects_working_day_feature(self):
        load = synthetic_load(3 * 168)
        plain = align_hourly([load])
        with_holiday = plain.with_holidays({dt.date(2019, 1, 9)})
        k = DEFAULT_NAMES.index("is_working_day")
        m_plain = build_feature_matrix(plain)
        m_hol = build_feature_matrix(with_holiday)
        # targets on 2019-01-09 flip from working to holiday
        stamps = m_plain.timestamps.astype("datetime64[D]")
        on_holiday = stamps == np.datetime64("2019-01-09")
        assert on_holiday.any()
        assert (m_plain.X[on_holiday, k] == 1.0).all()
        assert (m_hol.X[on_holiday, k] == 0.0).all()
        off = ~on_holiday
        np.testing.assert_array_equal(m_plain.X[off, k], m_hol.X[off, k])


class TestSelectAndConfig:
    def test_config_toggles(self, load_frame):
        matrix = build_feature_matrix(load_frame, FeatureConfig(
            include_calendar=False, include_prev_day=False,
            lags=(1,), ema_periods=()))
        assert matrix.feature_names == ("load", "load_lag_1")

    def test_horizon_one(self, load_frame):
        matrix = build_feature_matrix(load_frame, FeatureConfig(horizon=1))
        load = load_frame.columns["load"]
        np.testing.assert_array_equal(matrix.y, load[matrix.target_rows])
        k = matrix.feature_names.index("load")
        np.testing.assert_array_equal(matrix.X[:, k],
                                      load[matrix.target_rows - 1])

    def test_bad_horizon(self, load_frame):
        with pytest.raises(DataError, match="horizon"):
            build_feature_matrix(load_frame, FeatureConfig(horizon=0))


class TestLeakage:
    def test_future_values_do_not_reach_features(self, load_frame):
        """Rewriting everything after the forecast origin must leave the
        feature row bit-identical; only the label may change."""
        matrix = build_feature_matrix(load_frame)
        rng = np.random.default_rng(0)
        targets = rng.choice(matrix.target_rows, size=25, replace=False)
        for r in targets:
            origin = r - matrix.horizon
            tampered = dict(load_frame.columns)
            load = tampered["load"].copy()
            load[origin + 1:] = rng.uniform(1.0, 2.0, len(load) - origin - 1)
            tampered["load"] = load
            frame2 = AlignedFrame(start=load_frame.start, step=load_frame.step,
                                  columns=tampered,
                                  holiday_calendar=load_frame.holiday_calendar)
            matrix2 = build_feature_matrix(frame2)
            i1 = int(np.flatnonzero(matrix.target_rows == r)[0])
            i2 = int(np.flatnonzero(matrix2.target_rows == r)[0])
            assert (matrix.X[i1] == matrix2.X[i2]).all()
            assert matrix.timestamps[i1] == matrix2.timestamps[i2]
