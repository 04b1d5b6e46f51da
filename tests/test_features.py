"""Feature engineering: column content, row retention, and leakage.

Row semantics: ``target_rows[i]`` is the frame row of the forecast target, so
the forecast origin sits ``horizon`` rows earlier and the target time is the
frame's time at that row; origin-side features are checked against that
offset throughout.
"""

import datetime as dt

import numpy as np
import pytest

from voltgrid.errors import DataError
from voltgrid.forecast.features import (FeatureConfig, _ema, _lag, _previous_day_stats,
                                        build_feature_matrix)
from voltgrid.timeseries import AlignedFrame, TimeSeries, align_hourly

from conftest import START, hourly, synthetic_load

def ema_reference(values, period):
    """The EMA recursion written out: y[k] = beta*v[k] + (1-beta)*y[k-1]."""
    beta = 2.0 / (period + 1)
    out = np.empty_like(values)
    prev = values[0]  # y[-1] = v[0], so y[0] = v[0] up to rounding
    for i in range(len(values)):
        out[i] = prev = beta * values[i] + (1 - beta) * prev
    return out


HORIZON = FeatureConfig().horizon
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
        origins = matrix.target_rows - HORIZON
        np.testing.assert_array_equal(matrix.X[:, k],
                                      frame.columns["t_station"][origins])

    def test_generation_columns_are_not_features(self):
        # ingest's gen and res columns are not temperature stations
        others = [TimeSeries(START, np.linspace(-5, 20, 400), name=name)
                  for name in ("gen", "res", "t_station")]
        matrix = build_feature_matrix(align_hourly([synthetic_load(400), *others]))
        assert not {"gen", "res"} & set(matrix.feature_names)
        assert matrix.feature_names[-1] == "t_station"
        assert matrix.X.shape[1] == 14

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

    def test_empty_frame_rejected(self):
        frame = AlignedFrame(START, {"load": np.array([])})
        with pytest.raises(DataError, match="no rows"):
            build_feature_matrix(frame)

    def test_too_short_frame_yields_no_rows(self):
        frame = align_hourly([hourly(np.ones(100), name="load")])
        matrix = build_feature_matrix(frame)
        assert matrix.X.shape == (0, 13) and len(matrix.y) == len(matrix.target_rows) == 0

    @pytest.mark.parametrize("horizon", [400, 2**62, 2**70])
    def test_a_horizon_past_the_frame_yields_no_rows(self, horizon):
        # a horizon past numpy's datetime64 offsets raised OverflowError
        matrix = build_feature_matrix(align_hourly([hourly(np.ones(400), name="load")]),
                                      FeatureConfig(horizon))
        assert matrix.X.shape == (0, 13) and len(matrix.y) == len(matrix.target_rows) == 0

    @pytest.mark.parametrize("horizon, message", [
        (2.5, "forecast horizon must be an integer, got 2.5"),
        (True, "forecast horizon must be an integer, got True"),
        ("24", "forecast horizon must be an integer, got '24'"),
        (0, r"forecast horizon must be >= 1 hour, got 0"),
    ])
    def test_horizon_is_a_positive_integer(self, horizon, message):
        # a fractional horizon ended in numpy's ValueError
        with pytest.raises(DataError, match=f"^{message}$"):
            FeatureConfig(horizon)

    def test_an_integral_float_horizon_is_an_int(self):
        assert FeatureConfig(24.0) == FeatureConfig(24) and type(FeatureConfig(24.0).horizon) is int


class TestColumnContent:
    def test_target_is_load_at_target_row(self, load_frame):
        matrix = build_feature_matrix(load_frame, FeatureConfig(horizon=24))
        load = load_frame.columns["load"]
        np.testing.assert_array_equal(matrix.y, load[matrix.target_rows])

    def test_current_load_is_at_origin(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        load = load_frame.columns["load"]
        origins = matrix.target_rows - HORIZON
        k = matrix.feature_names.index("load")
        np.testing.assert_array_equal(matrix.X[:, k], load[origins])

    def test_lag_columns(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        load = load_frame.columns["load"]
        origins = matrix.target_rows - HORIZON
        for lag_hours in (1, 24, 168):
            k = matrix.feature_names.index(f"load_lag_{lag_hours}")
            np.testing.assert_array_equal(matrix.X[:, k], load[origins - lag_hours])

    def test_ema_columns_match_transform(self, load_frame):
        matrix = build_feature_matrix(load_frame)
        origins = matrix.target_rows - HORIZON
        for period in (12, 24, 48, 168):
            k = matrix.feature_names.index(f"ema_{period}")
            expected = ema_reference(load_frame.columns["load"], period)[origins]
            np.testing.assert_array_equal(matrix.X[:, k], expected)

    def test_calendar_is_for_target_hour(self, load_frame):
        matrix = build_feature_matrix(load_frame, FeatureConfig(horizon=24))
        k_hour = matrix.feature_names.index("hour_of_day")
        k_dow = matrix.feature_names.index("day_of_week")
        stamps = load_frame.timestamps()[matrix.target_rows]
        days = stamps.astype("datetime64[D]")
        np.testing.assert_array_equal(matrix.X[:, k_dow],
                                      (days.astype(np.int64) + 3) % 7)
        np.testing.assert_array_equal(
            matrix.X[:, k_hour],
            (stamps - days).astype("timedelta64[h]").astype(np.int64))

    def test_holiday_affects_working_day_feature(self):
        load = synthetic_load(3 * 168)
        plain = align_hourly([load])
        with_holiday = align_hourly([load], holidays={dt.date(2019, 1, 9)})
        k = DEFAULT_NAMES.index("is_working_day")
        m_plain = build_feature_matrix(plain)
        m_hol = build_feature_matrix(with_holiday)
        # targets on 2019-01-09 flip from working to holiday
        stamps = plain.timestamps()[m_plain.target_rows].astype("datetime64[D]")
        on_holiday = stamps == np.datetime64("2019-01-09")
        assert on_holiday.any()
        assert (m_plain.X[on_holiday, k] == 1.0).all()
        assert (m_hol.X[on_holiday, k] == 0.0).all()
        off = ~on_holiday
        np.testing.assert_array_equal(m_plain.X[off, k], m_hol.X[off, k])


class TestTransforms:
    def test_ema_matches_recursion(self):
        values = np.random.default_rng(3).normal(size=200)
        np.testing.assert_array_equal(_ema(values, 24), ema_reference(values, 24))

    def test_ema_constant_is_fixed_point(self):
        np.testing.assert_array_equal(_ema(np.full(50, 7.0), 168), np.full(50, 7.0))

    def test_lag_shifts_and_pads(self):
        out = _lag(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        assert np.isnan(out[:2]).all()
        assert out[2:].tolist() == [1.0, 2.0, 3.0]

    def test_previous_day_mean_and_min(self):
        # two full days then a partial third
        values = np.concatenate([np.arange(24), np.arange(24) + 100, [7.0] * 6])
        mean, low = _previous_day_stats(values, align_hourly([hourly(values)]).timestamps())
        assert np.isnan(mean[:24]).all()
        np.testing.assert_array_equal(mean[24:48], np.full(24, 11.5))
        np.testing.assert_array_equal(mean[48:], np.full(6, 111.5))
        np.testing.assert_array_equal(low[24:48], np.zeros(24))
        np.testing.assert_array_equal(low[48:], np.full(6, 100.0))

    @pytest.mark.parametrize("start_hour, n", [(13, 5), (13, 11), (23, 60), (0, 24), (7, 100)])
    def test_previous_day_stats_from_any_start_hour(self, start_hour, n):
        # each day's stats against that day's hours picked by date
        values = np.random.default_rng(start_hour + n).uniform(-50.0, 50.0, n)
        stamps = align_hourly([hourly(values, start=START.replace(hour=start_hour))]).timestamps()
        mean, low = _previous_day_stats(values, stamps)
        days = stamps.astype("datetime64[D]")
        for i, day in enumerate(days):
            before = values[days == day - 1]
            if before.size:
                assert mean[i] == pytest.approx(before.mean(), rel=1e-12) and low[i] == before.min()
            else:
                assert np.isnan(mean[i]) and np.isnan(low[i])


class TestSelectAndConfig:
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
            origin = r - HORIZON
            tampered = dict(load_frame.columns)
            load = tampered["load"].copy()
            load[origin + 1:] = rng.uniform(1.0, 2.0, len(load) - origin - 1)
            tampered["load"] = load
            frame2 = AlignedFrame(start=load_frame.start, columns=tampered,
                                  holiday_calendar=load_frame.holiday_calendar)
            matrix2 = build_feature_matrix(frame2)
            i1 = int(np.flatnonzero(matrix.target_rows == r)[0])
            i2 = int(np.flatnonzero(matrix2.target_rows == r)[0])
            assert (matrix.X[i1] == matrix2.X[i2]).all()
