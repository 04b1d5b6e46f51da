"""Parsing, alignment, and the rolling/calendar transforms."""

import datetime as dt
import io

import numpy as np
import pytest

from voltgrid import (
    CsvSpec,
    DataError,
    TimeSeries,
    align_hourly,
    ema,
    lag,
    load_holidays,
    parse_timeseries_csv,
    previous_day_stats,
    read_frame_csv,
    split_indices,
    write_frame_csv,
)
from voltgrid.timeseries import calendar_arrays

from conftest import START, hourly


def csv_stream(text):
    return io.StringIO(text)


class TestParseCsv:
    def test_basic_roundtrip(self):
        ts = parse_timeseries_csv(csv_stream(
            "timestamp,value\n"
            "2019-01-01 00:00:00,1.5\n"
            "2019-01-01 01:00:00,2.5\n"
        ))
        assert ts.start == dt.datetime(2019, 1, 1)
        assert ts.values.tolist() == [1.5, 2.5]

    def test_rows_are_sorted(self):
        ts = parse_timeseries_csv(csv_stream(
            "timestamp,value\n"
            "2019-01-01 02:00:00,3\n"
            "2019-01-01 00:00:00,1\n"
            "2019-01-01 01:00:00,2\n"
        ))
        assert ts.values.tolist() == [1.0, 2.0, 3.0]

    def test_gap_becomes_nan(self):
        ts = parse_timeseries_csv(csv_stream(
            "timestamp,value\n"
            "2019-01-01 00:00:00,1\n"
            "2019-01-01 03:00:00,4\n"
        ))
        assert len(ts) == 4
        assert np.isnan(ts.values[1:3]).all()

    def test_na_strings(self):
        ts = parse_timeseries_csv(csv_stream(
            "timestamp,value\n"
            "2019-01-01 00:00:00,n/a\n"
            "2019-01-01 01:00:00,\n"
            "2019-01-01 02:00:00,7\n"
        ))
        assert np.isnan(ts.values[:2]).all()
        assert ts.values[2] == 7.0

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(DataError, match="duplicate timestamp"):
            parse_timeseries_csv(csv_stream(
                "timestamp,value\n"
                "2019-01-01 00:00:00,1\n"
                "2019-01-01 00:00:00,2\n"
            ))

    def test_off_grid_timestamp_rejected(self):
        with pytest.raises(DataError, match="grid"):
            parse_timeseries_csv(csv_stream(
                "timestamp,value\n"
                "2019-01-01 00:00:00,1\n"
                "2019-01-01 00:30:00,2\n"
            ))

    def test_missing_columns(self):
        with pytest.raises(DataError, match="value column"):
            parse_timeseries_csv(csv_stream("timestamp,load\n2019-01-01,1\n"))
        with pytest.raises(DataError, match="timestamp column"):
            parse_timeseries_csv(csv_stream("time,value\n2019-01-01,1\n"))

    def test_bad_value(self):
        with pytest.raises(DataError, match="bad value"):
            parse_timeseries_csv(csv_stream(
                "timestamp,value\n2019-01-01 00:00:00,oops\n"
            ))

    def test_empty_inputs(self):
        with pytest.raises(DataError, match="header"):
            parse_timeseries_csv(csv_stream(""))
        with pytest.raises(DataError, match="no data rows"):
            parse_timeseries_csv(csv_stream("timestamp,value\n"))

    def test_custom_columns_and_format(self):
        spec = CsvSpec(timestamp_column="t", value_column="mw",
                       timestamp_format="%d.%m.%Y %H:%M", name="load")
        ts = parse_timeseries_csv(csv_stream(
            "t,mw\n01.01.2019 00:00,41.0\n01.01.2019 01:00,42.0\n"
        ), spec)
        assert ts.name == "load"
        assert ts.values.tolist() == [41.0, 42.0]

    def test_timezone_normalized_to_utc(self):
        ts = parse_timeseries_csv(csv_stream(
            "timestamp,value\n"
            "2019-01-01T02:00:00+02:00,1\n"
            "2019-01-01T01:00:00Z,2\n"
        ))
        assert ts.start == dt.datetime(2019, 1, 1)
        assert ts.values.tolist() == [1.0, 2.0]


class TestAlign:
    def test_intersect_overlap(self):
        a = hourly([1, 2, 3, 4], name="a")
        b = hourly([10, 20, 30, 40], name="b", start=START + dt.timedelta(hours=2))
        frame = align_hourly([a, b])
        assert frame.n_rows == 2
        assert frame.columns["a"].tolist() == [3.0, 4.0]
        assert frame.columns["b"].tolist() == [10.0, 20.0]

    def test_union_pads_nan(self):
        a = hourly([1, 2], name="a")
        b = hourly([5, 6], name="b", start=START + dt.timedelta(hours=3))
        frame = align_hourly([a, b], policy="union")
        assert frame.n_rows == 5
        assert np.isnan(frame.columns["a"][2:]).all()
        assert np.isnan(frame.columns["b"][:3]).all()

    def test_disjoint_ranges_rejected(self):
        a = hourly([1, 2], name="a")
        b = hourly([5, 6], name="b", start=START + dt.timedelta(hours=10))
        with pytest.raises(DataError, match="do not overlap"):
            align_hourly([a, b])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            align_hourly([hourly([1, 2]), hourly([3, 4])])

    def test_sub_hourly_offset_rejected(self):
        shifted = TimeSeries(START + dt.timedelta(minutes=30), np.ones(3), name="b")
        with pytest.raises(DataError, match="offset"):
            align_hourly([hourly([1, 2, 3]), shifted])

    def test_non_hourly_step_rejected(self):
        quarter = TimeSeries(START, np.ones(3), step=900.0, name="b")
        with pytest.raises(DataError, match="step"):
            align_hourly([hourly([1, 2, 3]), quarter])


class TestTransforms:
    def test_ema_matches_recursion(self):
        values = np.random.default_rng(3).normal(size=200)
        period = 24
        beta = 2.0 / (period + 1)
        expected = np.empty_like(values)
        prev = values[0]  # y[-1] = v[0], so y[0] = v[0] up to rounding
        for i in range(len(values)):
            expected[i] = prev = beta * values[i] + (1 - beta) * prev
        out = ema(hourly(values), period)
        np.testing.assert_array_equal(out.values, expected)

    def test_ema_rejects_nan(self):
        with pytest.raises(DataError, match="missing"):
            ema(hourly([1.0, np.nan, 3.0]), 12)

    def test_ema_constant_is_fixed_point(self):
        out = ema(hourly(np.full(50, 7.0)), 168)
        np.testing.assert_array_equal(out.values, np.full(50, 7.0))

    def test_lag_shifts_and_pads(self):
        out = lag(hourly([1, 2, 3, 4, 5]), 2)
        assert np.isnan(out.values[:2]).all()
        assert out.values[2:].tolist() == [1.0, 2.0, 3.0]

    def test_previous_day_mean_and_min(self):
        # two full days then a partial third
        values = np.concatenate([np.arange(24), np.arange(24) + 100, [7.0] * 6])
        mean = previous_day_stats(hourly(values), "mean")
        low = previous_day_stats(hourly(values), "min")
        assert np.isnan(mean.values[:24]).all()
        np.testing.assert_array_equal(mean.values[24:48], np.full(24, 11.5))
        np.testing.assert_array_equal(mean.values[48:], np.full(6, 111.5))
        np.testing.assert_array_equal(low.values[24:48], np.zeros(24))
        np.testing.assert_array_equal(low.values[48:], np.full(6, 100.0))

    def test_previous_day_requires_known_stat(self):
        with pytest.raises(DataError, match="stat"):
            previous_day_stats(hourly([1.0]), "median")

    def test_calendar_features(self):
        # 2019-01-01 is a Tuesday
        frame = align_hourly([hourly(np.ones(30))])
        cal = calendar_arrays(frame.timestamps(), frame.holiday_calendar)
        assert cal["day_of_week"][0] == 1
        assert cal["day_of_week"][23] == 1
        assert cal["day_of_week"][24] == 2
        assert cal["hour_of_day"][:4].tolist() == [0, 1, 2, 3]
        assert cal["is_working_day"].all()

    def test_calendar_weekend_and_holiday(self):
        # 2019-01-05 is a Saturday
        frame = align_hourly([hourly(np.ones(7 * 24))])
        cal = calendar_arrays(frame.timestamps(), frame.holiday_calendar)
        sat = slice(4 * 24, 5 * 24)
        assert (cal["day_of_week"][sat] == 5).all()
        assert not cal["is_working_day"][sat].any()

        with_holiday = frame.with_holidays({dt.date(2019, 1, 2)})
        cal2 = calendar_arrays(with_holiday.timestamps(), with_holiday.holiday_calendar)
        assert not cal2["is_working_day"][24:48].any()
        assert cal2["is_working_day"][:24].all()


class TestFrameCsv:
    def test_roundtrip(self, tmp_path):
        frame = align_hourly([hourly([1.0, np.nan, 3.0], name="load"),
                              hourly([0.5, 0.25, 0.125], name="gen")])
        path = tmp_path / "dataset.csv"
        write_frame_csv(frame, path)
        back = read_frame_csv(path)
        assert list(back.columns) == ["load", "gen"]
        np.testing.assert_array_equal(back.columns["gen"], frame.columns["gen"])
        assert np.isnan(back.columns["load"][1])
        assert back.start == frame.start

    def test_rejects_non_consecutive_rows(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(
            "timestamp,load\n"
            "2019-01-01T00:00:00,1\n"
            "2019-01-01T05:00:00,2\n"
        )
        with pytest.raises(DataError, match="consecutive"):
            read_frame_csv(path)

    def test_rejects_missing_timestamp_header(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("time,load\n2019-01-01T00:00:00,1\n")
        with pytest.raises(DataError, match="timestamp"):
            read_frame_csv(path)


class TestHolidays:
    def test_load_holidays(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("# new year\n2019-01-01\n\n2019-12-25\n")
        days = load_holidays(path)
        assert days == frozenset({dt.date(2019, 1, 1), dt.date(2019, 12, 25)})

    def test_bad_date_rejected(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2019-13-01\n")
        with pytest.raises(DataError, match="bad date"):
            load_holidays(path)


class TestSplits:
    def test_eight_year_hourly_split(self):
        blocks, tail = split_indices(69713, 8760, 5)
        assert tail == slice(60953, 69713)
        sizes = [b.stop - b.start for b in blocks]
        assert sum(sizes) == 60953
        assert max(sizes) - min(sizes) <= 1
        # earliest blocks absorb the remainder
        assert sizes == sorted(sizes, reverse=True)
        assert blocks[0].start == 0
        for left, right in zip(blocks, blocks[1:]):
            assert left.stop == right.start

    def test_tail_must_fit(self):
        with pytest.raises(DataError, match="smaller than"):
            split_indices(10, 10, 2)

    def test_blocks_must_fit(self):
        with pytest.raises(DataError, match="exceeds"):
            split_indices(10, 6, 5)
