"""Parsing, alignment, and the calendar transform."""

import atexit
import datetime as dt
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltgrid import ioutil
from voltgrid.errors import DataError
from voltgrid.timeseries import (
    AlignedFrame,
    CsvSpec,
    TimeSeries,
    align_hourly,
    calendar_arrays,
    load_holidays,
    parse_timeseries_csv,
    read_frame_csv,
    read_series,
    write_frame_csv,
)

import oracle
from conftest import START, hourly


_CSV_DIR = tempfile.TemporaryDirectory()
atexit.register(_CSV_DIR.cleanup)


def csv_stream(text):
    """Write ``text`` to a new CSV file and return its path."""
    fd, path = tempfile.mkstemp(suffix=".csv", dir=_CSV_DIR.name)
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


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

    def test_duplicate_named_at_the_later_line_of_the_pair(self):
        # every hour twice, shuffled: a stable sort keeps equal stamps in file
        # order, so the message names the later line of the earliest pair
        hours = np.random.default_rng(1).permutation(np.repeat(np.arange(20), 2))
        path = csv_stream("timestamp,value\n" + "".join(
            f"{START + dt.timedelta(hours=int(h))},{k}\n" for k, h in enumerate(hours)))
        with pytest.raises(DataError) as err:
            parse_timeseries_csv(path)
        first = 2 + max(np.flatnonzero(hours == 0))
        assert str(err.value) == f"{path}: duplicate timestamp at line {first}"

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
        path = csv_stream("t,mw\n01.01.2019 00:00,41.0\n01.01.2019 01:00,42.0\n")
        ts, = read_series([("load", path)], lambda _: ("mw",), "t", "%d.%m.%Y %H:%M")
        assert ts.name == "load"
        assert ts.values.tolist() == [41.0, 42.0]

    def test_spec_names_the_value_column_and_the_series(self):
        path = csv_stream("timestamp,mw\n2019-01-01 00:00,41.0\n")
        ts = parse_timeseries_csv(path, CsvSpec(value_column="mw", name="load"))
        assert (ts.name, ts.values.tolist()) == ("load", [41.0])
        assert parse_timeseries_csv(path, CsvSpec(value_column="mw")).name == "mw"

    @pytest.mark.parametrize("fmt", [None, "%Y-%m-%d %H:%M"])
    def test_padded_stamp_parses_with_or_without_format(self, fmt):
        ts, = read_series([("value", csv_stream(
            "timestamp,value\n 2019-01-01 00:00 ,1\n2019-01-01 01:00\t,2\n"
        ))], lambda _: ("value",), timestamp_format=fmt)
        assert ts.start == dt.datetime(2019, 1, 1)
        assert ts.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("stamp", [
        "20190101T0000", "2019-01-01T00:00:00.0", "2019-01-01T00:00:00.0000001",
        "2019-01-01T01:00:00+0100", "2019-W01-2T00:00",
    ], ids=["basic", "one-digit-fraction", "seven-digit-fraction", "colonless-offset", "week-date"])
    def test_iso_forms_that_need_python_3_11(self, stamp):
        # CPython 3.10's datetime.fromisoformat rejects each of these
        ts = parse_timeseries_csv(csv_stream(f"timestamp,value\n{stamp},1\n"))
        assert (ts.start, ts.values.tolist()) == (dt.datetime(2019, 1, 1), [1.0])

    def test_stamp_out_of_range_in_utc_is_data_error(self):
        # 00:00 at +01:00 on 0001-01-01 falls before year 1 in UTC
        with pytest.raises(DataError, match="line 2: bad timestamp .*out of range"):
            parse_timeseries_csv(csv_stream("timestamp,value\n0001-01-01T00:00:00+01:00,1\n"))

    def test_duplicate_column_rejected(self):
        with pytest.raises(DataError, match="'load' appears more than once"):
            parse_timeseries_csv(csv_stream(
                "timestamp,load,load\n2019-01-01 00:00:00,1,2\n"
            ), CsvSpec(value_column="load"))

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

    def test_intersect_is_the_only_policy(self):
        a = hourly([1, 2], name="a")
        assert align_hourly([a], policy="intersect").n_rows == 2
        with pytest.raises(DataError, match="unknown alignment policy 'union'"):
            align_hourly([a], policy="union")

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

    def test_frame_columns_must_be_equally_long(self):
        with pytest.raises(DataError, match=r"^column lengths differ: \{'a': 2, 'b': 3\}$"):
            AlignedFrame(start=START, columns={"a": np.zeros(2), "b": np.zeros(3)})

    def test_nothing_to_align(self):
        with pytest.raises(DataError, match="^nothing to align$"):
            align_hourly([])

    def test_column_is_an_hourly_series_on_the_shared_start(self):
        later = START + dt.timedelta(hours=1)
        frame = align_hourly([hourly([1, 2, 3], name="a"),
                              hourly([10, 20, 30, 40], name="b", start=later)])
        series = frame.column("b")
        assert isinstance(series, TimeSeries)
        assert (series.name, series.start, series.step) == ("b", later, 3600.0)
        assert series.values.tolist() == [10.0, 20.0]

    def test_column_unknown_name_rejected(self):
        frame = align_hourly([hourly([1, 2], name="b"), hourly([3, 4], name="a")])
        with pytest.raises(DataError) as err:
            frame.column("load")
        assert str(err.value) == "no column named 'load' (have ['a', 'b'])"


class TestSeries:
    @pytest.mark.parametrize("start, n", [
        (dt.datetime.max, 2),
        (dt.datetime.max.replace(tzinfo=dt.timezone(dt.timedelta(hours=-5))), 1),
        (dt.datetime.min.replace(tzinfo=dt.timezone(dt.timedelta(hours=5))), 1),
        (dt.datetime.min, 0),
    ])
    def test_a_series_outside_the_datetime_range_is_rejected(self, start, n):
        # its end, and align_hourly, raised OverflowError
        with pytest.raises(DataError, match="^series 'b' runs outside the datetime range$"):
            TimeSeries(start, np.ones(n), name="b")

    def test_a_series_that_ends_at_the_last_datetime_aligns(self):
        last = dt.datetime.max.replace(minute=0, second=0, microsecond=0)
        series = TimeSeries(last - dt.timedelta(hours=1), [1.0, 2.0], name="b")
        assert series.end == last
        frame = align_hourly([series, TimeSeries(last, [3.0], name="c")])
        assert (frame.start, frame.n_rows) == (last, 1)

    @pytest.mark.parametrize("step", [900.0, 1800.0, 7200.0, 0.0, -3600.0])
    def test_non_hourly_step_rejected(self, step):
        with pytest.raises(DataError) as err:
            TimeSeries(START, np.ones(3), step=step, name="b")
        assert str(err.value) == f"series 'b' is not hourly: step {step:g}s"


class TestTransforms:
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

        with_holiday = align_hourly([hourly(np.ones(7 * 24))], holidays={dt.date(2019, 1, 2)})
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

    def test_gap_names_the_file_lines(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text(
            "timestamp,load\n"
            "2019-01-01T00:00:00,1\n"
            "\n"
            " , \n"
            "2019-01-01T01:00:00,2\n"
            "\n"
            "2019-01-01T03:00:00,3\n"
        )
        with pytest.raises(DataError, match="dataset.csv: lines 5-7 are not consecutive hours"):
            read_frame_csv(path)
        with pytest.raises(DataError, match="lines 5-7 are not consecutive hours"):
            oracle.read_frame_csv_rows(path)

    def test_rejects_duplicate_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("timestamp,load,load\n2019-01-01T00:00:00,1,2\n")
        with pytest.raises(DataError, match="'load' appears more than once"):
            read_frame_csv(path)

    def test_rejects_missing_timestamp_header(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("time,load\n2019-01-01T00:00:00,1\n")
        with pytest.raises(DataError, match="timestamp"):
            read_frame_csv(path)


# --- the columnar readers against the row-wise oracle --------------------------

_BASE = dt.datetime(2019, 3, 31)


def _rarely(odd, usual, one_in):
    """Draw from ``odd`` once in ``one_in`` draws, else from ``usual``."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == 1 else usual)


_VALUES = _rarely(st.sampled_from(["abc", "1.5.2", "0x1"]), st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "NA", "n/a", " Null ", "-", "nan", "inf"]),
), 25)
# microseconds added to a row's hour: 3 ms is inside the grid tolerance, 4 ms is not
_NUDGES = _rarely(st.sampled_from([1, 3000, 4000, 500_000, 30 * 60 * 10**6]), st.just(0), 15)
_BAD_STAMPS = st.sampled_from(["2019-02-30T00:00:00", "soon", "", "2019-01-01T25:00"])


@st.composite
def _stamp_cells(draw, utc):
    """An ISO 8601 cell for the naive UTC instant ``utc``: T or space, Z or an
    offset, seconds dropped, milli- or microseconds, padding, or a bad cell."""
    if draw(st.integers(0, 39)) == 0:
        return draw(_BAD_STAMPS)
    offset = draw(st.sampled_from([None, "Z", 0, 120, -330, 345]))
    local = utc if offset in (None, "Z") else utc + dt.timedelta(minutes=offset)
    spec = "milliseconds" if local.microsecond % 1000 == 0 else "auto"
    text = local.isoformat(sep=draw(st.sampled_from(["T", " "])),
                           timespec=spec if local.microsecond else "auto")
    if not local.microsecond and not local.second and draw(st.booleans()):
        text = text[:-3]
    if offset == "Z":
        text += "Z"
    elif offset is not None:
        text += f"{'+' if offset >= 0 else '-'}{abs(offset) // 60:02d}:{abs(offset) % 60:02d}"
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "  "]))


_LINE_ENDS = ["\n", "\r\n", "\r"]


def _cell(draw, text):
    """A cell as a file may hold it: mostly bare, else quoted (its quotes
    doubled), with a quoted line break, or with a NUL."""
    kind = draw(st.sampled_from(["bare"] * 16 + ["quoted", "break", "nul"]))
    if kind == "nul":
        return text + "\x00"
    if kind == "break":
        text += draw(st.sampled_from(_LINE_ENDS))
    return text if kind == "bare" else '"' + text.replace('"', '""') + '"'


def _body(draw, header, rows):
    """CSV text: the header, the rows and a few blank lines, every line
    ended by \\n, \\r\\n or a lone \\r, one kind per file or mixed; one
    file in four starts with a byte-order mark."""
    lines = [",".join(_cell(draw, text) for text in row) for row in [header, *rows]]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " , "])))
    ends = draw(st.sampled_from([[end] for end in _LINE_ENDS] + [_LINE_ENDS]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + "".join(line + draw(st.sampled_from(ends)) for line in lines)


@st.composite
def _series_files(draw):
    """A series CSV: shuffled rows, whole-hour gaps, duplicate and off-grid
    stamps, NA markers, bad cells, short rows and an unread extra column."""
    header = draw(st.permutations(["timestamp", "value"] + draw(st.sampled_from([[], ["other"]]))))
    hours = draw(st.lists(st.integers(0, 40), min_size=0, max_size=30))
    rows = []
    for hour in hours:
        utc = _BASE + dt.timedelta(hours=hour, microseconds=draw(_NUDGES))
        cells = {"timestamp": draw(_stamp_cells(utc)), "value": draw(_VALUES), "other": "x"}
        row = [cells[name] for name in header]
        if draw(st.integers(0, 39)) == 0:
            row = row[:-1]
        rows.append(row)
    return _body(draw, header, draw(st.permutations(rows)))


@st.composite
def _frame_files(draw):
    """A dataset CSV: consecutive hours with an occasional gap, swap or
    duplicate, NA markers, bad cells and rows of the wrong width."""
    names = draw(st.lists(st.sampled_from(["load", "gen", "res"]), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 10))
    hours = list(range(n))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, n - 2))
        hours[k], hours[k + 1] = draw(st.sampled_from([(hours[k + 1], hours[k]), (hours[k], hours[k]),
                                                       (hours[k], hours[k + 1] + 1)]))
    rows = []
    for hour in hours:
        utc = _BASE + dt.timedelta(hours=hour, microseconds=draw(_NUDGES))
        row = [draw(_stamp_cells(utc))] + [draw(_VALUES) for _ in names]
        width = draw(st.sampled_from([0] * 38 + [-1, 1]))
        rows.append(row[:width] if width < 0 else row + ["1"] * width)
    return _body(draw, ["timestamp", *names], rows)


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_series_files(), block=st.sampled_from([1, 2, 3, 4096]))
def test_series_reader_matches_row_wise_oracle(text, block):
    path = csv_stream(text)
    expected = _outcome(oracle.parse_timeseries_csv_rows, path)
    with mock.patch.object(ioutil, "READ_BLOCK", block):
        got = _outcome(parse_timeseries_csv, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert (got.start, got.step, got.name) == (expected.start, expected.step, expected.name)
        np.testing.assert_array_equal(got.values, expected.values)


@settings(max_examples=300, deadline=None)
@given(text=_frame_files(), block=st.sampled_from([1, 2, 3, 4096]))
def test_frame_reader_matches_row_wise_oracle(text, block):
    path = csv_stream(text)
    expected = _outcome(oracle.read_frame_csv_rows, path)
    with mock.patch.object(ioutil, "READ_BLOCK", block):
        got = _outcome(read_frame_csv, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.start == expected.start
        assert list(got.columns) == list(expected.columns)
        for name, column in expected.columns.items():
            np.testing.assert_array_equal(got.columns[name], column)


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

    def test_non_utf8_byte_is_a_bad_date(self, tmp_path):
        # it used to escape as a UnicodeDecodeError, exit 1 on the CLI
        path = tmp_path / "holidays.txt"
        path.write_bytes(b"2019-01-01\n2019-12-2\xff\n")
        with pytest.raises(DataError, match="line 2: bad date"):
            load_holidays(path)

