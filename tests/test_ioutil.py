"""The shared file formats: CSV reading and writing, cells, JSON."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltgrid import DataError, ioutil
from voltgrid.ioutil import parse_cell, read_csv, read_json, write_csv, write_json
from voltgrid.storage import read_dispatch_csv
from voltgrid.timeseries import load_holidays, parse_timeseries_csv, read_frame_csv


@pytest.mark.parametrize("cell", ["", " ", "NA", "na", "N/A", "n/a", "NaN", "nan",
                                  "NULL", "null", "-", " Null "])
def test_na_markers_read_as_nan(cell):
    assert math.isnan(parse_cell(cell, "f.csv", 2))


def test_bad_cell_names_file_and_line():
    assert parse_cell(" 1.5 ", "f.csv", 2) == 1.5
    with pytest.raises(DataError, match=r"f\.csv: line 7: bad value 'abc'"):
        parse_cell("abc", "f.csv", 7)


def test_reader_strips_header_and_skips_blank_rows(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(" t , v\n1,2\n\n , \n3,4\n")
    assert list(read_csv(path)) == [(1, ["t", "v"]), (2, ["1", "2"]), (5, ["3", "4"])]


@pytest.mark.parametrize("body", [b"", b"t,v\n1,\xff\n"])
def test_reader_rejects_empty_or_binary_files(tmp_path, body):
    path = tmp_path / "a.csv"
    path.write_bytes(body)
    with pytest.raises(DataError, match="a.csv"):
        list(read_csv(path))


@pytest.mark.parametrize("block", [1, 4096])
def test_writer_formats_columns(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ioutil, "WRITE_BLOCK", block)
    path = tmp_path / "a.csv"
    stamps = np.array(["2019-01-01T00", "2019-01-01T01"], dtype="datetime64[h]")
    write_csv(path, ["timestamp", "name", "value"],
              [stamps, np.array(["a", "b"]), np.array([1 / 3, math.nan])])
    assert path.read_bytes() == (b"timestamp,name,value\r\n"
                                 b"2019-01-01T00:00:00,a,0.333333333333\r\n"
                                 b"2019-01-01T01:00:00,b,\r\n")


def test_json_roundtrip_and_bad_json(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": np.float64(2 / 3), "a": [1, math.inf]})
    assert path.read_text() == '{\n  "a": [\n    1,\n    null\n  ],\n  "b": 0.666666666667\n}\n'
    assert read_json(path, "test") == {"a": [1, None], "b": 0.666666666667}
    path.write_text("{not json")
    with pytest.raises(DataError, match="invalid test JSON"):
        read_json(path, "test")


_cells = st.one_of(
    st.sampled_from(["", "NA", "1", "-2.5", "nan", "inf", "abc", "2019-01-01T00:00:00",
                     "2019-01-01T01:00:00", "2019-01-01 02:00", "timestamp", "value",
                     "t", "x", "v", "E", '"a,b"']),
    st.text(max_size=6),
)
_csv_bodies = st.one_of(
    st.binary(max_size=40),
    st.lists(st.lists(_cells, max_size=5), max_size=6).map(
        lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8")),
)


@settings(max_examples=200, deadline=None)
@given(body=_csv_bodies)
def test_file_readers_raise_only_data_error(tmp_path_factory, body):
    # a non-UTF-8 byte or a non-numeric dataset cell used to escape as
    # UnicodeDecodeError or ValueError
    path = tmp_path_factory.getbasetemp() / "fuzz_input.csv"
    path.write_bytes(body)
    for read in (parse_timeseries_csv, read_frame_csv, read_dispatch_csv, load_holidays):
        try:
            read(path)
        except DataError:
            pass
