"""The shared file formats: CSV reading and writing, cells, JSON."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voltgrid import ioutil
from voltgrid.errors import DataError, SolverError
from voltgrid.ioutil import fmt12, read_columns, read_json, write_csv, write_json
from voltgrid.storage import read_dispatch_csv, storage_spec_from_config
from voltgrid.timeseries import load_holidays, parse_timeseries_csv, read_frame_csv
from voltgrid.volterra import Grid, kernel_from_config, solve_apf

import oracle


@pytest.mark.parametrize("cell", ["", " ", "NA", "na", "N/A", "n/a", "NaN", "nan",
                                  "NULL", "null", "-", " Null "])
def test_na_markers_read_as_nan(tmp_path, cell):
    path = tmp_path / "f.csv"
    path.write_text(f"timestamp,value\n2019-01-01T00:00:00,{cell}\n2019-01-01T01:00:00,1\n")
    assert math.isnan(parse_timeseries_csv(path).values[0])


def test_bad_cell_names_file_and_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("timestamp,value\n2019-01-01T00:00:00, 1.5 \n\n\n\n\n2019-01-01T01:00:00,abc\n")
    with pytest.raises(DataError, match=r"f\.csv: line 7: bad value 'abc'"):
        parse_timeseries_csv(path)
    path.write_text("timestamp,value\n2019-01-01T00:00:00, 1.5 \n")
    assert parse_timeseries_csv(path).values.tolist() == [1.5]


def test_reader_strips_header_and_skips_blank_rows(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(" t , v\n1,2\n\n , \n3,4\n")
    seen = []

    def pick(header):
        seen.append(header)
        return None, ["t", "v"]

    stamps, values, lines = read_columns(path, pick)
    assert seen == [["t", "v"]] and stamps is None
    assert {name: col.tolist() for name, col in values.items()} == {"t": [1, 3], "v": [2, 4]}
    assert lines.tolist() == [2, 5]


@pytest.mark.parametrize("body, fault", [(b"", "empty CSV"), (b"t,v\n1,\xff\n", "unreadable CSV"),
                                         (b"t,v\n\n , \n", "no data rows")])
def test_reader_rejects_empty_or_binary_files(tmp_path, body, fault):
    path = tmp_path / "a.csv"
    path.write_bytes(body)
    with pytest.raises(DataError, match=f"a.csv: {fault}"):
        read_columns(path, lambda header: (None, ["v"]))


@pytest.mark.parametrize("rows, message", [
    (["2019-01-01T00:00:00,1", "2019-01-01T01:00:00,abc"], "line 3: bad value 'abc'"),
    (["2019-01-01T01:00:00,1", "2019-01-01T00:00:00,2", "2019-01-01T01:00:00,3"],
     "duplicate timestamp at line 4"),
    (["2019-01-01T00:00:00,1", "2019-01-01T01:30:00,2"], "line 3: timestamp not on the"),
])
@pytest.mark.parametrize("block", [1, 4096])
def test_failed_read_opens_its_file_once(tmp_path, monkeypatch, opened, rows, message, block):
    monkeypatch.setattr(ioutil, "READ_BLOCK", block)
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["timestamp,value", *rows]) + "\n")
    with pytest.raises(DataError, match=message):
        parse_timeseries_csv(path)
    assert opened == [path]


@pytest.mark.parametrize("rows, message", [
    (['2019-01-01T00:00:00,"1', '2"'], "line 2: bad value '1\\n2'"),
    # the row on lines 3-4 repeats line 2's stamp; its value reads as 2
    (["2019-01-01T00:00:00,1", '2019-01-01T00:00:00,"2', '"'], "duplicate timestamp at line 3"),
    # a row after the one on lines 2-3 keeps its own line
    (['2019-01-01T00:00:00,"1', '"', "2019-01-01T00:00:00,4"], "duplicate timestamp at line 4"),
])
@pytest.mark.parametrize("read", [parse_timeseries_csv, oracle.parse_timeseries_csv_rows])
@pytest.mark.parametrize("block", [1, 1024])
def test_row_over_several_lines_is_named_by_its_first(tmp_path, monkeypatch, read, rows,
                                                      message, block):
    monkeypatch.setattr(ioutil, "READ_BLOCK", block)
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["timestamp,value", *rows]) + "\n")
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("bad_cell", [True, False])
@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("read", [parse_timeseries_csv, read_frame_csv])
def test_first_fault_in_the_file_wins_over_unreadable_text(tmp_path, monkeypatch, read,
                                                           block, bad_cell):
    # the text is decoded 8 KiB at a time, so the byte that is not UTF-8
    # fails a read well after line 3 has been tokenized
    monkeypatch.setattr(ioutil, "READ_BLOCK", block)
    rows = [f"2019-01-{1 + k // 24:02d}T{k % 24:02d}:00:00,{k}" for k in range(600)]
    if bad_cell:
        rows[1] = "2019-01-01T01:00:00,abc"
    body = "\n".join(["timestamp,value", *rows]).encode() + b"\n2019-01-26T00:00:00,\xff\n"
    assert body.index(b"\xff") > 8192
    path = tmp_path / "f.csv"
    path.write_bytes(body)
    message = r"line 3: bad value 'abc'" if bad_cell else "unreadable CSV"
    with pytest.raises(DataError, match=message):
        read(path)


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


_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1 / 3,
                           0.1 + 0.2, 1.7e308, -2.5]) | st.floats()
_TEXTS = st.sampled_from(["", "a", "a,b", 'say "hi"', "two\nlines", "cr\r", "\r\n", " x "]) \
    | st.text(alphabet='ab ,"\r\n\té', max_size=4)
_COLUMNS = {
    "float": lambda n: st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
    "int": lambda n: st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n).map(np.array),
    "text": lambda n: st.lists(_TEXTS, min_size=n, max_size=n).map(lambda v: np.array(v, str)),
    "stamp": lambda n: st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n).map(
        lambda h: np.datetime64("2019-01-01T00", "h") + np.array(h)),
}


@st.composite
def _tables(draw):
    """A header of text names over one to four columns of one kind each."""
    n = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=4))
    header = draw(st.lists(_TEXTS, min_size=len(kinds), max_size=len(kinds)))
    return header, [draw(_COLUMNS[kind](n)) for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(table=_tables(), block=st.sampled_from([1, 2, 4096]))
# csv.writer quotes the lone empty field of a one-column row, a NaN's too
@example(table=([""], [np.array(["a", ""])]), block=4096)
@example(table=(["x"], [np.array([1.5, math.nan, 2.0])]), block=2)
@example(table=(["a,b", 'say "hi"', "two\nlines"],
                [np.array([1.0, math.nan]), np.array(["", "c"]), np.array([3, 4])]), block=1)
def test_writer_template_matches_cell_by_cell(tmp_path_factory, table, block):
    header, columns = table
    folder = tmp_path_factory.getbasetemp()
    with mock.patch.object(ioutil, "WRITE_BLOCK", block):
        write_csv(folder / "template.csv", header, columns)
    oracle.write_csv_cells(folder / "cells.csv", header, columns)
    assert (folder / "template.csv").read_bytes() == (folder / "cells.csv").read_bytes()


_FINITE = st.sampled_from([math.nan, -0.0, 1e16, 5e-324, 1 / 3, 1.7e308]) | st.floats(
    allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-10**6, 10**6), _FINITE, _FINITE), min_size=1,
                     max_size=9),
       block=st.sampled_from([1, 4096]))
def test_written_numbers_read_back_as_fmt12(tmp_path_factory, rows, block):
    # the stamp keeps a row of NaNs from being blank, which the reader skips
    hours, *columns = map(np.array, zip(*rows))
    stamps = np.datetime64("2019-01-01T00", "s") + 3600 * hours
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    with mock.patch.object(ioutil, "WRITE_BLOCK", block):
        write_csv(path, ["t", "a", "b"], [stamps, *columns])
    read, values, lines = read_columns(path, lambda names: (names[0], names[1:]), exact=True)
    assert read.tolist() == stamps.astype("datetime64[us]").tolist()
    assert lines.tolist() == list(range(2, len(rows) + 2))
    for got, column in zip(values.values(), columns):
        assert np.array_equal(np.isnan(got), np.isnan(column))
        assert got[~np.isnan(got)].tolist() == [float(fmt12(v)) for v in column[~np.isnan(column)]]


@pytest.mark.parametrize("value, text", [
    (math.nan, ""), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
    (1e16, "1e+16"), (1 / 3, "0.333333333333"), (0.1 + 0.2, "0.3"),
])
def test_fmt12(value, text):
    assert fmt12(value) == text


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


# --- kernel and storage JSON documents ---------------------------------------

_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=4),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-9, 1e300, -1e300]),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _mostly(draw, plausible):
    """Draw from ``plausible`` 19 times in 20 and any JSON value otherwise."""
    return draw(_json_values if draw(st.integers(0, 19)) == 0 else plausible)


@st.composite
def _kernel_docs(draw):
    """A kernel document that is mostly well formed."""

    def field(plausible):
        return _mostly(draw, plausible)

    n = draw(st.integers(1, 3))
    doc = {"n": field(st.just(n))}
    if n > 1:
        cs = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=n - 1, max_size=n - 1,
                                  unique=True)))
        doc["alphas"] = field(st.one_of(
            st.just({"type": "proportional", "c": [field(st.just(c)) for c in cs]}),
            st.just({"type": "table", "t": [0.0, field(st.just(2.0))],
                     "alpha": [[0.0, field(st.just(2.0 * c))] for c in cs]}),
        ))
    # each entry holds the keys of its own type: a key its type does not
    # take would fail every document that drew it before the numbers count
    doc["K"] = field(st.just([
        {"type": field(st.just(kind)), "value": field(st.floats(-2.0, 2.0)),
         **({"rate": field(st.floats(-0.2, 2.0))} if kind == "exp_decay" else {})}
        for kind in draw(st.lists(st.sampled_from(["const", "exp_decay"]),
                                  min_size=n, max_size=n))]))
    doc["G"] = field(st.just([
        {"type": field(st.just(kind)),
         **({"a": field(st.floats(-0.5, 2.0)), "b": field(st.floats(-0.2, 1.0))}
            if kind == "cubic" else {})}
        for kind in draw(st.lists(st.sampled_from(["linear", "cubic"]), min_size=n, max_size=n))]))
    if draw(st.booleans()):
        doc["kernel_floor"] = field(st.floats(0.0, 1.0))
    return doc


_STORAGE_FIELDS = {
    "v_max": st.floats(-10.0, 500.0), "e_min": st.floats(-500.0, 10.0),
    "e_max": st.floats(-10.0, 500.0), "efficiency": st.floats(0.0, 1.2),
    "rated_cycles": st.integers(0, 20000), "e_init": st.floats(-10.0, 10.0),
    "interpretation": st.sampled_from(["literal", "power"]), "extra": st.none(),
}


@st.composite
def _storage_docs(draw):
    """A storage document with some of its fields, each mostly well formed."""
    keys = draw(st.sets(st.sampled_from(sorted(_STORAGE_FIELDS))))
    return {key: _mostly(draw, _STORAGE_FIELDS[key]) for key in sorted(keys)}


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_json_values, _kernel_docs()))
def test_kernel_documents_raise_only_data_error(doc):
    # a kernel that builds also solves or fails with a package error
    try:
        kernel = kernel_from_config(doc)
    except DataError:
        return
    grid = Grid(2.0, 8)
    try:
        solve_apf(kernel, grid, grid.nodes())
    except (DataError, SolverError):
        pass


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_json_values, _storage_docs()))
def test_storage_documents_raise_only_data_error(doc):
    try:
        storage_spec_from_config(doc)
    except DataError:
        pass
