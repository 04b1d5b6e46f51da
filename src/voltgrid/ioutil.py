"""The package's file formats: CSV and JSON reading and writing, the
missing-value markers, config numbers and deterministic number formatting."""

from __future__ import annotations

import csv
import json
import math
import numbers
from datetime import datetime, timedelta, timezone
from itertools import islice, repeat
from operator import attrgetter, floordiv, itemgetter, sub

import numpy as np

from .errors import DataError

# missing-value cells, matched after strip() and lower()
NA_STRINGS = frozenset({"", "na", "n/a", "nan", "null", "-"})
WRITE_BLOCK = 4096  # rows formatted at once by write_csv
READ_BLOCK = 1024  # data rows tokenized and converted at once by read_columns
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def fmt12(x: float) -> str:
    """Render a float with 12 significant digits.

    Reruns must be byte-identical, so every number the package writes goes
    through here. NaN renders as the empty string (the CSV missing marker).
    """
    v = float(x)
    return "" if math.isnan(v) else f"{v:.12g}"


def iso_seconds(stamps) -> list[str]:
    """datetime64 stamps as ISO 8601 strings to the second."""
    return np.datetime_as_string(np.asarray(stamps), unit="s").tolist()


def naive_utc(ts: datetime) -> datetime:
    """``ts`` as a naive UTC datetime; a naive ``ts`` is taken to be UTC already."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def _number(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        if cell.strip().lower() in NA_STRINGS:
            return math.nan
        raise
    if math.isinf(value):  # inf, Infinity, or a number too large for a float
        raise ValueError(f"infinite number {cell!r}")
    return value


def _stamp_column(cells: list, fmt: str | None) -> np.ndarray:
    """Timestamp cells, stripped, as naive UTC datetime64[us]: ``fmt`` is a
    strptime pattern, None takes ISO 8601 with an optional trailing Z. A
    cell that does not parse raises ValueError or OverflowError."""
    cleaned = list(map(str.strip, cells))
    if fmt is not None:
        stamps = list(map(datetime.strptime, cleaned, repeat(fmt)))
    else:
        if "Z" in "".join(cleaned):  # only a cell that ends in Z needs rewriting
            cleaned = [c[:-1] + "+00:00" if c.endswith("Z") else c for c in cleaned]
        stamps = list(map(datetime.fromisoformat, cleaned))
    if any(map(attrgetter("tzinfo"), stamps)):
        stamps = list(map(naive_utc, stamps))
    # whole microseconds since the epoch, without an array of datetime objects
    micros = map(floordiv, map(sub, stamps, repeat(_EPOCH)), repeat(_MICROSECOND))
    return np.fromiter(micros, np.int64, len(stamps)).view("datetime64[us]")


def _number_column(cells: list) -> np.ndarray:
    """_number over a whole column; a bad or infinite cell raises ValueError."""
    try:
        column = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # an NA marker, or a bad cell
        return np.fromiter(map(_number, cells), float, len(cells))
    if np.isinf(column).any():
        raise ValueError("infinite number")
    return column


def read_columns(path, pick, *, fmt=None, exact=False, finite=False):
    """Read a headered CSV file in one pass, converting whole columns
    READ_BLOCK rows at a time, so memory does not grow with the file.

    ``pick(header)`` gets the stripped header names, raises DataError for a
    header it cannot use, and returns the timestamp column (or None), read
    under ``fmt``, and the numeric columns, where the NA_STRINGS markers (any
    case) read as NaN and an infinite number (``inf``, ``1e999``) is a bad
    value. Each must appear once in the header. Rows that are all blank are
    skipped. Rows must hold every header column when ``exact``, else the
    picked ones; ``finite`` rejects NaN too.
    Returns the stamps (or None), the numeric columns by name and the line
    each data row starts on, in file order. An empty file, text that is not
    UTF-8 or a bad row raises the DataError of the first fault in the file:
    should a block fail to convert, its rows are checked one at a time. A
    file with no data rows is a DataError too.
    """
    def raise_first_bad_row(rows, lines):
        for lineno, row in zip(lines, rows):
            if len(row) != len(header) if exact else len(row) <= top:
                raise DataError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}")
            for name, column in index.items():  # the timestamp first
                cell = row[column]
                try:
                    _stamp_column([cell], fmt) if name == stamp else _number(cell)
                except (ValueError, OverflowError) as exc:
                    fault = f"bad timestamp {cell!r}: {exc}" if name == stamp else f"bad value {cell!r}"
                    raise DataError(f"{path}: line {lineno}: {fault}") from None
            if finite and not all(math.isfinite(_number(row[index[name]])) for name in names):
                raise DataError(f"{path}: line {lineno}: non-finite number in {row!r}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty CSV: missing header row") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None
        stamp, names = pick(header)
        index = {name: header.index(name) for name in (stamp, *names) if name is not None}
        for name in index:
            if header.count(name) > 1:
                raise DataError(f"{path}: column {name!r} appears more than once in {header}")
        top = max(index.values())
        stamps, values, lines, last = [], {name: [] for name in names}, [], -1
        while reader.line_num > last:  # until a block reads no line; the first always runs
            rows, at, last, unreadable = [], [], reader.line_num, None
            try:
                first = last + 1  # a quoted newline lets a row span lines: name its first
                for row in islice(reader, READ_BLOCK):
                    if "".join(row).strip():
                        rows.append(row)
                        at.append(first)
                    first = reader.line_num + 1
            except (csv.Error, UnicodeDecodeError) as exc:
                # the rows read before the fault are checked first
                unreadable = DataError(f"{path}: unreadable CSV: {exc}")
            try:
                widths = set(map(len, rows))
                if widths and (widths != {len(header)} if exact else min(widths) <= top):
                    raise ValueError("row width")
                if stamp is not None:
                    stamps.append(_stamp_column(list(map(itemgetter(index[stamp]), rows)), fmt))
                for name in names:
                    values[name].append(_number_column(list(map(itemgetter(index[name]), rows))))
                    if finite and not np.isfinite(values[name][-1]).all():
                        raise ValueError("non-finite number")
            except (ValueError, OverflowError):
                raise_first_bad_row(rows, at)
                raise  # should the row check find nothing, the block still fails
            if unreadable is not None:
                raise unreadable
            lines.append(np.array(at, np.int64))
    lines = np.concatenate(lines)
    if not len(lines):
        raise DataError(f"{path}: no data rows")
    return (None if stamp is None else np.concatenate(stamps),
            {name: np.concatenate(parts) for name, parts in values.items()}, lines)


def _cells(col: np.ndarray) -> list:
    if col.dtype.kind == "M":
        return iso_seconds(col)
    if col.dtype.kind in "fiu":
        return list(map(fmt12, col.tolist()))
    return col.tolist()


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under ``header``: datetime64 columns as
    ISO seconds, numeric columns through fmt12, others as text. Rows are
    formatted a block at a time, so memory does not grow with the file."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(columns[0]), WRITE_BLOCK):
            writer.writerows(zip(*(_cells(col[lo:lo + WRITE_BLOCK]) for col in columns)))


def read_json(path, what: str):
    """Parse a JSON file; malformed text raises DataError naming ``what``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{path}: invalid {what} JSON: {exc}") from None


def json_ready(obj):
    """Recursively convert to JSON-safe types with 12-significant-digit floats.

    Infinities become None: JSON has no literal for them and ``json.dump``
    would otherwise emit nonstandard ``Infinity`` tokens.
    """
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return None
        return float(fmt12(v))
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _json_values(column) -> list[str]:
    """Each entry of a column as json.dumps(json_ready(entry)) writes it."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return [repr(float(f"{v:.12g}")) if math.isfinite(v) else "null" for v in column.tolist()]
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    text = {value: json.dumps(value) for value in set(column.tolist())}
    return list(map(text.__getitem__, column.tolist()))


def write_json(path, obj, records=None) -> None:
    """Stable JSON artifact: json_ready values, sorted keys, two-space indent.

    ``records`` maps top-level keys to dicts of equal-length columns. Each is
    written as the list of row objects json.dump would write for it, filled
    into one record template instead of built as a dict per row.
    """
    records = records or {}
    doc = json_ready({**obj, **dict.fromkeys(records, [])} if records else obj)
    text = json.dumps(doc, indent=2, sort_keys=True)
    for key, columns in records.items():
        names = sorted(columns)
        fields = (f"      {json.dumps(n).replace('%', '%%')}: %s" for n in names)
        template = "    {\n" + ",\n".join(fields) + "\n    }"
        rows = ",\n".join(map(template.__mod__, zip(*(_json_values(columns[n]) for n in names))))
        empty = f"\n  {json.dumps(key)}: []"  # the one top-level member named key
        text = text.replace(empty, f"{empty[:-2]}[\n{rows}\n  ]" if rows else empty, 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def config_number(value, where: str, *, allow_inf: bool = False, integer: bool = False):
    """A numeric field of a JSON config, as a float (an int if ``integer``).

    Booleans, strings and other non-numbers, NaN, a fraction where an integer
    is due, and infinities unless ``allow_inf`` raise DataError.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{where} must be {kind}, got {value!r}")
    number = float(value)
    if integer and not number.is_integer():
        raise DataError(f"{where} must be an integer, got {value!r}")
    if math.isnan(number):
        raise DataError(f"{where} must not be NaN" + ("" if allow_inf else " (finite numbers only)"))
    if math.isinf(number) and not allow_inf:
        raise DataError(f"{where} must be finite, got {value!r}")
    return int(number) if integer else number
