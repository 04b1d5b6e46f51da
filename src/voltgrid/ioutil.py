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
    if math.isnan(v):
        return ""
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def iso_seconds(stamps) -> list[str]:
    """datetime64 stamps as ISO 8601 strings to the second."""
    return np.datetime_as_string(np.asarray(stamps), unit="s").tolist()


def naive_utc(ts: datetime) -> datetime:
    """``ts`` as a naive UTC datetime; a naive ``ts`` is taken to be UTC already."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def _header(reader, path) -> list[str]:
    try:
        header = next(reader, None)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty CSV: missing header row")
    return [name.strip() for name in header]


def read_csv(path):
    """Stream a headered CSV file: yield (1, header with stripped names),
    then (line number, cells) for every row that is not all blank.

    An empty file, or one that is not UTF-8 text, raises DataError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        yield 1, _header(reader, path)
        try:
            for row in reader:
                if "".join(row).strip():
                    yield reader.line_num, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None


def line_of_row(path, row: int) -> int:
    """The line number read_csv gives data row ``row`` (0-based) of ``path``."""
    return next(islice(read_csv(path), row + 1, None))[0]


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        if cell.strip().lower() in NA_STRINGS:
            return math.nan
        raise


def parse_cell(cell: str, path, lineno: int) -> float:
    """One numeric CSV cell; the NA_STRINGS markers (any case) read as NaN."""
    try:
        return _number(cell)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: bad value {cell!r}") from None


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


def _parse_stamp(text: str, fmt: str | None, path, lineno: int) -> datetime:
    """One timestamp cell as a naive UTC datetime, by _stamp_column's rules."""
    try:
        return _stamp_column([text], fmt)[0].item()
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: line {lineno}: bad timestamp {text!r}: {exc}") from None


def _number_column(cells: list) -> np.ndarray:
    """parse_cell over a whole column; a bad cell raises ValueError."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # an NA marker, or a bad cell
        return np.fromiter(map(_number, cells), float, len(cells))


def read_columns(path, pick, *, fmt=None, exact=False, finite=False):
    """Read a headered CSV file once, converting whole columns READ_BLOCK
    rows at a time, so memory does not grow with the file.

    ``pick(header)`` gets the stripped header names, raises DataError for a
    header it cannot use, and returns the timestamp column (or None), read
    under ``fmt``, and the numeric columns, read as parse_cell reads. Each
    must appear once in the header. Rows must hold every header column when
    ``exact``, else the picked ones; ``finite`` rejects NaN and infinities.
    Returns the stamps (or None) and the numeric columns by name, in file
    order. Should a block fail to convert, a row-at-a-time pass raises the
    DataError of the first failing row.
    """
    def raise_first_bad_row():
        lines = read_csv(path)
        next(lines)
        for lineno, row in lines:
            if len(row) != len(header) if exact else len(row) <= top:
                raise DataError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}")
            if stamp is not None:
                _parse_stamp(row[index[stamp]], fmt, path, lineno)
            cells = [parse_cell(row[index[name]], path, lineno) for name in names]
            if finite and not all(map(math.isfinite, cells)):
                raise DataError(f"{path}: line {lineno}: non-finite number in {row!r}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        stamp, names = pick(header)
        index = {name: header.index(name) for name in (stamp, *names) if name is not None}
        for name in index:
            if header.count(name) > 1:
                raise DataError(f"{path}: column {name!r} appears more than once in {header}")
        top = max(index.values())
        stamps, values = [np.empty(0, "datetime64[us]")], {name: [np.empty(0)] for name in names}
        try:
            while chunk := list(islice(reader, READ_BLOCK)):
                rows = [row for row in chunk if "".join(row).strip()]
                widths = set(map(len, rows))
                if widths and (widths != {len(header)} if exact else min(widths) <= top):
                    raise ValueError("row width")
                if stamp is not None:
                    stamps.append(_stamp_column(list(map(itemgetter(index[stamp]), rows)), fmt))
                for name in names:
                    values[name].append(_number_column(list(map(itemgetter(index[name]), rows))))
                    if finite and not np.isfinite(values[name][-1]).all():
                        raise ValueError("non-finite number")
        except (ValueError, OverflowError, csv.Error):
            raise_first_bad_row()
            raise  # should the row pass find nothing, the block still fails
    return (None if stamp is None else np.concatenate(stamps),
            {name: np.concatenate(parts) for name, parts in values.items()})


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
