"""The package's file formats: CSV and JSON reading and writing, the
missing-value markers, config numbers and deterministic number formatting."""

from __future__ import annotations

import csv
import json
import math
import numbers

import numpy as np

from .errors import DataError

# missing-value cells, matched after strip() and lower()
NA_STRINGS = frozenset({"", "na", "n/a", "nan", "null", "-"})
WRITE_BLOCK = 4096  # rows formatted at once by write_csv


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


def read_csv(path):
    """Stream a headered CSV file: yield (1, header with stripped names),
    then (line number, cells) for every row that is not all blank.

    An empty file, or one that is not UTF-8 text, raises DataError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty CSV: missing header row")
            yield 1, [name.strip() for name in header]
            for row in reader:
                if "".join(row).strip():
                    yield reader.line_num, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None


def parse_cell(cell: str, path, lineno: int) -> float:
    """One numeric CSV cell; the NA_STRINGS markers (any case) read as NaN."""
    try:
        return float(cell)
    except ValueError:
        if cell.strip().lower() in NA_STRINGS:
            return math.nan
        raise DataError(f"{path}: line {lineno}: bad value {cell!r}") from None


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


def write_json(path, obj) -> None:
    """Stable JSON artifact: json_ready values, sorted keys, two-space indent."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
