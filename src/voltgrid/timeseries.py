"""Hourly time-series carriers and transforms.

Everything here treats time as UTC; naive timestamps are taken to be UTC
already. Missing samples are explicit NaN entries, never omitted rows, so a
series of length L always spans exactly (L-1) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .errors import DataError
from .ioutil import naive_utc, read_columns, write_csv

SECONDS_PER_HOUR = 3600.0
# ingest's fixed series names; every other dataset column is a temperature station
GRID_SERIES = ("load", "gen", "res")


@dataclass(frozen=True)
class TimeSeries:
    """Hourly samples: value k sits at ``start`` plus k hours; ``step`` is
    always SECONDS_PER_HOUR."""

    start: datetime
    values: np.ndarray
    step: float = SECONDS_PER_HOUR
    name: str = "value"

    def __post_init__(self):
        if self.step != SECONDS_PER_HOUR:
            raise DataError(f"series {self.name!r} is not hourly: step {self.step:g}s")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise DataError(f"series {self.name!r}: values must be one-dimensional")
        try:  # its start in UTC and its end are datetimes
            object.__setattr__(self, "start", naive_utc(self.start))
            self.end
        except OverflowError:
            raise DataError(f"series {self.name!r} runs outside the datetime range") from None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> datetime:
        """Timestamp of the last sample."""
        return self.start + timedelta(hours=len(self.values) - 1)


@dataclass(frozen=True)
class AlignedFrame:
    """Equal-length named columns on one shared hourly time base: row k sits
    at ``start`` plus k hours."""

    start: datetime
    columns: dict[str, np.ndarray]
    holiday_calendar: frozenset[date] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "start", naive_utc(self.start))
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise DataError(f"column lengths differ: {lengths}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def timestamps(self) -> np.ndarray:
        return np.datetime64(self.start, "s") + np.arange(self.n_rows).astype("timedelta64[h]")

    def column(self, name: str) -> TimeSeries:
        if name not in self.columns:
            raise DataError(f"no column named {name!r} (have {sorted(self.columns)})")
        return TimeSeries(self.start, self.columns[name], name=name)


@dataclass(frozen=True)
class CsvSpec:
    """The value column :func:`parse_timeseries_csv` reads, and the series
    name (the column's when None)."""

    value_column: str = "value"
    name: str | None = None


def parse_timeseries_csv(path, spec: CsvSpec = CsvSpec()) -> TimeSeries:
    """Read one value column beside a ``timestamp`` column of ISO 8601
    stamps into an hourly TimeSeries, as read_series does."""
    name = spec.name if spec.name is not None else spec.value_column
    return read_series([(name, path)], lambda _: (spec.value_column,))[0]


def read_series(sources, candidates, timestamp_column: str = "timestamp",
                timestamp_format: str | None = None) -> list[TimeSeries]:
    """Read (series name, path) ``sources`` of headered CSV files into hourly
    TimeSeries, in order. Each series takes the first of ``candidates(name)``
    in its file's header; a file given for several series is read once, and
    its series share one time base.

    Rows are sorted by timestamp, duplicates are rejected, and any gaps that
    are whole hours are filled with NaN. Spacing off the hourly grid is an
    alignment error. ``timestamp_format`` is a ``strptime`` pattern; None
    accepts ISO 8601 (including the ``YYYY-MM-DD HH:MM`` variant).
    """
    files = {}
    for name, path in sources:
        files.setdefault(path, []).append(name)
    read = {}
    for path, names in files.items():
        chosen = []

        def pick(header):
            if timestamp_column not in header:
                raise DataError(f"{path}: timestamp column {timestamp_column!r} not in header {header}")
            for name in names:
                options = candidates(name)
                column = next((c for c in options if c in header), None)
                if column is None:
                    wanted = " or ".join(map(repr, dict.fromkeys(options)))
                    raise DataError(f"{path}: value column {wanted} not in header {header}")
                chosen.append((column, name))
            return timestamp_column, list(dict.fromkeys(c for c, _ in chosen))

        stamps, values, lines = read_columns(path, pick, fmt=timestamp_format)
        order = np.argsort(stamps, kind="stable")
        stamps = stamps[order]
        same = np.flatnonzero(stamps[1:] == stamps[:-1])
        if len(same):
            raise DataError(f"{path}: duplicate timestamp at line {lines[order[same[0] + 1]]}")

        start = stamps[0].item()
        steps = (stamps - stamps[0]) / np.timedelta64(1, "s") / SECONDS_PER_HOUR
        rounded = np.rint(steps)
        off_grid = np.flatnonzero(np.abs(steps - rounded) > 1e-6)
        if len(off_grid):
            raise DataError(
                f"{path}: line {lines[order[off_grid[0]]]}: timestamp not on the "
                f"{SECONDS_PER_HOUR:g}s grid anchored at {start}"
            )

        slots = rounded.astype(int)
        series = []
        for column, name in chosen:
            filled = np.full(slots[-1] + 1, np.nan)
            filled[slots] = values[column][order]
            series.append(TimeSeries(start=start, values=filled, name=name))
        read[path] = iter(series)
    return [next(read[path]) for _, path in sources]


def load_holidays(path) -> frozenset[date]:
    """Text file, one YYYY-MM-DD per line; blank lines and # comments skipped."""
    days = set()
    # a byte that is not UTF-8 becomes U+FFFD and fails as a bad date
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                days.add(date.fromisoformat(text))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad date {text!r}") from None
    return frozenset(days)


def align_hourly(series: list[TimeSeries], policy: str = "intersect",
                 holidays=frozenset()) -> AlignedFrame:
    """Join hourly series on the range every input covers.

    ``intersect`` is the one ``policy``.
    """
    if policy != "intersect":
        raise DataError(f"unknown alignment policy {policy!r} (only 'intersect')")
    if not series:
        raise DataError("nothing to align")
    for s in series:
        if len(s) == 0:
            raise DataError(f"series {s.name!r} is empty")
    anchor = series[0].start
    for s in series:
        off = (s.start - anchor).total_seconds()
        if abs(off - round(off / SECONDS_PER_HOUR) * SECONDS_PER_HOUR) > 1e-6:
            raise DataError(f"series {s.name!r} is offset from the shared hourly grid")
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        raise DataError(f"duplicate series names: {names}")

    start = max(s.start for s in series)
    end = min(s.end for s in series)
    if end < start:
        raise DataError("empty intersection: the series do not overlap in time")
    n_rows = int(round((end - start).total_seconds() / SECONDS_PER_HOUR)) + 1

    columns: dict[str, np.ndarray] = {}
    for s in series:
        first = int(round((start - s.start).total_seconds() / SECONDS_PER_HOUR))
        columns[s.name] = s.values[first:first + n_rows].copy()
    return AlignedFrame(start=start, columns=columns, holiday_calendar=frozenset(holidays))


def calendar_arrays(stamps: np.ndarray, holidays=frozenset()) -> dict[str, np.ndarray]:
    """day_of_week (Mon=0), hour_of_day and a working-day indicator for
    datetime64 stamps (UTC); weekends and dates in ``holidays`` count as
    non-working."""
    stamps = stamps.astype("datetime64[s]")
    days = stamps.astype("datetime64[D]")
    # 1970-01-01 is a Thursday (weekday 3)
    day_of_week = (days.astype(np.int64) + 3) % 7
    hour_of_day = (stamps - days).astype("timedelta64[h]").astype(np.int64)
    working = day_of_week < 5
    if holidays:
        holiday_arr = np.array(sorted(holidays), dtype="datetime64[D]")
        working &= ~np.isin(days, holiday_arr)
    return {
        "day_of_week": day_of_week.astype(np.int64),
        "hour_of_day": hour_of_day,
        "is_working_day": working.astype(np.int64),
    }


def write_frame_csv(frame: AlignedFrame, path) -> None:
    """Canonical dataset file: ISO timestamps plus one column per series,
    NaN as the empty cell."""
    write_csv(path, ["timestamp", *frame.columns], [frame.timestamps(), *frame.columns.values()])


def read_frame_csv(path, holidays=frozenset()) -> AlignedFrame:
    """Read a canonical dataset file back; rows must be hourly and sorted."""
    def columns(header):
        if not header or header[0] != "timestamp":
            raise DataError(f"{path}: expected a leading 'timestamp' column")
        if len(header) == 1:
            raise DataError(f"{path}: no value columns")
        return "timestamp", header[1:]

    stamps, values, lines = read_columns(path, columns, exact=True)
    gaps = np.flatnonzero(np.diff(stamps) != np.timedelta64(1, "h"))
    if len(gaps):
        raise DataError(f"{path}: lines {lines[gaps[0]]}-{lines[gaps[0] + 1]} are not consecutive hours")
    return AlignedFrame(start=stamps[0].item(), columns=values, holiday_calendar=frozenset(holidays))


def split_indices(n_rows: int, validation_tail: int, n_blocks: int):
    """Chronological block split of ``n_rows`` rows: the last
    ``validation_tail`` rows are held out, the rest cut into contiguous
    blocks whose lengths differ by at most one (earliest blocks take the
    remainder). Returns (block slices, tail slice)."""
    if validation_tail < 0:
        raise DataError(f"validation_tail must be >= 0, got {validation_tail}")
    if validation_tail >= n_rows:
        raise DataError(
            f"validation_tail {validation_tail} must be smaller than the row count {n_rows}"
        )
    n_train = n_rows - validation_tail
    if n_blocks < 1:
        raise DataError(f"n_blocks must be >= 1, got {n_blocks}")
    if n_blocks > n_train:
        raise DataError(f"n_blocks {n_blocks} exceeds the training length {n_train}")
    base, extra = divmod(n_train, n_blocks)
    blocks = []
    lo = 0
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        blocks.append(slice(lo, lo + size))
        lo += size
    return blocks, slice(n_train, n_rows)
