"""Hourly time-series carriers and transforms.

Everything here treats time as UTC; naive timestamps are taken to be UTC
already. Missing samples are explicit NaN entries, never omitted rows, so a
series of length L always spans exactly (L-1) steps.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone

import numpy as np

from .errors import DataError

NA_STRINGS = frozenset({"", "na", "n/a", "nan", "null", "-"})

SECONDS_PER_HOUR = 3600.0


def _to_naive_utc(ts: datetime) -> datetime:
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly spaced samples: value k sits at ``start + k*step``."""

    start: datetime
    values: np.ndarray
    step: float = SECONDS_PER_HOUR
    name: str = "value"

    def __post_init__(self):
        if self.step <= 0:
            raise DataError(f"series {self.name!r}: step must be positive, got {self.step}")
        object.__setattr__(self, "start", _to_naive_utc(self.start))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise DataError(f"series {self.name!r}: values must be one-dimensional")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> datetime:
        """Timestamp of the last sample."""
        return self.start + timedelta(seconds=self.step * (len(self.values) - 1))

    def timestamps(self) -> np.ndarray:
        base = np.datetime64(self.start, "s")
        offsets = (np.arange(len(self.values)) * self.step).astype("timedelta64[s]")
        return base + offsets


@dataclass(frozen=True)
class AlignedFrame:
    """Equal-length named columns on one shared hourly time base."""

    start: datetime
    step: float
    columns: dict[str, np.ndarray]
    holiday_calendar: frozenset[date] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "start", _to_naive_utc(self.start))
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise DataError(f"column lengths differ: {lengths}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def timestamps(self) -> np.ndarray:
        base = np.datetime64(self.start, "s")
        offsets = (np.arange(self.n_rows) * self.step).astype("timedelta64[s]")
        return base + offsets

    def column(self, name: str) -> TimeSeries:
        if name not in self.columns:
            raise DataError(f"no column named {name!r} (have {sorted(self.columns)})")
        return TimeSeries(self.start, self.columns[name], self.step, name)

    def with_holidays(self, holidays) -> "AlignedFrame":
        return replace(self, holiday_calendar=frozenset(holidays))


@dataclass(frozen=True)
class CsvSpec:
    """Column mapping for :func:`parse_timeseries_csv`.

    ``timestamp_format`` is a ``strptime`` pattern; None accepts ISO 8601
    (including the ``YYYY-MM-DD HH:MM`` variant).
    """

    timestamp_column: str = "timestamp"
    value_column: str = "value"
    timestamp_format: str | None = None
    step: float = SECONDS_PER_HOUR
    name: str | None = None


def _parse_stamp(text: str, fmt: str | None) -> datetime:
    if fmt is not None:
        return datetime.strptime(text, fmt)
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    return datetime.fromisoformat(cleaned)


def _open_text(source):
    """Accept a path or a text stream; yield a text stream."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline="")
    return source


def parse_timeseries_csv(source, spec: CsvSpec = CsvSpec()) -> TimeSeries:
    """Read one value column out of a headered CSV into a TimeSeries.

    Rows are sorted by timestamp, duplicates are rejected, and any gaps that
    are whole multiples of ``spec.step`` are filled with NaN. Spacing that is
    not a multiple of the declared step is an alignment error.
    """
    stream = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV: missing header row") from None
        header = [h.strip() for h in header]
        try:
            ts_idx = header.index(spec.timestamp_column)
        except ValueError:
            raise DataError(
                f"timestamp column {spec.timestamp_column!r} not in header {header}"
            ) from None
        try:
            val_idx = header.index(spec.value_column)
        except ValueError:
            raise DataError(
                f"value column {spec.value_column!r} not in header {header}"
            ) from None

        rows: list[tuple[datetime, float, int]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(ts_idx, val_idx):
                raise DataError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                stamp = _to_naive_utc(_parse_stamp(row[ts_idx], spec.timestamp_format))
            except ValueError as exc:
                raise DataError(f"line {lineno}: bad timestamp {row[ts_idx]!r}: {exc}") from None
            cell = row[val_idx].strip()
            if cell.lower() in NA_STRINGS:
                value = float("nan")
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"line {lineno}: bad value {cell!r}") from None
            rows.append((stamp, value, lineno))
    finally:
        if isinstance(source, (str, os.PathLike)):
            stream.close()

    if not rows:
        raise DataError("CSV contains no data rows")
    rows.sort(key=lambda r: r[0])
    for (t0, _, _), (t1, _, line1) in zip(rows, rows[1:]):
        if t0 == t1:
            raise DataError(f"duplicate timestamp at line {line1}")

    start = rows[0][0]
    offsets = np.array([(stamp - start).total_seconds() for stamp, _, _ in rows])
    steps = offsets / spec.step
    rounded = np.rint(steps)
    if np.any(np.abs(steps - rounded) > 1e-6):
        bad = int(np.argmax(np.abs(steps - rounded) > 1e-6))
        raise DataError(
            f"line {rows[bad][2]}: timestamp not on the {spec.step:g}s grid anchored at {start}"
        )

    length = int(rounded[-1]) + 1
    values = np.full(length, np.nan)
    values[rounded.astype(int)] = [v for _, v, _ in rows]
    name = spec.name if spec.name is not None else spec.value_column
    return TimeSeries(start=start, values=values, step=spec.step, name=name)


def load_holidays(path) -> frozenset[date]:
    """Text file, one YYYY-MM-DD per line; blank lines and # comments skipped."""
    days = set()
    with open(path, "r", encoding="utf-8") as fh:
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
    """Join hourly series on a common time base.

    ``intersect`` keeps the range covered by every input, ``union`` spans the
    hull and pads with NaN.
    """
    if policy not in ("intersect", "union"):
        raise DataError(f"unknown alignment policy {policy!r}")
    if not series:
        raise DataError("nothing to align")
    for s in series:
        if s.step != SECONDS_PER_HOUR:
            raise DataError(f"step mismatch: series {s.name!r} has step {s.step:g}s, need 3600s")
        if len(s) == 0:
            raise DataError(f"series {s.name!r} is empty")
    anchor = series[0].start
    for s in series:
        off = (s.start - anchor).total_seconds()
        if abs(off - round(off / s.step) * s.step) > 1e-6:
            raise DataError(f"series {s.name!r} is offset from the shared hourly grid")
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        raise DataError(f"duplicate series names: {names}")

    if policy == "intersect":
        start = max(s.start for s in series)
        end = min(s.end for s in series)
        if end < start:
            raise DataError("empty intersection: the series do not overlap in time")
    else:
        start = min(s.start for s in series)
        end = max(s.end for s in series)
    n_rows = int(round((end - start).total_seconds() / SECONDS_PER_HOUR)) + 1

    columns: dict[str, np.ndarray] = {}
    for s in series:
        out = np.full(n_rows, np.nan)
        shift = int(round((s.start - start).total_seconds() / SECONDS_PER_HOUR))
        src_lo = max(0, -shift)
        src_hi = min(len(s), n_rows - shift)
        out[src_lo + shift:src_hi + shift] = s.values[src_lo:src_hi]
        columns[s.name] = out
    return AlignedFrame(start=start, step=SECONDS_PER_HOUR, columns=columns,
                        holiday_calendar=frozenset(holidays))


def ema(series: TimeSeries, period_hours: int) -> TimeSeries:
    """Exponential moving average, smoothing 2/(period+1), seeded with v[0]."""
    if period_hours < 1:
        raise DataError(f"EMA period must be >= 1 hour, got {period_hours}")
    v = series.values
    if len(v) == 0:
        raise DataError("EMA of an empty series")
    if np.isnan(v).any():
        raise DataError(f"series {series.name!r} has missing values; impute before EMA")
    beta = 2.0 / (period_hours + 1.0)
    keep = 1.0 - beta
    # y[k] = (1-beta)*y[k-1] + beta*v[k], started from y[-1] = v[0]
    out = []
    prev = float(v[0])
    for vk in v.tolist():
        prev = keep * prev + beta * vk
        out.append(prev)
    return TimeSeries(series.start, np.array(out), series.step, f"{series.name}_ema{period_hours}")


def lag(series: TimeSeries, k_hours: int) -> TimeSeries:
    """Shift values k steps into the future; the first k outputs are NaN."""
    if k_hours < 1:
        raise DataError(f"lag must be >= 1, got {k_hours}")
    v = series.values
    out = np.full(len(v), np.nan)
    if k_hours < len(v):
        out[k_hours:] = v[:-k_hours]
    return TimeSeries(series.start, out, series.step, f"{series.name}_lag{k_hours}")


def previous_day_stats(series: TimeSeries, stat: str) -> TimeSeries:
    """Stamp every sample of day D with mean or min over all of day D-1."""
    if stat not in ("mean", "min"):
        raise DataError(f"stat must be 'mean' or 'min', got {stat!r}")
    stamps = series.timestamps()
    day_ids = stamps.astype("datetime64[D]").astype(np.int64)
    uniq, first_idx = np.unique(day_ids, return_index=True)
    if stat == "mean":
        sums = np.add.reduceat(series.values, first_idx)
        counts = np.diff(np.append(first_idx, len(series.values)))
        per_day = sums / counts
    else:
        per_day = np.minimum.reduceat(series.values, first_idx)

    prev_pos = np.searchsorted(uniq, day_ids - 1)
    have_prev = (prev_pos < len(uniq)) & (uniq[np.minimum(prev_pos, len(uniq) - 1)] == day_ids - 1)
    out = np.full(len(series.values), np.nan)
    out[have_prev] = per_day[prev_pos[have_prev]]
    return TimeSeries(series.start, out, series.step,
                      f"{series.name}_prev_day_{stat}")


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
    from .ioutil import fmt12

    stamps = frame.timestamps()
    names = list(frame.columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + names)
        for i in range(frame.n_rows):
            row = [np.datetime_as_string(stamps[i], unit="s")]
            row.extend(fmt12(frame.columns[name][i]) for name in names)
            writer.writerow(row)


def read_frame_csv(path, holidays=frozenset()) -> AlignedFrame:
    """Read a canonical dataset file back; rows must be hourly and sorted."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "timestamp":
            raise DataError(f"{os.fspath(path)}: expected a leading 'timestamp' column")
        names = header[1:]
        if not names:
            raise DataError(f"{os.fspath(path)}: no value columns")
        stamps = []
        data: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{os.fspath(path)}: line {lineno}: expected {len(header)} columns, "
                    f"got {len(row)}"
                )
            try:
                stamps.append(_to_naive_utc(_parse_stamp(row[0], None)))
            except ValueError as exc:
                raise DataError(f"{os.fspath(path)}: line {lineno}: bad timestamp: {exc}") from None
            data.append([float("nan") if cell.strip().lower() in NA_STRINGS else float(cell)
                         for cell in row[1:]])
    if not stamps:
        raise DataError(f"{os.fspath(path)}: no data rows")
    for i, (a, b) in enumerate(zip(stamps, stamps[1:])):
        if (b - a).total_seconds() != SECONDS_PER_HOUR:
            raise DataError(
                f"{os.fspath(path)}: rows {i + 2}-{i + 3} are not consecutive hours"
            )
    values = np.asarray(data, dtype=float)
    columns = {name: values[:, k].copy() for k, name in enumerate(names)}
    return AlignedFrame(start=stamps[0], step=SECONDS_PER_HOUR, columns=columns,
                        holiday_calendar=frozenset(holidays))


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
