"""Command-line pipeline: ingest -> forecast -> dispatch -> report.

Exit codes: 0 success, 2 bad input or configuration, 3 numerical failure in
the solver. All numbers are written with 12 significant digits, so a rerun
with the same flags and seed is byte-identical.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .errors import DataError, SolverError
from .forecast import FeatureConfig, block_cross_validate, save_model
from .ioutil import dump_json, fmt12
from .storage import (
    StorageSpec,
    count_cycles,
    dispatch,
    min_capacity,
    read_dispatch_csv,
    storage_spec_from_config,
    write_dispatch_csv,
)
from .timeseries import (
    SECONDS_PER_HOUR,
    CsvSpec,
    TimeSeries,
    align_hourly,
    load_holidays,
    parse_timeseries_csv,
    read_frame_csv,
    write_frame_csv,
)
from .volterra import Grid, load_kernel

# every input option names an existing file; click exits 2 otherwise
INPUT_FILE = click.Path(exists=True, dir_okay=False)


def _guarded(fn):
    """Map package errors onto the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except SolverError as exc:
            click.echo(f"solver error: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


@click.group()
def main():
    """Storage dispatch from load imbalances, plus the forecasting harness."""


@main.command("ingest")
@click.option("--load", "load_path", required=True, type=INPUT_FILE,
              help="CSV with a timestamp column and the load values.")
@click.option("--gen", "gen_path", type=INPUT_FILE,
              help="Conventional generation series CSV.")
@click.option("--res", "res_path", type=INPUT_FILE,
              help="Renewable generation series CSV.")
@click.option("--temp", "temp_paths", type=INPUT_FILE, multiple=True,
              help="Temperature CSV; repeat per station. Column named by file stem.")
@click.option("--holidays", "holidays_path", type=INPUT_FILE,
              help="Holiday calendar, one YYYY-MM-DD per line.")
@click.option("--timestamp-column", default="timestamp", show_default=True)
@click.option("--value-column", default="value", show_default=True)
@click.option("--timestamp-format", default=None,
              help="strptime pattern; ISO 8601 when omitted.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
              help="Output directory for dataset.csv and summary.json.")
@_guarded
def cmd_ingest(load_path, gen_path, res_path, temp_paths, holidays_path,
               timestamp_column, value_column, timestamp_format, out_dir):
    """Align the input series on their common hourly range."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def parse(path, name):
        spec = CsvSpec(timestamp_column=timestamp_column, value_column=value_column,
                       timestamp_format=timestamp_format, name=name)
        return parse_timeseries_csv(path, spec)

    series = [parse(load_path, "load")]
    if gen_path:
        series.append(parse(gen_path, "gen"))
    if res_path:
        series.append(parse(res_path, "res"))
    for path in temp_paths:
        series.append(parse(path, Path(path).stem))
    holidays = load_holidays(holidays_path) if holidays_path else frozenset()

    frame = align_hourly(series, policy="intersect", holidays=holidays)
    write_frame_csv(frame, out_dir / "dataset.csv")
    stamps = frame.timestamps()
    summary = {
        "rows": frame.n_rows,
        "start": np.datetime_as_string(stamps[0], unit="s"),
        "end": np.datetime_as_string(stamps[-1], unit="s"),
        "columns": list(frame.columns),
        "na_counts": {name: int(np.isnan(col).sum())
                      for name, col in frame.columns.items()},
        "holidays": sorted(d.isoformat() for d in holidays),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        dump_json(summary, fh)
    click.echo(f"wrote {out_dir / 'dataset.csv'} ({frame.n_rows} rows)")


@main.command("forecast")
@click.option("--data", "data_path", required=True, type=INPUT_FILE,
              help="dataset.csv from the ingest step.")
@click.option("--model", "model_name", required=True,
              type=click.Choice(["lm", "rf", "gbdt"]))
@click.option("--horizon", default=24, show_default=True, type=int)
@click.option("--blocks", default=5, show_default=True, type=int)
@click.option("--tail", required=True, type=int,
              help="Held-out validation rows at the end of the frame.")
@click.option("--trees", default=None, type=int,
              help="Override the ensemble size (rf: 500, gbdt: 100).")
@click.option("--seed", default=0, show_default=True, type=int,
              envvar="VOLTGRID_SEED",
              help="Master seed; VOLTGRID_SEED is used unless --seed is given.")
@click.option("--holidays", "holidays_path", type=INPUT_FILE,
              help="Holiday calendar for the working-day feature.")
@click.option("--save-model", "model_path", type=click.Path(),
              help="Also persist the final fitted model as JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
              help="Output directory for forecast.csv and metrics.json.")
@_guarded
def cmd_forecast(data_path, model_name, horizon, blocks, tail, trees, seed,
                 holidays_path, model_path, out_dir):
    """Cross-validate one model and forecast the held-out tail."""
    out_dir.mkdir(parents=True, exist_ok=True)
    holidays = load_holidays(holidays_path) if holidays_path else frozenset()
    frame = read_frame_csv(data_path, holidays=holidays)

    params = {}
    if trees is not None:
        if model_name == "lm":
            raise DataError("--trees does not apply to the linear model")
        params["n_trees"] = trees
    report = block_cross_validate(
        model_name, frame, n_blocks=blocks, validation_tail=tail,
        params=params, config=FeatureConfig(horizon=horizon), seed=seed,
    )

    with open(out_dir / "forecast.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "predicted", "actual"])
        for stamp, pred, act in zip(report.timestamps, report.predicted, report.actual):
            writer.writerow([np.datetime_as_string(stamp, unit="s"),
                             fmt12(pred), fmt12(act)])
    metrics = report.as_dict()
    metrics["seed"] = seed
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
        dump_json(metrics, fh)
    if model_path:
        save_model(report.final_model, model_path)

    val = report.validation
    mape = "n/a" if val.mape_percent is None else f"{val.mape_percent:.3f}%"
    click.echo(
        f"{model_name}: validation rmse {val.rmse:.3f} mae {val.mae:.3f} mape {mape}"
    )


def _sniff_value_column(path, candidates):
    """Dispatch inputs may be plain series files, a dataset.csv column, or
    forecast.csv outputs; take the first header name that matches."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    for name in candidates:
        if name in header:
            return name
    raise DataError(
        f"{path}: none of {list(candidates)} in header {header}"
    )


@main.command("dispatch")
@click.option("--load", "load_path", required=True, type=INPUT_FILE,
              help="Load series: ingest-style CSV or a forecast.csv.")
@click.option("--gen", "gen_path", type=INPUT_FILE,
              help="Conventional generation series; zero when omitted.")
@click.option("--res", "res_path", type=INPUT_FILE,
              help="Renewable generation series; zero when omitted.")
@click.option("--kernel", "kernel_path", required=True, type=INPUT_FILE,
              help="Kernel configuration JSON.")
@click.option("--storage", "storage_path", type=INPUT_FILE,
              help="StorageSpec JSON; defaults apply when omitted.")
@click.option("--grid-n", default=None, type=int,
              help="Use only the first N+1 samples (default: all).")
@click.option("--soc-efficiency", is_flag=True, default=False,
              help="Apply the charge/discharge efficiency asymmetry to the "
                   "stored-energy trajectory as well as the kernel.")
@click.option("--timestamp-column", default="timestamp", show_default=True)
@click.option("--value-column", default="value", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
              help="Output directory for dispatch.csv and report.json.")
@_guarded
def cmd_dispatch(load_path, gen_path, res_path, kernel_path, storage_path,
                 grid_n, soc_efficiency, timestamp_column, value_column, out_dir):
    """Solve the storage schedule for the given imbalance inputs."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def parse(path, name):
        # an explicit --value-column must not stop the other series from
        # using their conventional headers
        candidates = []
        for c in (value_column, name, "value", "predicted"):
            if c not in candidates:
                candidates.append(c)
        value_col = _sniff_value_column(path, tuple(candidates))
        spec = CsvSpec(timestamp_column=timestamp_column, value_column=value_col,
                       name=name)
        return parse_timeseries_csv(path, spec)

    f_load = parse(load_path, "load")
    f_res = parse(res_path, "res") if res_path else None
    f_gen = parse(gen_path, "gen") if gen_path else None
    present = [s for s in (f_load, f_res, f_gen) if s is not None]
    if len(present) > 1:
        frame = align_hourly(present, policy="intersect")
        f_load = frame.column("load")
        f_res = frame.column("res") if f_res is not None else None
        f_gen = frame.column("gen") if f_gen is not None else None

    def zero_series(name):
        return TimeSeries(f_load.start, np.zeros(len(f_load)), f_load.step, name)

    if f_res is None:
        f_res = zero_series("res")
    if f_gen is None:
        f_gen = zero_series("gen")

    n_rows = len(f_load)
    if n_rows < 3:
        raise DataError(f"need at least 3 aligned samples, got {n_rows}")
    n_cells = n_rows - 1
    if grid_n is not None:
        if grid_n < 2 or grid_n > n_cells:
            raise DataError(f"--grid-n must be in [2, {n_cells}], got {grid_n}")
        n_cells = grid_n

    def truncate(s):
        return TimeSeries(s.start, s.values[:n_cells + 1], s.step, s.name)

    step_hours = f_load.step / SECONDS_PER_HOUR
    grid = Grid(horizon=n_cells * step_hours, n_cells=n_cells)
    kernel = load_kernel(kernel_path)
    if storage_path:
        with open(storage_path, "r", encoding="utf-8") as fh:
            try:
                storage_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{storage_path}: invalid storage JSON: {exc}") from None
        spec = storage_spec_from_config(storage_cfg)
    else:
        spec = StorageSpec()

    report = dispatch(truncate(f_res), truncate(f_gen), truncate(f_load),
                      kernel, spec, grid, soc_efficiency=soc_efficiency)
    write_dispatch_csv(out_dir / "dispatch.csv", report)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        dump_json(report.as_dict(), fh)
    click.echo(
        f"dispatch over {n_cells} cells: min capacity {fmt12(report.min_capacity)}, "
        f"max |x| {fmt12(report.max_abs_power)}, "
        f"{len(report.violations)} constraint violation(s)"
    )


def _series_label(path: str, taken) -> str:
    """Readable unique label for a dispatch file: prefer the parent directory
    when the file itself has the default name."""
    p = Path(path)
    base = p.parent.name if p.stem == "dispatch" and p.parent.name else p.stem
    label = base
    k = 2
    while label in taken:
        label = f"{base}#{k}"
        k += 1
    return label


@main.command("report")
@click.option("--dispatch", "dispatch_paths", required=True, multiple=True,
              type=INPUT_FILE, help="dispatch.csv files to compare; repeatable.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
              help="Output directory for comparison.json and comparison.csv.")
@_guarded
def cmd_report(dispatch_paths, out_dir):
    """Compare dispatch runs (e.g. actual-load vs forecast-load schedules)."""
    out_dir.mkdir(parents=True, exist_ok=True)

    names: list[str] = []
    for path in dispatch_paths:
        names.append(_series_label(path, names))
    loaded = [read_dispatch_csv(p) for p in dispatch_paths]
    t0 = loaded[0][0]
    for name, (t, _, _, _) in zip(names[1:], loaded[1:]):
        if len(t) != len(t0) or np.max(np.abs(t - t0)) > 1e-9 * max(1.0, float(t0[-1])):
            raise DataError(f"dispatch grids differ: {names[0]} vs {name}")

    table = []
    for name, (t, x, v, E) in zip(names, loaded):
        capacity = min_capacity(E)
        table.append({
            "series": name,
            "min_capacity": capacity,
            "max_abs_power": float(np.max(np.abs(x))),
            "equivalent_cycles": count_cycles(E, capacity) if capacity > 0 else 0.0,
        })
    pairwise = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            diff = float(np.max(np.abs(loaded[i][1] - loaded[j][1])))
            pairwise.append({"a": names[i], "b": names[j], "max_abs_x_diff": diff})

    with open(out_dir / "comparison.json", "w", encoding="utf-8") as fh:
        dump_json({"runs": table, "pairwise": pairwise}, fh)
    with open(out_dir / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "series", "x", "E"])
        for name, (t, x, _, E) in zip(names, loaded):
            for k in range(len(t)):
                writer.writerow([fmt12(t[k]), name, fmt12(x[k]), fmt12(E[k])])
    click.echo(f"compared {len(names)} dispatch run(s)")


if __name__ == "__main__":
    main()
