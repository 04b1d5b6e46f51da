"""Command-line pipeline: ingest -> forecast -> dispatch -> report.

Exit codes: 0 success, 2 bad input or configuration, 3 numerical failure in
the solver. All numbers are written with 12 significant digits, so a rerun
with the same flags and seed is byte-identical.

Each command imports its layer in its body, each name from the module that
defines it. This module itself loads only argparse and ``errors``, and
builds its parser when ``main`` runs, so help and usage errors load no
numpy, and only ``dispatch`` loads the solver.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import DataError, SolverError, overflow_as_data_error


def cmd_ingest(load_path, gen_path, res_path, temp_paths, holidays_path,
               timestamp_column, value_column, timestamp_format, out_dir):
    """Align the input series on their common hourly range."""
    import numpy as np

    from .ioutil import iso_seconds, write_json
    from .timeseries import GRID_SERIES, align_hourly, load_holidays, read_series, write_frame_csv

    stations = [(Path(path).stem, path) for path in temp_paths]
    for name, path in stations:
        if name in (*GRID_SERIES, "timestamp"):
            what = "the dataset's timestamp column" if name == "timestamp" else f"the --{name} series"
            raise DataError(f"{path}: --temp file stem {name!r} is reserved for {what}; "
                            "rename the file")

    sources = [*zip(GRID_SERIES, (load_path, gen_path, res_path)), *stations]
    series = read_series([(name, path) for name, path in sources if path],
                         lambda name: (value_column,), timestamp_column, timestamp_format)
    holidays = load_holidays(holidays_path) if holidays_path else frozenset()

    frame = align_hourly(series, holidays=holidays)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_frame_csv(frame, out_dir / "dataset.csv")
    start, end = iso_seconds(frame.timestamps()[[0, -1]])
    summary = {
        "rows": frame.n_rows,
        "start": start,
        "end": end,
        "columns": list(frame.columns),
        "na_counts": {name: int(np.isnan(col).sum())
                      for name, col in frame.columns.items()},
        "holidays": sorted(d.isoformat() for d in holidays),
    }
    write_json(out_dir / "summary.json", summary)
    print(f"wrote {out_dir / 'dataset.csv'} ({frame.n_rows} rows)")


def cmd_forecast(data_path, model_name, horizon, blocks, tail, trees, seed,
                 holidays_path, model_path, out_dir):
    """Cross-validate one model and forecast the held-out tail."""
    from .forecast.features import FeatureConfig
    from .forecast.models import save_model
    from .forecast.validation import block_cross_validate
    from .ioutil import write_csv, write_json
    from .timeseries import load_holidays, read_frame_csv

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

    # the model first, as it may live in --out; a --out made here is empty should that fail
    fresh = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    if model_path:
        try:
            save_model(report.final_model, model_path)
        except OSError:
            if fresh:
                out_dir.rmdir()
            raise
    write_csv(out_dir / "forecast.csv", ["timestamp", "predicted", "actual"],
              [report.timestamps, report.predicted, report.actual])
    write_json(out_dir / "metrics.json", {**report.as_dict(), "seed": seed})

    val = report.validation
    mape = "n/a" if val.mape_percent is None else f"{val.mape_percent:.3f}%"
    print(f"{model_name}: validation rmse {val.rmse:.3f} mae {val.mae:.3f} mape {mape}")


def cmd_dispatch(load_path, gen_path, res_path, kernel_path, storage_path,
                 grid_n, soc_efficiency, timestamp_column, value_column, out_dir):
    """Solve the storage schedule for the given imbalance inputs."""
    import numpy as np

    from .ioutil import fmt12, read_json
    from .storage import (StorageSpec, dispatch, storage_spec_from_config, write_dispatch_csv,
                          write_report_json)
    from .timeseries import TimeSeries, align_hourly, read_series
    from .volterra import Grid, load_kernel

    # a plain series file, a dataset.csv column or a forecast.csv: take the
    # first candidate in the header, so an explicit --value-column does not
    # stop the other series from using their conventional names
    sources = (("load", load_path), ("res", res_path), ("gen", gen_path))
    frame = align_hourly(read_series(
        [(name, path) for name, path in sources if path],
        lambda name: (value_column, name, "value", "predicted"), timestamp_column))

    n_rows = frame.n_rows
    if n_rows < 3:
        raise DataError(f"need at least 3 aligned samples, got {n_rows}")
    n_cells = n_rows - 1
    if grid_n is not None:
        if grid_n < 2 or grid_n > n_cells:
            raise DataError(f"--grid-n must be in [2, {n_cells}], got {grid_n}")
        n_cells = grid_n

    # the first n_cells + 1 samples of each series; an omitted one is zero
    zeros = np.zeros(n_rows)
    f_res, f_gen, f_load = (
        TimeSeries(frame.start, frame.columns.get(name, zeros)[:n_cells + 1], name=name)
        for name in ("res", "gen", "load"))
    grid = Grid(horizon=float(n_cells), n_cells=n_cells)
    kernel = load_kernel(kernel_path)
    spec = (storage_spec_from_config(read_json(storage_path, "storage"))
            if storage_path else StorageSpec())

    report = dispatch(f_res, f_gen, f_load, kernel, spec, grid, soc_efficiency=soc_efficiency)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dispatch_csv(out_dir / "dispatch.csv", report)
    write_report_json(out_dir / "report.json", report)
    print(
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


@overflow_as_data_error("the dispatch runs overflow the comparison")
def cmd_report(dispatch_paths, out_dir):
    """Compare dispatch runs (e.g. actual-load vs forecast-load schedules)."""
    import numpy as np

    from .ioutil import write_csv, write_json
    from .storage import read_dispatch_csv, sizing

    names: list[str] = []
    for path in dispatch_paths:
        names.append(_series_label(path, names))
    loaded = [read_dispatch_csv(p) for p in dispatch_paths]
    t0 = loaded[0][0]
    for name, (t, _, _, _) in zip(names[1:], loaded[1:]):
        if len(t) != len(t0) or np.max(np.abs(t - t0)) > 1e-9 * max(1.0, float(t0[-1])):
            raise DataError(f"dispatch grids differ: {names[0]} vs {name}")

    table = [{"series": name, **sizing(x, E)} for name, (_, x, _, E) in zip(names, loaded)]
    pairwise = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            diff = float(np.max(np.abs(loaded[i][1] - loaded[j][1])))
            pairwise.append({"a": names[i], "b": names[j], "max_abs_x_diff": diff})

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "comparison.json", {"runs": table, "pairwise": pairwise})
    # long format: every run's rows in turn, labelled by series
    t, x, _, E = (np.concatenate(cols) for cols in zip(*loaded))
    write_csv(out_dir / "comparison.csv", ["t", "series", "x", "E"],
              [t, np.repeat(names, [len(run[0]) for run in loaded]), x, E])
    print(f"compared {len(names)} dispatch run(s)")


def _input_file(path: str) -> str:
    """An input option's value: a file that exists and is not a directory."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _seed(text: str) -> int:
    """--seed's value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{seed} is not in the range x>=0")
    return seed


INPUT_FILE = {"type": _input_file, "metavar": "FILE"}
SHOW_DEFAULT = "(default: %(default)s)"


def main(argv=None):
    """Storage dispatch from load imbalances, plus the forecasting harness."""
    # one BLAS thread unless the caller sets one, before a command imports numpy:
    # the forecast forks its fits, which no BLAS thread may run beside
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    parser = argparse.ArgumentParser(prog="voltgrid", description=main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, fn):
        """A subcommand that calls ``fn`` with its options; returns its add_argument."""
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(command=fn, parser=sub)
        return sub.add_argument

    option = command("ingest", cmd_ingest)
    option("--load", dest="load_path", required=True, **INPUT_FILE,
           help="CSV with a timestamp column and the load values.")
    option("--gen", dest="gen_path", **INPUT_FILE, help="Conventional generation series CSV.")
    option("--res", dest="res_path", **INPUT_FILE, help="Renewable generation series CSV.")
    option("--temp", dest="temp_paths", action="append", default=[], **INPUT_FILE,
           help="Temperature CSV; repeat per station. Column named by file stem.")
    option("--holidays", dest="holidays_path", **INPUT_FILE,
           help="Holiday calendar, one YYYY-MM-DD per line.")
    option("--timestamp-column", default="timestamp", help=SHOW_DEFAULT)
    option("--value-column", default="value", help=SHOW_DEFAULT)
    option("--timestamp-format", help="strptime pattern; ISO 8601 when omitted.")
    option("--out", dest="out_dir", required=True, type=Path,
           help="Output directory for dataset.csv and summary.json.")

    option = command("forecast", cmd_forecast)
    option("--data", dest="data_path", required=True, **INPUT_FILE,
           help="dataset.csv from the ingest step.")
    option("--model", dest="model_name", required=True, choices=("lm", "rf", "gbdt"))
    option("--horizon", default=24, type=int, help=SHOW_DEFAULT)
    option("--blocks", default=5, type=int, help=SHOW_DEFAULT)
    option("--tail", required=True, type=int,
           help="Held-out validation rows at the end of the frame.")
    option("--trees", type=int, help="Override the ensemble size (rf: 500, gbdt: 100).")
    option("--seed", default=0, type=_seed,
           help="Master seed, a non-negative integer. " + SHOW_DEFAULT)
    option("--holidays", dest="holidays_path", **INPUT_FILE,
           help="Holiday calendar for the working-day feature.")
    option("--save-model", dest="model_path",
           help="Also persist the final fitted model as JSON.")
    option("--out", dest="out_dir", required=True, type=Path,
           help="Output directory for forecast.csv and metrics.json.")

    option = command("dispatch", cmd_dispatch)
    option("--load", dest="load_path", required=True, **INPUT_FILE,
           help="Load series: ingest-style CSV or a forecast.csv.")
    option("--gen", dest="gen_path", **INPUT_FILE,
           help="Conventional generation series; zero when omitted.")
    option("--res", dest="res_path", **INPUT_FILE,
           help="Renewable generation series; zero when omitted.")
    option("--kernel", dest="kernel_path", required=True, **INPUT_FILE,
           help="Kernel configuration JSON.")
    option("--storage", dest="storage_path", **INPUT_FILE,
           help="StorageSpec JSON; defaults apply when omitted.")
    option("--grid-n", type=int, help="Use only the first N+1 samples (default: all).")
    option("--soc-efficiency", action="store_true",
           help="Apply the charge/discharge efficiency asymmetry to the "
                "stored-energy trajectory as well as the kernel.")
    option("--timestamp-column", default="timestamp", help=SHOW_DEFAULT)
    option("--value-column", default="value", help=SHOW_DEFAULT)
    option("--out", dest="out_dir", required=True, type=Path,
           help="Output directory for dispatch.csv and report.json.")

    option = command("report", cmd_report)
    option("--dispatch", dest="dispatch_paths", required=True, action="append", **INPUT_FILE,
           help="dispatch.csv files to compare; repeatable.")
    option("--out", dest="out_dir", required=True, type=Path,
           help="Output directory for comparison.json and comparison.csv.")

    namespace, unknown = parser.parse_known_args(argv)
    options = vars(namespace)
    run, usage = options.pop("command"), options.pop("parser")
    if unknown:  # reported by the command's own parser, with its usage line
        usage.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        run(**options)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
