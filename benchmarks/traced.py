"""Per-layer measurement: one in-process pass with spans around the calls
into each voltgrid module's public functions.

The spans are taken from outside the program (no voltgrid code is
instrumented). Each span is a dict (id, name, parent, start, end, plus
attributes such as the kernel) kept in memory and written out with the
result. Work the CLI does not do, done only to time a single layer (a
separate feature build, fit and predict; a second ``solve_apf`` and a
``forward_apply``; the tracemalloc solve), sits under ``probe.*`` spans
and is not part of the traced pass total.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import BLOCKS, KERNEL_NAMES, LINEAR_KERNELS, MODELS, Workload

IMPORT_REPEATS = 3
IMPORT_PACKAGES = ("numpy", "scipy", "click")


class Tracer:
    """In-memory span recorder; parents follow the nesting of ``span``."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self.t0, "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def seconds(self, name: str, **attrs) -> float:
        """Summed duration of every span with this name and these attributes."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and all(s.get(k) == v for k, v in attrs.items()))


def import_times(env: dict) -> dict[str, float]:
    """Seconds of ``import voltgrid.cli`` from ``-X importtime``, median of repeats.

    ``cli.import.voltgrid_s`` is the cumulative time of the whole import. Each
    third-party package reads the summed self time of its own modules, so a
    submodule imported later (``scipy.signal``) counts and nothing is counted
    twice; a package that is not imported reads 0.
    """
    samples = {key: [] for key in (*IMPORT_PACKAGES, "voltgrid")}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import voltgrid.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                rows.append((parts[2].strip(), int(parts[0]) / 1e6, int(parts[1]) / 1e6))
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(sum(own for name, own, _ in rows
                                    if name == pkg or name.startswith(pkg + ".")))
        samples["voltgrid"].append(next(total for name, _, total in rows if name == "voltgrid.cli"))
    return {f"cli.import.{key}_s": statistics.median(v) for key, v in samples.items()}


def traced_pass(w: Workload, paths: dict, proc_dir: Path, out: Path, seed: int,
                tr: Tracer) -> dict:
    """Replay the workload's stages in-process; return the layer counters.

    ``proc_dir`` is the directory of an untraced pass, whose forecast.csv
    feeds dispatch when the workload dispatches a forecast.
    """
    from voltgrid.forecast import FeatureConfig, block_cross_validate, build_feature_matrix, save_model
    from voltgrid.forecast.validation import make_model
    from voltgrid.storage import (dispatch, imbalance, read_dispatch_csv,
                                  storage_spec_from_config, write_dispatch_csv)
    from voltgrid.timeseries import (CsvSpec, TimeSeries, align_hourly, load_holidays,
                                     parse_timeseries_csv, read_frame_csv, write_frame_csv)
    from voltgrid.volterra import Grid, forward_apply, load_kernel, solve_apf

    counts: dict[str, float] = {}
    config = FeatureConfig(horizon=24)
    dataset = out / "ingest" / "dataset.csv"

    def parse(path, column, name):
        with tr.span("timeseries.parse_timeseries_csv"):
            return parse_timeseries_csv(path, CsvSpec(value_column=column, name=name))

    with tr.span("pass"):
        with tr.span("stage.ingest"):
            names = ["load", "gen", "res"] + (["station_a"] if w.with_weather else [])
            series = [parse(paths[n], "value", n) for n in names]
            holidays = frozenset()
            if w.with_weather:
                with tr.span("timeseries.load_holidays"):
                    holidays = load_holidays(paths["holidays"])
            with tr.span("timeseries.align_hourly"):
                frame = align_hourly(series, policy="intersect", holidays=holidays)
            dataset.parent.mkdir(parents=True)
            with tr.span("timeseries.write_frame_csv"):
                write_frame_csv(frame, dataset)
        counts["timeseries.rows"] = frame.n_rows

        for model in MODELS:
            params = {"rf": {"n_trees": w.rf_trees}, "gbdt": {"n_trees": w.gbdt_trees}}.get(model, {})
            with tr.span(f"stage.forecast_{model}"):
                with tr.span("timeseries.read_frame_csv"):
                    frame = read_frame_csv(dataset, holidays=holidays)
                with tr.span("forecast.validation.block_cross_validate", model=model):
                    report = block_cross_validate(model, frame, n_blocks=BLOCKS,
                                                  validation_tail=w.tail, params=params,
                                                  config=config, seed=seed)
                counts[f"forecast.validation.mape_pct.{model}"] = report.validation.mape_percent
                if model == "rf":
                    model_path = out / "model.json"
                    with tr.span("forecast.persist.save_model"):
                        save_model(report.final_model, model_path)
                    counts["forecast.persist.model_bytes"] = model_path.stat().st_size
            with tr.span("probe.forecast", model=model):
                with tr.span("forecast.features.build_feature_matrix"):
                    matrix = build_feature_matrix(frame, config)
                train = matrix.target_rows < frame.n_rows - w.tail
                fitted = make_model(model, params, seed=seed)
                with tr.span("forecast.fit", model=model) as fit:
                    fitted.fit(matrix.X[train], matrix.y[train])
                with tr.span("forecast.predict", model=model) as predict:
                    fitted.predict(matrix.X[~train])
            if model == "lm":
                counts["forecast.linear.fit_s"] = fit["end"] - fit["start"]
                counts["forecast.linear.predict_s"] = predict["end"] - predict["start"]
            else:
                trees = fitted.trees_
                counts[f"forecast.trees.{model}.fit_s_per_tree"] = (fit["end"] - fit["start"]) / len(trees)
                counts[f"forecast.trees.{model}.nodes_per_tree"] = sum(t.n_nodes for t in trees) / len(trees)
                counts[f"forecast.trees.{model}.predict_s"] = predict["end"] - predict["start"]
            if model == "rf":
                counts["forecast.trees.rf.oob_rmse"] = fitted.oob_rmse_

        if w.dispatch_from == "dataset":
            sources = [(dataset, c, c) for c in ("load", "gen", "res")]
        else:
            sources = [(proc_dir / f"fc_{w.dispatch_from}" / "forecast.csv", "predicted", "load")]
        with open(paths["storage"], encoding="utf-8") as fh:
            spec = storage_spec_from_config(json.load(fh))
        for kernel_name in KERNEL_NAMES:
            kind = "dispatch_linear" if kernel_name in LINEAR_KERNELS else "dispatch_cubic"
            with tr.span(f"stage.{kind}", kernel=kernel_name):
                with tr.span("volterra.load_kernel"):
                    kernel = load_kernel(paths[kernel_name])
                found = {name: parse(path, column, name) for path, column, name in sources}
                if len(found) > 1:
                    with tr.span("timeseries.align_hourly"):
                        aligned = align_hourly(list(found.values()), policy="intersect")
                    found = {name: aligned.column(name) for name in found}
                load = found["load"]
                n_cells = len(load) - 1 if w.grid_n is None else w.grid_n
                cut = {name: TimeSeries(s.start, s.values[:n_cells + 1], s.step, name)
                       for name, s in found.items()}
                for name in ("gen", "res"):
                    cut.setdefault(name, TimeSeries(load.start, [0.0] * (n_cells + 1), load.step, name))
                grid = Grid(horizon=n_cells * load.step / 3600.0, n_cells=n_cells)
                with tr.span("storage.dispatch", kernel=kernel_name):
                    result = dispatch(cut["res"], cut["gen"], cut["load"], kernel, spec, grid)
                target = out / f"disp_{kernel_name}" / "dispatch.csv"
                target.parent.mkdir()
                with tr.span("storage.write_dispatch_csv"):
                    write_dispatch_csv(target, result)
            counts["volterra.cells"] = n_cells
            with tr.span("probe.volterra", kernel=kernel_name):
                f, _ = imbalance(cut["res"], cut["gen"], cut["load"])
                with tr.span("volterra.solve_apf", kernel=kernel_name):
                    solved = solve_apf(kernel, grid, f)
                with tr.span("volterra.forward_apply", kernel=kernel_name):
                    forward_apply(kernel, grid, solved.x)
            counts[f"volterra.newton_iterations.{kernel_name}"] = int(
                solved.diagnostics["newton_iterations"].sum())
            counts[f"volterra.residual.{kernel_name}"] = solved.residual
            # allocation peak from a separate call: tracemalloc slows the
            # per-node march several-fold, so this solve is never timed
            with tr.span("probe.tracemalloc", kernel=kernel_name):
                tracemalloc.start()
                try:
                    solve_apf(kernel, grid, f)
                    counts[f"volterra.alloc_peak_mb.{kernel_name}"] = (
                        tracemalloc.get_traced_memory()[1] / 2**20)
                finally:
                    tracemalloc.stop()

        with tr.span("stage.report"):
            for kernel_name in KERNEL_NAMES:
                with tr.span("storage.read_dispatch_csv"):
                    read_dispatch_csv(out / f"disp_{kernel_name}" / "dispatch.csv")
    return counts


def layer_metrics(tr: Tracer, counts: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metric values of one traced pass, by metric name."""
    m = {}
    for name in ("parse_timeseries_csv", "align_hourly", "write_frame_csv", "read_frame_csv"):
        m[f"timeseries.{name}_s"] = tr.seconds(f"timeseries.{name}")
    m["forecast.features.build_feature_matrix_s"] = tr.seconds("forecast.features.build_feature_matrix")
    for model in MODELS:
        m[f"forecast.validation.block_cross_validate_s.{model}"] = tr.seconds(
            "forecast.validation.block_cross_validate", model=model)
    m["forecast.persist.save_model_s"] = tr.seconds("forecast.persist.save_model")
    for kernel in KERNEL_NAMES:
        solve = tr.seconds("volterra.solve_apf", kernel=kernel)
        m[f"volterra.solve_apf_s.{kernel}"] = solve
        m[f"volterra.forward_apply_s.{kernel}"] = tr.seconds("volterra.forward_apply", kernel=kernel)
        m[f"storage.dispatch_self_s.{kernel}"] = tr.seconds("storage.dispatch", kernel=kernel) - solve
    m["volterra.load_kernel_s"] = tr.seconds("volterra.load_kernel")
    m["storage.write_dispatch_csv_s"] = tr.seconds("storage.write_dispatch_csv")
    m["storage.read_dispatch_csv_s"] = tr.seconds("storage.read_dispatch_csv")
    stage_total = sum(s["end"] - s["start"] for s in tr.spans if s["name"].startswith("stage."))
    m["trace.traced_pass_s"] = stage_total
    m["trace.overhead_ratio"] = stage_total / wall_s
    m.update(counts)
    return m
