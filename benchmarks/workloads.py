"""The three benchmark workloads and the CLI stage list each one runs.

Every workload runs the same four-stage pipeline shape

    ingest -> forecast lm, rf, gbdt -> dispatch k1lin, k2lin, k2cub -> report

so every end-to-end and per-layer metric exists on every workload (the
result line must carry all of them). The workloads differ in size, and so in
which layer dominates; the stages that are not a workload's focus run at the
smallest size that still exercises them, and there the prediction for a
change to that layer is "no move".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

KERNEL_NAMES = ("k1lin", "k2lin", "k2cub")
LINEAR_KERNELS = ("k1lin", "k2lin")
MODELS = ("lm", "rf", "gbdt")
BLOCKS = 2  # forecast --blocks: cross-validation folds before the held-out tail


@dataclass(frozen=True)
class Workload:
    name: str
    hours: int                 # rows of synthetic hourly data
    with_weather: bool         # ingest also takes a temperature station and holidays
    tail: int                  # forecast --tail (held-out rows)
    rf_trees: int
    gbdt_trees: int
    dispatch_from: str         # "dataset" (actual load/gen/res) or a model's forecast.csv
    grid_n: int | None = None  # dispatch --grid-n; None solves the whole series

    def smoke(self) -> "Workload":
        """Reduced size for the benchmark's own smoke test."""
        return replace(self, hours=min(self.hours, 700), tail=168,
                       rf_trees=min(self.rf_trees, 2), gbdt_trees=min(self.gbdt_trees, 3),
                       grid_n=None if self.grid_n is None else min(self.grid_n, 120))


# The sizes are set so that a run of a listed workload (see BENCHMARK.json)
# makes three full passes in about a minute on a 2-core machine: the
# benchmark's whole schedule of repeated runs must fit in under an hour.
WORKLOADS = {
    # Why: ~90% of every stage is interpreter start, `import voltgrid.cli` and
    # CSV/JSON I/O, so this shows import and I/O changes. It is the bypass
    # workload for the solver and tree work: there the prediction is no change.
    "pipeline_small": Workload(
        name="pipeline_small", hours=1200, with_weather=True, tail=168,
        rf_trees=10, gbdt_trees=10, dispatch_from="rf"),
    # Why: volterra does almost all the work. Dispatch solves the first
    # N=5040 cells (30 weeks) of one year of load/gen/res with one dense
    # linear kernel, one two-band linear kernel and the README's
    # linear|cubic kernel. The dense linear path and the per-node Newton
    # march use the same layer differently, so a gain on one that costs the
    # other shows. Forecasting runs with one tree (rf) or two (gbdt). (The
    # whole year, N=8759, costs ~14 s a pass in dispatch alone, too much
    # for three passes a run.)
    "dispatch_year": Workload(
        name="dispatch_year", hours=8760, with_weather=False, tail=168,
        rf_trees=1, gbdt_trees=2, dispatch_from="dataset", grid_n=5040),
    # Why: forecast.trees dominates. RF (8 deep trees, bootstrap, mtry=4) and
    # GBDT (40 trees of depth 9, subsample) grow trees differently; both are
    # scored on a held-out year after four months of training data, and
    # must beat lm there. Dispatch only solves one week of the lm forecast,
    # so volterra does little here.
    "forecast_year": Workload(
        name="forecast_year", hours=11680, with_weather=True, tail=8760,
        rf_trees=8, gbdt_trees=40, dispatch_from="lm", grid_n=168),
}


@dataclass(frozen=True)
class Stage:
    kind: str          # the end-to-end metric stem this stage's wall time adds to
    label: str
    args: tuple        # arguments after `python -m voltgrid.cli`
    out: Path          # directory holding this stage's artifacts
    artifacts: tuple   # file names expected in `out`


def stages(w: Workload, inputs: dict, work: Path, seed: int) -> list[Stage]:
    """The CLI invocations of one pass, in order, writing under `work`."""
    run = work / "ingest"
    dataset = run / "dataset.csv"
    ingest = ["ingest", "--load", inputs["load"], "--gen", inputs["gen"],
              "--res", inputs["res"]]
    holidays = []
    if w.with_weather:
        ingest += ["--temp", inputs["station_a"], "--holidays", inputs["holidays"]]
        holidays = ["--holidays", inputs["holidays"]]
    out = [Stage("ingest", "ingest", tuple(ingest + ["--out", run]), run,
                 ("dataset.csv", "summary.json"))]

    for model in MODELS:
        fc = work / f"fc_{model}"
        args = ["forecast", "--data", dataset, "--model", model, "--blocks", str(BLOCKS),
                "--tail", str(w.tail), "--seed", str(seed), *holidays]
        artifacts = ["forecast.csv", "metrics.json"]
        if model == "rf":
            args += ["--trees", str(w.rf_trees), "--save-model", fc / "model.json"]
            artifacts.append("model.json")
        elif model == "gbdt":
            args += ["--trees", str(w.gbdt_trees)]
        out.append(Stage(f"forecast_{model}", f"forecast {model}",
                         tuple(args + ["--out", fc]), fc, tuple(artifacts)))

    if w.dispatch_from == "dataset":
        source = ["--load", dataset, "--gen", dataset, "--res", dataset]
    else:
        source = ["--load", work / f"fc_{w.dispatch_from}" / "forecast.csv"]
    if w.grid_n is not None:
        source += ["--grid-n", str(w.grid_n)]
    for kernel in KERNEL_NAMES:
        disp = work / f"disp_{kernel}"
        kind = "dispatch_linear" if kernel in LINEAR_KERNELS else "dispatch_cubic"
        args = ["dispatch", *source, "--kernel", inputs[kernel],
                "--storage", inputs["storage"], "--out", disp]
        out.append(Stage(kind, f"dispatch {kernel}", tuple(args), disp,
                         ("dispatch.csv", "report.json")))

    cmp_dir = work / "report"
    args = ["report"]
    for kernel in KERNEL_NAMES:
        args += ["--dispatch", work / f"disp_{kernel}" / "dispatch.csv"]
    out.append(Stage("report", "report", tuple(args + ["--out", cmp_dir]), cmp_dir,
                     ("comparison.json", "comparison.csv")))
    return [replace(s, args=tuple(str(a) for a in s.args)) for s in out]
