"""voltgrid pipeline benchmark.

Runs one workload's CLI stages, each as a fresh ``python -m voltgrid.cli``
process, on inputs generated from ``--seed``; checks every artifact; and
prints each end-to-end metric (mean, median, max, sample count, unit). The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` the run also replays the workload in-process with spans
around the calls into each module and reports the per-layer metrics instead.

    python3 benchmarks/run.py --workload dispatch_year --seed 1 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one after another

End-to-end metrics, all printed:

- ``setup_s``: a fresh-process ``import voltgrid.cli``, timed before every
  round and after the last;
- ``wall_s``: one full pass of the workload's stages (one value per round);
- ``<kind>_s`` for the stage kinds in ``STAGE_KINDS``: the summed wall time
  of that kind's stage processes in one round;
- ``forecast_s`` and ``dispatch_s`` (``GROUPS``): the same for all forecast
  or all dispatch stages;
- ``peak_rss_mb``: the highest per-process peak RSS among one round's stages;
- ``failed_frac``: failed stage runs and checks over those attempted (the
  result line's ``failed`` / ``attempted``).

The result line carries the metrics ``BENCHMARK.json`` lists, which also
holds their units and bounds, the run length and the listed workloads. It
lists the groups rather than the single stage kinds: on a shared 2-core
machine one process's time varies by up to 20% between consecutive runs,
so a metric needs several processes per round to stay well inside a 25%
bound across runs.

Load model: one closed-loop client. Stages run one at a time with no extra
threads or processes, and BLAS is pinned to one thread, so the numbers
measure the program and not the scheduler. A run makes full passes
("rounds") over the workload's stages: at least ``MIN_ROUNDS``, then more
while the next one still ends within ``--seconds`` of the run's start. So
every timed metric above has one sample per round (``setup_s`` one more),
and every re-run's artifacts must be byte-identical to the first run's. A
metric's value is the mean of its samples (the run's total divided by its
passes): with three or four samples the mean moves less from run to run
than their median (measured over ten seeds), and the run-to-run comparison
takes medians over runs.

Run from the root of a source checkout: the program is imported from its
``src/`` directory, and the run refuses to start without it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from workloads import KERNEL_NAMES, WORKLOADS, stages

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

MIN_ROUNDS = 3
DEADLINE_RESERVE_S = 20.0  # left for the checks after the last round
RUN_DEADLINE_S = 170.0     # a run must end within 180 s

STAGE_KINDS = ("ingest", "forecast_lm", "forecast_rf", "forecast_gbdt",
               "dispatch_linear", "dispatch_cubic", "report")
GROUPS = {"forecast_s": ("forecast_lm", "forecast_rf", "forecast_gbdt"),
          "dispatch_s": ("dispatch_linear", "dispatch_cubic")}


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("VOLTGRID_SEED", None)
    return env


def run_process(argv: list[str], env: dict, log: Path, deadline: float):
    """Run one process to completion; return (wall s, peak RSS MB, exit code).

    ``os.wait4`` gives the child's own rusage; RUSAGE_CHILDREN would be a
    high-water mark over every child so far."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Tally:
    """Attempted and failed operations (stage runs and output checks)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {problems[0]}")
        return not problems


def tree_hashes(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file() and p.suffix != ".log"}


def run_stages(w, paths, work: Path, seed: int, env: dict, tally: Tally,
               deadline: float, stop_at: float, min_rounds: int, setup: list | None):
    """Run full passes over the workload's stages, then check their artifacts.

    At least ``min_rounds`` passes run; another starts while it should end,
    judged by the previous pass, before ``stop_at`` (a monotonic time). Every
    re-run must leave artifacts byte-identical to the first run's. When
    ``setup`` is a list, a fresh-process import is timed into it before every
    pass and after the last.

    Returns, per pass, the seconds of each stage kind, the summed time of all
    stages (checks excluded) and the highest per-process peak RSS; None when
    a stage fails.
    """
    work.mkdir(parents=True)
    plan = stages(w, paths, work, seed)
    kinds = {kind: [] for kind in STAGE_KINDS}
    walls, peaks = [], []
    first = {}

    def time_setup():
        if setup is not None:
            setup.append(run_process([sys.executable, "-c", "import voltgrid.cli"], env,
                                     work / "setup.log", deadline)[0])

    def another_pass() -> bool:
        if not walls:
            return True
        ends = time.monotonic() + walls[-1]
        if ends > deadline - DEADLINE_RESERVE_S:
            return False
        return len(walls) < min_rounds or ends <= stop_at

    while another_pass():
        time_setup()
        secs_by_kind = dict.fromkeys(STAGE_KINDS, 0.0)
        peak = 0.0
        for stage in plan:
            stage.out.mkdir(parents=True, exist_ok=True)
            secs, rss, code = run_process([sys.executable, "-m", "voltgrid.cli", *stage.args],
                                          env, stage.out / "stage.log", deadline)
            if not tally.check(stage.label, [] if code == 0 else [f"exit code {code}"]):
                return None
            secs_by_kind[stage.kind] += secs
            peak = max(peak, rss)
            hashes = tree_hashes(stage.out)
            if stage.label not in first:
                first[stage.label] = hashes
            else:
                differ = sorted(k for k in first[stage.label] if first[stage.label][k] != hashes.get(k))
                tally.check(f"{stage.label} rerun", [f"{differ} differ from the first run"] if differ else [])
        for kind, secs in secs_by_kind.items():
            kinds[kind].append(secs)
        walls.append(sum(secs_by_kind.values()))
        peaks.append(peak)
    time_setup()

    mapes = {}
    for stage in plan:
        tally.check(f"{stage.label} artifacts", checks.artifacts_finite(stage.out, stage.artifacts))
        if stage.kind.startswith("forecast"):
            with open(stage.out / "metrics.json", encoding="utf-8") as fh:
                mapes[stage.kind.split("_")[1]] = json.load(fh)["validation"]["mape_percent"]
        if stage.kind.startswith("dispatch"):
            with open(stage.out / "report.json", encoding="utf-8") as fh:
                residual = json.load(fh)["residual"]
            _, cols = checks.read_numeric_csv(stage.out / "dispatch.csv")
            f = checks.imbalance(stage.args, w.grid_n)
            kernel = stage.label.split()[1]
            tally.check(f"{stage.label} solution", checks.dispatch_solution(
                inputs.KERNELS[kernel], f, cols["x"], residual))
    if w.name == "forecast_year" and w.tail >= 8760:
        tally.check("forecast ordering", checks.mape_order(mapes))
    return {"kinds": kinds, "wall": walls, "peak": peaks}


def runtime_dependencies() -> int:
    """Entries of the [project] dependencies list in pyproject.toml, by a
    plain text scan (no TOML parser before Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return len(re.findall(r"[\"'][^\"']+[\"']", found.group(1))) if found else 0


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
            "src_lines": src_lines, "runtime_dependencies": runtime_dependencies()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    w = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    env = stage_env()
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        paths = inputs.write_inputs(work / "inputs", w.hours, seed)
        samples = {"setup_s": []}
        # a traced run makes one untraced pass, for wall_s and the CLI's files
        result = run_stages(w, paths, work / "pass", seed, env, tally, deadline,
                            start if trace else start + seconds, 1 if trace else MIN_ROUNDS,
                            None if trace else samples["setup_s"])
        if result is not None:
            kinds = result["kinds"]
            samples["wall_s"] = result["wall"]
            samples.update({f"{kind}_s": secs for kind, secs in kinds.items()})
            for group, members in GROUPS.items():
                samples[group] = [sum(v) for v in zip(*(kinds[m] for m in members))]
            samples["peak_rss_mb"] = result["peak"]
        layers, spans = {}, []
        if trace and result is not None:
            layers, spans = traced_layers(w, paths, work, seed, env, tally, result["wall"][0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "seed": seed, "smoke": smoke, "samples": samples,
            "layers": layers, "spans": spans, "attempted": tally.attempted,
            "failures": tally.failures}


def traced_layers(w, paths, work: Path, seed: int, env: dict, tally: Tally, wall_s: float):
    import traced

    sys.path.insert(0, str(SRC))
    import voltgrid

    if Path(voltgrid.__file__).resolve().parent != SRC / "voltgrid":
        raise SystemExit(f"imported voltgrid from {voltgrid.__file__}, not from {SRC}")
    tr = traced.Tracer()
    out = work / "traced"
    counts = traced.traced_pass(w, paths, work / "pass", out, seed, tr)
    # the in-process writers must produce the very bytes the CLI wrote
    for rel in ["ingest/dataset.csv"] + [f"disp_{k}/dispatch.csv" for k in KERNEL_NAMES]:
        same = (out / rel).read_bytes() == (work / "pass" / rel).read_bytes()
        tally.check(f"traced {rel}", [] if same else ["differs from the CLI's file"])
    layers = traced.layer_metrics(tr, counts, wall_s)
    layers.update(traced.import_times(env))
    return layers, tr.spans


def report(res: dict, trace: bool, manifest: dict) -> dict:
    """Print the human-readable table; return the result-line metrics."""
    name = res["workload"]
    print(f"== {name} (seed {res['seed']}{', smoke size' if res['smoke'] else ''})")
    metrics = {}
    if trace:
        for m in manifest["per_layer"]:
            value = res["layers"].get(m["name"])
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"  {m['name']:<48} {value:>14.6g} {m['unit']}")
    else:
        listed = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
        for metric, values in res["samples"].items():
            if not values:
                continue
            unit = "MB" if metric.endswith("_mb") else "s"
            mean = statistics.fmean(values)
            if metric in listed:
                metrics[metric] = {"value": mean, "unit": unit}
            note = f"bound {listed[metric]:.0%}" if metric in listed else "not listed"
            print(f"  {metric:<18} mean {mean:>9.4f} {unit:<2}  median {statistics.median(values):>9.4f}"
                  f"  max {max(values):>9.4f}  n={len(values)}  ({note})")
    failed = len(res["failures"])
    attempted = max(1, res["attempted"])
    print(f"  {'failed_frac':<18} {failed / attempted:.4f} ({failed} of {attempted} stage runs and checks)")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "voltgrid" / "cli.py").is_file():
        print(f"error: no voltgrid sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
        shown = report(res, bool(args.trace), manifest)
        # one workload: the metrics by their manifest names; several: prefixed
        metrics.update(shown if len(names) == 1 else
                       {f"{name}.{k}": v for k, v in shown.items()})
        attempted += res["attempted"]
        failed += len(res["failures"])
        kind = "trace" if args.trace else "result"
        with open(RESULTS / f"{kind}-{name}-s{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "metrics": shown, **res}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
