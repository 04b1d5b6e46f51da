"""Benchmark drift guard: every name the benchmark scripts import from
voltgrid still resolves, the traced pass still runs, and the solver still
meets the benchmark's dispatch gates on its dispatch_year inputs.

This suite does not run ``benchmarks/test_smoke.py``, so a renamed or removed
name that only the traced pass of ``benchmarks/traced.py`` imports, or a
changed signature it calls, would otherwise pass here and break
``benchmarks/run.py --trace 1``.
"""

import ast
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voltgrid.volterra import Grid, kernel_from_config, solve_apf

from oracle import dense_solve

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def benchmark_module(name):
    """A module of ``benchmarks/`` by file name, which is no package."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS, CHECKS = benchmark_module("inputs"), benchmark_module("checks")


def voltgrid_imports(path):
    """(module, name) for each name ``path`` imports from voltgrid; name is
    None for a plain ``import voltgrid...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "voltgrid":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "voltgrid")


def test_benchmark_imports_from_voltgrid_resolve():
    imports = {(path.name, module, name) for path in BENCHMARKS.glob("*.py")
               for module, name in voltgrid_imports(path)}
    assert ("traced.py", "voltgrid.timeseries", "parse_timeseries_csv") in imports
    # a module that is gone fails import_module; a name that is gone fails here
    missing = [(file, module, name) for file, module, name in sorted(imports, key=str)
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert not missing


def test_traced_pass_runs(tmp_path):
    # the replay calls the library directly: TimeSeries by position,
    # align_hourly with policy=, dispatch with its three series. It runs in
    # a copy, so the benchmark's work and output folders stay out of the checkout.
    for name in ("benchmarks", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(ROOT / name, tmp_path / name)
    proc = subprocess.run([sys.executable, str(tmp_path / "benchmarks" / "run.py"), "--smoke",
                           "--workload", "pipeline_small", "--seed", "1", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", sorted(INPUTS.KERNELS))
def test_dispatch_year_solve_meets_the_dispatch_gates(name, seed):
    # dispatch_year solves the first 5041 hours of the year's imbalance; a
    # solve that misses either gate fails that run as outputs_incorrect
    series = INPUTS.series(8760, seed)
    raw = (series["res"] + series["gen"] - series["load"])[:5041]
    f = raw - raw[0]
    kernel = kernel_from_config(INPUTS.KERNELS[name])
    result = solve_apf(kernel, Grid(5040.0, 5040), f)
    assert result.residual <= CHECKS.RESIDUAL_TOL * max(1.0, float(np.max(np.abs(f))))
    m = CHECKS.PREFIX_NODES
    ref = dense_solve(kernel, Grid(float(m), m), f[:m + 1])
    np.testing.assert_allclose(result.x[1:m + 1], ref, rtol=0,
                               atol=CHECKS.X_RTOL * max(1.0, float(np.max(np.abs(ref)))))
