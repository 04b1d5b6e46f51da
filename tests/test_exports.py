"""Re-export and layering guard: every library name is imported from the
module that defines it, so the packages export only what the benchmark
scripts still import from them, each CLI command loads only its layer, and
no module imports another's ``_``-prefixed names."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_benchmark_imports import BENCHMARKS, voltgrid_imports

SRC = Path(__file__).resolve().parents[1] / "src"


CLI = ["voltgrid", "voltgrid.cli", "voltgrid.errors"]


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports voltgrid from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_modules(code, *args):
    """Run ``code`` in a fresh interpreter with ``args`` as its arguments;
    return its exit code and the click, numpy and voltgrid modules loaded by then."""
    report = ("import atexit, sys; atexit.register(lambda: print(*sorted(m for m in "
              "sys.modules if m.split('.')[0] in ('click', 'numpy', 'voltgrid')))); ")
    proc = run_python(report + code, *args)
    return proc.returncode, proc.stdout.splitlines()[-1].split()


def run_cli(*args):
    return loaded_modules("import voltgrid.cli; voltgrid.cli.main()", *args)


def test_package_import_loads_no_other_module():
    assert loaded_modules("import voltgrid") == (0, ["voltgrid"])


def test_cli_import_loads_no_numpy():
    assert loaded_modules("import voltgrid.cli") == (0, CLI)


def test_cli_import_loads_only_the_stdlib():
    code = ("import sys; before = set(sys.modules); import voltgrid.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    assert set(run_python(code).stdout.split()) - sys.stdlib_module_names == {"voltgrid"}


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    *[([command, "--help"], 0) for command in ("ingest", "forecast", "dispatch", "report")],
    (["unknown"], 2),
    (["dispatch"], 2),
    (["ingest", "--load", "missing.csv", "--out", "run"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit{value}")
def test_help_and_usage_errors_load_no_numpy(args, code):
    assert run_cli(*args) == (code, CLI)


def test_ingest_loads_no_solver_or_forecaster(tmp_path):
    load = tmp_path / "load.csv"
    load.write_text("timestamp,value\n2019-01-01T00:00:00,1\n2019-01-01T01:00:00,2\n")
    code, modules = run_cli("ingest", "--load", str(load), "--out", str(tmp_path / "run"))
    assert code == 0
    assert [m for m in modules if m.startswith("voltgrid")] == [
        *CLI, "voltgrid.ioutil", "voltgrid.timeseries"]


def test_report_loads_no_solver(tmp_path):
    run = tmp_path / "dispatch.csv"
    run.write_text("t,x,v,E\n0,0,0,0\n1,1,1,0.5\n")
    code, modules = run_cli("report", "--dispatch", str(run), "--out", str(tmp_path / "cmp"))
    assert code == 0
    assert [m for m in modules if m.startswith("voltgrid")] == [
        *CLI, "voltgrid.ioutil", "voltgrid.storage", "voltgrid.timeseries"]


def private_imports(source: str, module: str) -> list:
    """The ``_``-prefixed names that ``source``, the text of voltgrid module
    ``module``, imports from another voltgrid module, as "line: module.name"."""
    package = (module.removesuffix(".__init__") if module.endswith(".__init__")
               else module.rpartition(".")[0])
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            origin = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            names = [f"{origin}.{alias.name}" for alias in node.names
                     if alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if any(part.startswith("_") for part in alias.name.split("."))]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "voltgrid" and name.rpartition(".")[0] != module]
    return found


@pytest.mark.parametrize("path", sorted((SRC / "voltgrid").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SRC)))
def test_no_module_imports_another_modules_private_names(path):
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    assert private_imports(path.read_text(encoding="utf-8"), module) == []


@pytest.mark.parametrize("source, found", [
    ("from ..errors import DataError, _x\n", ["1: voltgrid.errors._x"]),
    ("from . import features\nfrom .features import _lag as lag\n",
     ["2: voltgrid.forecast.features._lag"]),
    ("import voltgrid.forecast._hidden\n", ["1: voltgrid.forecast._hidden"]),
    ("from voltgrid.ioutil import _number\n", ["1: voltgrid.ioutil._number"]),
    ("from __future__ import annotations\nfrom numpy import _core\n", []),
    ("from .validation import _deal\n", ["1: voltgrid.forecast.validation._deal"]),
    ("from .models import _grow\n", []),  # its own name
])
def test_the_private_import_walk_finds_each_form(source, found):
    assert private_imports(source, "voltgrid.forecast.models") == found


@pytest.mark.parametrize("package", ["voltgrid", "voltgrid.forecast"])
def test_package_exports_only_what_the_benchmark_imports(package):
    imported = {name for path in BENCHMARKS.glob("*.py")
                for module, name in voltgrid_imports(path) if module == package and name}
    # submodules become package attributes once imported; they are not exports
    public = {name for name, value in vars(importlib.import_module(package)).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == imported
