"""Benchmark drift guard: every name the benchmark scripts import from
voltgrid still resolves.

This suite does not run ``benchmarks/test_smoke.py``, so a renamed or removed
name that only the traced pass of ``benchmarks/traced.py`` imports would
otherwise pass here and break ``benchmarks/run.py --trace 1``. The scripts are
parsed, not run.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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
