"""Re-export guard: every library name is imported from the module that
defines it, so the packages export only what the benchmark scripts still
import from them."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_benchmark_imports import BENCHMARKS, voltgrid_imports

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_loads_no_other_module():
    code = ("import sys, voltgrid; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'voltgrid')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["voltgrid"]


@pytest.mark.parametrize("package", ["voltgrid", "voltgrid.forecast"])
def test_package_exports_only_what_the_benchmark_imports(package):
    imported = {name for path in BENCHMARKS.glob("*.py")
                for module, name in voltgrid_imports(path) if module == package and name}
    # submodules become package attributes once imported; they are not exports
    public = {name for name, value in vars(importlib.import_module(package)).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == imported
