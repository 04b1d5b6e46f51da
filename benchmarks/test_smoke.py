"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload once untraced and once traced, and checks that each
metric listed in BENCHMARK.json comes back with its unit, that every stage
kind was timed in every round, and that no stage run or output check
failed. An untraced run makes at least three passes, so the rerun
byte-identity check runs too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_reported(workload, trace):
    result = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 19
    listed = MANIFEST["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace == "0":
        # every stage kind is measured and printed, listed or not
        saved = json.loads((ROOT / ".bench_out" / f"result-{workload}-s5.json").read_text())
        assert {f"{kind}_s" for kind in run.STAGE_KINDS} <= set(saved["samples"])
        assert all(len(v) >= run.MIN_ROUNDS for v in saved["samples"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "pipeline_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
