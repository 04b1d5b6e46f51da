"""Golden artifact digests: one small seeded pipeline, every artifact hashed.

The pipeline runs in-process: ``ingest`` with gen, res, one temperature
station and holidays; ``forecast lm|rf|gbdt --save-model``; ``dispatch`` with
a linear and a cubic kernel, each from the dataset and from a forecast; and
``report`` over those four runs. Any change to an artifact byte fails here.
A change that alters outputs on purpose updates ``DIGESTS`` (printed by
``python tests/test_golden.py``) and says why in CHANGES.md. The digests hold
for one platform's floating point; another BLAS may round differently.
"""

import datetime as dt
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from voltgrid.cli import main

N_HOURS = 600
SEED = 11

KERNELS = {
    "k2lin": {"n": 2, "alphas": {"type": "proportional", "c": [0.5]},
              "K": [{"type": "const", "value": 0.92},
                    {"type": "exp_decay", "value": 1.0, "rate": 0.05}],
              "G": [{"type": "linear"}, {"type": "linear"}]},
    "k2cub": {"n": 2, "alphas": {"type": "proportional", "c": [0.5]},
              "K": [{"type": "const", "value": 0.92},
                    {"type": "exp_decay", "value": 1.0, "rate": 0.05}],
              "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.1}]},
}
STORAGE = {"e_init": 0.0, "e_max": 250.0, "v_max": 120.0, "efficiency": 0.92,
           "rated_cycles": 10000, "interpretation": "power"}

DIGESTS = {
    "disp_k2cub_data/dispatch.csv":
        "5b221a19e92ab2e688dc18019813149756c65ba2460dd599fd6f8e89cfd55fa2",
    "disp_k2cub_data/report.json":
        "113cf3eb499dda4e618e44b0c49cb60b4886ebdac3981f388d29e28dbae014ff",
    "disp_k2cub_fc/dispatch.csv":
        "5050ec2d7b0b370d89519bf10b545e99eac0fce6d0e658c8f88b65ea3d583acd",
    "disp_k2cub_fc/report.json":
        "67cf16492c56dcc766a3a6b50b3409e84a1cdeea66031687c88390791306c8b2",
    "disp_k2lin_data/dispatch.csv":
        "0443570a955f06ad45e170e94dcc097c89f06dd3cbc821fb47d7055f159645ca",
    "disp_k2lin_data/report.json":
        "aef2779dbd6cb7cd00ea6275733fa6e85913b8d9e778bff55f47e6ef9be9e225",
    "disp_k2lin_fc/dispatch.csv":
        "6ad8763ef46a304baf4e35b7fd72a3a269c84d5dc3eef017ef6a0f33c24a84cf",
    "disp_k2lin_fc/report.json":
        "3f37e79f177f49bb42c8e25057f258eaff9f22816b55cb4f5ad27f7ffe710882",
    "fc_gbdt/forecast.csv":
        "4f13cf9685f36bb74f52081541ddfb8b938f274bad47462c0ca6fbae3f6b60de",
    "fc_gbdt/metrics.json":
        "fee15051745762dce6f96d54fa97630ae123605d3dde520f12d4db933d732326",
    "fc_gbdt/model.json":
        "2b2822a2c3190f067ac3e3c5b048b5e350fbd81c9e1c52168d044cf008a6cdf0",
    "fc_lm/forecast.csv":
        "318142d7bed8e9ce54120a383874da567a414c1c30a2e1d808475a4cb144d2a9",
    "fc_lm/metrics.json":
        "4632f80fd4f758bf48dbeb186ab83e4b46a224121ff757b231e82fee5e3a86fa",
    "fc_lm/model.json":
        "023fe54d40089f4ecda4e62a061636e301352b9d4f7211de0726884d0a9581ba",
    "fc_rf/forecast.csv":
        "dc36fca07f48e73daf5ef132376898a73548a569bba81ba033c260a3d55fd4ba",
    "fc_rf/metrics.json":
        "866a7047104f70fde0254cb804c6b42b3174fbed6425c4ef18f34767a742d939",
    "fc_rf/model.json":
        "5159092ac9f10ec61f4539cfd9d5c078738766953e84ee2812b6c993a52034ca",
    "ingest/dataset.csv":
        "302d92dbe9af2a14a2657af8240d40022996ae27f98cc61472d54ce7f9b2a036",
    "ingest/summary.json":
        "cd495ff36fdc9569bed0ae2f964938ab0396b6ae478421ed063a0a14948414c6",
    "report/comparison.csv":
        "70aa66c250bc035a02ff9682aa394a44a043096645200f218275cafaa3da8e3c",
    "report/comparison.json":
        "699a1c5e21c6f7c8ed2af0c6234df55e630adec1d5de790b4de0b805d78f0f81",
}


def write_inputs(root: Path) -> None:
    t = np.arange(N_HOURS)
    stamps = np.datetime64(dt.datetime(2019, 1, 1), "s") + (t * 3600).astype("timedelta64[s]")
    rng = np.random.default_rng(SEED)
    working = ((stamps.astype("datetime64[D]").astype(np.int64) + 3) % 7 < 5).astype(float)
    series = {
        "load": (50000.0 + 8000.0 * np.sin(2 * np.pi * t / 24) + 3000.0 * working
                 + rng.normal(0.0, 500.0, N_HOURS)),
        "gen": 30000.0 + 2000.0 * np.sin(2 * np.pi * (t - 6) / 24) + rng.normal(0.0, 300.0, N_HOURS),
        "res": 15000.0 + 6000.0 * np.clip(np.sin(2 * np.pi * (t - 6) / 24), 0.0, None),
        "station_a": 10.0 + 4.0 * np.sin(2 * np.pi * (t - 15) / 24) + rng.normal(0.0, 1.0, N_HOURS),
    }
    for name, values in series.items():
        lines = [f"{s},{v:.6f}\n" for s, v in zip(np.datetime_as_string(stamps, unit="s"), values)]
        (root / f"{name}.csv").write_text("timestamp,value\n" + "".join(lines))
    (root / "holidays.txt").write_text("2019-01-01\n2019-01-16\n")
    for name, cfg in KERNELS.items():
        (root / f"{name}.json").write_text(json.dumps(cfg))
    (root / "storage.json").write_text(json.dumps(STORAGE))


def run_pipeline(root: Path) -> dict[str, str]:
    """Run every stage under ``root``; return {artifact: sha256}."""
    write_inputs(root)
    runner = CliRunner()

    def invoke(*args):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, (args, result.output)

    invoke("ingest", "--load", root / "load.csv", "--gen", root / "gen.csv",
           "--res", root / "res.csv", "--temp", root / "station_a.csv",
           "--holidays", root / "holidays.txt", "--out", root / "ingest")
    dataset = root / "ingest" / "dataset.csv"
    for model, trees in (("lm", ()), ("rf", ("--trees", 4)), ("gbdt", ("--trees", 10))):
        out = root / f"fc_{model}"
        invoke("forecast", "--data", dataset, "--model", model, "--blocks", 2,
               "--tail", 150, *trees, "--seed", 7, "--holidays", root / "holidays.txt",
               "--save-model", out / "model.json", "--out", out)
    runs = []
    for kernel in KERNELS:
        for source, load in (("data", dataset), ("fc", root / "fc_gbdt" / "forecast.csv")):
            out = root / f"disp_{kernel}_{source}"
            invoke("dispatch", "--load", load, "--gen", dataset, "--res", dataset,
                   "--kernel", root / f"{kernel}.json", "--storage", root / "storage.json",
                   "--grid-n", 140, "--out", out)
            runs += ["--dispatch", out / "dispatch.csv"]
    invoke("report", *runs, "--out", root / "report")

    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*"))
    }


def test_artifacts_match_golden_digests(tmp_path):
    assert run_pipeline(tmp_path) == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(run_pipeline(Path(tmp)), sys.stdout, indent=4, sort_keys=True)
        print()
