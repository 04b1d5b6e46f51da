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

from conftest import invoke as invoke_cli

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
        "bf65c7f43206bafc6153bad05ea300a534bca390a96b402950630afe90866acc",
    "disp_k2cub_fc/report.json":
        "d3a8e24dfb92b8ca0a173841de589cc976e6a8f39b9cc7c3a8f52c0285019a54",
    "disp_k2lin_data/dispatch.csv":
        "0443570a955f06ad45e170e94dcc097c89f06dd3cbc821fb47d7055f159645ca",
    "disp_k2lin_data/report.json":
        "aef2779dbd6cb7cd00ea6275733fa6e85913b8d9e778bff55f47e6ef9be9e225",
    "disp_k2lin_fc/dispatch.csv":
        "1b7f157d0fafc1fcab21e64d8ece9e4282cf015cfc07472a562b3208bea9bc59",
    "disp_k2lin_fc/report.json":
        "75c807dda93fabe3fdc0e664b54152893bff75f9ee5d3ec74b62f77e27b6e061",
    "fc_gbdt/forecast.csv":
        "66c6c756f1ea8d174a77f0153229470b7c82efa33f87c1a87026db240acb2f2b",
    "fc_gbdt/metrics.json":
        "39b722ed9722a1083fd0ea00049cbd6a3401580fd2dc109cb9ed9fb77621ac76",
    "fc_gbdt/model.json":
        "b82710ad4a749dc0d7284569070151c5c83ae81d36f43c3c4631de0d78a50930",
    "fc_lm/forecast.csv":
        "22719553e8d35db8f76f1e490804686127005667cf2a029b8115038e87106665",
    "fc_lm/metrics.json":
        "eb24f9d71fae17ca58ea9f71c0760b3e6173d4decd9fcbe88a098f54bc2e14b4",
    "fc_lm/model.json":
        "27ac8646e443d8ec7cdfc07761212b60f358b4ba5690dc7628c49e76046253ad",
    "fc_rf/forecast.csv":
        "be3d90a7cad46c12476e6945b403be2dd8fd9980880423de65ac1e2cb5b45283",
    "fc_rf/metrics.json":
        "58ad7f06badfcbd94e0fbdcd879555318d76206b6838b64c0acdaaab591d3ff0",
    "fc_rf/model.json":
        "bf6b2e34b208f9af31a0002e4337aa9b9702928f825dec2fe036494d4eb03a5b",
    "ingest/dataset.csv":
        "302d92dbe9af2a14a2657af8240d40022996ae27f98cc61472d54ce7f9b2a036",
    "ingest/summary.json":
        "cd495ff36fdc9569bed0ae2f964938ab0396b6ae478421ed063a0a14948414c6",
    "report/comparison.csv":
        "b8f9d8f41be67157c4bcc6c1a62b41b94fe1ac0d362178c9cf4d4c67d5bf2349",
    "report/comparison.json":
        "c4c78ff7088137ec94c4ad5312ffecfece4f30e20095ddb3f7348b4c0b8cd381",
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

    def invoke(*args):
        result = invoke_cli([str(a) for a in args])
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
