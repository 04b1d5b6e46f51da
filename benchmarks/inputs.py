"""Synthetic hourly inputs for the benchmark, all drawn from one seed.

The load follows the formula of ``tests/conftest.py:synthetic_load`` (daily
and weekly sinusoids on a 50 GW base plus a working-day bump), re-implemented
here so the benchmark depends on nothing outside its own directory. Gen, res
and temperature are smooth daily/seasonal shapes with seeded noise. The
program only ever sees the CSV and JSON files written by ``write_inputs``.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np

START = dt.datetime(2019, 1, 1)

# Kernels named in the workloads. k2cub is the README example kernel.
KERNELS = {
    "k1lin": {"n": 1, "K": [{"type": "const", "value": 0.92}],
              "G": [{"type": "linear"}]},
    "k2lin": {"n": 2, "alphas": {"type": "proportional", "c": [0.5]},
              "K": [{"type": "const", "value": 0.92},
                    {"type": "exp_decay", "value": 1.0, "rate": 0.05}],
              "G": [{"type": "linear"}, {"type": "linear"}],
              "kernel_floor": 1e-6},
    "k2cub": {"n": 2, "alphas": {"type": "proportional", "c": [0.5]},
              "K": [{"type": "const", "value": 0.92},
                    {"type": "exp_decay", "value": 1.0, "rate": 0.05}],
              "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.1}],
              "kernel_floor": 1e-6},
}

# The README example storage spec.
STORAGE = {"e_init": 0.0, "e_min": None, "e_max": 250.0, "v_max": 120.0,
           "efficiency": 0.92, "rated_cycles": 10000, "interpretation": "power"}


def _hours(n_hours: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(n_hours)
    stamps = np.datetime64(START, "s") + (t * 3600).astype("timedelta64[s]")
    return t, stamps


def series(n_hours: int, seed: int) -> dict[str, np.ndarray]:
    """Load, gen, res and one temperature station on a common hourly grid."""
    t, stamps = _hours(n_hours)
    dow = (stamps.astype("datetime64[D]").astype(np.int64) + 3) % 7
    working = (dow < 5).astype(float)
    rng = np.random.default_rng([seed, 0])
    load = (50000.0
            + 8000.0 * np.sin(2 * np.pi * t / 24)
            + 4000.0 * np.sin(2 * np.pi * t / 168)
            + 3000.0 * working
            + rng.normal(0.0, 500.0, n_hours))
    rng = np.random.default_rng([seed, 1])
    gen = 30000.0 + 2000.0 * np.sin(2 * np.pi * (t - 6) / 24) + rng.normal(0.0, 300.0, n_hours)
    rng = np.random.default_rng([seed, 2])
    daylight = np.clip(np.sin(2 * np.pi * (t - 6) / 24), 0.0, None)
    res = np.clip(15000.0 + 6000.0 * daylight + rng.normal(0.0, 800.0, n_hours), 0.0, None)
    rng = np.random.default_rng([seed, 3])
    temp = (10.0 + 8.0 * np.sin(2 * np.pi * (t - 2000) / 8760)
            + 4.0 * np.sin(2 * np.pi * (t - 15) / 24) + rng.normal(0.0, 1.0, n_hours))
    return {"load": load, "gen": gen, "res": res, "station_a": temp}


def holidays(n_hours: int, seed: int) -> list[str]:
    """Fixed public holidays of every covered year plus two seeded extras."""
    _, stamps = _hours(n_hours)
    days = np.unique(stamps.astype("datetime64[D]"))
    years = sorted({int(str(d)[:4]) for d in days})
    fixed = [f"{y}-{md}" for y in years for md in ("01-01", "05-01", "12-25", "12-26")]
    rng = np.random.default_rng([seed, 4])
    extra = [str(d) for d in rng.choice(days, size=2, replace=False)]
    inside = {str(d) for d in days}
    return sorted({d for d in fixed + extra if d in inside})


def write_inputs(out: Path, n_hours: int, seed: int) -> dict[str, Path]:
    """Write series CSVs, holidays, kernels and storage JSON; return paths."""
    out.mkdir(parents=True, exist_ok=True)
    _, stamps = _hours(n_hours)
    text_stamps = np.datetime_as_string(stamps, unit="s")
    paths = {}
    for name, values in series(n_hours, seed).items():
        path = out / f"{name}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("timestamp,value\n")
            fh.writelines(f"{s},{v:.6f}\n" for s, v in zip(text_stamps, values))
        paths[name] = path
    paths["holidays"] = out / "holidays.txt"
    paths["holidays"].write_text("\n".join(holidays(n_hours, seed)) + "\n", encoding="utf-8")
    for name, cfg in KERNELS.items():
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    paths["storage"] = out / "storage.json"
    paths["storage"].write_text(json.dumps(STORAGE, indent=1), encoding="utf-8")
    return paths
