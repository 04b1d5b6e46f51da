"""Output checks on the artifacts of one pass.

Each check returns a list of failure messages (empty when it passes). The
dispatch checks use an independent implementation of the README's product
right-rectangle rule, written here from the documented discretization and
sharing no code with ``voltgrid.volterra``:

- a dense reference march over the first ``PREFIX_NODES`` nodes, which
  ``x`` must match to ``X_RTOL`` relative (the march is causal, so the first
  nodes of the full solve are exactly the solve of the truncated problem);
- the discrete equation re-evaluated at ``RESIDUAL_ROWS`` nodes spread over
  the whole horizon, so a fast path that drifts late in the horizon shows.

Both compare with a tolerance, not byte equality, because a different
summation order may change the last digits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PREFIX_NODES = 256
X_RTOL = 1e-9
RESIDUAL_ROWS = 24
# dispatch.csv holds 12 significant digits, so re-evaluating the equation
# from it leaves up to ~1.5e-12 of each term's magnitude (3x for a cubic)
ROW_RTOL = 1e-10
RESIDUAL_TOL = 1e-8       # the solver's own gate, relative to max|f|
LM_MAPE_MAX = 3.0         # acceptance: lm MAPE <= 3 % on the held-out year


def read_numeric_csv(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and float columns (every column but a leading timestamp).
    Raises ValueError on an empty or non-numeric cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    header, body = rows[0], rows[1:]
    first = 1 if header[0] == "timestamp" else 0
    cols = {}
    for k in range(first, len(header)):
        if header[k] == "series":
            continue
        cols[header[k]] = np.array([float(r[k]) if r[k].strip() else math.nan
                                    for r in body])
    return header, cols


def _json_numbers_ok(obj, where: str) -> list[str]:
    if obj is None:
        return [f"{where}: null"]
    if isinstance(obj, bool) or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [f"{where}: {obj}"]
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    bad = []
    for k, v in items:
        bad += _json_numbers_ok(v, f"{where}.{k}")
    return bad


def artifacts_finite(out: Path, names) -> list[str]:
    """Every number in the stage's CSV and JSON artifacts is present and finite."""
    bad = []
    for name in names:
        path = out / name
        if not path.is_file() or path.stat().st_size == 0:
            bad.append(f"{path}: missing or empty")
        elif name.endswith(".csv"):
            try:
                _, cols = read_numeric_csv(path)
            except (ValueError, IndexError) as exc:
                bad.append(f"{path}: {exc}")
                continue
            bad += [f"{path}: column {c} has NaN or empty cells"
                    for c, v in cols.items() if not np.all(np.isfinite(v))]
        elif name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                bad += _json_numbers_ok(json.load(fh), path.name)
    return bad


def mape_order(mapes: dict[str, float]) -> list[str]:
    """Acceptance ordering: lm MAPE <= 3 %, rf and gbdt both below lm."""
    bad = []
    if not mapes["lm"] <= LM_MAPE_MAX:
        bad.append(f"lm MAPE {mapes['lm']:.3f}% above {LM_MAPE_MAX}%")
    for model in ("rf", "gbdt"):
        if not mapes[model] < mapes["lm"]:
            bad.append(f"{model} MAPE {mapes[model]:.3f}% not below lm {mapes['lm']:.3f}%")
    return bad


# --- independent discretization ---------------------------------------------

def _efficiency(entry, t_j, s):
    if entry["type"] == "const":
        return np.full(np.shape(s), float(entry["value"]))
    return float(entry["value"]) * np.exp(-float(entry["rate"]) * (t_j - s))


def _response(entry, x):
    if entry["type"] == "linear":
        return x
    return float(entry.get("a", 1.0)) * x + float(entry.get("b", 0.0)) * x ** 3


def _row(cfg: dict, j: int):
    """Per band: quadrature coefficients of cells 1..j for node t_j = j (h = 1)."""
    fractions = cfg.get("alphas", {}).get("c", [])
    bounds = [0.0] + [c * j for c in fractions] + [float(j)]
    k = np.arange(1, j + 1, dtype=float)
    coefs = []
    for i in range(cfg["n"]):
        lo, hi = bounds[i], bounds[i + 1]
        right = np.minimum(k, hi)
        width = np.clip(right - np.maximum(k - 1.0, lo), 0.0, None)
        coefs.append(width * _efficiency(cfg["K"][i], float(j), np.maximum(right, lo)))
    return coefs


def _solve_node(cfg, last, rhs):
    """Root of sum_i last_i * G_i(xi) = rhs; G is linear or a monotone cubic."""
    lin = sum(c * (1.0 if g["type"] == "linear" else float(g.get("a", 1.0)))
              for c, g in zip(last, cfg["G"]))
    cub = sum(c * float(g.get("b", 0.0)) for c, g in zip(last, cfg["G"]) if g["type"] == "cubic")
    if cub == 0.0:
        return rhs / lin
    # bisection on the monotone cubic lin*xi + cub*xi^3 - rhs, then Newton
    span = max(abs(rhs) / abs(lin), abs(rhs / cub) ** (1.0 / 3.0), 1.0)
    lo, hi = -span, span
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (lin * mid + cub * mid ** 3 - rhs > 0.0) == (lin > 0.0):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    xi = 0.5 * (lo + hi)
    for _ in range(3):
        xi -= (lin * xi + cub * xi ** 3 - rhs) / (lin + 3.0 * cub * xi * xi)
    return xi


def reference_prefix(cfg: dict, f: np.ndarray, m: int) -> np.ndarray:
    """Dense reference march for nodes 1..m of f (f[0] == 0)."""
    x = np.zeros(m + 1)
    for j in range(1, m + 1):
        coefs = _row(cfg, j)
        known = sum(float(np.dot(c[:-1], _response(g, x[1:j])))
                    for c, g in zip(coefs, cfg["G"]))
        x[j] = _solve_node(cfg, [c[-1] for c in coefs], f[j] - known)
    return x[1:]


def dispatch_solution(cfg: dict, f: np.ndarray, x: np.ndarray, residual: float) -> list[str]:
    """Check x (nodes 0..N, from dispatch.csv) against the discrete equation."""
    n = len(f) - 1
    f_scale = max(1.0, float(np.max(np.abs(f))))
    bad = []
    if not residual <= RESIDUAL_TOL * f_scale:
        bad.append(f"solver residual {residual:.3g} above {RESIDUAL_TOL:g}*max|f| = "
                   f"{RESIDUAL_TOL * f_scale:.3g}")
    m = min(PREFIX_NODES, n)
    ref = reference_prefix(cfg, f, m)
    err = float(np.max(np.abs(x[1:m + 1] - ref)))
    tol = X_RTOL * max(1.0, float(np.max(np.abs(ref))))
    if not err <= tol:
        bad.append(f"x differs from the reference march on nodes 1..{m} by {err:.3g} (tol {tol:.3g})")
    for j in np.unique(np.linspace(1, n, min(RESIDUAL_ROWS, n)).astype(int)):
        terms = np.concatenate([c * _response(g, x[1:j + 1])
                                for c, g in zip(_row(cfg, int(j)), cfg["G"])])
        r = abs(float(terms.sum()) - f[j])
        tol = ROW_RTOL * float(np.abs(terms).sum()) + RESIDUAL_TOL * f_scale
        if not r <= tol:
            bad.append(f"discrete equation off by {r:.3g} at node {j} (tol {tol:.3g})")
            break
    return bad


def imbalance(stage_args: tuple, n_cells: int | None) -> np.ndarray:
    """f = res + gen - load, shifted to f(0) = 0, as the dispatch stage read it."""
    args = dict(zip(stage_args[1::2], stage_args[2::2]))
    series = {}
    for flag, names in (("--load", ("load", "predicted")), ("--gen", ("gen",)),
                        ("--res", ("res",))):
        if flag in args:
            _, cols = read_numeric_csv(Path(args[flag]))
            series[flag] = next(cols[c] for c in names if c in cols)
    load = series["--load"]
    zero = np.zeros_like(load)
    raw = series.get("--res", zero) + series.get("--gen", zero) - load
    if n_cells is not None:
        raw = raw[:n_cells + 1]
    return raw - raw[0]
