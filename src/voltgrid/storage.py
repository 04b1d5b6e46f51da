"""Storage-side quantities derived from the solved power schedule.

Sign convention: x > 0 charges the fleet (surplus absorbed), x < 0 discharges
to cover a deficit. Constraints are checked after the solve, never imposed on
it; violations come back as data so the caller can re-size the fleet instead
of getting a clipped schedule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .ioutil import fmt12
from .timeseries import SECONDS_PER_HOUR, TimeSeries
from .volterra import Grid, KernelSpec, SolveResult, solve_apf

INTERPRETATIONS = ("literal", "power")


@dataclass(frozen=True)
class StorageSpec:
    """Fleet limits and accounting choices.

    ``e_min``/``e_max`` may be constants or callables of time (hours).
    ``interpretation`` picks what the stored-energy trajectory integrates:
    ``power`` treats x itself as storage power (single integral), ``literal``
    integrates the cumulative trajectory v once more (double integral). Both
    are kept because the model's constraint block and its figures read
    differently; see the README.
    """

    v_max: float = math.inf
    e_min: object = -math.inf
    e_max: object = math.inf
    efficiency: float = 0.92
    rated_cycles: int = 10000
    e_init: float = 0.0
    interpretation: str = "literal"

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise DataError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not self.v_max > 0.0:
            raise DataError(f"v_max must be positive, got {self.v_max}")
        if self.rated_cycles < 1:
            raise DataError(f"rated_cycles must be a positive integer, got {self.rated_cycles}")
        if self.interpretation not in INTERPRETATIONS:
            raise DataError(
                f"interpretation must be one of {INTERPRETATIONS}, got {self.interpretation!r}"
            )
        lo, hi = self.e_min, self.e_max
        if not callable(lo) and not callable(hi) and float(lo) > float(hi):
            raise DataError(f"e_min {lo} exceeds e_max {hi}")


class Violation(NamedTuple):
    constraint: str
    node: int
    magnitude: float


@dataclass(frozen=True)
class DispatchReport:
    grid: Grid
    x: np.ndarray
    v: np.ndarray
    E: np.ndarray
    violations: list
    min_capacity: float
    equivalent_cycles: float
    lifetime_horizons: float
    residual: float
    imbalance_shift: float
    max_abs_power: float

    def as_dict(self) -> dict:
        """Scalar summary for the JSON report; node series travel as CSV."""
        lifetime = self.lifetime_horizons
        return {
            "min_capacity": self.min_capacity,
            "max_abs_power": self.max_abs_power,
            "equivalent_cycles": self.equivalent_cycles,
            "lifetime_horizons": lifetime,
            "lifetime_hours": lifetime * self.grid.horizon if math.isfinite(lifetime) else lifetime,
            "residual": self.residual,
            "imbalance_shift": self.imbalance_shift,
            "n_cells": self.grid.n_cells,
            "horizon_hours": self.grid.horizon,
            "violations": [v._asdict() for v in self.violations],
        }


def imbalance(f_res: TimeSeries, f_gen: TimeSeries, f_load: TimeSeries):
    """Load imbalance renewables + conventional - load, shifted to start at 0.

    Returns (f, shift): f is the node vector fed to the solver and shift is
    the subtracted initial imbalance, reported so the caller can restore
    absolute units.
    """
    series = [f_res, f_gen, f_load]
    starts = {s.start for s in series}
    steps = {s.step for s in series}
    lengths = {len(s) for s in series}
    if len(starts) > 1 or len(steps) > 1 or len(lengths) > 1:
        raise DataError(
            "imbalance inputs are misaligned: "
            f"starts {sorted(starts)}, steps {sorted(steps)}, lengths {sorted(lengths)}"
        )
    for s in series:
        if not np.all(np.isfinite(s.values)):
            raise DataError(f"series {s.name!r} has missing values; impute before dispatch")
    raw = f_res.values + f_gen.values - f_load.values
    shift = float(raw[0])
    return raw - shift, shift


def integrate_cumulative(x, h: float) -> np.ndarray:
    """Right-rectangle cumulative integral: v_0 = 0, v_j = v_{j-1} + h*x_j.

    Matches the solver's quadrature, so v is exactly the trajectory the
    discrete equation constrains.
    """
    if h <= 0:
        raise DataError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    v = np.empty(len(x) + 1)
    v[0] = 0.0
    np.cumsum(h * x, out=v[1:])
    return v


def soc_trajectory(x, h: float, spec: StorageSpec) -> np.ndarray:
    """Stored-energy trajectory with asymmetric charge/discharge efficiency.

    Each step's increment is eta*increment for charging and increment/eta for
    discharging, applied to x in power mode and to v in literal mode.
    """
    x = np.asarray(x, dtype=float)
    if spec.interpretation == "power":
        base = x
    else:
        base = integrate_cumulative(x, h)[1:]
    eta = spec.efficiency
    pos = np.clip(base, 0.0, None)
    neg = np.clip(-base, 0.0, None)
    increments = h * (eta * pos - neg / eta)
    out = np.empty(len(x) + 1)
    out[0] = spec.e_init
    np.cumsum(increments, out=out[1:])
    out[1:] += spec.e_init
    return out


def _bound_values(bound, times: np.ndarray) -> np.ndarray:
    if callable(bound):
        vals = np.asarray(bound(times), dtype=float)
        return np.broadcast_to(vals, times.shape)
    return np.full(times.shape, float(bound))


def check_constraints(x, v, E, spec: StorageSpec, times=None) -> list:
    """Post-hoc scan for v_max and stored-energy band violations.

    ``times`` (node hours) is only needed when a bound is time-dependent.
    Violations are data, not errors; magnitudes measure how far past the
    bound the trajectory went.
    """
    v = np.asarray(v, dtype=float)
    E = np.asarray(E, dtype=float)
    if times is None:
        if callable(spec.e_min) or callable(spec.e_max):
            raise DataError("time-dependent energy bounds need node times")
        times = np.zeros(len(E))
    else:
        times = np.asarray(times, dtype=float)
        if times.shape != E.shape:
            raise DataError(f"times and E lengths differ: {times.shape} vs {E.shape}")

    lo = _bound_values(spec.e_min, times)
    hi = _bound_values(spec.e_max, times)
    finite_hi = np.abs(hi[np.isfinite(hi)])
    tol = 1e-9 * max(1.0, float(finite_hi.max()) if finite_hi.size else 0.0)

    violations = []
    for node in np.flatnonzero(v > spec.v_max):
        violations.append(Violation("v_max", int(node), float(v[node] - spec.v_max)))
    for node in np.flatnonzero(E < lo - tol):
        violations.append(Violation("E_min", int(node), float(lo[node] - E[node])))
    for node in np.flatnonzero(E > hi + tol):
        violations.append(Violation("E_max", int(node), float(E[node] - hi[node])))
    violations.sort(key=lambda violation: (violation.node, violation.constraint))
    return violations


def min_capacity(E) -> float:
    """Smallest usable energy range a fleet needs to realize trajectory E."""
    E = np.asarray(E, dtype=float)
    if E.size == 0:
        raise DataError("empty trajectory has no capacity requirement")
    return float(E.max() - E.min())


def count_cycles(E, capacity: float) -> float:
    """Equivalent full cycles: total |dE| throughput over twice the capacity."""
    if capacity <= 0:
        raise DataError(f"capacity must be positive, got {capacity}")
    E = np.asarray(E, dtype=float)
    return float(np.abs(np.diff(E)).sum() / (2.0 * capacity))


def lifetime(cycles_used: float, horizon: float, rated_cycles: int) -> float:
    """Linear cycle-budget extrapolation; infinite when nothing was used."""
    if horizon <= 0:
        raise DataError(f"horizon must be positive, got {horizon}")
    if rated_cycles < 1:
        raise DataError(f"rated_cycles must be a positive integer, got {rated_cycles}")
    if cycles_used < 0:
        raise DataError(f"cycles_used cannot be negative, got {cycles_used}")
    if cycles_used == 0:
        return math.inf
    return horizon * rated_cycles / cycles_used


def dispatch(f_res: TimeSeries, f_gen: TimeSeries, f_load: TimeSeries,
             kernel: KernelSpec, spec: StorageSpec, grid: Grid, *,
             soc_efficiency: bool = False) -> DispatchReport:
    """Full pipeline: imbalance, solve, trajectories, constraint report.

    By default the round-trip efficiency lives in the kernel's K factors and
    the stored-energy trajectory is computed symmetric (eta = 1); pass
    ``soc_efficiency=True`` to additionally apply the storage spec's
    asymmetric charge/discharge factor there.
    """
    for s in (f_res, f_gen, f_load):
        step_hours = s.step / SECONDS_PER_HOUR
        if abs(step_hours - grid.step) > 1e-9 * max(1.0, grid.step):
            raise DataError(
                f"series {s.name!r} step {step_hours:g}h does not match grid step {grid.step:g}h"
            )
        if len(s) != grid.n_cells + 1:
            raise DataError(
                f"series {s.name!r} has {len(s)} samples, grid needs {grid.n_cells + 1}"
            )

    f, shift = imbalance(f_res, f_gen, f_load)
    result: SolveResult = solve_apf(kernel, grid, f)
    x = result.x[1:]
    h = grid.step
    v = integrate_cumulative(x, h)
    soc_spec = spec if soc_efficiency else replace(spec, efficiency=1.0)
    E = soc_trajectory(x, h, soc_spec)
    times = grid.nodes()
    violations = check_constraints(x, v, E, spec, times=times)
    capacity = min_capacity(E)
    cycles = count_cycles(E, capacity) if capacity > 0 else 0.0
    life = lifetime(cycles, grid.horizon, spec.rated_cycles)
    return DispatchReport(
        grid=grid,
        x=result.x,
        v=v,
        E=E,
        violations=violations,
        min_capacity=capacity,
        equivalent_cycles=cycles,
        lifetime_horizons=life / grid.horizon if math.isfinite(life) else math.inf,
        residual=result.residual,
        imbalance_shift=shift,
        max_abs_power=float(np.max(np.abs(x))),
    )


def storage_spec_from_config(config: dict) -> StorageSpec:
    """Build a StorageSpec from its JSON form (constant bounds only)."""
    if not isinstance(config, dict):
        raise DataError("storage config must be a JSON object")
    known = {"v_max", "e_min", "e_max", "efficiency", "rated_cycles", "e_init",
             "interpretation"}
    unknown = set(config) - known
    if unknown:
        raise DataError(f"unknown storage config keys: {sorted(unknown)} (known: {sorted(known)})")
    kwargs = {}
    for key in ("v_max", "e_min", "e_max", "efficiency", "e_init"):
        if config.get(key) is not None:  # explicit null keeps the default
            try:
                kwargs[key] = float(config[key])
            except (TypeError, ValueError):
                raise DataError(f"storage config {key} must be a number, got {config[key]!r}") from None
            # NaN would silently disable a bound check; the limits may be
            # infinite, the starting energy and the efficiency may not
            if math.isnan(kwargs[key]):
                raise DataError(f"storage config {key} must not be NaN")
            if key in ("efficiency", "e_init") and math.isinf(kwargs[key]):
                raise DataError(f"storage config {key} must be finite, got {config[key]!r}")
    if config.get("rated_cycles") is not None:
        try:
            kwargs["rated_cycles"] = int(config["rated_cycles"])
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"storage config rated_cycles must be an integer, got {config['rated_cycles']!r}") from None
    if config.get("interpretation") is not None:
        kwargs["interpretation"] = str(config["interpretation"])
    return StorageSpec(**kwargs)


def write_dispatch_csv(path, report: DispatchReport) -> None:
    """Node series as t,x,v,E; the plotting and comparison exchange format."""
    times = report.grid.nodes()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "v", "E"])
        for j in range(len(times)):
            writer.writerow([fmt12(times[j]), fmt12(report.x[j]),
                             fmt12(report.v[j]), fmt12(report.E[j])])


def read_dispatch_csv(path):
    """Inverse of write_dispatch_csv: returns (t, x, v, E) arrays."""
    cols = {"t": [], "x": [], "v": [], "E": []}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "x", "v", "E"]:
            raise DataError(f"{path}: expected header t,x,v,E, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 columns, got {len(row)}")
            try:
                for name, cell in zip(("t", "x", "v", "E"), row):
                    cols[name].append(float(cell))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad number in {row!r}") from None
            if not all(math.isfinite(cols[name][-1]) for name in cols):
                raise DataError(f"{path}: line {lineno}: non-finite number in {row!r}")
    if not cols["t"]:
        raise DataError(f"{path}: no data rows")
    return tuple(np.asarray(cols[name]) for name in ("t", "x", "v", "E"))
