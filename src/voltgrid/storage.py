"""Storage-side quantities derived from the solved power schedule.

Sign convention: x > 0 charges the fleet (surplus absorbed), x < 0 discharges
to cover a deficit. Constraints are checked after the solve, never imposed on
it; violations come back as data so the caller can re-size the fleet instead
of getting a clipped schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, overflow_as_data_error
from .ioutil import config_keys, config_number, read_columns, write_csv, write_json
from .timeseries import TimeSeries

if TYPE_CHECKING:  # the solver loads only when dispatch runs
    from .volterra import Grid, KernelSpec, SolveResult

INTERPRETATIONS = ("literal", "power")


@dataclass(frozen=True)
class StorageSpec:
    """Fleet limits and accounting choices.

    ``interpretation`` picks what the stored-energy trajectory integrates:
    ``power`` treats x itself as storage power (single integral), ``literal``
    integrates the cumulative trajectory v once more (double integral). Both
    are kept because the model's constraint block and its figures read
    differently; see the README.
    """

    v_max: float = math.inf
    e_min: float = -math.inf
    e_max: float = math.inf
    efficiency: float = 0.92
    rated_cycles: int = 10000
    e_init: float = 0.0
    interpretation: str = "literal"

    def __post_init__(self):
        # NaN would silently disable a bound check; the limits may be
        # infinite, the starting energy and the efficiency may not
        for key in ("v_max", "e_min", "e_max", "efficiency", "e_init", "rated_cycles"):
            object.__setattr__(self, key, config_number(
                getattr(self, key), f"storage config {key}",
                allow_inf=key in ("v_max", "e_min", "e_max"), integer=key == "rated_cycles"))
        object.__setattr__(self, "interpretation", str(self.interpretation))
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
        if self.e_min > self.e_max:
            raise DataError(f"e_min {self.e_min} exceeds e_max {self.e_max}")


CONSTRAINTS = ("E_max", "E_min", "v_max")  # in name order


@dataclass(frozen=True)
class Violations:
    """Constraint violations as columns, sorted by node, then constraint name."""

    node: np.ndarray        # int64
    constraint: np.ndarray  # names from CONSTRAINTS
    magnitude: np.ndarray   # how far past the bound

    def __len__(self) -> int:
        return len(self.node)


@dataclass(frozen=True)
class DispatchReport:
    grid: Grid
    x: np.ndarray
    v: np.ndarray
    E: np.ndarray
    violations: Violations
    min_capacity: float
    equivalent_cycles: float
    lifetime_horizons: float
    residual: float
    imbalance_shift: float
    max_abs_power: float

    def scalars(self) -> dict:
        """The report's scalars; report.json adds one record per violation,
        and the node series travel as CSV."""
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
        }


def imbalance(f_res: TimeSeries, f_gen: TimeSeries, f_load: TimeSeries):
    """Load imbalance renewables + conventional - load, shifted to start at 0.

    Returns (f, shift): f is the node vector fed to the solver and shift is
    the subtracted initial imbalance, reported so the caller can restore
    absolute units.
    """
    series = [f_res, f_gen, f_load]
    starts = {s.start for s in series}
    lengths = {len(s) for s in series}
    if len(starts) > 1 or len(lengths) > 1:
        raise DataError(
            f"imbalance inputs are misaligned: starts {sorted(starts)}, lengths {sorted(lengths)}"
        )
    for s in series:
        if not np.all(np.isfinite(s.values)):
            raise DataError(f"series {s.name!r} has missing values; impute before dispatch")
    with np.errstate(over="ignore", invalid="ignore"):  # finite inputs can still overflow
        raw = f_res.values + f_gen.values - f_load.values
        f = raw - raw[0]
    if not np.isfinite(f).all():
        raise DataError(f"imbalance res + gen - load overflows at node {np.argmin(np.isfinite(f))}")
    return f, float(raw[0])


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


def check_constraints(v, E, spec: StorageSpec) -> Violations:
    """Post-hoc scan for v_max and stored-energy band violations.

    Violations are data, not errors; magnitudes measure how far past the
    bound the trajectory went.
    """
    v = np.asarray(v, dtype=float)
    E = np.asarray(E, dtype=float)
    lo, hi = spec.e_min, spec.e_max
    tol = 1e-9 * max(1.0, abs(hi) if math.isfinite(hi) else 0.0)

    # one (nodes, magnitudes) pair per name in CONSTRAINTS
    found = [(E > hi + tol, E - hi), (E < lo - tol, lo - E), (v > spec.v_max, v - spec.v_max)]
    nodes = [np.flatnonzero(past) for past, _ in found]
    node = np.concatenate(nodes)
    code = np.repeat(np.arange(len(CONSTRAINTS)), [len(n) for n in nodes])
    magnitude = np.concatenate([amount[n] for (_, amount), n in zip(found, nodes)])
    order = np.lexsort((code, node))
    return Violations(node[order], np.array(CONSTRAINTS)[code[order]], magnitude[order])


def sizing(x, E) -> dict:
    """The fleet a schedule x with stored-energy trajectory E needs:
    min_capacity (the range of E), max_abs_power and equivalent_cycles
    (total |dE| throughput over twice the capacity; 0 when the capacity is
    0)."""
    E = np.asarray(E, dtype=float)
    capacity = float(E.max() - E.min())
    return {
        "min_capacity": capacity,
        "max_abs_power": float(np.max(np.abs(x))),
        "equivalent_cycles":
            float(np.abs(np.diff(E)).sum() / (2.0 * capacity)) if capacity > 0 else 0.0,
    }


def dispatch(f_res: TimeSeries, f_gen: TimeSeries, f_load: TimeSeries,
             kernel: KernelSpec, spec: StorageSpec, grid: Grid, *,
             soc_efficiency: bool = False) -> DispatchReport:
    """Full pipeline: imbalance, solve, trajectories, constraint report.

    By default the round-trip efficiency lives in the kernel's K factors and
    the stored-energy trajectory is computed symmetric (eta = 1); pass
    ``soc_efficiency=True`` to additionally apply the storage spec's
    asymmetric charge/discharge factor there.
    """
    from .volterra import solve_apf

    f, shift = imbalance(f_res, f_gen, f_load)  # the three series share one time base
    if abs(grid.step - 1.0) > 1e-9:
        raise DataError(f"grid step {grid.step:g}h is not the series' 1h step")
    if len(f) != grid.n_cells + 1:
        raise DataError(f"imbalance has {len(f)} samples, grid needs {grid.n_cells + 1}")

    result: SolveResult = solve_apf(kernel, grid, f)
    x = result.x[1:]
    h = grid.step
    soc_spec = spec if soc_efficiency else replace(spec, efficiency=1.0)
    with overflow_as_data_error("the schedule's energy trajectory overflows"):
        v = integrate_cumulative(x, h)
        E = soc_trajectory(x, h, soc_spec)
        sizes = sizing(x, E)
        violations = check_constraints(v, E, spec)
    # linear cycle-budget extrapolation in horizons; infinite when nothing was used
    cycles = sizes["equivalent_cycles"]
    return DispatchReport(
        grid=grid,
        x=result.x,
        v=v,
        E=E,
        violations=violations,
        lifetime_horizons=spec.rated_cycles / cycles if cycles else math.inf,
        residual=result.residual,
        imbalance_shift=shift,
        **sizes,
    )


def storage_spec_from_config(config: dict) -> StorageSpec:
    """Build a StorageSpec from its JSON form (constant bounds only); an
    explicit null keeps a field's default."""
    if not isinstance(config, dict):
        raise DataError("storage config must be a JSON object")
    config_keys(config, [f.name for f in fields(StorageSpec)], "storage config")
    return StorageSpec(**{key: value for key, value in config.items() if value is not None})


def write_dispatch_csv(path, report: DispatchReport) -> None:
    """Node series as t,x,v,E; the plotting and comparison exchange format."""
    write_csv(path, ["t", "x", "v", "E"], [report.grid.nodes(), report.x, report.v, report.E])


def write_report_json(path, report: DispatchReport) -> None:
    """report.json: the report's scalars and one {constraint, node,
    magnitude} record per violation, formatted from the violation columns."""
    write_json(path, report.scalars(), records={"violations": vars(report.violations)})


def read_dispatch_csv(path):
    """Inverse of write_dispatch_csv: returns (t, x, v, E) arrays."""
    def columns(header):
        if header != ["t", "x", "v", "E"]:
            raise DataError(f"{path}: expected header t,x,v,E, got {header}")
        return None, header

    _, values, _ = read_columns(path, columns, exact=True, finite=True)
    return tuple(values.values())
