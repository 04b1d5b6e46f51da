"""Storage dispatch from a piecewise-kernel integral model, with a day-ahead
load forecasting harness feeding it."""

from .errors import DataError, SolverError, VoltgridError
from .storage import (
    DispatchReport,
    StorageSpec,
    Violations,
    check_constraints,
    dispatch,
    imbalance,
    integrate_cumulative,
    soc_trajectory,
    storage_spec_from_config,
)
from .timeseries import (
    AlignedFrame,
    CsvSpec,
    TimeSeries,
    align_hourly,
    load_holidays,
    parse_timeseries_csv,
    read_frame_csv,
    split_indices,
    write_frame_csv,
)
from .volterra import (
    BandPartition,
    Grid,
    KernelSpec,
    SolveResult,
    forward_apply,
    kernel_from_config,
    load_kernel,
    solve_apf,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "SolverError",
    "VoltgridError",
    "DispatchReport",
    "StorageSpec",
    "Violations",
    "check_constraints",
    "dispatch",
    "imbalance",
    "integrate_cumulative",
    "soc_trajectory",
    "storage_spec_from_config",
    "AlignedFrame",
    "CsvSpec",
    "TimeSeries",
    "align_hourly",
    "load_holidays",
    "parse_timeseries_csv",
    "read_frame_csv",
    "split_indices",
    "write_frame_csv",
    "BandPartition",
    "Grid",
    "KernelSpec",
    "SolveResult",
    "forward_apply",
    "kernel_from_config",
    "load_kernel",
    "solve_apf",
    "__version__",
]
