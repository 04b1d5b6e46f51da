"""Exception types shared across the package.

Split by remediation: ``DataError`` means the inputs (files, flags, column
layouts, misaligned series) need fixing, ``SolverError`` means the numerical
solve itself failed. The CLI maps them to exit codes 2 and 3.
"""

from contextlib import contextmanager


class VoltgridError(Exception):
    """Base class for all package errors."""


class DataError(VoltgridError):
    """Bad or inconsistent input data or configuration."""


class SolverError(VoltgridError):
    """Numerical failure inside the integral-equation solver."""


@contextmanager
def overflow_as_data_error(what: str):
    """Raise numpy's overflow, invalid-value and divide-by-zero faults in the
    block as a DataError: ``what``, then numpy's name for the fault."""
    import numpy as np  # at entry, so importing this module loads no numpy

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise DataError(f"{what}: {exc}") from None
