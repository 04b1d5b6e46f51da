"""Storage dispatch from a piecewise-kernel integral model, with a day-ahead
load forecasting harness feeding it."""

__version__ = "0.1.0"
