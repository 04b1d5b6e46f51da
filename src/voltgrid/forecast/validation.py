"""Chronological cross-validation, forecast error metrics and breakdowns."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..errors import DataError, overflow_as_data_error
from ..ioutil import config_number
from ..timeseries import AlignedFrame, calendar_arrays
from .features import FeatureConfig, build_feature_matrix
from .models import make_model, rms, scaled_mean


@dataclass(frozen=True)
class Metrics:
    """rmse/mae in target units; mape_percent is None when any actual value
    is not strictly positive (the percentage is undefined there)."""

    rmse: float
    mae: float
    mape_percent: float | None


def _half_errors(predicted, actual) -> tuple:
    """|predicted - actual| / 2 of two equal-length vectors of finite values,
    and actual as floats."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise DataError(f"metric inputs must be equal-length vectors, got "
                        f"{predicted.shape} vs {actual.shape}")
    if not (np.all(np.isfinite(predicted)) and np.all(np.isfinite(actual))):
        raise DataError("metric inputs contain non-finite values")
    return np.abs(np.ldexp(predicted, -1) - np.ldexp(actual, -1)), actual


@overflow_as_data_error("the metrics overflow")
def compute_metrics(predicted, actual) -> Metrics:
    """RMSE, MAE, and MAPE of predictions against real values.

    MAPE averages |error| * 100 / actual per sample, so integer-friendly
    inputs stay exact (the (110,190) vs (100,200) oracle is 7.5 on the nose).
    Every error, sum and ratio is formed at a power of two of its size, so
    only a metric past the float maximum overflows; the scalings are exact
    above the subnormals.
    """
    half, actual = _half_errors(predicted, actual)
    if len(half) == 0:
        raise DataError("cannot compute metrics of an empty sample")
    rmse = float(np.ldexp(rms(half), 1))
    mae = scaled_mean(half, 1)
    if np.all(actual > 0.0):
        # each |error| * 100 / actual formed at 2**-7 of its size
        mape = scaled_mean(np.ldexp(half, -6) * 100.0 / actual, 7)
    else:
        mape = None
    return Metrics(rmse=rmse, mae=mae, mape_percent=mape)


@overflow_as_data_error("the metrics overflow")
def mae_by_group(predicted, actual, groups, n_groups: int) -> list:
    """MAE per integer group label; None where a group is empty."""
    half, _ = _half_errors(predicted, actual)
    groups = np.asarray(groups)
    return [scaled_mean(half[mask], 1) if mask.any() else None
            for mask in (groups == g for g in range(n_groups))]


def _available_cores() -> int:
    """CPUs this process may run on; 1 (fit serially) where fork or CPU
    affinity is missing, as on macOS and Windows."""
    needs = ("fork", "sched_getaffinity", "sched_setaffinity")
    return len(os.sched_getaffinity(0)) if all(hasattr(os, n) for n in needs) else 1


def _fit_and_predict(model, X, y, train_mask, test_mask, keep_model):
    """One cross-validation job: fit a fresh copy of the unfitted ``model``
    on the masked training rows of X and y, predict the masked test rows.
    Returns the fitted copy, or None unless ``keep_model`` (a fold's model
    never leaves its worker), and the predictions. The rows are sliced here,
    so a caller holds one job's copies at a time."""
    model = type(model)(**model.get_params()).fit(X[train_mask], y[train_mask])
    return model if keep_model else None, model.predict(X[test_mask])


def _deal(jobs: list, workers: int) -> list:
    """Job indices per worker: largest training set first, each job to the
    worker with the fewest training rows so far."""
    sizes = [int(np.count_nonzero(train_mask)) for train_mask, _, _ in jobs]
    shares, rows = [[] for _ in range(workers)], [0] * workers
    for i in sorted(range(len(jobs)), key=lambda i: -sizes[i]):
        w = rows.index(min(rows))
        shares[w].append(i)
        rows[w] += sizes[i]
    return shares


def _child(model, X, y, jobs: list, worker: int, write_end: int, inherited: tuple):
    """A forked worker's whole life: close the ``inherited`` read ends, pin
    itself to one CPU, run its jobs, pickle the results (or the exception
    that stopped them) into ``write_end``, exit."""
    status = 1
    try:
        # no read end stays open here, so once the parent is gone the write fails
        for fd in inherited:
            os.close(fd)
        # best effort: worker k takes the k-th CPU, so no two fits share one
        with contextlib.suppress(OSError):
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, [cpus[worker % len(cpus)]])
        try:
            outcome = [_fit_and_predict(model, X, y, *job) for job in jobs]
        except Exception as exc:  # the parent raises it
            outcome = exc
        # pickled whole before writing: a payload that cannot be pickled
        # leaves the pipe empty rather than truncated
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_jobs(model, X, y, jobs: list, workers: int) -> list:
    """``_fit_and_predict(model, X, y, *job)`` for every job, in job order.

    With more than one worker the jobs are dealt (``_deal``) to forked
    children, which inherit the model, X, y and the jobs and send back only
    their results; the first job error is raised here. Every child is
    reaped before this returns or raises.
    """
    if workers <= 1:
        return [_fit_and_predict(model, X, y, *job) for job in jobs]
    # fork, not spawn: children start with numpy, voltgrid and the feature
    # matrix in memory, where spawn would import and send them again; fork is
    # safe while the caller runs no other threads (the CLI runs none). Every
    # share runs in a child: fitting one here put numpy.random's import and
    # the fit's arrays in this process, about 5 MB more peak RSS per stage.
    results = [None] * len(jobs)
    children = []  # (pid, read end of its pipe, its share), not yet reaped
    try:
        for worker, share in enumerate(_deal(jobs, workers)):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(model, X, y, [jobs[i] for i in share], worker, write_end,
                       (read_end, *(pipe.fileno() for _, pipe, _ in children)))
            os.close(write_end)
            children.append((pid, open(read_end, "rb"), share))
        while children:
            pid, pipe, share = children[0]
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pipe.close()
            children.pop(0)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"forecast worker {pid} ended without a result ({how})")
            outcome = pickle.loads(data)
            if isinstance(outcome, Exception):
                raise outcome
            for i, result in zip(share, outcome):
                results[i] = result
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@dataclass(frozen=True)
class CrossValidationReport:
    model: str
    params: dict
    horizon: int
    n_blocks: int
    frame_rows: int
    train_rows: int
    validation_rows: int
    per_block: list
    validation: Metrics
    mae_by_weekday: list
    mae_by_hour: list
    timestamps: np.ndarray = field(repr=False)
    predicted: np.ndarray = field(repr=False)
    actual: np.ndarray = field(repr=False)
    final_model: object = field(repr=False)

    def as_dict(self) -> dict:
        """metrics.json's fields: those the repr shows, the metrics as dicts."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return {**doc, "per_block": [asdict(m) for m in self.per_block],
                "validation": asdict(self.validation)}


@overflow_as_data_error("the frame's values overflow the forecast")
def block_cross_validate(model_name: str, frame: AlignedFrame, n_blocks: int,
                         validation_tail: int, *, params: dict | None = None,
                         config: FeatureConfig = FeatureConfig(),
                         seed: int = 0) -> CrossValidationReport:
    """Chronological-block evaluation plus a held-out tail verdict.

    The last ``validation_tail`` frame rows are held out and the rest cut
    into ``n_blocks`` contiguous blocks whose lengths differ by at most one,
    the earliest blocks taking the remainder. Each matrix row follows its
    target row into a block, so the held-out tail is exactly the last
    ``validation_tail`` forecast hours. Per fold the model trains on every
    other training block; the final model trains on the whole training
    slice and produces the validation metrics and the per-weekday/per-hour
    MAE breakdown. The model is made once, and each of the n_blocks + 1
    jobs fits a fresh copy of it on up to one forked worker per available
    core; each fit is a pure function of its rows, params and seed, so the
    report does not depend on the worker count.
    """
    n_blocks = config_number(n_blocks, "n_blocks", integer=True)
    validation_tail = config_number(validation_tail, "validation_tail", integer=True)
    if n_blocks < 2:
        raise DataError(f"need >= 2 blocks for cross-validation, got {n_blocks}")
    if validation_tail < 0:
        raise DataError(f"validation_tail must be >= 0, got {validation_tail}")
    if validation_tail >= frame.n_rows:
        raise DataError(
            f"validation_tail {validation_tail} must be smaller than the row count {frame.n_rows}"
        )
    n_train = frame.n_rows - validation_tail
    if n_blocks > n_train:
        raise DataError(f"n_blocks {n_blocks} exceeds the training length {n_train}")
    matrix = build_feature_matrix(frame, config)
    if not len(matrix.y):
        raise DataError("no usable training rows: frame too short for the configured lags")

    # each row's block (n_blocks is the held-out tail) from the blocks' ends
    base, extra = divmod(n_train, n_blocks)
    ends = np.cumsum(base + (np.arange(n_blocks) < extra))
    label = np.searchsorted(ends, matrix.target_rows, side="right")
    jobs = []
    for b in range(n_blocks + 1):
        test_mask = label == b
        train_mask = (label < n_blocks) & ~test_mask
        if not test_mask.any() or not train_mask.any():
            where = "validation tail" if b == n_blocks else f"block {b}"
            raise DataError(f"{where} has no usable rows after feature assembly")
        jobs.append((train_mask, test_mask, b == n_blocks))
    model = make_model(model_name, params, seed=seed)
    # a linear fit takes about a millisecond, less than starting a worker
    workers = 1 if model_name == "lm" else min(len(jobs), _available_cores())
    y = matrix.y
    *folds, (model, predicted) = _run_jobs(model, matrix.X, y, jobs, workers)
    fold_metrics = [compute_metrics(pred, y[test]) for (_, pred), (_, test, _) in zip(folds, jobs)]
    model.feature_names_ = matrix.feature_names
    val_mask = jobs[-1][1]
    actual = y[val_mask]
    stamps = frame.timestamps()[matrix.target_rows[val_mask]]
    cal = calendar_arrays(stamps)
    return CrossValidationReport(
        model=model_name,
        params=dict(params or {}),
        horizon=config.horizon,
        n_blocks=n_blocks,
        frame_rows=frame.n_rows,
        train_rows=n_train,
        validation_rows=int(val_mask.sum()),
        per_block=fold_metrics,
        validation=compute_metrics(predicted, actual),
        mae_by_weekday=mae_by_group(predicted, actual, cal["day_of_week"], 7),
        mae_by_hour=mae_by_group(predicted, actual, cal["hour_of_day"], 24),
        timestamps=stamps,
        predicted=predicted,
        actual=actual,
        final_model=model,
    )
