"""Model wiring, chronological cross-validation, and error breakdowns."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..errors import DataError
from ..timeseries import AlignedFrame, calendar_arrays, split_indices
from .features import FeatureConfig, build_feature_matrix
from .linear import RidgeRegression
from .metrics import Metrics, compute_metrics
from .trees import GradientBoostedTrees, RandomForest

# the forecasters by short name; rf and gbdt take the harness seed
MODELS = {"lm": RidgeRegression, "rf": RandomForest, "gbdt": GradientBoostedTrees}


def make_model(name: str, params: dict | None = None, seed: int = 0):
    """Instantiate one of the three forecasters by its short name."""
    if name not in MODELS:
        raise DataError(f"unknown model {name!r} (choose from {tuple(MODELS)})")
    params = dict(params or {})
    if name != "lm":
        params.setdefault("seed", seed)
    return MODELS[name](**params)


def mae_by_group(predicted, actual, groups, n_groups: int) -> list:
    """MAE per integer group label; None where a group is empty."""
    err = np.abs(np.asarray(predicted, dtype=float) - np.asarray(actual, dtype=float))
    groups = np.asarray(groups)
    out = []
    for g in range(n_groups):
        mask = groups == g
        out.append(float(err[mask].mean()) if mask.any() else None)
    return out


def _available_cores() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _fit_and_predict(model_name, params, seed, X_train, y_train, X_test):
    """One cross-validation job: fit on the training rows, predict the test rows."""
    model = make_model(model_name, params, seed=seed)
    model.fit(X_train, y_train)
    return model, model.predict(X_test)


def _run_jobs(jobs: list, workers: int) -> list:
    """``_fit_and_predict(*job)`` for every job, in job order.

    With more than one worker the jobs run on forked processes, largest
    training set first; the first job error is raised here.
    """
    if workers <= 1:
        return [_fit_and_predict(*job) for job in jobs]
    # imported on use: commands that fit no trees skip the import cost
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: workers start with numpy and voltgrid already
    # imported, where spawn would import them again in every worker. Fork
    # is safe only while the caller runs no other threads; the CLI runs none.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        by_size = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][3]))  # X_train rows
        futures = {i: pool.submit(_fit_and_predict, *jobs[i]) for i in by_size}
        return [futures[i].result() for i in range(len(jobs))]
    finally:
        pool.shutdown(cancel_futures=True)


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


def block_cross_validate(model_name: str, frame: AlignedFrame, n_blocks: int,
                         validation_tail: int, *, params: dict | None = None,
                         config: FeatureConfig = FeatureConfig(),
                         seed: int = 0) -> CrossValidationReport:
    """Chronological-block evaluation plus a held-out tail verdict.

    The frame's rows are cut by ``split_indices``; each matrix row follows
    its target timestamp into a block, so the held-out tail is exactly the
    last ``validation_tail`` forecast hours. Per fold the model trains on
    every other training block; the final model trains on the whole training
    slice and produces the validation metrics and the per-weekday/per-hour
    MAE breakdown. The n_blocks + 1 fits run on up to one worker process per
    available core; each is a pure function of its rows, params and seed, so
    the report does not depend on the worker count.
    """
    if n_blocks < 2:
        raise DataError(f"need >= 2 blocks for cross-validation, got {n_blocks}")
    blocks, tail = split_indices(frame.n_rows, validation_tail, n_blocks)
    matrix = build_feature_matrix(frame, config)
    if matrix.n_rows == 0:
        raise DataError("no usable training rows: frame too short for the configured lags")

    rows = matrix.target_rows
    X, y = matrix.X, matrix.y
    jobs, tests = [], []
    for b, block in enumerate(blocks):
        test_mask = (rows >= block.start) & (rows < block.stop)
        train_mask = (rows < tail.start) & ~test_mask
        if not test_mask.any() or not train_mask.any():
            raise DataError(f"block {b} has no usable rows after feature assembly")
        jobs.append((model_name, params, seed, X[train_mask], y[train_mask], X[test_mask]))
        tests.append(test_mask)

    train_mask = rows < tail.start
    val_mask = rows >= tail.start
    if not val_mask.any():
        raise DataError("validation tail has no usable rows after feature assembly")
    jobs.append((model_name, params, seed, X[train_mask], y[train_mask], X[val_mask]))
    # a linear fit takes about a millisecond, less than starting a worker
    workers = 1 if model_name == "lm" else min(len(jobs), _available_cores())
    *folds, (model, predicted) = _run_jobs(jobs, workers)
    fold_metrics = [compute_metrics(pred, y[mask]) for (_, pred), mask in zip(folds, tests)]
    model.feature_names_ = matrix.feature_names
    actual = y[val_mask]
    stamps = matrix.timestamps[val_mask]
    cal = calendar_arrays(stamps)
    return CrossValidationReport(
        model=model_name,
        params=dict(params or {}),
        horizon=matrix.horizon,
        n_blocks=n_blocks,
        frame_rows=frame.n_rows,
        train_rows=tail.start,
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
