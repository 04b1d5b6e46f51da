"""Model wiring, chronological cross-validation, and error breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from ..timeseries import AlignedFrame, calendar_arrays, split_indices
from .features import FeatureConfig, FeatureMatrix, build_feature_matrix
from .linear import RidgeRegression
from .metrics import Metrics, compute_metrics
from .trees import GradientBoostedTrees, RandomForest

MODEL_NAMES = ("lm", "rf", "gbdt")


def make_model(name: str, params: dict | None = None, seed: int = 0):
    """Instantiate one of the three forecasters by its short name."""
    params = dict(params or {})
    if name == "lm":
        return RidgeRegression(**params)
    if name == "rf":
        params.setdefault("seed", seed)
        return RandomForest(**params)
    if name == "gbdt":
        params.setdefault("seed", seed)
        return GradientBoostedTrees(**params)
    raise DataError(f"unknown model {name!r} (choose from {MODEL_NAMES})")


def _check_feature_names(model, matrix: FeatureMatrix) -> None:
    trained = getattr(model, "feature_names_", None)
    if trained is not None and tuple(trained) != tuple(matrix.feature_names):
        raise DataError(
            f"feature order mismatch: model was fitted on {list(trained)}, "
            f"matrix provides {list(matrix.feature_names)}"
        )


def predict(model, matrix: FeatureMatrix) -> np.ndarray:
    """Predict a feature matrix, guarding against reordered features."""
    _check_feature_names(model, matrix)
    return model.predict(matrix.X)


def mae_by_group(predicted, actual, groups, n_groups: int) -> list:
    """MAE per integer group label; None where a group is empty."""
    err = np.abs(np.asarray(predicted, dtype=float) - np.asarray(actual, dtype=float))
    groups = np.asarray(groups)
    out = []
    for g in range(n_groups):
        mask = groups == g
        out.append(float(err[mask].mean()) if mask.any() else None)
    return out


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
        return {
            "model": self.model,
            "params": self.params,
            "horizon": self.horizon,
            "n_blocks": self.n_blocks,
            "frame_rows": self.frame_rows,
            "train_rows": self.train_rows,
            "validation_rows": self.validation_rows,
            "per_block": [m.as_dict() for m in self.per_block],
            "validation": self.validation.as_dict(),
            "mae_by_weekday": self.mae_by_weekday,
            "mae_by_hour": self.mae_by_hour,
        }


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
    MAE breakdown.
    """
    if n_blocks < 2:
        raise DataError(f"need >= 2 blocks for cross-validation, got {n_blocks}")
    blocks, tail = split_indices(frame.n_rows, validation_tail, n_blocks)
    matrix = build_feature_matrix(frame, config)
    if matrix.n_rows == 0:
        raise DataError("no usable training rows: frame too short for the configured lags")

    rows = matrix.target_rows
    fold_metrics = []
    for b, block in enumerate(blocks):
        test_mask = (rows >= block.start) & (rows < block.stop)
        train_mask = (rows < tail.start) & ~test_mask
        if not test_mask.any() or not train_mask.any():
            raise DataError(f"block {b} has no usable rows after feature assembly")
        model = make_model(model_name, params, seed=seed)
        model.fit(matrix.X[train_mask], matrix.y[train_mask])
        fold_metrics.append(compute_metrics(model.predict(matrix.X[test_mask]),
                                            matrix.y[test_mask]))

    train_mask = rows < tail.start
    val_mask = rows >= tail.start
    if not val_mask.any():
        raise DataError("validation tail has no usable rows after feature assembly")
    model = make_model(model_name, params, seed=seed)
    model.fit(matrix.X[train_mask], matrix.y[train_mask])
    model.feature_names_ = matrix.feature_names
    predicted = model.predict(matrix.X[val_mask])
    actual = matrix.y[val_mask]
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
