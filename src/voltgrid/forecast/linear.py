"""Ridge-regularized linear regression on the raw feature columns."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .trees import _check_training_arrays, _params


class RidgeRegression:
    """Least squares with an L2 penalty on the weights (not the intercept).

    Solved through one QR/SVD pass over the augmented design rather than the
    normal equations, so near-collinear features stay stable. The tiny
    default penalty exists purely for conditioning; set ``ridge=0`` to demand
    an exact least-squares fit and get an error on rank-deficient designs.
    """

    def __init__(self, ridge: float = 1e-8):
        if ridge < 0:
            raise DataError(f"ridge penalty must be >= 0, got {ridge}")
        self.ridge = ridge

    get_params = _params

    def fit(self, X, y) -> "RidgeRegression":
        X, y = _check_training_arrays(X, y)
        n, p = X.shape
        if n < p + 1:
            raise DataError(f"need at least {p + 1} rows to fit {p} features, got {n}")
        design = np.hstack([X, np.ones((n, 1))])
        rhs = y
        if self.ridge > 0:
            # penalty rows: sqrt(ridge) on each weight, none on the intercept
            penalty = np.hstack([np.sqrt(self.ridge) * np.eye(p), np.zeros((p, 1))])
            design = np.vstack([design, penalty])
            rhs = np.concatenate([y, np.zeros(p)])
        solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
        if self.ridge == 0 and rank < p + 1:
            raise DataError(
                f"design has rank {rank} < {p + 1}: features are collinear; "
                "set ridge > 0"
            )
        if not np.all(np.isfinite(solution)):
            raise DataError("linear fit produced non-finite weights")
        self.weights_ = solution[:p]
        self.intercept_ = float(solution[p])
        self.n_features_ = p
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not hasattr(self, "weights_"):
            raise DataError("model is not fitted")
        if X.shape[1] != self.n_features_:
            raise DataError(f"expected {self.n_features_} features, got {X.shape[1]}")
        return X @ self.weights_ + self.intercept_
