"""Ridge-regularized linear regression on the raw feature columns."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .trees import _check_training_arrays, _params

RIDGE = 1e-8  # the L2 penalty on the weights, there only for conditioning


class RidgeRegression:
    """Least squares with the L2 penalty ``RIDGE`` on the weights (not the
    intercept), solved through one QR/SVD pass over the design augmented with
    the penalty rows rather than the normal equations, so near-collinear
    features stay stable. The penalty rows give the design full rank.
    """

    get_params = _params

    def fit(self, X, y) -> "RidgeRegression":
        X, y = _check_training_arrays(X, y)
        n, p = X.shape
        if n < p + 1:
            raise DataError(f"need at least {p + 1} rows to fit {p} features, got {n}")
        # penalty rows: sqrt(RIDGE) on each weight, none on the intercept
        design = np.block([[X, np.ones((n, 1))],
                           [np.sqrt(RIDGE) * np.eye(p), np.zeros((p, 1))]])
        solution = np.linalg.lstsq(design, np.concatenate([y, np.zeros(p)]), rcond=None)[0]
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
