from .features import FeatureConfig, FeatureMatrix, build_feature_matrix
from .linear import RidgeRegression
from .metrics import Metrics, compute_metrics
from .persist import load_model, model_from_dict, model_to_dict, save_model
from .trees import GradientBoostedTrees, RandomForest, RegressionTree, grow_tree
from .validation import (
    CrossValidationReport,
    block_cross_validate,
    make_model,
)

__all__ = [
    "FeatureConfig",
    "FeatureMatrix",
    "build_feature_matrix",
    "RidgeRegression",
    "Metrics",
    "compute_metrics",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "GradientBoostedTrees",
    "RandomForest",
    "RegressionTree",
    "grow_tree",
    "CrossValidationReport",
    "block_cross_validate",
    "make_model",
]
