"""Versioned JSON persistence for fitted forecasters."""

from __future__ import annotations

import json

import numpy as np

from ..errors import DataError
from ..ioutil import read_json
from .linear import RidgeRegression
from .trees import GradientBoostedTrees, RandomForest, RegressionTree

FORMAT = "voltgrid-model/1"


def model_to_dict(model) -> dict:
    doc = {"format": FORMAT}
    names = getattr(model, "feature_names_", None)
    if names is not None:
        doc["feature_names"] = list(names)
    if isinstance(model, RidgeRegression):
        doc.update(kind="lm", params=model.get_params(),
                   weights=model.weights_.tolist(), intercept=model.intercept_,
                   n_features=model.n_features_)
    elif isinstance(model, RandomForest):
        doc.update(kind="rf", params=model.get_params(),
                   trees=[t.to_dict() for t in model.trees_],
                   n_features=model.n_features_)
    elif isinstance(model, GradientBoostedTrees):
        doc.update(kind="gbdt", params=model.get_params(),
                   base_score=model.base_score_,
                   trees=[t.to_dict() for t in model.trees_],
                   n_features=model.n_features_)
    else:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    return doc


def model_from_dict(doc: dict):
    if doc.get("format") != FORMAT:
        raise DataError(f"unsupported model document format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "lm":
        model = RidgeRegression(**doc["params"])
        model.weights_ = np.asarray(doc["weights"], dtype=float)
        model.intercept_ = float(doc["intercept"])
    elif kind == "rf":
        model = RandomForest(**doc["params"])
        model.trees_ = [RegressionTree.from_dict(t) for t in doc["trees"]]
    elif kind == "gbdt":
        model = GradientBoostedTrees(**doc["params"])
        model.base_score_ = float(doc["base_score"])
        model.trees_ = [RegressionTree.from_dict(t) for t in doc["trees"]]
    else:
        raise DataError(f"unknown model kind {kind!r}")
    model.n_features_ = int(doc["n_features"])
    names = doc.get("feature_names")
    if names is not None:
        model.feature_names_ = tuple(names)
    return model


def save_model(model, path) -> None:
    # not ioutil.write_json: its json_ready rounds floats to 12 digits, and a
    # model must round-trip exactly; compact separators keep forest
    # documents from ballooning
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path):
    return model_from_dict(read_json(path, "model"))
