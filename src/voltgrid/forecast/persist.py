"""Versioned JSON persistence for fitted forecasters."""

from __future__ import annotations

import json

import numpy as np

from ..errors import DataError
from ..ioutil import config_number, read_json
from .trees import RegressionTree
from .validation import MODELS

FORMAT = "voltgrid-model/1"


def model_to_dict(model) -> dict:
    kind = next((kind for kind, cls in MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    doc = {"format": FORMAT, "kind": kind, "params": model.get_params(),
           "n_features": model.n_features_}
    names = getattr(model, "feature_names_", None)
    if names is not None:
        doc["feature_names"] = list(names)
    if kind == "lm":
        doc.update(weights=model.weights_.tolist(), intercept=model.intercept_)
    else:
        doc["trees"] = [t.to_dict() for t in model.trees_]
    if kind == "gbdt":
        doc["base_score"] = model.base_score_
    return doc


def _field(doc: dict, key: str, kind, what: str):
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"model document: {key!r} must be {what}, got {value!r:.60}")
    return value


def _array(doc: dict, key: str, dtype) -> np.ndarray:
    """A flat list of finite numbers; integer fields take integers only."""
    values = _field(doc, key, list, "a list of numbers")
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = None
    kinds = "iu" if dtype is np.int64 else "iuf"
    if array is None or array.ndim != 1 or (values and array.dtype.kind not in kinds):
        raise DataError(f"model document: {key!r} must be a flat list of "
                        f"{'integers' if kinds == 'iu' else 'numbers'}")
    if not np.isfinite(array.astype(float)).all():
        raise DataError(f"model document: {key!r} must hold finite numbers only")
    return array.astype(dtype)


def _tree(doc, n_features: int) -> RegressionTree:
    """A tree whose every descent ends: each internal node splits on one of
    ``n_features`` columns and numbers both children after itself."""
    if not isinstance(doc, dict):
        raise DataError(f"model document: a tree must be an object, got {doc!r:.60}")
    fields = {key: _array(doc, key, dtype) for key, dtype in RegressionTree.FIELDS.items()}
    n = len(fields["value"])
    if n == 0 or any(len(a) != n for a in fields.values()):
        raise DataError("model document: a tree's arrays must be non-empty and of one length")
    inner = np.flatnonzero(fields["feature"] >= 0)
    if (fields["feature"][inner] >= n_features).any():
        raise DataError("model document: a tree's feature index is out of range")
    for child in (fields["left"][inner], fields["right"][inner]):
        if ((child <= inner) | (child >= n)).any():
            raise DataError("model document: a tree's child index is out of range")
    return RegressionTree(**fields)


def model_from_dict(doc: dict):
    """Rebuild a fitted model; a document of the wrong shape is a DataError."""
    if not isinstance(doc, dict):
        raise DataError(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise DataError(f"unsupported model document format {doc.get('format')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODELS:
        raise DataError(f"unknown model kind {kind!r}")
    params = _field(doc, "params", dict, "an object")
    for key, value in params.items():
        config_number(value, f"model document: param {key!r}")
    try:
        model = MODELS[kind](**params)
    except TypeError as exc:
        raise DataError(f"model document: bad params {params!r:.60}: {exc}") from None
    n_features = model.n_features_ = _field(doc, "n_features", int, "an integer")
    if kind == "lm":
        model.weights_ = _array(doc, "weights", float)
        if len(model.weights_) != n_features:
            raise DataError(f"model document: 'weights' holds {len(model.weights_)} "
                            f"numbers for {n_features} features")
        model.intercept_ = config_number(doc.get("intercept"), "model document: 'intercept'")
    else:
        trees = _field(doc, "trees", list, "a list of trees")
        if not trees:
            raise DataError("model document: 'trees' is empty")
        model.trees_ = [_tree(t, n_features) for t in trees]
    if kind == "gbdt":
        model.base_score_ = config_number(doc.get("base_score"), "model document: 'base_score'")
    names = doc.get("feature_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise DataError("model document: 'feature_names' must be a list of strings")
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
