"""Versioned JSON persistence for fitted forecasters."""

from __future__ import annotations

import json

from ..errors import DataError
from .validation import MODELS

FORMAT = "voltgrid-model/2"


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


def save_model(model, path) -> None:
    # not ioutil.write_json: its json_ready rounds floats to 12 digits, and a
    # model's floats are written exactly; compact separators keep forest
    # documents from ballooning. json.dumps, not json.dump: only dumps uses
    # the C encoder
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

