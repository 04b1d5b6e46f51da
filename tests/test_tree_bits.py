"""Forest and boosting bits: the sha256 of every tree array of two seeded fits.

One seeded matrix with hour-, weekday- and flag-like integer columns (ties)
and gridded continuous ones is fitted by a 40-stage boosting and an 8-tree
forest. For each of the five node fields of a tree in the model document,
one digest covers that array of every tree in fit order; the fits' scalars
are held as exact hex floats. A rewrite of tree growth that keeps the models
keeps every digest. A change that alters the trees on purpose updates
``DIGESTS`` (printed by ``python tests/test_tree_bits.py``) and says why in
CHANGES.md. The trees store three of the five arrays, 24 bytes a node.
"""

import functools
import hashlib
import json
import sys

import numpy as np

from voltgrid.forecast.models import GradientBoostedTrees, RandomForest, RegressionTree

DIGESTS = {
    "gbdt": {
        "base_score": "0x1.f39e4dd2f1aa0p+9",
        "feature":
            "8ffda28a8c14ea55f2a537a699861d252c29c94c046faa2cea56e88a6691d18f",
        "threshold":
            "8a1329831645d816db2262b8bfbd82df82ce17c535ff9a3d48eb42619672ad7f",
        "left":
            "89b2b5931148d8e607783dac11e681e32ea8de6b0d8c1c1574df0c5029e98889",
        "right":
            "155d2ae6705eb81baa955f03af1407da34147fa9b4b21580d1e02481e15f07ad",
        "value":
            "8f731e2b185928f39d734c02022e14872eb4316c6003ab4c760af83705ae284d",
    },
    "rf": {
        "oob_rmse": "0x1.0a1db92227c3ep+6",
        "feature":
            "ecff14630960a4fd647157413d6a4b0e6adf090370e8dba8c6b9946ba2da38f2",
        "threshold":
            "de09f6fa73d3d2f4d7d19407cfda16cc527afbf1c9689ca9f6ceeff45190694c",
        "left":
            "761e425eb9b095d6893ab8000568c6729d47b3b6269bfb0054ede70d48fd5b43",
        "right":
            "0fc554ed1c02e838ca0cba20b432e2858fd44eb1518682dac7003db877f575e9",
        "value":
            "24c2aede58064c146860b1473a7aad9fcf8a517e604d8d5366ca5312282b0dc8",
    },
}


def training_matrix(n=1200):
    """Integers and gridded floats only, so the matrix is the same bits on
    every platform: no transcendental function touches it."""
    rng = np.random.default_rng(27)
    hour = rng.integers(0, 24, size=n)
    weekday = rng.integers(0, 7, size=n)
    holiday = (rng.random(n) < 0.05).astype(float)
    temp = np.round(rng.random(n) * 400.0 - 100.0) / 10.0
    lags = np.round(rng.random((n, 10)) * 5000.0) / 4.0
    X = np.column_stack([hour, weekday, holiday, temp, lags]).astype(float)
    y = (600.0 + 150.0 * ((hour >= 7) & (hour < 21)) - 40.0 * (weekday >= 5)
         - 60.0 * holiday + 3.0 * np.abs(temp - 18.0) + 0.3 * lags[:, 0]
         + 0.1 * lags[:, 3] + np.round(rng.random(n) * 80.0))
    return X, y


# the node fields of a tree in the model document, and the dtype each is hashed as
NODE_FIELDS = {"feature": np.int64, "threshold": float, "left": np.int64,
               "right": np.int64, "value": float}


@functools.cache
def fits() -> dict:
    """The two seeded fits on ``training_matrix``."""
    X, y = training_matrix()
    return {"gbdt": GradientBoostedTrees(n_trees=40, seed=5).fit(X, y),
            "rf": RandomForest(n_trees=8, seed=5).fit(X, y)}


def current_digests() -> dict:
    """The digests of the two seeded fits."""
    return {"gbdt": digests(fits()["gbdt"], "base_score"), "rf": digests(fits()["rf"], "oob_rmse")}


def digests(model, scalar: str) -> dict:
    """The fitted scalar ``<scalar>_`` as a hex float, and per node field one
    sha256 over every tree's array (length, then little-endian bytes), each
    taken from the tree's document."""
    out = {scalar: float(getattr(model, scalar + "_")).hex()}
    docs = [tree.to_dict() for tree in model.trees_]
    for name, dtype in NODE_FIELDS.items():
        h = hashlib.sha256()
        for doc in docs:
            array = np.asarray(doc[name], dtype=np.dtype(dtype).newbyteorder("<"))
            h.update(len(array).to_bytes(8, "little"))
            h.update(array.tobytes())
        out[name] = h.hexdigest()
    return out


def test_tree_arrays_hold_their_recorded_bits():
    assert current_digests() == DIGESTS


def test_a_stored_node_takes_24_bytes():
    # feature, threshold and value; the children follow from the level order
    for model in fits().values():
        for tree in model.trees_:
            stored = sum(getattr(tree, name).nbytes for name in RegressionTree.__slots__)
            assert stored == 24 * tree.n_nodes


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=4)
    print()
