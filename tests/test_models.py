"""The three forecasters: exactness oracles, determinism, persistence."""

import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltgrid import DataError
from voltgrid.forecast import (
    GradientBoostedTrees,
    RandomForest,
    RidgeRegression,
    load_model,
    make_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from voltgrid.forecast.persist import FORMAT
from voltgrid.forecast.trees import RegressionTree, _grow, _presort, _restrict, grow_tree

from oracle import grow_tree_bfs, grow_tree_dfs


def linear_data(n=200, p=5, noise=0.0, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    w = np.arange(1.0, p + 1.0)
    y = X @ w + 3.0 + noise * rng.normal(size=n)
    return X, y, w


class TestRidge:
    def test_default_penalty_barely_biases(self):
        X, y, w = linear_data()
        model = RidgeRegression().fit(X, y)
        np.testing.assert_allclose(model.weights_, w, rtol=0, atol=1e-6)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-6)
        np.testing.assert_allclose(model.predict(X), y, rtol=0, atol=1e-5)

    def test_positive_ridge_survives_collinearity(self):
        X, y, _ = linear_data()
        X2 = np.hstack([X, X[:, :1]])
        model = RidgeRegression().fit(X2, y)
        np.testing.assert_allclose(model.predict(X2), y, rtol=0, atol=1e-4)

    def test_needs_enough_rows(self):
        with pytest.raises(DataError, match="rows"):
            RidgeRegression().fit(np.ones((3, 5)), np.ones(3))

    def test_params_roundtrip(self):
        assert RidgeRegression().get_params() == {}


class TestSingleTree:
    def test_fits_step_function_exactly(self):
        X = np.linspace(0.0, 1.0, 64).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.5, -1.0, 2.0)
        tree = grow_tree(X, y, min_child=1)
        np.testing.assert_array_equal(tree.predict(X), y)
        assert tree.n_leaves == 2

    def test_constant_target_is_single_leaf(self):
        X = np.random.default_rng(2).normal(size=(40, 3))
        tree = grow_tree(X, np.full(40, 5.0))
        assert tree.n_nodes == 1
        np.testing.assert_array_equal(tree.predict(X), np.full(40, 5.0))

    def test_min_child_respected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = grow_tree(X, y, min_child=10)
        # count samples reaching each leaf
        node = np.zeros(len(X), dtype=np.int64)
        active = tree.feature[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            at = node[rows]
            go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
            node[rows] = np.where(go_left, tree.left[at], tree.right[at])
            active = tree.feature[node] >= 0
        leaves, counts = np.unique(node, return_counts=True)
        assert counts.min() >= 10

    def test_depth_cap(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 1))
        y = rng.normal(size=200)
        tree = grow_tree(X, y, max_depth=1, min_child=1)
        assert tree.n_leaves <= 2

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match="zero rows"):
            grow_tree(np.zeros((0, 3)), np.zeros(0))

    def test_min_child_must_be_positive(self):
        # a zero min_child admitted the empty right side at a node's end
        with pytest.raises(DataError, match="min_child"):
            grow_tree(np.arange(4.0).reshape(-1, 1), np.arange(4.0), min_child=0)

    @pytest.mark.parametrize("lo, hi", [
        (1 + 2**-52, 1 + 2**-51),  # the midpoint rounds onto hi
        (0.9 * np.finfo(float).max, np.finfo(float).max),  # lo + hi overflows to inf
        (-np.finfo(float).max, -0.9 * np.finfo(float).max),  # ... and to -inf
    ])
    def test_threshold_separates_its_two_values(self, lo, hi, tmp_path):
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = grow_tree(X, y)
        assert lo <= tree.threshold[0] < hi
        np.testing.assert_array_equal(tree.predict(X), y)
        # a non-finite threshold made a model document that load_model rejects
        model = RandomForest(n_trees=1)
        model.trees_, model.n_features_ = [tree], 1
        save_model(model, tmp_path / "model.json")
        np.testing.assert_array_equal(load_model(tmp_path / "model.json").predict(X), y)

    def test_split_prefers_lowest_feature_on_ties(self):
        # two identical columns: the split must use column 0
        base = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([base, base])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = grow_tree(X, y, min_child=1)
        assert tree.feature[0] == 0

    def test_mirrored_column_ties_exactly(self):
        # x and -x give every cut's row sets in opposite orders; float
        # prefix sums made either gain win by a last bit, exact sums tie
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.permutation(64).astype(float)
            y = rng.normal(0.0, 1000.0, 64)
            tree = grow_tree(np.column_stack([x, -x]), y, max_depth=1)
            assert tree.feature[0] == 0, seed

    def test_dict_roundtrip(self):
        X = np.linspace(0.0, 1.0, 32).reshape(-1, 1)
        y = np.sin(6 * X[:, 0])
        tree = grow_tree(X, y, min_child=4)
        clone = RegressionTree(**tree.to_dict())
        np.testing.assert_array_equal(clone.predict(X), tree.predict(X))


def splits(tree):
    inner = tree.feature >= 0
    return sorted(zip(tree.feature[inner].tolist(), tree.threshold[inner].tolist()))


@st.composite
def tree_problems(draw):
    """Small integer X with many repeated values, sometimes with a copied
    column (forced ties), and integer or float y: the growers sum fixed-point
    targets exactly, so they must agree bit for bit either way."""
    n = draw(st.integers(1, 150))
    p = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    distinct = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, distinct, size=(n, p)).astype(float)
    if p > 1 and draw(st.booleans()):
        X[:, draw(st.integers(1, p - 1))] = X[:, 0]
    if draw(st.booleans()):
        y = rng.integers(-30, 31, size=n).astype(float)
    else:
        y = rng.normal(0.0, 10.0 ** draw(st.integers(-3, 6)), size=n)
    mtry = draw(st.none() | st.integers(1, p))
    return X, y, draw(st.none() | st.integers(0, 8)), draw(st.integers(1, 6)), mtry


class TestLevelWiseGrowth:
    @settings(max_examples=200, deadline=None)
    @given(tree_problems())
    def test_matches_depth_first_oracle(self, problem):
        X, y, max_depth, min_child, _ = problem
        new = grow_tree(X, y, max_depth=max_depth, min_child=min_child)
        old = grow_tree_dfs(X, y, max_depth=max_depth, min_child=min_child)
        assert new.n_nodes == old.n_nodes
        assert splits(new) == splits(old)
        probe = np.vstack([X, X - 0.5, X + 0.5])
        np.testing.assert_array_equal(new.predict(probe), old.predict(probe))

    @settings(max_examples=200, deadline=None)
    @given(tree_problems(), st.integers(0, 2**32 - 1))
    def test_matches_level_order_oracle_with_sampled_features(self, problem, seed):
        X, y, max_depth, min_child, mtry = problem
        new = grow_tree(X, y, rng=np.random.default_rng(seed), max_depth=max_depth,
                        min_child=min_child, mtry=mtry)
        ref = grow_tree_bfs(X, y, rng=np.random.default_rng(seed), max_depth=max_depth,
                            min_child=min_child, mtry=mtry)
        assert new.to_dict() == ref.to_dict()

    @settings(max_examples=200, deadline=None)
    @given(tree_problems(), st.integers(0, 2**32 - 1))
    def test_weighted_distinct_rows_grow_the_bootstrap_tree(self, problem, seed):
        # duplicated rows never split apart, so a row counted w times is a
        # row of weight w: gains, min_child and leaf values all agree
        X, y, max_depth, min_child, mtry = problem
        n = len(y)
        sample = np.random.default_rng(seed).integers(0, n, size=n)
        count = np.bincount(sample, minlength=n)
        seen = count > 0
        copies = grow_tree(X[sample], y[sample], rng=np.random.default_rng(seed),
                           max_depth=max_depth, min_child=min_child, mtry=mtry)
        weighted = _grow(X[seen], _presort(X[seen]), y[seen], count[seen],
                         np.random.default_rng(seed), max_depth, min_child, mtry)
        assert weighted.to_dict() == copies.to_dict()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 120), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_filtered_presort_is_the_stable_argsort_of_the_sample(n, p, distinct, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, distinct, size=(n, p)).astype(float)
    keep = rng.random(n) < rng.random()
    np.testing.assert_array_equal(_restrict(_presort(X), keep),
                                  np.argsort(X[keep].T, axis=1, kind="stable"))


class TestRandomForest:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.normal(size=(300, 6))
        self.y = (np.sin(self.X[:, 0]) + 0.5 * self.X[:, 1] ** 2
                  + 0.1 * rng.normal(size=300))

    def test_same_seed_is_deterministic(self):
        a = RandomForest(n_trees=15, seed=7).fit(self.X, self.y)
        b = RandomForest(n_trees=15, seed=7).fit(self.X, self.y)
        np.testing.assert_array_equal(a.predict(self.X), b.predict(self.X))
        assert a.oob_rmse_ == b.oob_rmse_

    def test_different_seed_changes_model(self):
        a = RandomForest(n_trees=15, seed=7).fit(self.X, self.y)
        b = RandomForest(n_trees=15, seed=8).fit(self.X, self.y)
        assert not np.array_equal(a.predict(self.X), b.predict(self.X))

    def test_oob_estimates_generalization(self):
        model = RandomForest(n_trees=40, seed=0).fit(self.X, self.y)
        assert np.isfinite(model.oob_rmse_)
        # OOB must be worse than the (heavily fit) training error
        train_rmse = float(np.sqrt(np.mean((model.predict(self.X) - self.y) ** 2)))
        assert model.oob_rmse_ > train_rmse
        assert model.oob_rmse_ < 2.0 * np.std(self.y)

    def test_beats_constant_predictor(self):
        model = RandomForest(n_trees=40, seed=0).fit(self.X, self.y)
        assert model.oob_rmse_ < np.std(self.y)

    def test_mtry_validated(self):
        with pytest.raises(DataError, match="mtry"):
            RandomForest(n_trees=2).fit(self.X[:, :3], self.y)

    def test_predict_requires_fit(self):
        with pytest.raises(DataError, match="not fitted"):
            RandomForest().predict(self.X)

    def test_feature_count_checked(self):
        model = RandomForest(n_trees=3, seed=0).fit(self.X, self.y)
        with pytest.raises(DataError, match="features"):
            model.predict(self.X[:, :4])


class TestGradientBoosting:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.X = rng.normal(size=(300, 4))
        self.y = np.cos(self.X[:, 0]) * self.X[:, 1] + 0.05 * rng.normal(size=300)

    def test_training_error_drops_with_stages(self):
        few = GradientBoostedTrees(n_trees=5, seed=0).fit(self.X, self.y)
        many = GradientBoostedTrees(n_trees=60, seed=0).fit(self.X, self.y)
        err_few = np.sqrt(np.mean((few.predict(self.X) - self.y) ** 2))
        err_many = np.sqrt(np.mean((many.predict(self.X) - self.y) ** 2))
        assert err_many < err_few < np.std(self.y)

    def test_base_score_is_target_mean(self):
        model = GradientBoostedTrees(n_trees=2, seed=0).fit(self.X, self.y)
        assert model.base_score_ == pytest.approx(float(self.y.mean()))

    def test_same_seed_is_deterministic(self):
        a = GradientBoostedTrees(n_trees=12, seed=3).fit(self.X, self.y)
        b = GradientBoostedTrees(n_trees=12, seed=3).fit(self.X, self.y)
        np.testing.assert_array_equal(a.predict(self.X), b.predict(self.X))

    def test_parameter_validation(self):
        with pytest.raises(DataError, match="n_trees"):
            GradientBoostedTrees(n_trees=0).fit(self.X, self.y)


class TestTrainingInput:
    @pytest.mark.parametrize("name", ["lm", "rf", "gbdt"])
    def test_nan_in_X_rejected(self, name):
        X, y, _ = linear_data()
        X[7, 2] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            make_model(name).fit(X, y)


# a root split on feature 0 with two leaves
STUMP = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
         "right": [2, -1, -1], "value": [0.0, -1.0, 1.0]}


class TestPersistence:
    def fitted_models(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 5))
        y = X @ np.arange(1.0, 6.0) + np.sin(X[:, 0]) + 0.1 * rng.normal(size=150)
        return X, y, [
            RidgeRegression().fit(X, y),
            RandomForest(n_trees=8, seed=1).fit(X, y),
            GradientBoostedTrees(n_trees=8, seed=1).fit(X, y),
        ]

    def test_predictions_survive_roundtrip_bit_exact(self, tmp_path):
        X, y, models = self.fitted_models()
        for i, model in enumerate(models):
            path = tmp_path / f"model{i}.json"
            save_model(model, path)
            clone = load_model(path)
            np.testing.assert_array_equal(clone.predict(X), model.predict(X))

    def test_save_is_byte_deterministic(self, tmp_path):
        X, y, models = self.fitted_models()
        save_model(models[1], tmp_path / "a.json")
        save_model(models[1], tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_feature_names_preserved(self, tmp_path):
        X, y, models = self.fitted_models()
        model = models[0]
        model.feature_names_ = ("a", "b", "c", "d", "e")
        path = tmp_path / "named.json"
        save_model(model, path)
        assert tuple(load_model(path).feature_names_) == model.feature_names_

    def test_dict_form_tags_the_model_kind(self):
        _, _, models = self.fitted_models()
        kinds = [model_to_dict(m)["kind"] for m in models]
        assert kinds == ["lm", "rf", "gbdt"]
        for m in models:
            clone = model_from_dict(model_to_dict(m))
            assert type(clone) is type(m)

    def test_depth_first_numbered_trees_still_load(self):
        # model files written before trees were numbered in level order
        rng = np.random.default_rng(9)
        X = rng.integers(0, 6, size=(200, 4)).astype(float)
        y = rng.integers(-50, 51, size=200).astype(float)
        old = grow_tree_dfs(X, y, min_child=3)
        new = grow_tree(X, y, min_child=3)
        assert old.to_dict() != new.to_dict()
        doc = {"format": FORMAT, "kind": "rf", "params": RandomForest(n_trees=1).get_params(),
               "trees": [old.to_dict()], "n_features": 4}
        model = model_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(model.predict(X), new.predict(X))

    def test_earlier_format_rejected(self):
        doc = model_to_dict(RidgeRegression().fit(*linear_data()[:2]))
        with pytest.raises(DataError, match="'voltgrid-model/1'"):
            model_from_dict({**doc, "format": "voltgrid-model/1"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            model_from_dict({"kind": "svm", "format": FORMAT})

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "JSON object"),
        ({"format": FORMAT, "kind": "lm"}, "'params'"),
        ({"format": FORMAT, "kind": "lm", "params": {},
          "weights": ["a"], "intercept": 1.0, "n_features": 1}, "'weights'"),
        ({"format": FORMAT, "kind": "lm", "params": {"depth": 3}}, "params"),
        ({"format": FORMAT, "kind": "gbdt", "params": {}, "trees": [[1]],
          "base_score": 0.0, "n_features": 1}, "tree"),
        ({"format": FORMAT, "kind": "rf", "params": {}, "n_features": 1,
          "trees": [{"feature": [0], "threshold": [0.5], "left": [1], "right": [2],
                     "value": [1.0]}]}, "child index"),
        ({"format": FORMAT, "kind": "rf", "params": {}, "trees": [],
          "n_features": "4"}, "'n_features'"),
        ({"format": FORMAT, "kind": {}}, "kind"),
        ({"format": FORMAT, "kind": "rf", "params": {}, "n_features": 1,
          "trees": [{**STUMP, "feature": [1, -1, -1]}]}, "feature index"),
        ({"format": FORMAT, "kind": "gbdt", "params": {"seed": {}},
          "trees": [STUMP], "base_score": 0.0, "n_features": 1}, "'seed'"),
        ({"format": FORMAT, "kind": "lm", "params": {},
          "weights": [1.0, 2.0], "intercept": 1.0, "n_features": 1}, "'weights' holds 2"),
        ({"format": FORMAT, "kind": "rf", "params": {}, "trees": [],
          "n_features": 1}, "'trees' is empty"),
        ({"format": FORMAT, "kind": "rf", "params": {}, "n_features": 1,
          "trees": [{**STUMP, "left": [0, -1, -1]}]}, "child index"),
        ({"format": FORMAT, "kind": "rf", "params": {}, "n_features": 1,
          "trees": [{**STUMP, "value": [0.0, float("nan"), 1.0]}]}, "finite"),
        ({"format": FORMAT, "kind": "lm", "params": {},
          "weights": [1.0], "intercept": float("inf"), "n_features": 1}, "'intercept'"),
    ])
    def test_malformed_document_is_a_data_error(self, doc, message):
        with pytest.raises(DataError, match=message):
            model_from_dict(doc)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_document_loads_and_predicts_or_is_a_data_error(self, data):
        X, docs = fuzz_documents()
        doc = json.loads(data.draw(st.sampled_from(docs)))
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(doc, data)
        try:
            predicted = model_from_dict(doc).predict(X)
        except DataError:
            return
        assert predicted.shape == (len(X),)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@functools.lru_cache(maxsize=None)
def fuzz_documents():
    """Rows to predict and the JSON text of small fitted lm, rf and gbdt models."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=40)
    models = [RidgeRegression().fit(X, y), RandomForest(n_trees=2).fit(X, y),
              GradientBoostedTrees(n_trees=2).fit(X, y)]
    for model in models:
        model.feature_names_ = ("a", "b", "c", "d")
    return X[:5], tuple(json.dumps(model_to_dict(m)) for m in models)


def mutate(doc, data):
    """Replace, shift or delete one member of ``doc``, at any depth."""
    slots = []

    def walk(node):
        for key in (node if isinstance(node, dict) else range(len(node))):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    if not slots:
        return
    node, key = data.draw(st.sampled_from(slots))
    action = data.draw(st.sampled_from(["replace", "shift", "delete"]))
    if action == "delete":
        del node[key]
    elif action == "shift" and type(node[key]) is int:
        node[key] += data.draw(st.integers(-2, 2))
    else:
        node[key] = data.draw(JSON_VALUES)
