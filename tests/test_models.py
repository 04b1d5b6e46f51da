"""The three forecasters: exactness oracles, determinism, the model document."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltgrid.errors import DataError
from voltgrid.forecast.models import (GBDT_MIN_NODE, RF_MIN_LEAF, GradientBoostedTrees,
                                      RandomForest, RegressionTree, RidgeRegression, _grow,
                                      _presort, _restrict, make_model, save_model)

from conftest import assert_document_holds, strict_json
from oracle import descend, grow_tree_bfs, grow_tree_dfs


def grow(X, y, *, rng=None, max_depth=None, min_child=1, mtry=None) -> RegressionTree:
    """One unit-weight tree through ``_grow``, as the ensembles grow theirs."""
    return _grow(X, _presort(X), y, None, rng, max_depth, min_child, mtry)


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
        tree = grow(X, y, min_child=1)
        np.testing.assert_array_equal(tree.predict(X), y)
        assert (tree.feature < 0).sum() == 2

    def test_constant_target_is_single_leaf(self):
        X = np.random.default_rng(2).normal(size=(40, 3))
        tree = grow(X, np.full(40, 5.0))
        assert tree.n_nodes == 1
        np.testing.assert_array_equal(tree.predict(X), np.full(40, 5.0))

    def test_min_child_respected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = grow(X, y, min_child=10)
        # count samples reaching each leaf, walking the document's children
        doc = tree.to_dict()
        doc["value"] = list(range(tree.n_nodes))
        leaves, counts = np.unique(descend(doc, X), return_counts=True)
        assert (tree.feature[leaves.astype(int)] < 0).all()
        assert counts.min() >= 10

    def test_depth_cap(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 1))
        y = rng.normal(size=200)
        tree = grow(X, y, max_depth=1, min_child=1)
        assert (tree.feature < 0).sum() <= 2

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
            tree = grow(X, y)
        assert lo <= tree.threshold[0] < hi
        np.testing.assert_array_equal(tree.predict(X), y)
        # a non-finite threshold made a model document that is not standard JSON
        model = RandomForest(n_trees=1)
        model.trees_, model.n_features_ = [tree], 1
        save_model(model, tmp_path / "model.json")
        assert_document_holds(strict_json(tmp_path / "model.json"), model)

    def test_split_prefers_lowest_feature_on_ties(self):
        # two identical columns: the split must use column 0
        base = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([base, base])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = grow(X, y, min_child=1)
        assert tree.feature[0] == 0

    def test_mirrored_column_ties_exactly(self):
        # x and -x give every cut's row sets in opposite orders; float
        # prefix sums made either gain win by a last bit, exact sums tie
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.permutation(64).astype(float)
            y = rng.normal(0.0, 1000.0, 64)
            tree = grow(np.column_stack([x, -x]), y, max_depth=1)
            assert tree.feature[0] == 0, seed

    def test_dict_roundtrip(self):
        X = np.linspace(0.0, 1.0, 32).reshape(-1, 1)
        y = np.sin(6 * X[:, 0])
        tree = grow(X, y, min_child=4)
        doc = tree.to_dict()
        clone = RegressionTree(*(doc[name] for name in RegressionTree.FIELDS))
        np.testing.assert_array_equal(clone.predict(X), tree.predict(X))
        assert clone.to_dict() == doc


@st.composite
def level_order_trees(draw):
    """A tree drawn directly in level order, and rows to descend it.

    The tree is a single leaf, a full tree up to depth 10, or a chain up to
    40 levels deep with one split node a level. A chain's thresholds fall
    (rising, for a chain that goes left) along it, so most rows leave it at
    depth 1. Every value of a row is one of the tree's thresholds or the
    float on either side of it; there may be no rows at all."""
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["leaf", "full", "chain"]))
    if shape == "leaf":
        split = np.zeros(1, dtype=bool)
    elif shape == "full":
        depth = draw(st.integers(1, 10))
        split = np.arange(2 ** (depth + 1) - 1) < 2**depth - 1
    else:
        depth, goes_right = draw(st.integers(1, 40)), draw(st.booleans())
        # level i >= 1 holds nodes 2i - 1 (left) and 2i (right); one goes on
        split = np.concatenate([[True], np.tile([not goes_right, goes_right], depth - 1),
                                [False, False]])
    feature = np.where(split, rng.integers(0, p, size=len(split)), -1)
    # rounded to a few decimals, so some nodes share a threshold
    cuts = np.round(rng.normal(0.0, 8.0, split.sum()), draw(st.integers(0, 3)))
    if shape == "chain":
        cuts = np.sort(cuts)[::-1 if goes_right else 1]
    threshold = np.zeros(len(split))
    threshold[split] = cuts
    tree = RegressionTree(feature, threshold, rng.normal(size=len(split)))
    X = rng.choice(cuts if len(cuts) else np.zeros(1), size=(draw(st.integers(0, 60)), p))
    # X + step lies below X, at it or above it, and nextafter moves X one float that way
    return tree, np.nextafter(X, X + rng.integers(-1, 2, size=X.shape))


@settings(max_examples=200, deadline=None)
@given(level_order_trees())
def test_predict_descends_as_the_oracle(drawn):
    tree, X = drawn
    np.testing.assert_array_equal(tree.predict(X), descend(tree.to_dict(), X))


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
        new = grow(X, y, max_depth=max_depth, min_child=min_child)
        old = grow_tree_dfs(X, y, max_depth=max_depth, min_child=min_child)
        # the same nodes in the same order, and children the oracle recorded
        assert new.to_dict() == old
        probe = np.vstack([X, X - 0.5, X + 0.5])
        np.testing.assert_array_equal(new.predict(probe), descend(old, probe))

    @settings(max_examples=200, deadline=None)
    @given(tree_problems(), st.integers(0, 2**32 - 1))
    def test_matches_level_order_oracle_with_sampled_features(self, problem, seed):
        X, y, max_depth, min_child, mtry = problem
        new = grow(X, y, rng=np.random.default_rng(seed), max_depth=max_depth,
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
        copies = grow(X[sample], y[sample], rng=np.random.default_rng(seed),
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

    def test_a_bootstrap_of_every_row_leaves_no_oob_error(self):
        # seed 2073's one bootstrap of 10 rows draws each row once
        model = RandomForest(n_trees=1, seed=2073).fit(self.X[:10], self.y[:10])
        assert math.isnan(model.oob_rmse_)

    def test_mtry_validated(self):
        with pytest.raises(DataError, match="mtry"):
            RandomForest(n_trees=2).fit(self.X[:, :3], self.y)

    def test_n_trees_validated(self):
        with pytest.raises(DataError, match="^n_trees must be >= 1, got 0$"):
            RandomForest(n_trees=0).fit(self.X, self.y)

    def test_predict_requires_fit(self):
        with pytest.raises(DataError, match="not fitted"):
            RandomForest().predict(self.X)

    def test_feature_count_checked(self):
        model = RandomForest(n_trees=3, seed=0).fit(self.X, self.y)
        with pytest.raises(DataError, match="features"):
            model.predict(self.X[:, :4])


@pytest.mark.parametrize("model", [RandomForest, GradientBoostedTrees])
def test_training_lengths_must_match(model):
    X, y, _ = linear_data()
    with pytest.raises(DataError, match=r"^bad training shapes \(200, 5\) / \(199,\)$"):
        model(n_trees=1).fit(X, y[:-1])


@pytest.mark.parametrize("model", [RandomForest, GradientBoostedTrees])
def test_n_trees_must_be_an_integer(model):
    # range() raised a TypeError
    X, y, _ = linear_data()
    with pytest.raises(DataError, match=r"^n_trees must be an integer, got 2\.5$"):
        model(n_trees=2.5).fit(X, y)


@pytest.mark.parametrize("name", ["lm", "rf", "gbdt"])
@pytest.mark.parametrize("shape", [(5,), (2, 40, 5)])
def test_prediction_input_must_be_a_matrix(name, shape):
    # a vector raised an IndexError; a 3-D array was read as 40 features
    X, y, _ = linear_data()
    model = make_model(name, {} if name == "lm" else {"n_trees": 2}).fit(X, y)
    with pytest.raises(DataError, match=f"^{re.escape(f'bad prediction shape {shape}')}$"):
        model.predict(np.ones(shape))


@pytest.mark.parametrize("model, n_trees, bound_mb", [
    (GradientBoostedTrees, 2, 6.5), (RandomForest, 1, 5.5)])
def test_fit_memory_is_bounded(model, n_trees, bound_mb):
    # the forecast matrix of one hourly year (8400 rows, 13 features, three
    # of them hour-like integers). These fits peak at 4.7 MB (gbdt) and 3.8
    # MB (rf); growth over tiled flat indices with per-cell score arrays
    # peaked at 8.9 and 7.5 MB, and each bound sits between the two
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8400, 13))
    X[:, :3] = rng.integers(0, 24, size=(8400, 3))
    y = X @ rng.normal(size=13) + rng.normal(size=8400)
    tracemalloc.start()
    try:
        model(n_trees=n_trees, seed=0).fit(X, y)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < bound_mb


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

    @pytest.mark.parametrize("name", ["rf", "gbdt"])
    def test_all_zero_targets_predict_zero(self, name):
        X, _, _ = linear_data(n=60)
        model = make_model(name, {"n_trees": 3}).fit(X, np.zeros(60))
        assert model.predict(X).tolist() == [0.0] * 60

    @pytest.mark.parametrize("name", ["lm", "rf", "gbdt"])
    def test_zero_rows_rejected(self, name):
        with pytest.raises(DataError, match="need at least .* got 0"):
            make_model(name).fit(np.zeros((0, 5)), np.zeros(0))


    @pytest.mark.parametrize("name, e", [("rf", 1024), ("rf", 664), ("gbdt", 1023)])
    def test_targets_scaled_by_a_power_of_two_scale_the_fit(self, name, e):
        # near the float maximum the node sums, rf's out-of-bag sums and
        # squared errors and gbdt's target mean overflowed, where every mean
        # was finite; scaling by 2**e is exact, so the fit scales bit for bit
        rng = np.random.default_rng(2)
        X, u = rng.normal(size=(60, 5)), rng.random(60)
        plain = make_model(name, {"n_trees": 2}).fit(X, u)
        scaled = make_model(name, {"n_trees": 2}).fit(X, np.ldexp(u, e))
        np.testing.assert_array_equal(scaled.predict(X), np.ldexp(plain.predict(X), e))
        stat = "oob_rmse_" if name == "rf" else "base_score_"
        assert getattr(scaled, stat) == math.ldexp(getattr(plain, stat), e)

    def test_gbdt_fits_targets_of_both_signs_near_the_maximum(self):
        # the residual y - current overflowed, though every mean was finite;
        # each stage now grows on half of it, so the fit is that of y / 4
        # scaled by 4 bit for bit
        rng = np.random.default_rng(1)
        X, u = rng.normal(size=(60, 5)), rng.random(60)
        y = (2 * u - 1) * np.finfo(float).max
        near = GradientBoostedTrees(n_trees=2).fit(X, y)
        quarter = GradientBoostedTrees(n_trees=2).fit(X, np.ldexp(y, -2))
        np.testing.assert_array_equal(near.predict(X), np.ldexp(quarter.predict(X), 2))

    @pytest.mark.parametrize("name", ["rf", "gbdt"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_constant_target_at_the_maximum_predicts_it(self, name, sign):
        # rf's fixed point rounded the maximum up onto its bound 2**(61 - b),
        # b the bit length of the 300 rows, so a leaf's mean was 2**1024; it
        # now keeps 61 - b = 52 of the maximum's 53 bits
        X = np.random.default_rng(3).normal(size=(300, 5))
        top = sign * np.finfo(float).max
        predicted = make_model(name, {"n_trees": 2}).fit(X, np.full(300, top)).predict(X)
        np.testing.assert_allclose(predicted, top, rtol=2.0**-51)


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

    def test_saved_document_holds_the_fitted_model_bit_exact(self, tmp_path):
        _, _, models = self.fitted_models()
        for i, model in enumerate(models):
            path = tmp_path / f"model{i}.json"
            save_model(model, path)
            assert_document_holds(strict_json(path), model)

    @pytest.mark.parametrize("kind", ["lm", "rf", "gbdt"])
    @pytest.mark.parametrize("regime", ["constant-target", "huge-features", "fewest-rows"])
    def test_every_fit_saves_a_standard_json_document(self, kind, regime, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        model = make_model(kind, {} if kind == "lm" else {"n_trees": 3})
        if regime == "constant-target":  # every tree is a single leaf
            y[:] = 7.25
        elif regime == "huge-features":  # split midpoints overflow
            X = np.sign(X) * np.finfo(float).max * np.minimum(0.5 + np.abs(X) / 10, 1.0)
        else:
            n = {"lm": 6, "rf": 2 * RF_MIN_LEAF, "gbdt": 2 * GBDT_MIN_NODE}[kind]
            with pytest.raises(DataError, match="need at least"):
                model.fit(X[:n - 1], y[:n - 1])
            X, y = X[:n], y[:n]
        model.fit(X, y)
        save_model(model, tmp_path / "model.json")
        assert_document_holds(strict_json(tmp_path / "model.json"), model)

    def test_only_the_forecasters_serialize(self, tmp_path):
        with pytest.raises(DataError, match="cannot serialize model of type RegressionTree"):
            save_model(grow(np.zeros((4, 1)), np.zeros(4)), tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("name", ["lm", "rf", "gbdt"])
    def test_an_unfitted_model_does_not_serialize(self, name, tmp_path):
        # the document read n_features_ and raised an AttributeError
        with pytest.raises(DataError, match="^model is not fitted$"):
            save_model(make_model(name), tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_save_is_byte_deterministic(self, tmp_path):
        X, y, models = self.fitted_models()
        save_model(models[1], tmp_path / "a.json")
        save_model(models[1], tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("named", [False, True])
    def test_the_written_document_is_compact_json_with_sorted_keys(self, named, tmp_path):
        # save_model writes its head, then each tree; the bytes are one dumps
        # of the document they parse to, which holds the fitted model
        _, _, models = self.fitted_models()
        for i, model in enumerate(models):
            if named:
                model.feature_names_ = ("a", "b", "c", "d", "e")
            path = tmp_path / f"model{i}.json"
            save_model(model, path)
            doc = strict_json(path)
            assert_document_holds(doc, model)
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert path.read_text(encoding="utf-8") == text + "\n"

    def test_feature_names_preserved(self, tmp_path):
        X, y, models = self.fitted_models()
        model = models[0]
        model.feature_names_ = ("a", "b", "c", "d", "e")
        path = tmp_path / "named.json"
        save_model(model, path)
        assert_document_holds(strict_json(path), model)

    def test_the_document_tags_the_model_kind(self, tmp_path):
        _, _, models = self.fitted_models()
        for i, m in enumerate(models):
            save_model(m, tmp_path / f"model{i}.json")
        docs = [strict_json(tmp_path / f"model{i}.json") for i in range(len(models))]
        assert [doc["kind"] for doc in docs] == ["lm", "rf", "gbdt"]
        for doc, m in zip(docs, models):
            assert_document_holds(doc, m)
