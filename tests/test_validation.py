"""Cross-validation harness: fold construction, determinism, breakdowns."""

import numpy as np
import pytest

from voltgrid import DataError, align_hourly
from voltgrid.forecast import (
    FeatureConfig,
    block_cross_validate,
    build_feature_matrix,
    make_model,
    predict,
)

from conftest import synthetic_load


@pytest.fixture(scope="module")
def frame():
    return align_hourly([synthetic_load(10 * 168)])


class TestMakeModel:
    def test_known_names(self):
        assert type(make_model("lm")).__name__ == "RidgeRegression"
        assert type(make_model("rf")).__name__ == "RandomForest"
        assert type(make_model("gbdt")).__name__ == "GradientBoostedTrees"

    def test_seed_flows_into_tree_models(self):
        assert make_model("rf", seed=9).seed == 9
        assert make_model("gbdt", seed=9).seed == 9
        # explicit params win over the harness seed
        assert make_model("rf", {"seed": 4}, seed=9).seed == 4

    def test_unknown_name(self):
        with pytest.raises(DataError, match="unknown model"):
            make_model("svm")


class TestFitHelpers:
    def test_predict_guards_feature_order(self, frame):
        lm = block_cross_validate("lm", frame, n_blocks=2, validation_tail=200).final_model
        shuffled = build_feature_matrix(frame, FeatureConfig(lags=(24, 1, 168)))
        with pytest.raises(DataError, match="feature order"):
            predict(lm, shuffled)


class TestBlockCrossValidate:
    def test_report_structure(self, frame):
        report = block_cross_validate("lm", frame, n_blocks=4,
                                      validation_tail=200, params={}, seed=0)
        assert report.model == "lm"
        assert report.n_blocks == 4
        assert len(report.per_block) == 4
        assert report.frame_rows == frame.n_rows
        assert report.train_rows == frame.n_rows - 200
        assert report.validation_rows == 200
        assert len(report.mae_by_weekday) == 7
        assert len(report.mae_by_hour) == 24
        assert len(report.predicted) == len(report.actual) == 200

    def test_validation_rows_are_the_tail(self, frame):
        report = block_cross_validate("lm", frame, n_blocks=3,
                                      validation_tail=150, params={}, seed=0)
        stamps = frame.timestamps()
        np.testing.assert_array_equal(report.timestamps, stamps[-150:])

    def test_as_dict_is_json_shaped(self, frame):
        report = block_cross_validate("lm", frame, n_blocks=2,
                                      validation_tail=100, params={}, seed=0)
        doc = report.as_dict()
        assert set(doc) == {
            "model", "params", "horizon", "n_blocks", "frame_rows",
            "train_rows", "validation_rows", "per_block", "validation",
            "mae_by_weekday", "mae_by_hour",
        }
        assert all(set(b) == {"rmse", "mae", "mape_percent"} for b in doc["per_block"])

    def test_deterministic_given_seed(self, frame):
        kwargs = dict(n_blocks=2, validation_tail=100,
                      params={"n_trees": 5}, seed=3)
        a = block_cross_validate("rf", frame, **kwargs)
        b = block_cross_validate("rf", frame, **kwargs)
        np.testing.assert_array_equal(a.predicted, b.predicted)
        assert a.validation == b.validation

    def test_seed_matters_for_tree_models(self, frame):
        a = block_cross_validate("rf", frame, n_blocks=2, validation_tail=100,
                                 params={"n_trees": 5}, seed=3)
        b = block_cross_validate("rf", frame, n_blocks=2, validation_tail=100,
                                 params={"n_trees": 5}, seed=4)
        assert not np.array_equal(a.predicted, b.predicted)

    def test_needs_two_blocks(self, frame):
        with pytest.raises(DataError, match=">= 2 blocks"):
            block_cross_validate("lm", frame, n_blocks=1, validation_tail=100)

    def test_final_model_is_usable(self, frame):
        report = block_cross_validate("lm", frame, n_blocks=2,
                                      validation_tail=100, params={}, seed=0)
        matrix = build_feature_matrix(frame)
        out = predict(report.final_model, matrix)
        assert np.isfinite(out).all()

    def test_mape_tracks_mean_level(self, frame):
        # sanity anchor: on this generator the linear model lands near 1%
        report = block_cross_validate("lm", frame, n_blocks=3,
                                      validation_tail=300, params={}, seed=0)
        assert report.validation.mape_percent is not None
        assert report.validation.mape_percent < 5.0
