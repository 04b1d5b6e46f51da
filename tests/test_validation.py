"""Cross-validation harness: fold construction, determinism, breakdowns."""

import os

import numpy as np
import pytest

from voltgrid import DataError, align_hourly
from voltgrid.forecast import (
    block_cross_validate,
    build_feature_matrix,
    make_model,
    model_to_dict,
    validation,
)

from conftest import synthetic_load


def assert_no_children():
    """Every forked worker has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        out = report.final_model.predict(matrix.X)
        assert np.isfinite(out).all()

    def test_mape_tracks_mean_level(self, frame):
        # sanity anchor: on this generator the linear model lands near 1%
        report = block_cross_validate("lm", frame, n_blocks=3,
                                      validation_tail=300, params={}, seed=0)
        assert report.validation.mape_percent is not None
        assert report.validation.mape_percent < 5.0


class TestSchedule:
    @pytest.mark.parametrize("name", ["rf", "gbdt"])
    def test_report_does_not_depend_on_core_count(self, frame, monkeypatch, name):
        reports = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(validation, "_available_cores", lambda c=cores: c)
            reports.append(block_cross_validate(name, frame, n_blocks=4, validation_tail=100,
                                                params={"n_trees": 4}, seed=3))
            assert_no_children()
        serial, *forked = reports
        for report in forked:
            assert serial.as_dict() == report.as_dict()
            np.testing.assert_array_equal(serial.predicted, report.predicted)
            assert model_to_dict(serial.final_model) == model_to_dict(report.final_model)

    def test_deal_puts_the_largest_training_sets_first(self):
        jobs = [(None, None, 0, np.arange(10) < n, None) for n in (3, 9, 5, 8, 2)]
        assert validation._deal(jobs, 2) == [[1, 0, 4], [3, 2]]
        assert validation._deal(jobs, 5) == [[1], [3], [2], [0], [4]]

    def test_a_worker_that_dies_without_a_result(self, frame, monkeypatch):
        parent = os.getpid()

        def crash(*job):
            if os.getpid() == parent:  # never end the test process itself
                raise AssertionError("the job ran in the parent")
            os._exit(3)

        monkeypatch.setattr(validation, "_available_cores", lambda: 2)
        monkeypatch.setattr(validation, "_fit_and_predict", crash)
        with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
            block_cross_validate("rf", frame, n_blocks=2, validation_tail=100,
                                 params={"n_trees": 2})
        assert_no_children()

    def test_workers_never_exceed_the_cores(self, frame, monkeypatch):
        seen = []
        run_jobs = validation._run_jobs

        def spy(X, y, jobs, workers):
            seen.append((len(jobs), workers))
            return run_jobs(X, y, jobs, workers)

        monkeypatch.setattr(validation, "_run_jobs", spy)
        for name in ("lm", "rf"):
            block_cross_validate(name, frame, n_blocks=4, validation_tail=100,
                                 params={} if name == "lm" else {"n_trees": 2})
        cores = len(os.sched_getaffinity(0))
        assert seen == [(5, 1), (5, min(5, cores))]
