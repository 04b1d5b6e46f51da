"""Cross-validation harness: fold construction, determinism, breakdowns."""

import os

import numpy as np
import pytest

from voltgrid.errors import DataError
from voltgrid.forecast import validation
from voltgrid.forecast.features import build_feature_matrix
from voltgrid.forecast.models import make_model, save_model
from voltgrid.forecast.validation import block_cross_validate
from voltgrid.timeseries import align_hourly

from conftest import synthetic_load


def assert_no_children():
    """Every forked worker has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def saved(model, path) -> bytes:
    """The bytes ``save_model`` writes for ``model``."""
    save_model(model, path)
    return path.read_bytes()


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

    @pytest.mark.parametrize("name", ["rf", "gbdt"])
    def test_negative_seed(self, name):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            make_model(name, {"n_trees": 1}, seed=-1)


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

    @pytest.mark.parametrize("key, value", [("n_blocks", 2.5), ("n_blocks", "3"),
                                            ("validation_tail", 2.5), ("validation_tail", None)])
    def test_counts_are_integers(self, frame, key, value):
        # a fractional block count raised a TypeError in the block split
        kwargs = {"n_blocks": 2, "validation_tail": 100, key: value}
        with pytest.raises(DataError, match=f"^{key} must be an integer, got {value!r}$"):
            block_cross_validate("lm", frame, **kwargs)

    @pytest.mark.parametrize("name, params", [("lm", {"n_trees": 2}), ("rf", {"depth": 3})])
    def test_a_parameter_the_model_does_not_take(self, frame, name, params):
        # the model's constructor raised a TypeError
        with pytest.raises(DataError, match=f"^unknown {name} model parameter keys: "):
            block_cross_validate(name, frame, n_blocks=2, validation_tail=100, params=params)

    def test_needs_two_blocks(self, frame):
        with pytest.raises(DataError, match=">= 2 blocks"):
            block_cross_validate("lm", frame, n_blocks=1, validation_tail=100)

    def test_negative_seed(self, frame):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            block_cross_validate("rf", frame, n_blocks=2, validation_tail=100,
                                 params={"n_trees": 1}, seed=-1)
        assert_no_children()

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
    def test_report_does_not_depend_on_core_count(self, frame, monkeypatch, name, tmp_path):
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
            assert (saved(serial.final_model, tmp_path / "serial.json")
                    == saved(report.final_model, tmp_path / "forked.json"))

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

    def test_each_worker_runs_on_a_cpu_of_its_own(self, monkeypatch):
        mine = os.sched_getaffinity(0)
        if len(mine) < 2:
            pytest.skip("needs two CPUs")
        monkeypatch.setattr(validation, "_fit_and_predict", lambda *job: os.sched_getaffinity(0))
        jobs = [(None, None, 0, np.ones(4, dtype=bool), None)] * 2
        first, second = validation._run_jobs(np.zeros((4, 1)), np.zeros(4), jobs, 2)
        assert len(first) == len(second) == 1 and first != second
        assert first | second <= mine
        assert os.sched_getaffinity(0) == mine  # only the children are pinned
        assert_no_children()

    def test_without_cpu_affinity_the_fits_run_serially(self, frame, monkeypatch, tmp_path):
        def report():
            return block_cross_validate("rf", frame, n_blocks=3, validation_tail=100,
                                        params={"n_trees": 3}, seed=5)

        monkeypatch.setattr(validation, "_available_cores", lambda: 2)
        forked = report()
        monkeypatch.undo()
        workers = []
        run_jobs = validation._run_jobs
        monkeypatch.setattr(validation, "_run_jobs",
                            lambda X, y, jobs, n: workers.append(n) or run_jobs(X, y, jobs, n))
        monkeypatch.delattr(os, "sched_getaffinity")
        serial = report()
        assert workers == [1]
        assert serial.as_dict() == forked.as_dict()
        np.testing.assert_array_equal(serial.predicted, forked.predicted)
        assert (saved(serial.final_model, tmp_path / "serial.json")
                == saved(forked.final_model, tmp_path / "forked.json"))

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

    @pytest.mark.parametrize("cores", [1, 2])
    def test_only_the_final_job_returns_its_model(self, frame, monkeypatch, cores):
        # every fold's model was pickled back from its worker and then dropped
        results = []
        run_jobs = validation._run_jobs
        monkeypatch.setattr(validation, "_available_cores", lambda: cores)
        monkeypatch.setattr(validation, "_run_jobs",
                            lambda *args: results.append(run_jobs(*args)) or results[-1])
        report = block_cross_validate("rf", frame, n_blocks=3, validation_tail=100,
                                      params={"n_trees": 2}, seed=1)
        [(*folds, (final, _))] = results  # one call, the final job last
        assert [model for model, _ in folds] == [None] * 3
        assert final is report.final_model and final.n_trees == 2
        assert_no_children()
