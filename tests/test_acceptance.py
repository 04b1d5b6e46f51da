"""Release gate: one test per advertised guarantee of the package.

Every test appends a PASS/FAIL line with the measured numbers to the
acceptance section that conftest prints after the pytest summary, so a
plain `pytest` run shows how much margin each guarantee has, not just
that the suite is green. Tolerances are the published ones, not tuned
to the implementation.
"""

import json
import math
import time

import numpy as np
import pytest

from voltgrid.forecast.features import FeatureConfig, build_feature_matrix
from voltgrid.forecast.validation import block_cross_validate, compute_metrics
from voltgrid.storage import StorageSpec, dispatch, sizing
from voltgrid.timeseries import TimeSeries, align_hourly
from voltgrid.volterra import Grid, forward_apply, kernel_from_config, solve_apf

from conftest import (ACCEPTANCE_LINES, hourly, identity_kernel, invoke, synthetic_load,
                      two_band_kernel)
from oracle import estimate_order


def record(name, ok, detail):
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


class TestSolver:
    def test_identity_kernel_is_exact_and_fast(self):
        # unit kernel, f(t) = t: x == 1 at every node, no quadrature error
        kernel = identity_kernel()
        grid = Grid(1.0, 100)
        f = grid.nodes()
        solve_apf(kernel, grid, f)  # warm-up: first call pays numpy setup
        elapsed = []
        for _ in range(5):
            t0 = time.perf_counter()
            result = solve_apf(kernel, grid, f)
            elapsed.append(time.perf_counter() - t0)
        err = float(np.max(np.abs(result.x - 1.0)))
        ms = min(elapsed) * 1e3
        ok = err <= 1e-12 and ms < 10.0
        record("solver identity (N=100)", ok,
               f"max err {err:.2e} (tol 1e-12), warm solve {ms:.2f} ms (< 10 ms)")
        assert ok

    def test_manufactured_solution_first_order(self):
        # x(s) = sin s against the two-band kernel has a closed-form f
        kernel = two_band_kernel()
        f = lambda t: 1.0 + np.cos(t / 2.0) - 2.0 * np.cos(t)
        errs = []
        for n in (200, 400):
            grid = Grid(2.0, n)
            result = solve_apf(kernel, grid, f(grid.nodes()))
            errs.append(float(np.max(np.abs(result.x[1:] - np.sin(grid.nodes()[1:])))))
        order = estimate_order(kernel, f, np.sin, 2.0, 200)
        ok = 0.8 <= order <= 1.2 and errs[1] < errs[0]
        record("manufactured convergence (two bands)", ok,
               f"order {order:.3f} (want [0.8, 1.2]), err {errs[0]:.2e} -> {errs[1]:.2e}")
        assert ok

    def test_forward_solve_roundtrip(self):
        # solve is the exact inverse of the quadrature it discretizes
        def banded(n):
            if n == 1:
                return identity_kernel()
            cs = [0.4] if n == 2 else [0.3, 0.7]
            return kernel_from_config({
                "n": n,
                "alphas": {"type": "proportional", "c": cs},
                "K": [{"type": "const", "value": 1.0 + 0.5 * i} for i in range(n)],
                "G": [{"type": "linear"}] * n,
            })

        kernels = [banded(1), banded(2), banded(3)]
        grid = Grid(4.0, 256)
        rng = np.random.default_rng(0)
        worst = 0.0
        t0 = time.perf_counter()
        for i in range(100):
            x = rng.normal(0.0, 1.0, 257)
            kernel = kernels[i % 3]
            back = solve_apf(kernel, grid, forward_apply(kernel, grid, x)).x
            worst = max(worst, float(np.max(np.abs(back[1:] - x[1:]))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 1.0
        record("roundtrip, 100 random series (N=256, 1-3 bands)", ok,
               f"worst err {worst:.2e} (tol 1e-10), total {elapsed:.2f} s (< 1 s)")
        assert ok

    def test_cubic_response_converges(self):
        # G(s,x) = x + 0.1 x^3 with x(s) = s: f(t) = t^2/2 + 0.025 t^4
        kernel = kernel_from_config({
            "n": 1,
            "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 1.0, "b": 0.1}],
        })
        f = lambda t: t ** 2 / 2.0 + 0.025 * t ** 4
        errs = {}
        for n in (400, 800):
            grid = Grid(2.0, n)
            result = solve_apf(kernel, grid, f(grid.nodes()))
            errs[n] = float(np.max(np.abs(result.x[1:] - grid.nodes()[1:])))
        ratio = errs[800] / errs[400]
        # first-order halving is asymptotic; allow 10% slack on the factor
        ok = errs[400] <= 5e-2 and ratio <= 0.55
        record("nonlinear cubic response", ok,
               f"err(N=400) {errs[400]:.2e} (tol 5e-2), refine ratio {ratio:.4f} (halving)")
        assert ok


class TestMetrics:
    def test_hand_oracle_and_rmse_floor(self):
        m = compute_metrics([110.0, 190.0], [100.0, 200.0])
        exact = (m.mae == 10.0 and m.rmse == 10.0 and m.mape_percent == 7.5)
        rng = np.random.default_rng(3)
        margins = []
        for _ in range(20):
            actual = rng.normal(100.0, 20.0, 1000)
            predicted = actual + rng.normal(0.0, 5.0, 1000)
            r = compute_metrics(predicted, actual)
            margins.append(r.rmse - r.mae)
        floor_ok = min(margins) >= 0.0
        ok = exact and floor_ok
        record("error metrics", ok,
               f"oracle (10, 10, 7.5%) {'exact' if exact else 'WRONG'}, "
               f"min rmse-mae gap {min(margins):.3e} over 20x1000 samples")
        assert ok


class TestStorage:
    def test_capacity_shift_and_cycle_count(self):
        rng = np.random.default_rng(11)
        worst_dev = 0.0
        for _ in range(50):
            E = np.cumsum(rng.normal(0.0, 10.0 ** rng.uniform(0, 4), 500))
            shift = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 6)
            base = sizing(np.diff(E), E)["min_capacity"]
            moved = sizing(np.diff(E), E + shift)["min_capacity"]
            # adding a constant cancels in max-min up to float rounding,
            # which grows with the magnitude of the shifted values
            tol = 64 * np.finfo(float).eps * max(1.0, abs(shift) + np.abs(E).max())
            worst_dev = max(worst_dev, abs(moved - base) / tol)
            assert abs(moved - base) <= tol, (shift, base, moved)

        worst_cycles = 0.0
        for _ in range(50):
            k = int(rng.integers(1, 7))
            quarter = int(rng.integers(6, 61))
            amp = 10.0 ** rng.uniform(-2, 6)
            idx = np.arange(k * 4 * quarter + 1)
            E = amp * np.sin(2 * np.pi * idx / (4 * quarter))
            # the samples hit both extremes, so the capacity is 2*amp
            cycles = sizing(np.diff(E), E)["equivalent_cycles"]
            worst_cycles = max(worst_cycles, abs(cycles - k))
        ok = worst_dev <= 1.0 and worst_cycles <= 1e-9
        record("storage invariants", ok,
               f"capacity shift deviation {worst_dev:.2f}x rounding tol over 50 offsets, "
               f"sinusoid cycle-count err {worst_cycles:.1e} (tol 1e-9)")
        assert ok


class TestForecast:
    def test_tree_ensembles_beat_linear(self):
        # the linear model cannot represent the working-day/hour interaction,
        # the trees can; one held-out year decides
        frame = align_hourly([synthetic_load(2 * 8760)])
        t0 = time.perf_counter()
        scores = {}
        for name, params in (("lm", {}), ("rf", {"n_trees": 150}), ("gbdt", {})):
            report = block_cross_validate(
                name, frame, n_blocks=2, validation_tail=8760,
                params=params, config=FeatureConfig(horizon=24), seed=0,
            )
            scores[name] = report.validation.mape_percent
        elapsed = time.perf_counter() - t0
        ok = (scores["lm"] <= 3.0
              and scores["rf"] < scores["lm"]
              and scores["gbdt"] < scores["lm"]
              and elapsed < 300.0)
        record("forecast ordering (held-out year)", ok,
               f"MAPE lm {scores['lm']:.3f}% (<= 3%), rf {scores['rf']:.3f}%, "
               f"gbdt {scores['gbdt']:.3f}% (both < lm), {elapsed:.0f} s (< 300 s)")
        assert ok

    def test_features_ignore_the_future(self):
        # replace everything after the forecast origin with garbage; the
        # feature row of the target 24 h out must not move a single bit
        rng = np.random.default_rng(5)
        n = 1500
        load = synthetic_load(n)
        temp = hourly(rng.normal(10.0, 8.0, n), name="temp")
        frame = align_hourly([load, temp])
        config = FeatureConfig(horizon=24)
        full = build_feature_matrix(frame, config)

        targets = rng.choice(np.arange(192, n), size=100, replace=False)
        clean = 0
        for r in targets:
            origin = int(r) - 24
            load_cut = load.values.copy()
            temp_cut = temp.values.copy()
            load_cut[origin + 1:] = 12345.0
            temp_cut[origin + 1:] = -999.0
            load_cut = load_cut[:r + 1]
            temp_cut = temp_cut[:r + 1]
            cut = align_hourly([hourly(load_cut), hourly(temp_cut, name="temp")])
            redone = build_feature_matrix(cut, config)
            i_full = int(np.where(full.target_rows == r)[0][0])
            i_cut = int(np.where(redone.target_rows == r)[0][0])
            if np.array_equal(full.X[i_full], redone.X[i_cut]):
                clean += 1
        ok = clean == 100
        record("no look-ahead in features", ok,
               f"{clean}/100 random rows bit-identical after the future is rewritten")
        assert ok


class TestPipeline:
    def run_pipeline(self, tmp_path, tag):
        root = tmp_path / tag
        root.mkdir()
        load = synthetic_load(1200)
        lines = ["timestamp,value"]
        stamps = np.datetime64("2019-01-01T00:00:00") + np.arange(1200) * np.timedelta64(3600, "s")
        for s, v in zip(stamps, load.values):
            lines.append(f"{s},{v:.6f}")
        (root / "load.csv").write_text("\n".join(lines) + "\n")
        (root / "kernel.json").write_text(json.dumps({
            "n": 1, "K": [{"type": "const", "value": 0.92}], "G": [{"type": "linear"}],
        }))

        steps = [
            ["ingest", "--load", str(root / "load.csv"), "--out", str(root / "run")],
            ["forecast", "--data", str(root / "run" / "dataset.csv"), "--model", "rf",
             "--trees", "10", "--blocks", "2", "--tail", "100", "--seed", "17",
             "--save-model", str(root / "model.json"), "--out", str(root / "fc")],
            ["dispatch", "--load", str(root / "fc" / "forecast.csv"),
             "--kernel", str(root / "kernel.json"), "--out", str(root / "disp")],
            ["report", "--dispatch", str(root / "disp" / "dispatch.csv"),
             "--out", str(root / "cmp")],
        ]
        for args in steps:
            result = invoke(args)
            assert result.exit_code == 0, (args[0], result.output)
        artifacts = ["run/dataset.csv", "run/summary.json", "fc/forecast.csv",
                     "fc/metrics.json", "model.json", "disp/dispatch.csv",
                     "disp/report.json", "cmp/comparison.json", "cmp/comparison.csv"]
        return {name: (root / name).read_bytes() for name in artifacts}

    def test_rerun_reproduces_every_artifact(self, tmp_path):
        first = self.run_pipeline(tmp_path, "a")
        second = self.run_pipeline(tmp_path, "b")
        same = [name for name in first if first[name] == second[name]]
        ok = len(same) == len(first)
        record("end-to-end determinism", ok,
               f"{len(same)}/{len(first)} pipeline artifacts byte-identical on rerun")
        assert ok, [name for name in first if first[name] != second[name]]


class TestSensitivity:
    def test_forecast_noise_is_amplified(self):
        # storage power follows the imbalance increment, so node-to-node
        # noise passes through the derivative and grows; a 1% load error
        # must move max|x| by much more than 1%
        n = 169
        load = synthetic_load(n, noise=0.0, seed=1)
        zeros = TimeSeries(load.start, np.zeros(n), load.step, "res")
        gen = TimeSeries(load.start, np.full(n, 50000.0), load.step, "gen")
        grid = Grid(168.0, 168)
        kernel = identity_kernel()
        spec = StorageSpec()
        base = dispatch(zeros, gen, load, kernel, spec, grid).max_abs_power

        rng = np.random.default_rng(7)
        noisy = TimeSeries(load.start,
                           load.values * (1.0 + rng.uniform(-0.01, 0.01, n)),
                           load.step, "load")
        perturbed = dispatch(zeros, gen, noisy, kernel, spec, grid).max_abs_power
        rel_change = abs(perturbed - base) / base
        amplification = rel_change / 0.01
        ok = rel_change > 0.02
        record("dispatch noise amplification", ok,
               f"1% load noise moves max|x| by {100 * rel_change:.1f}% "
               f"(amplification {amplification:.1f}x)")
        assert ok
