"""Storage-side operations: imbalance, trajectories, constraints, dispatch."""

import datetime as dt
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltgrid import ioutil
from voltgrid.errors import DataError
from voltgrid.ioutil import json_ready
from voltgrid.storage import (
    CONSTRAINTS,
    DispatchReport,
    StorageSpec,
    Violations,
    check_constraints,
    dispatch,
    imbalance,
    integrate_cumulative,
    read_dispatch_csv,
    sizing,
    soc_trajectory,
    storage_spec_from_config,
    write_dispatch_csv,
    write_report_json,
)
from voltgrid.volterra import Grid, forward_apply

from conftest import START, hourly, identity_kernel, two_band_kernel
from oracle import report_dict


def capacity(E):
    return sizing(np.diff(E), E)["min_capacity"]


def cycles(E):
    return sizing(np.diff(E), E)["equivalent_cycles"]


class TestImbalance:
    def test_shift_to_zero_origin(self):
        res = hourly([5, 6, 7], name="res")
        gen = hourly([10, 10, 10], name="gen")
        load = hourly([12, 11, 13], name="load")
        f, shift = imbalance(res, gen, load)
        assert shift == 3.0
        np.testing.assert_array_equal(f, [0.0, 2.0, 1.0])

    def test_misaligned_series_rejected(self):
        a = hourly([1, 2], name="res")
        b = hourly([1, 2], name="gen", start=START + dt.timedelta(hours=1))
        with pytest.raises(DataError) as err:
            imbalance(a, b, hourly([1, 2], name="load"))
        assert str(err.value) == ("imbalance inputs are misaligned: starts "
                                  f"{[START, START + dt.timedelta(hours=1)]}, lengths [2]")

    def test_nan_rejected(self):
        bad = hourly([1.0, np.nan], name="gen")
        with pytest.raises(DataError, match="impute"):
            imbalance(hourly([0, 0], name="res"), bad, hourly([0, 0], name="load"))


class TestTrajectories:
    def test_integrate_cumulative(self):
        v = integrate_cumulative([1.0, -2.0, 0.5], 0.5)
        np.testing.assert_allclose(v, [0.0, 0.5, -0.5, -0.25])

    @pytest.mark.parametrize("h", [0.0, -0.5])
    def test_integrate_cumulative_needs_a_positive_step(self, h):
        with pytest.raises(DataError, match=f"^step must be positive, got {h}$"):
            integrate_cumulative([1.0, 2.0], h)

    def test_soc_power_mode_efficiency(self):
        spec = StorageSpec(efficiency=0.8, interpretation="power")
        E = soc_trajectory([2.0, -2.0], 1.0, spec)
        # charge 2*0.8 = 1.6, discharge 2/0.8 = 2.5
        np.testing.assert_allclose(E, [0.0, 1.6, -0.9])

    def test_soc_literal_mode_uses_cumulative(self):
        spec = StorageSpec(efficiency=1.0, interpretation="literal")
        x = [1.0, 1.0, -1.0]
        E = soc_trajectory(x, 1.0, spec)
        # v = [1, 2, 1]; E = cumsum(h*v)
        np.testing.assert_allclose(E, [0.0, 1.0, 3.0, 4.0])

    def test_unit_efficiency_energy_balance(self):
        # with eta=1 in power mode, E_N - E_0 == h * sum(x) exactly
        rng = np.random.default_rng(11)
        x = rng.normal(size=500)
        h = 0.25
        spec = StorageSpec(efficiency=1.0, interpretation="power")
        E = soc_trajectory(x, h, spec)
        assert E[-1] - E[0] == pytest.approx(h * x.sum(), abs=1e-12)

    def test_e_init_offsets_whole_trajectory(self):
        spec0 = StorageSpec(interpretation="power")
        spec5 = StorageSpec(interpretation="power", e_init=5.0)
        x = [1.0, -0.5, 0.25]
        np.testing.assert_allclose(soc_trajectory(x, 1.0, spec5),
                                   soc_trajectory(x, 1.0, spec0) + 5.0)


class TestStorageSpecValidation:
    def test_efficiency_bounds(self):
        with pytest.raises(DataError, match="efficiency"):
            StorageSpec(efficiency=0.0)
        with pytest.raises(DataError, match="efficiency"):
            StorageSpec(efficiency=1.2)

    def test_interpretation_values(self):
        with pytest.raises(DataError, match="interpretation"):
            StorageSpec(interpretation="integral")

    def test_rated_cycles_positive(self):
        # the lifetime extrapolation relies on this guard alone
        with pytest.raises(DataError, match="rated_cycles"):
            StorageSpec(rated_cycles=0)

    @pytest.mark.parametrize("field, value, message", [
        ("e_min", float("nan"), "^storage config e_min must not be NaN$"),
        ("e_init", float("nan"), r"^storage config e_init must not be NaN \(finite numbers only\)$"),
        ("rated_cycles", 2.5, "^storage config rated_cycles must be an integer, got 2.5$"),
        ("efficiency", float("inf"), "^storage config efficiency must be finite, got inf$"),
        ("v_max", True, "^storage config v_max must be a number, got True$"),
    ])
    def test_a_spec_built_in_code_is_checked_as_its_json_is(self, field, value, message):
        # a NaN e_min passed, and a dispatch then reported no E_min violation
        # where the energy fell below the bound
        with pytest.raises(DataError, match=message):
            StorageSpec(**{field: value})

    def test_a_spec_holds_its_numbers_as_the_json_path_does(self):
        spec = StorageSpec(efficiency=1, rated_cycles=2000.0, e_init=np.float32(0.5))
        assert [type(v) for v in (spec.efficiency, spec.rated_cycles, spec.e_init)] == [
            float, int, float]
        assert spec == storage_spec_from_config({"efficiency": 1, "rated_cycles": 2000.0,
                                                 "e_init": 0.5})

    def test_config_parsing(self):
        spec = storage_spec_from_config({"efficiency": 0.9, "e_min": -10,
                                         "e_max": 10, "interpretation": "power"})
        assert spec.efficiency == 0.9
        assert spec.e_min == -10.0

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(DataError, match="unknown"):
            storage_spec_from_config({"effciency": 0.9})

    def test_config_null_keeps_default(self):
        spec = storage_spec_from_config({"e_min": None, "v_max": None})
        assert spec.e_min == -np.inf
        assert spec.v_max == np.inf

    def test_config_non_numeric_value(self):
        with pytest.raises(DataError, match="number"):
            storage_spec_from_config({"e_max": "big"})
        with pytest.raises(DataError, match="integer"):
            storage_spec_from_config({"rated_cycles": "many"})

    @pytest.mark.parametrize("key", ["v_max", "e_min", "e_max", "efficiency", "e_init"])
    def test_config_rejects_nan(self, key):
        # a NaN bound compares False against everything and would turn its
        # constraint check off
        with pytest.raises(DataError, match=f"{key} must not be NaN"):
            storage_spec_from_config({key: float("nan")})

    @pytest.mark.parametrize("key", ["efficiency", "e_init"])
    def test_config_rejects_infinite_state(self, key):
        for value in (float("inf"), float("-inf")):
            with pytest.raises(DataError, match=f"{key} must be finite"):
                storage_spec_from_config({key: value})

    def test_config_keeps_infinite_limits(self):
        spec = storage_spec_from_config({"e_min": float("-inf"), "e_max": float("inf"),
                                         "v_max": float("inf")})
        assert (spec.e_min, spec.e_max, spec.v_max) == (-np.inf, np.inf, np.inf)

    def test_config_rejects_infinite_cycle_count(self):
        with pytest.raises(DataError, match="integer"):
            storage_spec_from_config({"rated_cycles": float("inf")})

    @pytest.mark.parametrize("config, message", [
        ({"rated_cycles": 2.5}, "rated_cycles must be an integer"),
        ({"rated_cycles": True}, "rated_cycles must be an integer"),
        ({"efficiency": True}, "efficiency must be a number"),
        ({"e_max": False}, "e_max must be a number"),
        ({"v_max": True}, "v_max must be a number"),
        ({"e_init": True}, "e_init must be a number"),
    ])
    def test_config_rejects_booleans_and_fractional_cycles(self, config, message):
        # int() used to run 2.5 rated cycles as 2, and JSON true read as 1
        with pytest.raises(DataError, match=message):
            storage_spec_from_config(config)

    def test_config_accepts_integral_float_cycle_count(self):
        assert storage_spec_from_config({"rated_cycles": 2000.0}).rated_cycles == 2000


class TestConstraints:
    def test_clean_trajectory_has_no_violations(self):
        spec = StorageSpec(v_max=10.0, e_min=-5.0, e_max=5.0)
        x = np.array([1.0, -1.0])
        v = integrate_cumulative(x, 1.0)
        E = soc_trajectory(x, 1.0, StorageSpec(efficiency=1.0, interpretation="power"))
        assert len(check_constraints(v, E, spec)) == 0

    def test_violations_located_and_measured(self):
        spec = StorageSpec(v_max=1.5, e_min=-0.5, e_max=0.75,
                           interpretation="power")
        v = np.array([0.0, 1.0, 2.0])
        E = np.array([0.0, 1.0, -1.0])
        out = check_constraints(v, E, spec)
        assert list(zip(out.constraint.tolist(), out.node.tolist())) == [
            ("E_max", 1), ("E_min", 2), ("v_max", 2)]
        np.testing.assert_allclose(out.magnitude, [0.25, 0.5, 0.5])

    def test_tolerance_scales_with_e_max(self):
        spec = StorageSpec(e_max=1e6)
        E = np.array([0.0, 1e6 + 1e-4])  # inside 1e-9 * 1e6 = 1e-3
        assert len(check_constraints(np.zeros(2), E, spec)) == 0


class TestCapacityAndCycles:
    def test_min_capacity_is_range(self):
        assert capacity(np.array([1.0, -2.0, 4.0])) == 6.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        E = rng.normal(size=300)
        for shift in (-1e6, -3.7, 0.0, 42.0, 1e9):
            # shifting quantizes E at eps*|shift|, the only loss allowed
            tol = 8 * np.finfo(float).eps * max(1.0, abs(shift))
            assert capacity(E + shift) == pytest.approx(capacity(E), abs=tol)

    def test_cycles_scale_covariance(self):
        rng = np.random.default_rng(6)
        E = np.cumsum(rng.normal(size=200))
        assert cycles(2.0 * E) == pytest.approx(cycles(E), rel=1e-12)

    def test_sinusoid_counts_whole_cycles(self):
        # sampling a multiple of 4 points per period hits every extreme, so
        # the throughput sum telescopes exactly to 4*A per period
        h = 1.0
        for amp, periods, per_period in [(1.0, 3, 4), (7.5, 5, 24), (0.2, 2, 8)]:
            t = np.arange(periods * per_period + 1) * h
            E = amp * np.sin(2 * np.pi * t / (per_period * h))
            assert cycles(E) == pytest.approx(periods, abs=1e-9)

    def test_sizing(self):
        assert sizing([0.5, -3.0, 1.0], [0.0, 1.0, -1.0, 1.0]) == {
            "min_capacity": 2.0, "max_abs_power": 3.0, "equivalent_cycles": 1.25}
        assert sizing([0.0, 0.0], [2.0, 2.0, 2.0])["equivalent_cycles"] == 0.0

    def test_lifetime_extrapolation(self):
        # E ramps 0..4 over a 4 h horizon: capacity 4, half a cycle, so 10
        # rated cycles last 20 horizons (80 h)
        zero = hourly(np.zeros(5), name="res")
        gen = hourly(0.92 * np.arange(5.0), name="gen")
        report = dispatch(zero, gen, hourly(np.zeros(5)), identity_kernel(0.92),
                          StorageSpec(rated_cycles=10, interpretation="power"), Grid(4.0, 4))
        assert report.equivalent_cycles == pytest.approx(0.5, abs=1e-12)
        assert report.lifetime_horizons == pytest.approx(20.0, rel=1e-12)
        assert report.scalars()["lifetime_hours"] == pytest.approx(80.0, rel=1e-12)


class TestDispatch:
    def make_inputs(self, gen_values):
        n = len(gen_values)
        zero = hourly(np.zeros(n), name="res")
        load = hourly(np.zeros(n), name="load")
        gen = hourly(gen_values, name="gen")
        grid = Grid(float(n - 1), n - 1)
        return zero, gen, load, grid

    def test_balanced_grid_is_idle(self):
        res = hourly([1.0, 2.0, 3.0, 4.0], name="res")
        gen = hourly([5.0, 5.0, 5.0, 5.0], name="gen")
        load = hourly([6.0, 7.0, 8.0, 9.0], name="load")
        report = dispatch(res, gen, load, identity_kernel(), StorageSpec(), Grid(3.0, 3))
        np.testing.assert_array_equal(report.x, np.zeros(4))
        assert report.min_capacity == 0.0
        assert report.equivalent_cycles == 0.0
        assert report.lifetime_horizons == math.inf

    def test_hand_solved_ramp(self):
        # K == 0.92, f(t) = 0.92 t -> x == 1; E ramps with the kernel eta
        nodes = np.arange(5.0)
        res, gen, load, grid = self.make_inputs(0.92 * nodes)
        spec = StorageSpec(efficiency=0.92, interpretation="power")
        report = dispatch(res, gen, load, identity_kernel(0.92), spec, grid)
        np.testing.assert_allclose(report.x, np.ones(5), rtol=0, atol=1e-12)
        # default keeps the asymmetry out of E: eta stays in the kernel
        np.testing.assert_allclose(report.E, np.arange(5.0), rtol=0, atol=1e-12)
        assert report.min_capacity == pytest.approx(4.0)

    def test_soc_efficiency_opt_in(self):
        nodes = np.arange(5.0)
        res, gen, load, grid = self.make_inputs(0.92 * nodes)
        spec = StorageSpec(efficiency=0.92, interpretation="power")
        report = dispatch(res, gen, load, identity_kernel(0.92), spec, grid,
                          soc_efficiency=True)
        np.testing.assert_allclose(report.E, 0.92 * np.arange(5.0), rtol=0, atol=1e-12)

    def test_linearity_in_the_imbalance(self):
        rng = np.random.default_rng(9)
        surplus = np.concatenate([[0.0], rng.normal(size=47)])
        res, gen, load, grid = self.make_inputs(surplus)
        kernel = two_band_kernel()
        one = dispatch(res, gen, load, kernel, StorageSpec(), grid)
        res2, gen2, load2, _ = self.make_inputs(2.0 * surplus)
        two = dispatch(res2, gen2, load2, kernel, StorageSpec(), grid)
        np.testing.assert_allclose(two.x, 2.0 * one.x, rtol=1e-9, atol=1e-12)
        assert two.min_capacity == pytest.approx(2.0 * one.min_capacity, rel=1e-9)
        assert two.equivalent_cycles == pytest.approx(one.equivalent_cycles, rel=1e-9)

    def test_solution_satisfies_forward_problem(self):
        rng = np.random.default_rng(10)
        surplus = np.concatenate([[0.0], np.cumsum(rng.normal(size=30))])
        res, gen, load, grid = self.make_inputs(surplus)
        kernel = two_band_kernel()
        report = dispatch(res, gen, load, kernel, StorageSpec(), grid)
        f = forward_apply(kernel, grid, report.x)
        np.testing.assert_allclose(f, surplus, rtol=0, atol=1e-9 * max(1, np.abs(surplus).max()))

    def test_grid_mismatch_rejected(self):
        res, gen, load, _ = self.make_inputs(np.zeros(5))
        with pytest.raises(DataError, match="^imbalance has 5 samples, grid needs 4$"):
            dispatch(res, gen, load, identity_kernel(), StorageSpec(), Grid(3.0, 3))
        res, gen, load, _ = self.make_inputs(np.zeros(4))
        with pytest.raises(DataError, match="^grid step 0.5h is not the series' 1h step$"):
            dispatch(res, gen, load, identity_kernel(), StorageSpec(), Grid(1.5, 3))

    def test_misalignment_reported_before_grid_mismatch(self):
        _, gen, load, _ = self.make_inputs(np.zeros(5))
        with pytest.raises(DataError, match="misaligned"):
            dispatch(hourly(np.zeros(4), name="res"), gen, load, identity_kernel(),
                     StorageSpec(), Grid(3.0, 3))

    def test_report_dict_shape(self):
        res, gen, load, grid = self.make_inputs(np.array([0.0, 1.0, -1.0, 0.5]))
        report = dispatch(res, gen, load, identity_kernel(), StorageSpec(), grid)
        doc = report_dict(report)
        for key in ("min_capacity", "max_abs_power", "equivalent_cycles",
                    "lifetime_hours", "lifetime_horizons", "violations",
                    "residual", "imbalance_shift", "n_cells", "horizon_hours"):
            assert key in doc
        assert doc["residual"] == report.residual


_SCALARS = st.one_of(st.floats(), st.sampled_from([0.0, math.inf, 1 / 3]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_json_is_what_json_dump_writes(tmp_path_factory, data):
    # violations: none, several constraints at one node, magnitudes over
    # many decades (and the non-finite ones JSON writes as null)
    cells = sorted(data.draw(st.sets(st.tuples(st.integers(0, 40), st.integers(0, 2)), max_size=25)))
    magnitude = data.draw(st.lists(st.one_of(st.floats(), st.floats(1e-300, 1e300)),
                                   min_size=len(cells), max_size=len(cells)))
    violations = Violations(np.array([node for node, _ in cells], dtype=np.int64),
                            np.array(CONSTRAINTS)[[code for _, code in cells]].astype(str),
                            np.array(magnitude, dtype=float))
    report = DispatchReport(Grid(3.0, 3), np.zeros(4), np.zeros(4), np.zeros(4), violations,
                            *(data.draw(_SCALARS) for _ in range(6)))
    path = tmp_path_factory.getbasetemp() / "report.json"
    write_report_json(path, report)
    assert path.read_text() == json.dumps(json_ready(report_dict(report)), indent=2, sort_keys=True) + "\n"


class TestDispatchCsv:
    def test_roundtrip(self, tmp_path):
        res, gen, load = (hourly(np.zeros(4), name="res"),
                          hourly([0.0, 1.0, 0.5, -0.5], name="gen"),
                          hourly(np.zeros(4), name="load"))
        report = dispatch(res, gen, load, identity_kernel(), StorageSpec(), Grid(3.0, 3))
        path = tmp_path / "dispatch.csv"
        write_dispatch_csv(path, report)
        t, x, v, E = read_dispatch_csv(path)
        np.testing.assert_allclose(t, np.arange(4.0), atol=1e-12)
        np.testing.assert_allclose(x, report.x, atol=1e-12)
        np.testing.assert_allclose(v, report.v, atol=1e-12)
        np.testing.assert_allclose(E, report.E, atol=1e-12)
        assert path.read_text().splitlines()[0] == "t,x,v,E"

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize("body, message", [
        ("0,0,0,0\n1,nan,0,0\n2,x,0,0\n", "line 3: non-finite number in ['1', 'nan', '0', '0']"),
        ("0,0,0,0\n\n1,x,0,0\n2,inf,0,0\n", "line 4: bad value 'x'"),
        ("0,0,0,0\n1,0,0,0\n2,0,0\n3,x,0,0\n", "line 4: expected 4 columns, got 3"),
        ("0,0,0,0\n1,0,0,0,0\n", "line 3: expected 4 columns, got 5"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, block, body, message):
        path = tmp_path / "dispatch.csv"
        path.write_text("t,x,v,E\n" + body)
        with mock.patch.object(ioutil, "READ_BLOCK", block), pytest.raises(DataError) as err:
            read_dispatch_csv(path)
        assert str(err.value) == f"{path}: {message}"
