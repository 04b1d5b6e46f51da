"""Solver tests built around independent oracles.

The main instruments are manufactured solutions (pick x, integrate the kernel
analytically to get f, solve, compare) and forward/inverse roundtrips on
random data. The quadrature is first order, so convergence tests check the
observed order from grid refinement rather than absolute error.
"""

import collections
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from voltgrid import volterra
from voltgrid.errors import DataError, SolverError
from voltgrid.volterra import (
    BandPartition,
    Grid,
    KernelSpec,
    forward_apply,
    kernel_from_config,
    solve_apf,
)

from conftest import identity_kernel, two_band_kernel
from oracle import band_matrices, dense_forward, dense_solve, estimate_order, segment_cells

README_KERNEL = {
    "n": 2,
    "alphas": {"type": "proportional", "c": [0.5]},
    "K": [{"type": "const", "value": 0.92},
          {"type": "exp_decay", "value": 1.0, "rate": 0.05}],
    "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.1}],
    "kernel_floor": 1e-6,
}


class TestGrid:
    def test_nodes_pin_endpoints(self):
        grid = Grid(2.0, 8)
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert len(nodes) == 9
        assert grid.step == 0.25

    def test_validation(self):
        with pytest.raises(DataError, match="at least 2"):
            Grid(1.0, 1)

    @pytest.mark.parametrize("n_cells", [2.5, 1e20, 10.0])
    def test_cell_count_must_be_an_integer(self, n_cells):
        # 2.5 and 1e20 built a grid whose nodes() raised a TypeError
        with pytest.raises(DataError) as err:
            Grid(10.0, n_cells)
        assert str(err.value) == f"grid cell count must be an integer, got {n_cells!r}"

    def test_cell_count_must_fit_an_array(self):
        # nodes() raised numpy's ValueError: Maximum allowed size exceeded
        with pytest.raises(DataError) as err:
            Grid(10.0, 10**20)
        assert str(err.value) == f"grid of {10**20} cells has more nodes than an array holds"
        assert len(Grid(2.0, np.int64(8)).nodes()) == 9

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # nan met the band order check with an empty t; inf gave a NaN f or
        # a SolverError
        with pytest.raises(DataError) as err:
            Grid(horizon, 4)
        assert str(err.value) == f"grid horizon must be positive and finite, got {horizon}"

    def test_a_horizon_near_the_float_maximum_has_finite_nodes(self):
        # linspace's n * step overflowed before it pinned the last node
        nodes = Grid(np.finfo(float).max, 3).nodes()
        assert np.all(np.isfinite(nodes)) and nodes[-1] == np.finfo(float).max


class TestBandPartition:
    def test_proportional_fractions_validated(self):
        with pytest.raises(DataError, match="in \\(0,1\\)"):
            BandPartition.proportional([0.0])
        with pytest.raises(DataError, match="increasing"):
            BandPartition.proportional([0.6, 0.4])

    def test_boundary_values_shape(self):
        part = BandPartition.proportional([0.25, 0.75])
        bm = part.boundary_values([1.0, 2.0])
        assert bm.shape == (4, 2)
        np.testing.assert_allclose(bm[:, 1], [0.0, 0.5, 1.5, 2.0])

    def test_validate_on_requires_origin(self):
        part = BandPartition.from_table([0.0, 1.0], [[0.1, 0.5]])
        with pytest.raises(DataError, match="origin"):
            part.validate_on(Grid(1.0, 4))

    def test_validate_on_requires_ordering(self):
        # second boundary dips below the first for t > 0.5
        part = BandPartition.from_table(
            [0.0, 0.5, 1.0],
            [[0.0, 0.2, 0.4], [0.0, 0.3, 0.1]],
        )
        with pytest.raises(DataError, match="out of order at node"):
            part.validate_on(Grid(1.0, 4))

    @pytest.mark.parametrize("knots, row", [([0.0, 1.0], [0.0, np.nan]),
                                            ([0.0, np.inf], [0.0, 0.5])])
    def test_table_values_must_be_finite(self, knots, row):
        with pytest.raises(DataError, match="^boundary table holds a non-finite value$"):
            BandPartition.from_table(knots, [row])

    @pytest.mark.parametrize("field, message", [("K", "expected 1 efficiency factors, got 2"),
                                                ("G", "expected 1 response functions, got 2")])
    def test_one_factor_and_response_per_band(self, field, message):
        kernel = identity_kernel()
        with pytest.raises(DataError, match=f"^{message}$"):
            replace(kernel, **{field: getattr(kernel, field) * 2})

    def test_table_boundaries_interpolate(self):
        part = BandPartition.from_table([0.0, 2.0], [[0.0, 1.0]])
        np.testing.assert_allclose(part.boundary_values([0.5, 1.0])[1], [0.25, 0.5])


class TestSegmentCells:
    def test_single_band_returns_grid_cells(self):
        grid = Grid(1.0, 10)
        cells = segment_cells(0.3, grid, BandPartition())
        assert [band for band, _ in cells] == [1, 1, 1]
        np.testing.assert_allclose(
            [edge for _, frag in cells for edge in frag],
            [0.0, 0.1, 0.1, 0.2, 0.2, 0.3],
        )

    def test_boundary_splits_fragment(self):
        grid = Grid(1.0, 10)
        cells = segment_cells(0.3, grid, BandPartition.proportional([0.5]))
        bands = [band for band, _ in cells]
        assert bands == [1, 1, 2, 2]
        # alpha_1(0.3) = 0.15 falls inside the second grid cell
        assert cells[1][1] == pytest.approx((0.1, 0.15))
        assert cells[2][1] == pytest.approx((0.15, 0.2))

    def test_fragments_tile_the_interval(self):
        grid = Grid(3.0, 17)
        part = BandPartition.proportional([0.2, 0.55, 0.9])
        for t in grid.nodes()[1:]:
            cells = segment_cells(float(t), grid, part)
            widths = [hi - lo for _, (lo, hi) in cells]
            assert all(w > 0 for w in widths)
            assert math.fsum(widths) == pytest.approx(t, rel=1e-14)
            edges = [edge for _, (lo, hi) in cells for edge in (lo, hi)]
            assert edges == sorted(edges)
            assert [band for band, _ in cells] == sorted(band for band, _ in cells)


class TestForwardApply:
    def test_constant_kernel_is_cumulative_sum(self):
        grid = Grid(1.0, 10)
        x = np.arange(0.0, 11.0)
        f = forward_apply(identity_kernel(), grid, x)
        np.testing.assert_allclose(f, np.concatenate([[0.0], np.cumsum(0.1 * x[1:])]),
                                   rtol=0, atol=1e-14)

    def test_two_band_constant(self):
        # K1=1 on [0, t/2), K2=2 on [t/2, t), x==1 -> f(t) = t/2 + 2*(t/2)
        grid = Grid(1.0, 10)
        f = forward_apply(two_band_kernel(), grid, np.ones(11))
        np.testing.assert_allclose(f, 1.5 * grid.nodes(), rtol=0, atol=1e-14)

    def test_node_zero_is_not_read(self):
        grid = Grid(1.0, 10)
        x = np.linspace(1.0, 2.0, 11)
        ghost = np.concatenate([[99.0], x[1:]])
        np.testing.assert_array_equal(forward_apply(identity_kernel(), grid, x),
                                      forward_apply(identity_kernel(), grid, ghost))

    @pytest.mark.parametrize("x", [np.ones(10), np.ones(12), np.ones((11, 1))])
    def test_takes_node_values_0_to_n(self, x):
        with pytest.raises(DataError) as err:
            forward_apply(identity_kernel(), Grid(1.0, 10), x)
        assert str(err.value) == f"expected 11 node values, got {x.shape}"

    @pytest.mark.parametrize("G, value", [
        ([{"type": "linear"}] * 2, math.inf),
        ([{"type": "linear"}] * 2, -math.inf),
        ([{"type": "linear"}] * 2, math.nan),
        # finite, but its cube overflows
        (README_KERNEL["G"], 1e110),
        # the cubic first band misses node 4's own cell: its zero coefficient
        # met G(x) = inf there as numpy's invalid-value warning
        ([{"type": "cubic", "a": 1.0, "b": 0.1}, {"type": "linear"}], 1e110),
    ], ids=["inf", "-inf", "nan", "cube-overflows", "zero-own-coefficient"])
    def test_non_finite_x_or_response_rejected(self, G, value):
        # each returned an f holding NaN with no error
        kernel = kernel_from_config({**README_KERNEL, "G": G})
        x = np.ones(11)
        x[4] = value
        with pytest.raises(DataError) as err:
            forward_apply(kernel, Grid(10.0, 10), x)
        assert str(err.value) == f"node 4: x = {value!r} is not finite or overflows G(x)"

    @pytest.mark.parametrize("kernel, value, node", [
        (identity_kernel(), 1e308, 2),
        (identity_kernel(), -1e308, 2),
        (identity_kernel(), 3e307, 6),
        (two_band_kernel(), 3e307, 4),
    ], ids=["max", "-max", "later-node", "two-band"])
    def test_overflowing_quadrature_sum_rejected(self, kernel, value, node):
        # x and G(x) are finite, but the sum of them at ``node`` is not
        with pytest.raises(DataError) as err:
            forward_apply(kernel, Grid(10.0, 10), np.full(11, value))
        assert str(err.value) == f"node {node}: f is not finite; the quadrature sums of x overflow"


class TestSolveLinear:
    def test_identity_problem_is_exact(self):
        grid = Grid(1.0, 100)
        result = solve_apf(identity_kernel(), grid, grid.nodes())
        np.testing.assert_allclose(result.x, 1.0, rtol=0, atol=1e-12)
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_right_hand_side_rejected(self, bad):
        f = Grid(1.0, 10).nodes()
        f[4] = bad
        with pytest.raises(DataError, match="^right-hand side contains non-finite values$"):
            solve_apf(identity_kernel(), Grid(1.0, 10), f)

    def test_node_zero_is_extrapolated(self):
        grid = Grid(1.0, 10)
        result = solve_apf(identity_kernel(), grid, grid.nodes() ** 2)
        assert len(result.x) == 11
        assert result.x[0] == result.x[1]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        grid = Grid(3.0, 128)
        for fractions in ((), (0.5,), (0.3, 0.7)):
            kernel = kernel_from_config({
                "n": len(fractions) + 1,
                "alphas": {"type": "proportional", "c": list(fractions)},
                "K": [{"type": "const", "value": 0.5 + 0.5 * (i + 1)}
                      for i in range(len(fractions) + 1)],
                "G": [{"type": "linear"}] * (len(fractions) + 1),
            })
            x = rng.normal(size=129)
            f = forward_apply(kernel, grid, x)
            back = solve_apf(kernel, grid, f)
            np.testing.assert_allclose(back.x[1:], x[1:], rtol=0, atol=1e-10)

    def test_manufactured_sine_two_bands(self):
        # x(s) = sin s, alpha_1 = t/2, K1=1, K2=2:
        # f(t) = int_0^{t/2} sin + 2 int_{t/2}^t sin = 1 + cos(t/2) - 2 cos t
        kernel = two_band_kernel()
        f = lambda t: 1.0 + np.cos(t / 2.0) - 2.0 * np.cos(t)
        errs = []
        for n in (200, 400):
            grid = Grid(2.0, n)
            result = solve_apf(kernel, grid, f(grid.nodes()))
            errs.append(np.max(np.abs(result.x[1:] - np.sin(grid.nodes()[1:]))))
        assert errs[1] < errs[0]
        order = math.log2(errs[0] / errs[1])
        assert 0.8 <= order <= 1.2

    def test_exp_decay_kernel(self):
        # K(t,s) = e^{-(t-s)}, x==1: f(t) = 1 - e^{-t}
        kernel = kernel_from_config({
            "n": 1,
            "K": [{"type": "exp_decay", "value": 1.0, "rate": 1.0}],
            "G": [{"type": "linear"}],
        })
        errs = []
        for n in (100, 200):
            grid = Grid(1.0, n)
            f = 1.0 - np.exp(-grid.nodes())
            result = solve_apf(kernel, grid, f)
            errs.append(np.max(np.abs(result.x[1:] - 1.0)))
        assert 0.8 <= math.log2(errs[0] / errs[1]) <= 1.2

    def test_estimate_order_exact_solution(self):
        # power-of-two step keeps every quantity binary-exact, so the scheme
        # reproduces constant x with literally zero error on both grids
        order = estimate_order(identity_kernel(), lambda t: np.asarray(t, dtype=float),
                               lambda t: np.ones_like(t), 64.0, 64)
        assert order == math.inf


class TestSolveNonlinear:
    def test_cubic_response_converges(self):
        # G(s,x) = x + 0.1 x^3, x(s) = s: f(t) = t^2/2 + 0.025 t^4
        kernel = kernel_from_config({
            "n": 1,
            "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 1.0, "b": 0.1}],
        })
        errs = {}
        for n in (400, 800):
            grid = Grid(2.0, n)
            nodes = grid.nodes()
            result = solve_apf(kernel, grid, nodes ** 2 / 2.0 + 0.025 * nodes ** 4)
            errs[n] = np.max(np.abs(result.x[1:] - nodes[1:]))
        assert errs[400] <= 5e-2
        assert errs[800] <= 0.6 * errs[400]

    def test_newton_iteration_count_reported(self):
        kernel = kernel_from_config({
            "n": 1,
            "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 1.0, "b": 0.1}],
        })
        grid = Grid(2.0, 50)
        nodes = grid.nodes()
        result = solve_apf(kernel, grid, nodes ** 2 / 2.0 + 0.025 * nodes ** 4)
        iters = result.diagnostics["newton_iterations"]
        assert iters.dtype.kind == "i"
        assert iters.tolist() == [1] * 50

    @pytest.mark.parametrize("G, polished", [
        ([{"type": "linear"}] * 2, []),
        ([{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.1}], list(range(1, 41))),
        # the boundary t/2 cuts only node 1's own cell, so only there does
        # the cubic first band meet the unknown
        ([{"type": "cubic", "a": 1.0, "b": 0.1}, {"type": "linear"}], [1]),
    ], ids=["linear", "cubic_final", "cubic_first"])
    def test_one_polish_on_cubic_own_cells(self, G, polished):
        kernel = kernel_from_config({**README_KERNEL, "G": G})
        grid = Grid(40.0, 40)
        f = 100.0 * np.sin(2 * np.pi * grid.nodes() / 24.0)
        iters = solve_apf(kernel, grid, f).diagnostics["newton_iterations"]
        assert (np.flatnonzero(iters) + 1).tolist() == polished
        assert set(iters.tolist()) <= {0, 1}

    def test_each_cubic_response_runs_once_per_node(self):
        # the march keeps each band's G(x_k): one call per solved node, none
        # for the history, the boundary fragments or the residual
        calls = collections.Counter()

        class CountingCubic(volterra.Cubic):
            def __call__(self, x):
                calls[self] += 1
                return super().__call__(x)

        kernel = kernel_from_config({
            **README_KERNEL, "n": 3, "alphas": {"type": "proportional", "c": [0.3, 0.6]},
            "K": [{"type": "const", "value": 0.9}, *README_KERNEL["K"]],
            "G": [{"type": "cubic", "a": 1.0, "b": 0.2}, {"type": "linear"},
                  {"type": "cubic", "a": 0.5, "b": 0.1}]})
        kernel = replace(kernel, G=[g and CountingCubic(*g) for g in kernel.G])
        grid = Grid(30.0, 60)
        solve_apf(kernel, grid, 100.0 * np.sin(2 * np.pi * grid.nodes() / 24.0))
        assert calls == {kernel.G[0]: 60, kernel.G[2]: 60}

    def test_pure_cubic_matches_dense_oracle(self):
        # a = 0: the own cell is p*x^3 = r, a cube root with no polish
        kernel = kernel_from_config({**README_KERNEL, "G": [
            {"type": "cubic", "a": 0.0, "b": 0.5}, {"type": "cubic", "a": 0.0, "b": 0.2}]})
        grid = Grid(6.0, 60)
        x = np.sin(np.linspace(0.1, 5.0, 60))
        f = dense_forward(kernel, grid, x)
        np.testing.assert_allclose(forward_apply(kernel, grid, np.r_[0.0, x]), f,
                                   rtol=0, atol=1e-13)
        result = solve_apf(kernel, grid, f)
        np.testing.assert_allclose(result.x[1:], dense_solve(kernel, grid, f), rtol=0, atol=1e-10)
        assert not result.diagnostics["newton_iterations"].any()

    def test_mixed_linear_and_cubic_bands(self):
        # band 1 linear, band 2 cubic; verify against a forward roundtrip
        kernel = kernel_from_config({
            "n": 2,
            "alphas": {"type": "proportional", "c": [0.4]},
            "K": [{"type": "const", "value": 1.0}, {"type": "const", "value": 0.8}],
            "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.2}],
        })
        grid = Grid(1.5, 96)
        x = 0.5 + 0.4 * np.sin(np.linspace(0.0, 6.0, 97))
        f = forward_apply(kernel, grid, x)
        back = solve_apf(kernel, grid, f)
        np.testing.assert_allclose(back.x[1:], x[1:], rtol=0, atol=1e-9)

    def test_non_monotone_response_rejected(self):
        # a*b < 0 is decided by the config, when the kernel is built
        for a, b in ((1.0, -2.0), (-1.0, 0.5)):
            with pytest.raises(DataError, match="monotone"):
                kernel_from_config({
                    "n": 1,
                    "K": [{"type": "const", "value": 1.0}],
                    "G": [{"type": "cubic", "a": a, "b": b}],
                })

    def test_mixed_sign_own_cell_rejected(self):
        # K1 = 1 on a linear band, K2 = -0.5 on a cubic one: both meet node
        # 1's own cell, where q = 0.25h > 0 but p = -0.25h < 0
        kernel = kernel_from_config({
            "n": 2, "alphas": {"type": "proportional", "c": [0.5]},
            "K": [{"type": "const", "value": 1.0}, {"type": "const", "value": -0.5}],
            "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 1.0}],
        })
        grid = Grid(1.0, 10)
        with pytest.raises(DataError, match="node 1 is not monotone"):
            solve_apf(kernel, grid, grid.nodes())

    def test_vanishing_final_response_is_solver_error(self):
        # G = 0*x + 0*x^3 leaves the unknown out of its own cell
        kernel = kernel_from_config({
            "n": 1,
            "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 0.0, "b": 0.0}],
        })
        grid = Grid(1.0, 10)
        with pytest.raises(SolverError, match="degenerate last cell at node 1"):
            solve_apf(kernel, grid, grid.nodes())


class TestSolveErrors:
    def test_nonzero_f0_rejected(self):
        grid = Grid(1.0, 10)
        f = grid.nodes() + 1.0
        with pytest.raises(DataError, match="vanish at t=0"):
            solve_apf(identity_kernel(), grid, f)

    def test_kernel_floor_rejected(self):
        # K_n(t, t) is the final factor's value, so building the kernel checks it
        with pytest.raises(DataError, match="below the floor 1e-06"):
            identity_kernel(1e-9)

    def test_wrong_f_length(self):
        grid = Grid(1.0, 10)
        with pytest.raises(DataError, match="11"):
            solve_apf(identity_kernel(), grid, np.zeros(10))

    def test_partition_violation_is_data_error(self):
        kernel = kernel_from_config({
            "n": 3,
            "alphas": {"type": "table", "t": [0.0, 1.0], "alpha": [[0.0, 0.6], [0.0, 0.5]]},
            "K": [{"type": "const", "value": 1.0}] * 3,
            "G": [{"type": "linear"}] * 3,
        })
        grid = Grid(1.0, 10)
        with pytest.raises(DataError, match="out of order"):
            solve_apf(kernel, grid, np.zeros(11))


class TestSolveGates:
    def test_nan_config_never_reaches_the_solver(self):
        # at one time this config solved to an all-NaN x with residual nan
        config = json.loads('{"n": 1, "K": [{"type": "const", "value": NaN}], '
                            '"G": [{"type": "linear"}], "kernel_floor": NaN}')
        grid = Grid(1.0, 10)
        with pytest.raises((DataError, SolverError)):
            solve_apf(kernel_from_config(config), grid, grid.nodes())

    @pytest.mark.parametrize("G", [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 1.0}])
    def test_non_finite_history_is_solver_error(self, G):
        # a huge finite f over a K at the floor: x overflows at node 1 and
        # the history sums turn to inf - inf; both steps must refuse
        kernel = kernel_from_config({"n": 1, "K": [{"type": "const", "value": 1e-6}], "G": [G]})
        grid = Grid(4.0, 8)
        with pytest.raises(SolverError):
            solve_apf(kernel, grid, 1e303 * grid.nodes())

    @pytest.mark.parametrize("G", [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 1.0}])
    def test_overflow_on_the_last_node_is_solver_error(self, G):
        # x_N alone is infinite, so the residual and its tolerance both are;
        # at one time inf <= inf let such a solve through
        kernel = kernel_from_config({"n": 1, "K": [{"type": "const", "value": 1e-6}], "G": [G]})
        grid = Grid(4.0, 8)
        f = np.zeros(9)
        f[-1] = 1e308
        with pytest.raises(SolverError, match="not finite"):
            solve_apf(kernel, grid, f)

    @pytest.mark.parametrize("c, K, b, message", [
        # x stays finite, but its cube does not
        (0.78125, [{"type": "const", "value": 0.0}, {"type": "exp_decay", "value": 1.0, "rate": 1.0},
          {"type": "const", "value": 0.00390625}], 1.0, r"G\(x\) is not finite"),
        # q / 3p overflows for a subnormal cubic coefficient
        (0.75, [{"type": "const", "value": 0.0}, {"type": "const", "value": 1.0},
          {"type": "const", "value": -1.0}], -2.225073858507e-311, "x is not finite"),
    ], ids=["cube-overflows", "subnormal-cubic"])
    def test_overflow_in_a_cubic_band_is_solver_error(self, c, K, b, message):
        # both escaped as numpy's overflow warning; the first then reported a
        # residual of NaN
        kernel = kernel_from_config({
            "n": 3, "alphas": {"type": "proportional", "c": [0.5, c]}, "K": K,
            "G": [{"type": "linear"}, {"type": "cubic", "a": 0.0, "b": b}, {"type": "linear"}]})
        grid = Grid(2.0, 8)
        with pytest.raises(SolverError, match=message):
            solve_apf(kernel, grid, grid.nodes())

    def test_a_rate_past_the_float_maximum_decays_at_once(self):
        # rate * h and rate * age overflowed as numpy warnings
        kernel = kernel_from_config({"n": 1, "K": [{"type": "exp_decay", "value": 1.0,
                                                    "rate": 8.98846567431158e307}],
                                     "G": [{"type": "linear"}]})
        grid = Grid(2.0, 2)
        np.testing.assert_array_equal(solve_apf(kernel, grid, [0.0, 1.0, 2.0]).x, [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(forward_apply(kernel, grid, [0.0, 1.0, 2.0]), [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("call", [solve_apf, forward_apply])
    def test_an_own_cell_coefficient_past_the_float_maximum_is_data_error(self, call):
        # solve_apf let numpy's overflow warning out; forward_apply blamed x
        kernel = kernel_from_config({"n": 1, "K": [{"type": "const", "value": 1e308}],
                                     "G": [{"type": "linear"}]})
        with pytest.raises(DataError, match=r"^an own cell's width \* K overflows"):
            call(kernel, Grid(4.0, 2), np.zeros(3))

    @pytest.mark.parametrize("G", [{"type": "cubic", "a": 1e306, "b": 0.0},
                                   {"type": "cubic", "a": 0.0, "b": 1e306}])
    def test_an_own_cell_response_past_the_float_maximum_is_data_error(self, G):
        # width * K * a (or b) overflowed as a numpy warning
        kernel = kernel_from_config({"n": 1, "K": [{"type": "const", "value": 2.0}], "G": [G]})
        with pytest.raises(DataError, match="^own-cell response at node 1 overflows"):
            solve_apf(kernel, Grid(180.0, 2), np.zeros(3))

    def test_a_residual_past_the_float_maximum_is_solver_error(self):
        # known + terms rounded past the float maximum as a numpy warning
        kernel = kernel_from_config({"n": 1, "K": [{"type": "const", "value": 3.0}],
                                     "G": [{"type": "cubic", "a": 0.0, "b": 1.0}]})
        f = np.full(12, -4.29345194e307)
        f[0], f[-1] = 0.0, -np.finfo(float).max
        with pytest.raises(SolverError, match="^the march left residual inf above"):
            solve_apf(kernel, Grid(4.0, 11), f)

    def test_cubic_residual_is_gated(self, monkeypatch):
        # the cubic step is gated too: a negative tolerance, which no
        # residual can meet, must fail the solve
        kernel = kernel_from_config(README_KERNEL)
        grid = Grid(48.0, 48)
        f = 1000.0 * np.sin(2 * np.pi * grid.nodes() / 24.0)
        assert solve_apf(kernel, grid, f).residual <= 1e-8 * 1000.0
        monkeypatch.setattr(volterra, "DEFAULT_RESIDUAL_TOL", -1.0)
        with pytest.raises(SolverError, match="residual"):
            solve_apf(kernel, grid, f)

    def test_residual_gate_scales_with_the_summed_terms(self):
        # ten years of a daily swing: x grows to ~5e13, and the rounding
        # left in a difference of such sums (~4e-3) is ~1e-16 of them; a
        # gate scaled by max|f| alone failed this solve
        config = json.loads(json.dumps(README_KERNEL))
        config["G"][1] = {"type": "linear"}
        grid = Grid(87600.0, 87600)
        f = 1000.0 * np.sin(2 * np.pi * grid.nodes() / 24.0)
        result = solve_apf(kernel_from_config(config), grid, f)
        assert np.max(np.abs(result.x)) > 1e13
        assert 1e-4 < result.residual < 1e-5 * np.max(np.abs(result.x))


class TestKernelConfig:
    def test_minimal_single_band(self):
        kernel = kernel_from_config({
            "n": 1, "K": [{"type": "const", "value": 0.92}], "G": [{"type": "linear"}],
        })
        assert kernel.partition.n_bands == 1
        assert all(g is None for g in kernel.G)

    def test_lengths_must_match_n(self):
        with pytest.raises(DataError, match="K"):
            kernel_from_config({"n": 2,
                                "alphas": {"type": "proportional", "c": [0.5]},
                                "K": [{"type": "const", "value": 1.0}],
                                "G": [{"type": "linear"}] * 2})

    @pytest.mark.parametrize("n", [1.7, True, "2", None, math.nan, math.inf])
    def test_band_count_must_be_an_integer(self, n):
        # int() used to truncate 1.7 to a single band
        with pytest.raises(DataError, match="band count"):
            kernel_from_config({**README_KERNEL, "n": n})

    def test_integral_float_band_count_accepted(self):
        assert kernel_from_config({**README_KERNEL, "n": 2.0}).partition.n_bands == 2

    def test_multiband_requires_alphas(self):
        with pytest.raises(DataError, match="alphas"):
            kernel_from_config({"n": 2,
                                "K": [{"type": "const", "value": 1.0}] * 2,
                                "G": [{"type": "linear"}] * 2})

    def test_unknown_types_rejected(self):
        base = {"n": 1, "K": [{"type": "const", "value": 1.0}]}
        with pytest.raises(DataError, match="G"):
            kernel_from_config({**base, "G": [{"type": "sigmoid"}]})
        with pytest.raises(DataError, match="K"):
            kernel_from_config({"n": 1, "K": [{"type": "banana"}],
                                "G": [{"type": "linear"}]})

    @pytest.mark.parametrize("where, key, value, known", [
        # each was dropped without a word: a misspelt floor kept the default
        ((), "kernal_floor", 1e-3, "['G', 'K', 'alphas', 'kernel_floor', 'n']"),
        (("K", 0), "rate", 0.05, "['type', 'value']"),
        (("K", 1), "decay", 0.05, "['rate', 'type', 'value']"),
        (("G", 0), "a", 2.0, "['type']"),
        (("G", 0), "b", 0.1, "['type']"),
        (("G", 1), "c", 0.1, "['a', 'b', 'type']"),
        (("alphas",), "t", [0.0, 1.0], "['c', 'type']"),
    ], ids=["kernal_floor", "const-rate", "exp_decay-decay", "linear-a", "linear-b",
            "cubic-c", "proportional-t"])
    def test_a_key_its_object_does_not_take_is_rejected(self, where, key, value, known):
        config = json.loads(json.dumps(README_KERNEL))
        entry = config
        for step in where:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(DataError, match=re.escape(f"keys: ['{key}'] (known: {known})")):
            kernel_from_config(config)

    @pytest.mark.parametrize("alphas, known", [
        ({"type": "table", "t": [0.0, 1.0], "alpha": [[0.0, 0.5]], "c": [0.5]},
         "['alpha', 't', 'type']"),
        ({"type": "proportional", "c": [], "rows": []}, "['alpha', 'c', 't', 'type']"),
    ], ids=["table-c", "single-band-rows"])
    def test_a_boundary_key_its_type_does_not_take_is_rejected(self, alphas, known):
        config = {**README_KERNEL, "alphas": alphas}
        if "rows" in alphas:  # a single band takes an empty boundary object
            config.update(n=1, K=config["K"][:1], G=config["G"][:1])
        with pytest.raises(DataError, match=re.escape(f"(known: {known})")):
            kernel_from_config(config)

    def test_growing_factor_rejected(self):
        with pytest.raises(DataError, match="rate must be >= 0"):
            kernel_from_config({"n": 1, "K": [{"type": "exp_decay", "value": 1.0, "rate": -0.3}],
                                "G": [{"type": "linear"}]})

    def test_only_config_factors_and_responses(self):
        with pytest.raises(DataError, match="K\\[0\\] must be a const or exp_decay"):
            KernelSpec(partition=BandPartition(), K=(lambda t, s: 1.0,), G=(None,))
        with pytest.raises(DataError, match="G\\[0\\] must be linear or cubic"):
            KernelSpec(partition=BandPartition(), K=identity_kernel().K,
                       G=(lambda s, x: x,))

    def test_cubic_reduces_to_identity(self):
        kernel = kernel_from_config({
            "n": 1, "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 1.0, "b": 0.0}],
        })
        assert all(g is None for g in kernel.G)

    def test_table_alphas(self):
        kernel = kernel_from_config({
            "n": 2,
            "alphas": {"type": "table", "t": [0.0, 1.0], "alpha": [[0.0, 0.5]]},
            "K": [{"type": "const", "value": 1.0}] * 2,
            "G": [{"type": "linear"}] * 2,
        })
        grid = Grid(1.0, 16)
        x = np.linspace(0.5, 1.5, 17)
        f = forward_apply(kernel, grid, x)
        back = solve_apf(kernel, grid, f)
        np.testing.assert_allclose(back.x[1:], x[1:], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("patch", [
        lambda c, v: c["K"][0].__setitem__("value", v),
        lambda c, v: c["K"][1].__setitem__("rate", v),
        lambda c, v: c["G"][1].__setitem__("a", v),
        lambda c, v: c["G"][1].__setitem__("b", v),
        lambda c, v: c.__setitem__("kernel_floor", v),
        lambda c, v: c.__setitem__("alphas", {"type": "table", "t": [0.0, v],
                                              "alpha": [[0.0, 0.5]]}),
        lambda c, v: c.__setitem__("alphas", {"type": "table", "t": [0.0, 1.0],
                                              "alpha": [[0.0, v]]}),
    ], ids=["value", "rate", "a", "b", "kernel_floor", "table_t", "table_alpha"])
    def test_non_finite_numbers_rejected(self, patch, bad):
        config = json.loads(json.dumps(README_KERNEL))
        patch(config, bad)
        with pytest.raises(DataError, match="finite"):
            kernel_from_config(config)

    @pytest.mark.parametrize("patch", [
        lambda c: c["K"][0].__setitem__("value", True),
        lambda c: c["K"][1].__setitem__("rate", True),
        lambda c: c["G"][1].__setitem__("a", True),
        lambda c: c["G"][1].__setitem__("b", False),
        lambda c: c.__setitem__("kernel_floor", True),
        lambda c: c.__setitem__("alphas", {"type": "proportional", "c": [True]}),
        lambda c: c.__setitem__("alphas", {"type": "table", "t": [False, True],
                                           "alpha": [[0.0, 0.5]]}),
        lambda c: c.__setitem__("alphas", {"type": "table", "t": [0.0, 1.0],
                                           "alpha": [[False, 0.5]]}),
    ], ids=["value", "rate", "a", "b", "kernel_floor", "c", "table_t", "table_alpha"])
    def test_booleans_rejected(self, patch):
        # JSON true used to read as 1.0
        config = json.loads(json.dumps(README_KERNEL))
        patch(config)
        with pytest.raises(DataError, match="must be a number, got (True|False)"):
            kernel_from_config(config)

    @pytest.mark.parametrize("alphas", [
        {"type": "proportional", "c": ["half"]},
        {"type": "table", "t": [0.0, "end"], "alpha": [[0.0, 0.5]]},
        {"type": "table", "t": [0.0, 1.0], "alpha": [[0.0, None, 1.0]]},
    ])
    def test_non_numeric_boundaries_rejected(self, alphas):
        with pytest.raises(DataError):
            kernel_from_config({**README_KERNEL, "alphas": alphas})


# --- the march against the dense oracle ------------------------------------

_fractions = st.floats(0.05, 0.95)
_factors = st.one_of(
    st.builds(lambda v: {"type": "const", "value": v}, st.floats(0.5, 2.0)),
    st.builds(lambda v, r: {"type": "exp_decay", "value": v, "rate": r},
              st.floats(0.5, 2.0), st.floats(0.0, 0.5)),
)
_responses = st.one_of(
    st.just({"type": "linear"}),
    st.builds(lambda a, b: {"type": "cubic", "a": a, "b": b},
              st.floats(0.5, 2.0), st.floats(0.01, 0.5)),
)


@st.composite
def config_problems(draw, zero_factors=False):
    """A random 1-3 band config kernel (as its JSON form) on a grid of at
    most 96 cells, a solution x and the tolerance relative to max|x|.

    K values stay in [0.5, 2], well clear of the floor; with
    ``zero_factors`` each non-final band's value may be 0 instead.
    """
    n = draw(st.integers(1, 3))
    horizon = draw(st.floats(1.0, 50.0))
    config = {"n": n, "K": [draw(_factors) for _ in range(n)],
              "G": [draw(_responses) for _ in range(n)]}
    if zero_factors:
        for factor in config["K"][:-1]:
            if draw(st.booleans()):
                factor["value"] = 0.0
    if n > 1:
        def fractions():
            cs = sorted(draw(st.lists(_fractions, min_size=n - 1, max_size=n - 1)))
            return [c + 0.01 * i for i, c in enumerate(cs)]  # strictly increasing
        if draw(st.booleans()):
            config["alphas"] = {"type": "proportional", "c": fractions()}
        else:
            knots = [0.0, draw(st.floats(0.2, 0.8)) * horizon, horizon]
            at_knots = [fractions(), fractions()]
            config["alphas"] = {"type": "table", "t": knots, "alpha": [
                [0.0, at_knots[0][i] * knots[1], at_knots[1][i] * knots[2]]
                for i in range(n - 1)]}
    grid = Grid(horizon, draw(st.integers(2, 96)))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, grid.n_cells)
    tol = 1e-12 if all(g["type"] == "linear" for g in config["G"]) else 1e-10
    return config, grid, x, tol


def well_conditioned(kernel, grid, x, tol):
    """The dense f of x and its dense solve, when that solve recovers x to a
    tenth of the tolerance.

    A narrow top band whose K*G' is small next to the band below it makes the
    first-kind inverse amplify rounding by a power of N (about 1 draw in 300
    here), and then no summation order can meet a 1e-12 tolerance. Those
    draws test the problem's conditioning rather than the march, so they
    are discarded.
    """
    f = dense_forward(kernel, grid, x)
    ref = dense_solve(kernel, grid, f)
    assume(np.max(np.abs(ref - x)) <= 0.1 * tol * np.max(np.abs(x)))
    return f, ref


class TestMarch:
    @settings(max_examples=150, deadline=None)
    @given(config_problems(zero_factors=True))
    def test_matches_dense_oracle(self, problem):
        config, grid, x, tol = problem
        kernel = kernel_from_config(config)
        f, ref = well_conditioned(kernel, grid, x, tol)
        scale = max(1.0, float(np.max(np.abs(f))))
        forward = forward_apply(kernel, grid, np.r_[0.0, x])
        np.testing.assert_allclose(forward, f, rtol=0, atol=1e-13 * scale)
        # a band whose factor is 0 adds nothing, whatever its response
        silent = [None if k.value == 0.0 else g for k, g in zip(kernel.K, kernel.G)]
        np.testing.assert_array_equal(
            forward_apply(replace(kernel, G=silent), grid, np.r_[0.0, x]), forward)
        got = solve_apf(kernel, grid, f).x[1:]
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.max(np.abs(ref)))

    @settings(max_examples=150, deadline=None)
    @given(config_problems())
    def test_solve_inverts_forward(self, problem):
        config, grid, x, tol = problem
        kernel = kernel_from_config(config)
        well_conditioned(kernel, grid, x, tol)
        back = solve_apf(kernel, grid, forward_apply(kernel, grid, np.r_[0.0, x])).x[1:]
        np.testing.assert_allclose(back, x, rtol=0, atol=tol * np.max(np.abs(x)))

    @settings(max_examples=150, deadline=None)
    @given(config_problems())
    def test_cut_rule_matches_dense_fragments(self, problem):
        # the own cell and both boundary fragments come from one cut rule;
        # the dense oracle cuts every cell of every row
        config, grid, _, _ = problem
        kernel = kernel_from_config(config)
        march = volterra._March(kernel, grid)
        n = grid.n_cells
        for mat, coefs, rows in zip(band_matrices(kernel, grid), march.coefs,
                                    march.windows(slice(0, n))):
            np.testing.assert_array_max_ulp(coefs, mat[np.arange(n), np.arange(n)], maxulp=2)
            got, want = [], []
            for j, (_, _, a, b, c_left, k_left, c_right, k_right) in enumerate(rows, start=1):
                cells = list(range(a + 1, b + 1))
                for c, k in ((c_left, k_left), (c_right, k_right)):
                    if c:
                        cells.append(k)
                        got.append(c)
                        want.append(mat[j - 1, k - 1])
                # the window's whole cells and the fragments tile the history
                assert sorted(cells) == (np.flatnonzero(mat[j - 1, :j - 1]) + 1).tolist()
            np.testing.assert_array_max_ulp(np.array(got), np.array(want), maxulp=2)

        t = grid.nodes()
        bv = kernel.partition.boundary_values(t)
        alphas = config.get("alphas", {"type": "proportional", "c": []})
        interior = ([c * t for c in alphas["c"]] if alphas["type"] == "proportional"
                    else [np.interp(t, alphas["t"], row) for row in alphas["alpha"]])
        np.testing.assert_array_equal(bv, np.vstack([np.zeros_like(t), *interior, t]))

    def test_long_exp_decay_stays_finite(self):
        # rate * horizon = 876: prefix sums of e^{rate*s} would overflow
        kernel = kernel_from_config({
            "n": 2, "alphas": {"type": "proportional", "c": [0.5]},
            "K": [{"type": "exp_decay", "value": 1.0, "rate": 0.1},
                  {"type": "exp_decay", "value": 1.0, "rate": 0.1}],
            "G": [{"type": "linear"}, {"type": "linear"}]})
        grid = Grid(8760.0, 8760)
        f = 1000.0 * np.sin(2 * np.pi * grid.nodes() / 24.0)
        x = solve_apf(kernel, grid, f).x
        assert np.all(np.isfinite(x))
        # the march is causal: its first nodes solve the truncated problem
        head = Grid(200.0, 200)
        np.testing.assert_allclose(x[1:201], dense_solve(kernel, head, f[:201]),
                                   rtol=0, atol=1e-12 * np.max(np.abs(x[1:201])))

    def test_ten_year_solve_memory_is_linear(self):
        # N = 87600: one dense 1024 x N block alone would take ~700 MB
        kernel = kernel_from_config(README_KERNEL)
        grid = Grid(87600.0, 87600)
        f = 1000.0 * np.sin(2 * np.pi * grid.nodes() / 24.0)
        tracemalloc.start()
        try:
            result = solve_apf(kernel, grid, f)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result.x))
        assert peak_mb < 64.0
