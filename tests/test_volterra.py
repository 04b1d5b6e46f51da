"""Solver tests built around independent oracles.

The main instruments are manufactured solutions (pick x, integrate the kernel
analytically to get f, solve, compare) and forward/inverse roundtrips on
random data. The quadrature is first order, so convergence tests check the
observed order from grid refinement rather than absolute error.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from voltgrid import (
    BandPartition,
    DataError,
    Grid,
    KernelSpec,
    SolverError,
    estimate_order,
    forward_apply,
    kernel_from_config,
    solve_apf,
)

from conftest import identity_kernel, two_band_kernel
from oracle import dense_forward, dense_solve, segment_cells

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
        with pytest.raises(DataError, match="positive"):
            Grid(0.0, 4)


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
        x = np.arange(1.0, 11.0)
        f = forward_apply(identity_kernel(), grid, x)
        np.testing.assert_allclose(f, np.concatenate([[0.0], np.cumsum(0.1 * x)]),
                                   rtol=0, atol=1e-14)

    def test_two_band_constant(self):
        # K1=1 on [0, t/2), K2=2 on [t/2, t), x==1 -> f(t) = t/2 + 2*(t/2)
        grid = Grid(1.0, 10)
        f = forward_apply(two_band_kernel(), grid, np.ones(10))
        np.testing.assert_allclose(f, 1.5 * grid.nodes(), rtol=0, atol=1e-14)

    def test_accepts_full_node_vector(self):
        grid = Grid(1.0, 10)
        x = np.linspace(1.0, 2.0, 10)
        with_ghost = np.concatenate([[99.0], x])  # node-0 value must be ignored
        np.testing.assert_array_equal(forward_apply(identity_kernel(), grid, x),
                                      forward_apply(identity_kernel(), grid, with_ghost))


class TestSolveLinear:
    def test_identity_problem_is_exact(self):
        grid = Grid(1.0, 100)
        result = solve_apf(identity_kernel(), grid, grid.nodes())
        np.testing.assert_allclose(result.x, 1.0, rtol=0, atol=1e-12)
        assert result.residual <= 1e-10

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
            x = rng.normal(size=128)
            f = forward_apply(kernel, grid, x)
            back = solve_apf(kernel, grid, f)
            np.testing.assert_allclose(back.x[1:], x, rtol=0, atol=1e-10)

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
        assert len(iters) == 50
        assert max(iters) <= 100

    def test_mixed_linear_and_cubic_bands(self):
        # band 1 linear, band 2 cubic; verify against a forward roundtrip
        kernel = kernel_from_config({
            "n": 2,
            "alphas": {"type": "proportional", "c": [0.4]},
            "K": [{"type": "const", "value": 1.0}, {"type": "const", "value": 0.8}],
            "G": [{"type": "linear"}, {"type": "cubic", "a": 1.0, "b": 0.2}],
        })
        grid = Grid(1.5, 96)
        x = 0.5 + 0.4 * np.sin(np.linspace(0.0, 6.0, 96))
        f = forward_apply(kernel, grid, x)
        back = solve_apf(kernel, grid, f)
        np.testing.assert_allclose(back.x[1:], x, rtol=0, atol=1e-9)

    def test_non_monotone_response_rejected(self):
        kernel = kernel_from_config({
            "n": 1,
            "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 1.0, "b": -2.0}],
        })
        grid = Grid(1.0, 10)
        with pytest.raises(DataError, match="monotone"):
            solve_apf(kernel, grid, grid.nodes())


class TestSolveErrors:
    def test_nonzero_f0_rejected(self):
        grid = Grid(1.0, 10)
        f = grid.nodes() + 1.0
        with pytest.raises(DataError, match="vanish at t=0"):
            solve_apf(identity_kernel(), grid, f)

    def test_kernel_floor_rejected(self):
        tiny = identity_kernel(1e-9)
        grid = Grid(1.0, 10)
        with pytest.raises(DataError, match="floor"):
            solve_apf(tiny, grid, np.zeros(11))

    def test_wrong_f_length(self):
        grid = Grid(1.0, 10)
        with pytest.raises(DataError, match="11"):
            solve_apf(identity_kernel(), grid, np.zeros(10))

    def test_partition_violation_is_data_error(self):
        kernel = KernelSpec(
            partition=BandPartition.from_table(
                [0.0, 1.0], [[0.0, 0.6], [0.0, 0.5]]),
            K=(lambda t, s: np.ones_like(s),) * 3,
            G=(None, None, None),
        )
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

    @pytest.mark.parametrize("G", [(None,), (lambda s, x: x + 0.1 * x ** 3,)])
    def test_non_finite_history_is_solver_error(self, G):
        # K is finite on the diagonal, so the floor check passes, but NaN
        # everywhere below it: linear and nonlinear steps must both refuse
        kernel = KernelSpec(
            partition=BandPartition(),
            K=(lambda t, s: np.where(np.asarray(t) - np.asarray(s) > 0.5, np.nan, 1.0),),
            G=G,
        )
        grid = Grid(4.0, 8)
        with pytest.raises(SolverError):
            solve_apf(kernel, grid, grid.nodes())

    def test_cubic_residual_is_gated(self):
        # the root-find path is gated too: a negative tolerance, which no
        # residual can meet, must fail the solve
        kernel = kernel_from_config(README_KERNEL)
        grid = Grid(48.0, 48)
        f = 1000.0 * np.sin(2 * np.pi * grid.nodes() / 24.0)
        assert solve_apf(kernel, grid, f).residual <= 1e-8 * 1000.0
        with pytest.raises(SolverError, match="residual"):
            solve_apf(kernel, grid, f, residual_tol=-1.0)


class TestKernelConfig:
    def test_minimal_single_band(self):
        kernel = kernel_from_config({
            "n": 1, "K": [{"type": "const", "value": 0.92}], "G": [{"type": "linear"}],
        })
        assert kernel.n_bands == 1
        assert kernel.is_linear

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
        assert kernel_from_config({**README_KERNEL, "n": 2.0}).n_bands == 2

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

    def test_cubic_reduces_to_identity(self):
        kernel = kernel_from_config({
            "n": 1, "K": [{"type": "const", "value": 1.0}],
            "G": [{"type": "cubic", "a": 1.0, "b": 0.0}],
        })
        assert kernel.is_linear

    def test_table_alphas(self):
        kernel = kernel_from_config({
            "n": 2,
            "alphas": {"type": "table", "t": [0.0, 1.0], "alpha": [[0.0, 0.5]]},
            "K": [{"type": "const", "value": 1.0}] * 2,
            "G": [{"type": "linear"}] * 2,
        })
        grid = Grid(1.0, 16)
        x = np.linspace(0.5, 1.5, 16)
        f = forward_apply(kernel, grid, x)
        back = solve_apf(kernel, grid, f)
        np.testing.assert_allclose(back.x[1:], x, rtol=0, atol=1e-10)

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
def config_problems(draw):
    """A random 1-3 band config kernel (as its JSON form) on a grid of at
    most 96 cells, a solution x and the tolerance relative to max|x|.

    K values stay in [0.5, 2], well clear of the floor.
    """
    n = draw(st.integers(1, 3))
    horizon = draw(st.floats(1.0, 50.0))
    config = {"n": n, "K": [draw(_factors) for _ in range(n)],
              "G": [draw(_responses) for _ in range(n)]}
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
    @given(config_problems())
    def test_matches_dense_oracle(self, problem):
        config, grid, x, tol = problem
        kernel = kernel_from_config(config)
        f, ref = well_conditioned(kernel, grid, x, tol)
        scale = max(1.0, float(np.max(np.abs(f))))
        np.testing.assert_allclose(forward_apply(kernel, grid, x), f, rtol=0, atol=1e-13 * scale)
        got = solve_apf(kernel, grid, f).x[1:]
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.max(np.abs(ref)))

    @settings(max_examples=150, deadline=None)
    @given(config_problems())
    def test_solve_inverts_forward(self, problem):
        config, grid, x, tol = problem
        kernel = kernel_from_config(config)
        well_conditioned(kernel, grid, x, tol)
        back = solve_apf(kernel, grid, forward_apply(kernel, grid, x)).x[1:]
        np.testing.assert_allclose(back, x, rtol=0, atol=tol * np.max(np.abs(x)))

    @pytest.mark.parametrize("K", [
        lambda t, s: 1.0 + 0.5 * np.cos(np.asarray(t) - np.asarray(s)),
        # an exp_decay with a negative rate grows, so it also takes the dense row
        kernel_from_config({"n": 1, "K": [{"type": "exp_decay", "value": 1.0, "rate": -0.3}],
                            "G": [{"type": "linear"}]}).K[0],
    ])
    def test_dense_row_factors_match_oracle(self, K):
        kernel = KernelSpec(partition=BandPartition.proportional([0.4]), K=(K, K),
                            G=(None, lambda s, x: x + 0.2 * x ** 3))
        grid = Grid(6.0, 60)
        x = np.sin(np.linspace(0.0, 5.0, 60))
        f = dense_forward(kernel, grid, x)
        np.testing.assert_allclose(forward_apply(kernel, grid, x), f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(solve_apf(kernel, grid, f).x[1:], dense_solve(kernel, grid, f),
                                   rtol=0, atol=1e-10)

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
