"""First-kind Volterra solver with a piecewise kernel.

The model equation is

    integral_0^t  K(t, s, x(s)) ds = f(t),        0 <= t <= T,  f(0) = 0,

where the kernel is given piecewise on n time-dependent bands: band i covers
``boundary_{i-1}(t) < s < boundary_i(t)`` with ``boundary_0 = 0`` and
``boundary_n(t) = t``, and contributes ``K_i(t, s) * G_i(s, x(s))``.

Discretization is a product right-rectangle rule on a uniform grid. Each grid
cell ``[t_{k-1}, t_k]`` is intersected with the bands at the current node
``t_j``; every fragment is integrated as

    width * K_i(t_j, b) * G_i(b, x_k),   b = fragment right endpoint,

with the unknown sampled at the parent cell's right node ``x_k``. All
fragments of the final grid cell carry the not-yet-known ``x_j`` (a band
boundary can cut that cell, so there may be several), which keeps the system
lower triangular with exactly one unknown per step: identity responses give a
closed-form step, anything else a scalar root-find per node. The rule is
first order; ``estimate_order`` measures that against manufactured solutions.

Per band, node j needs the sum over the cells before its own. For the
separable factors ``kernel_from_config`` builds that sum is a window of a
decaying running sum plus at most two boundary fragments (fast convolution,
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985), so a solve
costs O(N) time and memory. Any other callable factor gets a dense row per
node: O(N^2) time, O(N) memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, SolverError
from .ioutil import fmt12

DEFAULT_KERNEL_FLOOR = 1e-6
DEFAULT_CELL_FLOOR = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8
NEWTON_RTOL = 1e-12
NEWTON_MAX_ITER = 100
BRACKET_EXPANSIONS = 60

_CHUNK = 4096  # nodes whose coefficients the march unpacks to Python floats at once


@dataclass(frozen=True)
class Grid:
    """Uniform nodes t_j = j*h, j = 0..n_cells, with h = horizon/n_cells."""

    horizon: float
    n_cells: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise DataError(f"grid horizon must be positive, got {self.horizon}")
        if self.n_cells < 2:
            raise DataError(f"grid needs at least 2 cells, got {self.n_cells}")

    @property
    def step(self) -> float:
        return self.horizon / self.n_cells

    def nodes(self) -> np.ndarray:
        # linspace pins the endpoints, so nodes[-1] == horizon exactly
        return np.linspace(0.0, self.horizon, self.n_cells + 1)


class BandPartition:
    """Moving boundaries that split [0, t] into ordered bands.

    ``boundaries`` holds the n-1 interior curves as vectorized callables of t;
    the outer pair (0 and t itself) is implicit. For every grid node t > 0 the
    values must satisfy 0 < b_1(t) < ... < b_{n-1}(t) < t, and every boundary
    must pass through the origin.
    """

    def __init__(self, boundaries=()):
        self.boundaries = tuple(boundaries)

    @property
    def n_bands(self) -> int:
        return len(self.boundaries) + 1

    @classmethod
    def proportional(cls, fractions) -> "BandPartition":
        """Boundaries c_i * t with 0 < c_1 < ... < c_{n-1} < 1."""
        cs = [float(c) for c in fractions]
        if any(not 0.0 < c < 1.0 for c in cs):
            raise DataError(f"proportional fractions must lie in (0,1), got {cs}")
        if any(a >= b for a, b in zip(cs, cs[1:])):
            raise DataError(f"proportional fractions must be strictly increasing, got {cs}")
        return cls(tuple((lambda t, c=c: c * np.asarray(t, dtype=float)) for c in cs))

    @classmethod
    def from_table(cls, t_knots, boundary_rows) -> "BandPartition":
        """Boundaries tabulated at t_knots, linearly interpolated between."""
        knots = np.asarray(t_knots, dtype=float)
        rows = [np.asarray(r, dtype=float) for r in boundary_rows]
        if not all(np.all(np.isfinite(a)) for a in [knots, *rows]):
            raise DataError("boundary table holds a non-finite value")
        if knots.ndim != 1 or len(knots) < 2 or np.any(np.diff(knots) <= 0):
            raise DataError("boundary table needs strictly increasing t knots")
        for r in rows:
            if r.shape != knots.shape:
                raise DataError("each boundary row must match the t knots in length")
        return cls(tuple(
            (lambda t, r=r: np.interp(np.asarray(t, dtype=float), knots, r))
            for r in rows
        ))

    def boundary_values(self, t) -> np.ndarray:
        """Stacked boundary positions at times t: shape (n_bands+1, len(t)).

        Row 0 is the zero curve, row n_bands is t itself.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rows = [np.zeros_like(t)]
        for b in self.boundaries:
            rows.append(np.broadcast_to(np.asarray(b(t), dtype=float), t.shape).copy())
        rows.append(t.copy())
        return np.vstack(rows)

    def validate_on(self, grid: Grid) -> np.ndarray:
        """Check the ordering invariant on every node; return boundary matrix
        for nodes 1..N."""
        at_zero = self.boundary_values(np.zeros(1))
        scale = max(1.0, grid.horizon)
        if np.any(np.abs(at_zero) > 1e-12 * scale):
            raise DataError("every band boundary must pass through the origin")
        nodes = grid.nodes()
        bm = self.boundary_values(nodes[1:])
        gaps = np.diff(bm, axis=0)
        bad = np.argwhere(~(gaps > 0.0))
        if bad.size:
            row, col = bad[0]
            raise DataError(
                f"band boundaries out of order at node {col + 1} "
                f"(t={fmt12(nodes[col + 1])}): boundary {row} does not stay "
                f"below boundary {row + 1}"
            )
        return bm


@dataclass(frozen=True)
class KernelSpec:
    """Piecewise kernel: per band an efficiency factor K_i(t, s) and a
    response G_i(s, x).

    A ``None`` response entry means the identity G(s, x) = x; when every band
    is the identity each node's step is a division. Supplied callables must
    accept numpy arrays. ``response_prime`` may carry dG/dx callables for the
    nonlinear path; missing entries fall back to a central difference.
    """

    partition: BandPartition
    K: tuple
    G: tuple
    response_prime: tuple | None = None
    kernel_floor: float = DEFAULT_KERNEL_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(self.K))
        object.__setattr__(self, "G", tuple(self.G))
        n = self.partition.n_bands
        if len(self.K) != n:
            raise DataError(f"expected {n} efficiency factors, got {len(self.K)}")
        if len(self.G) != n:
            raise DataError(f"expected {n} response functions, got {len(self.G)}")
        prime = self.response_prime
        if prime is None:
            prime = (None,) * n
        prime = tuple(prime)
        if len(prime) != n:
            raise DataError(f"expected {n} response derivatives, got {len(prime)}")
        object.__setattr__(self, "response_prime", prime)
        if not self.kernel_floor > 0:
            raise DataError(f"kernel_floor must be positive, got {self.kernel_floor}")

    @property
    def n_bands(self) -> int:
        return self.partition.n_bands

    @property
    def g_linear(self) -> tuple:
        """Per-band flag: True where the response is the identity."""
        return tuple(g is None for g in self.G)

    @property
    def is_linear(self) -> bool:
        return all(g is None for g in self.G)


@dataclass(frozen=True)
class SolveResult:
    grid: Grid
    x: np.ndarray
    residual: float
    diagnostics: dict = field(default_factory=dict)


class _ExpFactor(NamedTuple):
    """Efficiency factor value * exp(-rate * (t - s)); rate 0 is a constant."""

    value: float
    rate: float = 0.0

    def __call__(self, t, s):
        return self.value * np.exp(-self.rate * (np.asarray(t) - np.asarray(s)))


def _check_kernel_floor(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """|K_n(t,t)| must clear the floor on every node; returns K_n(t_j,t_j)."""
    nodes = grid.nodes()
    knn = np.asarray(kernel.K[-1](nodes, nodes), dtype=float)
    knn = np.broadcast_to(knn, nodes.shape)
    small = ~(np.abs(knn) >= kernel.kernel_floor)
    if np.any(small):
        j = int(np.argmax(small))
        raise DataError(
            f"final-band efficiency factor is {fmt12(knn[j])} at t={fmt12(nodes[j])}, "
            f"below the floor {kernel.kernel_floor:g}; the marching solve would divide by it"
        )
    return knn


def _node_values(x, n_cells: int) -> np.ndarray:
    """Accept values at nodes 1..N either bare (length N) or with a node-0
    companion (length N+1, first entry ignored)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("node values must be one-dimensional")
    if len(x) == n_cells + 1:
        return x[1:]
    if len(x) == n_cells:
        return x
    raise DataError(f"expected {n_cells} or {n_cells + 1} node values, got {len(x)}")


class _WindowHistory:
    """History sum of one band with a non-growing ``_ExpFactor``.

    ``Q_m = e^{-rate*h} * Q_{m-1} + w_m * G(t_m, x_m)`` runs over finished
    cells; at node j the band's whole cells a+1..b add ``K(t_j, t_b) * (Q_b -
    e^{-rate*(t_b - t_a)} * Q_a)`` and the cells a, b+1 its boundaries cut one
    fragment each. Only decaying exponentials are formed (prefix sums of
    e^{rate*s} overflow once rate*T passes ~700)."""

    def __init__(self, factor, g, nodes, lo, hi):
        self.factor, self.g, self.nodes, self.lo, self.hi = factor, g, nodes, lo, hi
        self.decay = math.exp(-factor.rate * nodes[-1] / (len(nodes) - 1))

    def rows(self, sl):
        """Per node of the slice: window and fragment terms, as Python scalars."""
        nodes, factor = self.nodes, self.factor
        lo, hi = self.lo[sl], self.hi[sl]
        j = np.arange(sl.start + 1, sl.stop + 1)
        t = nodes[j]
        p = np.searchsorted(nodes, lo, side="left")       # nodes[p-1] < lo <= nodes[p]
        r = np.searchsorted(nodes, hi, side="right") - 1  # nodes[r] <= hi < nodes[r+1]
        b = np.minimum(r, j - 1)                           # the unknown's cell is not history
        whole = b > p
        a = np.where(whole, p, 0)
        b = np.where(whole, b, 0)
        scale = np.where(whole, factor(t, nodes[b]), 0.0)
        drop = np.exp(-factor.rate * (nodes[b] - nodes[a]))
        # cell p when lo cuts it; it also holds hi when both cut the same cell
        left = (lo < nodes[p]) & (p < j)
        s_left = np.minimum(nodes[p], hi)
        c_left = np.where(left, (s_left - lo) * factor(t, s_left), 0.0)
        # cell r+1 when hi cuts it and lo does not
        right = (nodes[r] < hi) & (r + 1 < j) & (nodes[r] >= lo)
        c_right = np.where(right, (hi - nodes[r]) * factor(t, hi), 0.0)
        fields = (scale, drop, a, b, c_left, np.where(left, p, 0), s_left,
                  c_right, np.where(right, r + 1, 0), hi)
        return zip(*(f.tolist() for f in fields))

    def known(self, j, row, x, q):
        scale, drop, a, b, c_left, k_left, s_left, c_right, k_right, s_right = row
        total = scale * (q[b] - drop * q[a])
        g = self.g
        if g is None:
            return total + c_left * x[k_left] + c_right * x[k_right]
        if c_left:
            total += c_left * float(g(s_left, x[k_left]))
        if c_right:
            total += c_right * float(g(s_right, x[k_right]))
        return total

    def push(self, q, j, xj, t_j, w_j):
        g = self.g
        q[j] = self.decay * q[j - 1] + w_j * (xj if g is None else float(g(t_j, xj)))


class _RowHistory:
    """History sum of one band with any other factor: a dense row per node."""

    def __init__(self, factor, g, nodes, lo, hi):
        self.factor, self.g, self.nodes, self.lo, self.hi = factor, g, nodes, lo, hi

    def rows(self, sl):
        return zip(self.lo[sl].tolist(), self.hi[sl].tolist())

    def known(self, j, row, x, q):
        lo, hi = row
        nodes = self.nodes
        right = np.minimum(nodes[1:j], hi)
        width = np.clip(right - np.maximum(nodes[:j - 1], lo), 0.0, None)
        live = width > 0.0
        if not np.any(live):
            return 0.0
        s = right[live]
        c = width[live] * np.asarray(self.factor(nodes[j], s), dtype=float)
        xs = np.asarray(x[1:j])[live]
        return float(np.dot(c, xs if self.g is None else np.asarray(self.g(s, xs), dtype=float)))

    def push(self, q, j, xj, t_j, w_j):
        pass


class _March:
    """One kernel on one grid: the geometry of every node and the causal
    march over it, shared by the solve and the direct problem."""

    def __init__(self, kernel: KernelSpec, grid: Grid):
        self.n = grid.n_cells
        self.nodes = nodes = grid.nodes()
        bm = kernel.partition.validate_on(grid)
        t = nodes[1:]
        # the unknown's cell [t_{j-1}, t_j], cut by the bands at t_j
        right = np.minimum(t, bm[1:])
        width = np.clip(right - np.maximum(nodes[:-1], bm[:-1]), 0.0, None)
        self.points = np.maximum(right, bm[:-1])
        self.coefs = np.array([width[i] * np.asarray(K(t, self.points[i]), dtype=float)
                               for i, K in enumerate(kernel.K)])
        # a growing factor (rate < 0) would cancel in the window difference
        self.histories = [
            (_WindowHistory if isinstance(K, _ExpFactor) and K.rate >= 0.0 else _RowHistory)(
                K, g, nodes, bm[i], bm[i + 1])
            for i, (K, g) in enumerate(zip(kernel.K, kernel.G))
        ]

    def run(self, step, given) -> list:
        """x_j = step(j, known_j, last_j, given[j-1], x) for j = 1..N, where known_j
        sums the cells before node j's own and last_j holds that cell's (coef,
        point) per band. Returns x over nodes 0..N, x_0 = 0."""
        n, nodes, hs = self.n, self.nodes, self.histories
        x = [0.0] * (n + 1)
        qs = [[0.0] * (n + 1) for _ in hs]
        for start in range(1, n + 1, _CHUNK):
            stop = min(start + _CHUNK, n + 1)
            sl = slice(start - 1, stop - 1)
            per_node = zip(
                range(start, stop), nodes[start:stop].tolist(),
                np.diff(nodes[start - 1:stop]).tolist(), given[sl].tolist(),
                zip(*(h.rows(sl) for h in hs)),
                zip(*(zip(c[sl].tolist(), s[sl].tolist())
                      for c, s in zip(self.coefs, self.points))),
            )
            for j, t_j, w_j, given_j, rows, last in per_node:
                known = 0.0
                for h, row, q in zip(hs, rows, qs):
                    known += h.known(j, row, x, q)
                xj = x[j] = step(j, known, last, given_j, x)
                for h, q in zip(hs, qs):
                    h.push(q, j, xj, t_j, w_j)
        return x


def _active(last, kernel) -> list:
    """(c_i, b_i, G_i, G_i') of the bands that meet node j's own cell."""
    return [(c, s, g, dg) for (c, s), g, dg in zip(last, kernel.G, kernel.response_prime)
            if c != 0.0]


def forward_apply(kernel: KernelSpec, grid: Grid, x) -> np.ndarray:
    """Direct problem: quadrature of the kernel against known node values,
    by the solver's own march, so ``solve_apf(forward_apply(x)) == x`` up to
    rounding for identity responses."""
    f = np.zeros(grid.n_cells + 1)

    def step(j, known, last, xj, x):
        f[j] = known + _phi(_active(last, kernel), xj)
        return xj

    _March(kernel, grid).run(step, _node_values(x, grid.n_cells))
    return f


def _check_monotone_response(kernel, grid, cap: float) -> None:
    """Sampled finite-difference sign check of G_n over the solve bracket.

    The x samples are geometric so sign flips near zero are resolved even
    when the bracket is wide."""
    g = kernel.G[-1]
    if g is None:
        return
    nodes = grid.nodes()
    s_samples = nodes[:: max(1, len(nodes) // 33)]
    span = min(max(cap, 10.0), 1e9)
    half = np.geomspace(span * 1e-9, span, 33)
    xs = np.concatenate([-half[::-1], [0.0], half])
    vals = np.asarray(g(s_samples[:, None], xs[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (len(s_samples), len(xs)))
    diffs = np.diff(vals, axis=1)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise DataError(
            "final-band response is not strictly monotone in x over "
            f"[-{fmt12(span)}, {fmt12(span)}]; the per-node root is not unique"
        )


def _phi(active, xi: float) -> float:
    """One node's own-cell sum, sum_i c_i*G_i(b_i, xi)."""
    total = 0.0
    for c, bpt, g, _ in active:
        total += c * (xi if g is None else float(g(bpt, xi)))
    return total


def _dphi(active, xi: float) -> float:
    total = 0.0
    for c, bpt, g, dg in active:
        if g is None:
            total += c
        elif dg is not None:
            total += c * float(dg(bpt, xi))
        else:
            delta = 1e-6 * max(1.0, abs(xi))
            total += c * (float(g(bpt, xi + delta)) - float(g(bpt, xi - delta))) / (2 * delta)
    return total


def _newton_step(active, rhs, x0, cap, node):
    """Safeguarded Newton on sum_i c_i*G_i(b_i, xi) = rhs with bisection
    fallback inside a sign-change bracket."""
    for _ in range(BRACKET_EXPANSIONS + 1):
        lo, hi = -cap, cap
        rlo, rhi = _phi(active, lo) - rhs, _phi(active, hi) - rhs
        if rlo * rhi <= 0.0:
            break
        cap *= 2.0
    else:
        raise SolverError(f"cannot bracket the unknown at node {node}")

    xi = min(max(x0, lo), hi)
    r = _phi(active, xi) - rhs
    for it in range(1, NEWTON_MAX_ITER + 1):
        if r == 0.0:
            return xi, it
        if (r > 0.0) == (rlo > 0.0):
            lo, rlo = xi, r
        else:
            hi, rhi = xi, r
        d = _dphi(active, xi)
        if d != 0.0 and math.isfinite(d):
            nxt = xi - r / d
        else:
            nxt = 0.5 * (lo + hi)
        # a converged step may land on the bracket end xi itself; only an
        # unconverged one that leaves the bracket falls back to bisection
        converged = abs(nxt - xi) <= NEWTON_RTOL * max(1.0, abs(nxt))
        if not converged and not (min(lo, hi) < nxt < max(lo, hi)):
            nxt = 0.5 * (lo + hi)
        if converged or abs(nxt - xi) <= NEWTON_RTOL * max(1.0, abs(nxt)):
            return nxt, it
        xi = nxt
        r = _phi(active, xi) - rhs
    raise SolverError(f"root-find failed to converge at node {node} after {NEWTON_MAX_ITER} iterations")


def solve_apf(kernel: KernelSpec, grid: Grid, f, *,
              cell_floor: float = DEFAULT_CELL_FLOOR,
              residual_tol: float = DEFAULT_RESIDUAL_TOL) -> SolveResult:
    """March the discretized equation and recover the power schedule x.

    ``f`` holds node values 0..N and must start at zero (shift it first; see
    the storage module's imbalance builder). The returned ``x`` also spans
    nodes 0..N, with x_0 copied from x_1: the quadrature never touches node 0,
    so the first entry is a plotting convenience, not a solved value.
    """
    n = grid.n_cells
    f = np.asarray(f, dtype=float)
    if f.shape != (n + 1,):
        raise DataError(f"expected {n + 1} right-hand-side node values, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise DataError("right-hand side contains non-finite values")
    f_scale = max(1.0, float(np.max(np.abs(f))))
    if abs(f[0]) > 1e-12 * f_scale:
        raise DataError(
            f"right-hand side must vanish at t=0 (got {fmt12(f[0])}); "
            "subtract the initial imbalance first"
        )

    knn = _check_kernel_floor(kernel, grid)
    march = _March(kernel, grid)
    coefs = march.coefs
    # a node whose own cell meets only identity bands takes a division
    linear = ~np.any((coefs != 0.0) & ~np.array(kernel.g_linear)[:, None], axis=0)
    magnitude = np.abs(coefs).sum(axis=0)
    scale = np.where(linear, np.abs(coefs.sum(axis=0)), magnitude)
    # reduces to "fragment width < cell_floor*h" when one band owns the cell
    thresh = cell_floor * grid.step * np.maximum(kernel.kernel_floor, np.abs(knn[1:]))
    tiny = scale < thresh
    if np.any(tiny):
        j = int(np.argmax(tiny)) + 1
        raise SolverError(
            f"degenerate last cell at node {j}: unknown coefficient "
            f"{fmt12(scale[j - 1])} is below {fmt12(thresh[j - 1])}"
        )
    caps = np.maximum(10.0, 10.0 * float(np.max(np.abs(f))) / magnitude)
    if not kernel.is_linear:
        _check_monotone_response(kernel, grid, float(np.max(caps)))

    iterations = np.zeros(n, dtype=int)
    # forward_apply(x) - f from the same running sums; a non-finite x makes
    # it non-finite, which the residual gate rejects
    residuals = np.zeros(n)
    denoms = np.where(linear, coefs.sum(axis=0), 0.0).tolist()

    def step(j, known, last, f_j, x):
        rhs = f_j - known
        active = _active(last, kernel)
        if denoms[j - 1]:
            xj = rhs / denoms[j - 1]
        else:
            xj, iterations[j - 1] = _newton_step(active, rhs, x[j - 1], float(caps[j - 1]), j)
        residuals[j - 1] = known + _phi(active, xj) - f_j
        return xj

    x = np.array(march.run(step, f[1:])[1:])
    residual = float(np.max(np.abs(residuals)))
    if not residual <= residual_tol * f_scale:
        raise SolverError(f"the march left residual {fmt12(residual)} above "
                          f"{fmt12(residual_tol * f_scale)}")
    return SolveResult(
        grid=grid,
        x=np.concatenate([x[:1], x]),
        residual=residual,
        diagnostics={"newton_iterations": iterations},
    )


def estimate_order(kernel: KernelSpec, f_analytic, x_analytic,
                   horizon: float, n_coarse: int) -> float:
    """Observed convergence order from one grid refinement.

    Solves with n_coarse and 2*n_coarse cells against an analytic pair and
    returns log2(err_coarse / err_fine); +inf when the fine error is zero
    (the scheme is exact for the supplied solution).
    """
    errs = []
    for n in (n_coarse, 2 * n_coarse):
        grid = Grid(horizon, n)
        nodes = grid.nodes()
        f = np.asarray(f_analytic(nodes), dtype=float)
        result = solve_apf(kernel, grid, f)
        exact = np.asarray(x_analytic(nodes[1:]), dtype=float)
        errs.append(float(np.max(np.abs(result.x[1:] - exact))))
    if errs[1] == 0.0:
        return math.inf
    return math.log2(errs[0] / errs[1])


# --- kernel configuration ---------------------------------------------------

def _finite(value, where: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise DataError(f"{where} must be a finite number, got {value!r}")
    return number


def _build_efficiency(entry, idx):
    kind = entry.get("type") if isinstance(entry, dict) else None
    keys = {"const": ("value",), "exp_decay": ("value", "rate")}.get(kind)
    if keys is None:
        raise DataError(f"K[{idx}]: unknown efficiency type {kind!r} (try 'const' or 'exp_decay')")
    for key in keys:
        if key not in entry:
            raise DataError(f"K[{idx}]: {kind} factor needs a {key!r}")
    return _ExpFactor(*(_finite(entry[key], f"K[{idx}].{key}") for key in keys))


def _build_response(entry, idx):
    """Returns (g, dg) with g=None meaning the identity."""
    kind = entry.get("type") if isinstance(entry, dict) else None
    if kind == "linear":
        return None, None
    if kind == "cubic":
        a = _finite(entry.get("a", 1.0), f"G[{idx}].a")
        b = _finite(entry.get("b", 0.0), f"G[{idx}].b")
        if b == 0.0 and a == 1.0:
            return None, None
        # plain arithmetic: floats in the per-node root-find, arrays elsewhere
        g = lambda s, x: a * x + b * x ** 3
        dg = lambda s, x: a + 3.0 * b * x ** 2
        return g, dg
    raise DataError(f"G[{idx}]: unknown response type {kind!r} (try 'linear' or 'cubic')")


def kernel_from_config(config: dict) -> KernelSpec:
    """Build a KernelSpec from its JSON form.

    Schema::

        {"n": 2,
         "alphas": {"type": "proportional", "c": [0.5]}
                   | {"type": "table", "t": [...], "alpha": [[...], ...]},
         "K": [{"type": "const", "value": 0.92}, ...],
         "G": [{"type": "linear"} | {"type": "cubic", "a": 1.0, "b": 0.1}, ...],
         "kernel_floor": 1e-6}

    "alphas" may be omitted for a single band (n=1). Numbers must be finite.
    """
    if not isinstance(config, dict):
        raise DataError("kernel config must be a JSON object")
    n = config.get("n")
    # int() would truncate 1.7 to one band; bool is an int subclass
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, int):
        raise DataError(f"kernel config needs an integer band count 'n', got {n!r}")
    if n < 1:
        raise DataError(f"band count must be >= 1, got {n}")

    spec = config.get("alphas")
    if n == 1:
        if spec and (not isinstance(spec, dict) or spec.get("c") or spec.get("alpha")):
            raise DataError("a single-band kernel takes no interior boundaries")
        partition = BandPartition()
    else:
        if not isinstance(spec, dict):
            raise DataError("kernel config needs an 'alphas' object for n > 1")
        kind = spec.get("type")
        if kind == "proportional":
            cs = spec.get("c")
            if not isinstance(cs, list) or len(cs) != n - 1:
                raise DataError(f"'alphas.c' must list {n - 1} fractions")
            partition = BandPartition.proportional([_finite(c, "alphas.c") for c in cs])
        elif kind == "table":
            rows = spec.get("alpha")
            if not isinstance(rows, list) or len(rows) != n - 1:
                raise DataError(f"'alphas.alpha' must list {n - 1} boundary rows")
            try:
                partition = BandPartition.from_table(spec.get("t", []), rows)
            except (TypeError, ValueError):
                raise DataError("'alphas' table entries must be numbers") from None
        else:
            raise DataError(f"unknown boundary type {kind!r} (try 'proportional' or 'table')")

    k_entries = config.get("K")
    g_entries = config.get("G")
    if not isinstance(k_entries, list) or len(k_entries) != n:
        raise DataError(f"'K' must list {n} efficiency factors")
    if not isinstance(g_entries, list) or len(g_entries) != n:
        raise DataError(f"'G' must list {n} response functions")
    K = tuple(_build_efficiency(e, i) for i, e in enumerate(k_entries))
    pairs = [_build_response(e, i) for i, e in enumerate(g_entries)]
    return KernelSpec(
        partition=partition,
        K=K,
        G=tuple(p[0] for p in pairs),
        response_prime=tuple(p[1] for p in pairs),
        kernel_floor=_finite(config.get("kernel_floor", DEFAULT_KERNEL_FLOOR), "kernel_floor"),
    )


def load_kernel(path) -> KernelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid kernel JSON: {exc}") from None
    return kernel_from_config(config)
