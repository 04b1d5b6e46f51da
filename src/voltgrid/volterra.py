"""First-kind Volterra solver with a piecewise kernel.

The model equation is

    integral_0^t  K(t, s, x(s)) ds = f(t),        0 <= t <= T,  f(0) = 0,

where the kernel is given piecewise on n time-dependent bands: band i covers
``boundary_{i-1}(t) < s < boundary_i(t)`` with ``boundary_0 = 0`` and
``boundary_n(t) = t``, and contributes ``K_i(t, s) * G_i(x(s))``.

Discretization is a product right-rectangle rule on a uniform grid. Each grid
cell ``[t_{k-1}, t_k]`` is intersected with the bands at the current node
``t_j``; every fragment is integrated as

    width * K_i(t_j, b) * G_i(x_k),   b = fragment right endpoint,

with the unknown sampled at the parent cell's right node ``x_k``. All
fragments of the final grid cell carry the not-yet-known ``x_j`` (a band
boundary can cut that cell, so there may be several), which keeps the system
lower triangular with exactly one unknown per step. With linear and cubic
responses the own cell reads ``p*x^3 + q*x = r``, solved in closed form. The
rule is first order.

Per band, node j needs the sum over the cells before its own. For the
separable decaying factors the kernel takes, that sum is a window of a
decaying running sum plus at most two boundary fragments (fast convolution,
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985), so a solve
costs O(N) time and memory; ``_March`` states the recurrence. Every fragment,
the own cell's included, comes from one cut rule, ``_cut``.

``solve_apf`` and ``forward_apply`` silence numpy's float faults; each checks
what may overflow for finiteness and raises DataError or SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, SolverError
from .ioutil import config_keys, config_number, fmt12, read_json

DEFAULT_KERNEL_FLOOR = 1e-6
DEFAULT_CELL_FLOOR = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8

_CHUNK = 4096  # nodes whose coefficients the march unpacks to Python floats at once


@dataclass(frozen=True)
class Grid:
    """Uniform nodes t_j = j*h, j = 0..n_cells, with h = horizon/n_cells."""

    horizon: float
    n_cells: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise DataError(f"grid horizon must be positive and finite, got {self.horizon}")
        if not isinstance(self.n_cells, (int, np.integer)):
            raise DataError(f"grid cell count must be an integer, got {self.n_cells!r}")
        if self.n_cells < 2:
            raise DataError(f"grid needs at least 2 cells, got {self.n_cells}")
        if self.n_cells >= np.iinfo(np.intp).max // 8:  # numpy's cap on a float array
            raise DataError(f"grid of {self.n_cells} cells has more nodes than an array holds")

    @property
    def step(self) -> float:
        return self.horizon / self.n_cells

    def nodes(self) -> np.ndarray:
        # linspace pins the endpoints, so nodes[-1] == horizon exactly, even
        # where n * step rounds past the float maximum
        with np.errstate(over="ignore"):
            return np.linspace(0.0, self.horizon, self.n_cells + 1)


class BandPartition:
    """Moving boundaries that split [0, t] into ordered bands.

    The n-1 interior boundaries are data: ``fractions`` c_i (boundary c_i*t)
    or ``knots`` and ``rows`` (row i interpolated linearly); the outer pair (0
    and t itself) is implicit. For every grid node t > 0 the values must
    satisfy 0 < b_1(t) < ... < b_{n-1}(t) < t, and pass through the origin.
    """

    def __init__(self, fractions=(), knots=None, rows=()):
        self.fractions, self.knots, self.rows = tuple(fractions), knots, tuple(rows)

    @property
    def n_bands(self) -> int:
        return len(self.fractions) + len(self.rows) + 1

    @classmethod
    def proportional(cls, fractions) -> "BandPartition":
        """Boundaries c_i * t with 0 < c_1 < ... < c_{n-1} < 1."""
        cs = [float(c) for c in fractions]
        if any(not 0.0 < c < 1.0 for c in cs):
            raise DataError(f"proportional fractions must lie in (0,1), got {cs}")
        if any(a >= b for a, b in zip(cs, cs[1:])):
            raise DataError(f"proportional fractions must be strictly increasing, got {cs}")
        return cls(fractions=cs)

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
        return cls(knots=knots, rows=rows)

    def boundary_values(self, t) -> np.ndarray:
        """Stacked boundary positions at times t: shape (n_bands+1, len(t)).

        Row 0 is the zero curve, row n_bands is t itself.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.vstack([np.zeros_like(t), *(c * t for c in self.fractions),
                          *(np.interp(t, self.knots, r) for r in self.rows), t])

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


class _ExpFactor(NamedTuple):
    """Efficiency factor value * exp(-rate * (t - s)); rate 0 is a constant."""

    value: float
    rate: float = 0.0

    def __call__(self, t, s):  # a rate * age past the float maximum decays to 0
        return self.value * np.exp(-self.rate * (np.asarray(t) - np.asarray(s)))


class Cubic(NamedTuple):
    """Response G(x) = a*x + b*x^3; monotone in x when a*b >= 0."""

    a: float
    b: float

    def __call__(self, x):
        # x*x*x overflows to inf where Python's x**3 would raise
        return self.a * x + self.b * (x * x * x)


@dataclass(frozen=True)
class KernelSpec:
    """Piecewise kernel: per band an efficiency factor K_i(t, s) and a
    response G_i(x).

    Factors are ``_ExpFactor`` with rate >= 0 (an efficiency does not grow
    with storage age). A ``None`` response means the identity G(x) = x,
    any other is a ``Cubic`` with a*b >= 0. ``kernel_from_config`` builds
    both; this is the one place that rejects anything else.
    """

    partition: BandPartition
    K: tuple
    G: tuple
    kernel_floor: float = DEFAULT_KERNEL_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(self.K))
        object.__setattr__(self, "G", tuple(self.G))
        n = self.partition.n_bands
        if len(self.K) != n:
            raise DataError(f"expected {n} efficiency factors, got {len(self.K)}")
        if len(self.G) != n:
            raise DataError(f"expected {n} response functions, got {len(self.G)}")
        if not self.kernel_floor > 0:
            raise DataError(f"kernel_floor must be positive, got {self.kernel_floor}")
        for i, (k, g) in enumerate(zip(self.K, self.G)):
            if not isinstance(k, _ExpFactor):
                raise DataError(f"K[{i}] must be a const or exp_decay factor, got {k!r}")
            if not k.rate >= 0.0:
                raise DataError(f"K[{i}]: exp_decay rate must be >= 0, got {k.rate}; "
                                "an efficiency that grows with storage age has no meaning")
            if g is not None and not isinstance(g, Cubic):
                raise DataError(f"G[{i}] must be linear or cubic, got {g!r}")
            if g is not None and not g.a * g.b >= 0.0:
                raise DataError(f"G[{i}]: cubic a={g.a} and b={g.b} differ in sign, so the "
                                "response is not monotone and the per-node root is not unique")
        # K_n(t, t) is the final factor's value at every node
        if not abs(self.K[-1].value) >= self.kernel_floor:
            raise DataError(
                f"final-band efficiency factor is {fmt12(self.K[-1].value)}, below the floor "
                f"{self.kernel_floor:g}; the marching solve would divide by it"
            )


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _cut(t, left, right, lo, hi, factor):
    """Band [lo, hi] at node t cut down to the cell [left, right]: the
    fragment's width * K(t, end), end its right end (0 if no fragment)."""
    end = np.minimum(right, hi)
    width = np.clip(end - np.maximum(left, lo), 0.0, None)
    return width * factor(t, np.maximum(end, lo))


class _March:
    """One kernel on one grid: the geometry of every node and the causal
    march over it, shared by the solve and the direct problem.

    Each band keeps G(x_k) of every node found so far (an identity band
    keeps x itself) and a history sum ``Q_m = decay * Q_{m-1} + w_m *
    G(x_m)`` over finished cells, decay = e^{-rate*h}. At node j the band's
    whole cells a+1..b add ``K(t_j, t_b) * (Q_b - e^{-rate*(t_b - t_a)} *
    Q_a)`` and the cells a, b+1 its boundaries cut one fragment each. Only
    decaying exponentials are formed (prefix sums of e^{rate*s} overflow once
    rate*T passes ~700).
    """

    def __init__(self, kernel: KernelSpec, grid: Grid):
        self.n = n = grid.n_cells
        self.nodes = nodes = grid.nodes()
        self.bm = bm = kernel.partition.validate_on(grid)
        self.K, self.G = kernel.K, kernel.G
        # the unknown's cell [t_{j-1}, t_j], cut by the bands at t_j
        self.coefs = np.array([_cut(nodes[1:], nodes[:-1], nodes[1:], lo, hi, K)
                               for K, lo, hi in zip(self.K, bm[:-1], bm[1:])])
        if not np.all(np.isfinite(self.coefs)):
            raise DataError("an own cell's width * K overflows: the kernel is too large for the grid")
        # Python floats: a rate * horizon past the float maximum is -inf, not a warning
        self.decays = [math.exp(-K.rate * float(nodes[-1]) / n) for K in self.K]

    def windows(self, sl):
        """Per band, per node of the slice: the window and fragment terms
        ``(scale, drop, a, b, c_left, k_left, c_right, k_right)`` as scalars.
        A fragment whose coefficient is 0 is left out (c 0, k 0), so it reads
        no G(x), which may have overflowed."""
        nodes = self.nodes
        j = np.arange(sl.start + 1, sl.stop + 1)
        t = nodes[j]
        for factor, lo, hi in zip(self.K, self.bm[:-1, sl], self.bm[1:, sl]):
            p = np.searchsorted(nodes, lo, side="left")  # nodes[p-1] < lo <= nodes[p]
            # hi's cell, capped at the unknown's, which is not history
            k = np.minimum(np.searchsorted(nodes, hi, side="right"), j)
            whole = k - 1 > p
            a = np.where(whole, p, 0)
            b = np.where(whole, k - 1, 0)
            scale = np.where(whole, factor(t, nodes[b]), 0.0)
            drop = np.exp(-factor.rate * (nodes[b] - nodes[a]))
            # cell p when lo cuts it; it also holds hi when both cut the same cell
            c_left = _cut(t, nodes[p - 1], nodes[p], lo, hi, factor)
            left = (p < j) & (c_left != 0.0)
            # cell k when hi cuts it and lo does not
            c_right = _cut(t, nodes[k - 1], nodes[k], lo, hi, factor)
            right = (p < k) & (k < j) & (c_right != 0.0)
            fields = (scale, drop, a, b, np.where(left, c_left, 0.0), np.where(left, p, 0),
                      np.where(right, c_right, 0.0), np.where(right, k, 0))
            yield zip(*(f.tolist() for f in fields))

    def run(self, step, *given) -> tuple:
        """x_j = step(known_j, *given_j) for j = 1..N, where known_j sums the
        cells before node j's own and given_j holds entry j-1 of each array in
        ``given``. Returns x over nodes 0..N (x_0 = 0), and over nodes 1..N
        known and the own cells' sum_i c_i*G_i(x_j)."""
        n, nodes, decays = self.n, self.nodes, self.decays
        x = [0.0] * (n + 1)
        knowns = []
        qs = [[0.0] * (n + 1) for _ in self.G]
        gxs = [x if g is None else [0.0] * (n + 1) for g in self.G]
        cubics = [(g, gx) for g, gx in zip(self.G, gxs) if g is not None]
        for start in range(1, n + 1, _CHUNK):
            stop = min(start + _CHUNK, n + 1)
            sl = slice(start - 1, stop - 1)
            per_node = zip(
                range(start, stop), np.diff(nodes[start - 1:stop]).tolist(),
                zip(*self.windows(sl)), zip(*(g[sl].tolist() for g in given)),
            )
            for j, w_j, rows, given_j in per_node:
                known = 0.0
                for row, q, gx in zip(rows, qs, gxs):
                    scale, drop, a, b, c_left, k_left, c_right, k_right = row
                    known += (scale * (q[b] - drop * q[a])
                              + c_left * gx[k_left] + c_right * gx[k_right])
                knowns.append(known)
                xj = x[j] = step(known, *given_j)
                for g, gx in cubics:
                    gx[j] = g(xj)
                for decay, q, gx in zip(decays, qs, gxs):
                    q[j] = decay * q[j - 1] + w_j * gx[j]
        own = np.zeros(n)
        for c, gx in zip(self.coefs, gxs):
            own += c * np.array(gx[1:])
        return x, np.array(knowns), own


def forward_apply(kernel: KernelSpec, grid: Grid, x) -> np.ndarray:
    """Direct problem: quadrature of the kernel against known node values,
    by the solver's own march, so ``solve_apf(forward_apply(x)) == x`` up to
    rounding. ``x`` and the result span nodes 0..N, as in solve_apf; x_0 is
    not read, and f_0 is 0. Every other x_j, G(x_j) and f_j must be finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.asarray(x, dtype=float)
        if x.shape != (grid.n_cells + 1,):
            raise DataError(f"expected {grid.n_cells + 1} node values, got {x.shape}")
        # a finite x may overflow G(x), and finite terms their sums
        terms = np.isfinite([x] + [g(x) for g in kernel.G if g is not None]).all(axis=0)
        _, known, own = _March(kernel, grid).run(lambda known, xj: xj, x[1:])
        f = np.concatenate([[0.0], known + own])
        finite = np.isfinite(f)
        if not finite.all():
            j = int(np.argmin(finite))
            raise DataError(f"node {j}: f is not finite; the quadrature sums of x overflow" if terms[j]
                            else f"node {j}: x = {float(x[j])!r} is not finite or overflows G(x)")
        return f


def solve_apf(kernel: KernelSpec, grid: Grid, f) -> SolveResult:
    """March the discretized equation and recover the power schedule x.

    ``f`` holds node values 0..N and must start at zero (shift it first; see
    the storage module's imbalance builder). The returned ``x`` also spans
    nodes 0..N, with x_0 copied from x_1: the quadrature never touches node 0,
    so the first entry is a plotting convenience, not a solved value.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

        march = _March(kernel, grid)
        # node j's own cell gives p_j*x^3 + q_j*x = f_j - known_j
        a = np.array([[1.0 if g is None else g.a] for g in kernel.G])
        b = np.array([[0.0 if g is None else g.b] for g in kernel.G])
        # a coefficient times a or b may pass the float maximum, and inf - inf in
        # a sum is NaN: both are refused below
        q = (march.coefs * a).sum(axis=0)
        p = (march.coefs * b).sum(axis=0)
        huge = ~(np.isfinite(p) & np.isfinite(q))
        if np.any(huge):
            raise DataError(f"own-cell response at node {int(np.argmax(huge)) + 1} overflows: "
                            "a cell's width * K * G's coefficient passes the float maximum")
        mixed = np.sign(p) * np.sign(q) < 0.0
        if np.any(mixed):
            j = int(np.argmax(mixed)) + 1
            raise DataError(
                f"own-cell response at node {j} is not monotone: its cubic and linear "
                f"coefficients {fmt12(p[j - 1])} and {fmt12(q[j - 1])} differ in sign"
            )
        scale = np.abs(p) + np.abs(q)
        # reduces to "fragment width < floor*h" when one band owns the cell
        thresh = DEFAULT_CELL_FLOOR * grid.step * abs(kernel.K[-1].value)
        tiny = (scale == 0.0) | (scale < thresh)
        if np.any(tiny):
            j = int(np.argmax(tiny)) + 1
            raise SolverError(
                f"degenerate last cell at node {j}: unknown coefficient "
                f"{fmt12(scale[j - 1])} is below {fmt12(thresh)}"
            )

        # p*q > 0: x = 2*sqrt(q/3p)*sinh(asinh((3r/2q)*sqrt(3p/q))/3), the real
        # root without cancellation, then one Newton step
        polish = (p != 0.0) & (q != 0.0)
        span = np.where(polish, 2.0 * np.sqrt(q / (3.0 * p)), 0.0)
        gain = np.where(polish, 3.0 / (q * span), 0.0)

        def step(known, f_j, p_j, q_j, span_j, gain_j):
            r = f_j - known
            if not p_j:
                return r / q_j
            if not q_j:
                return float(np.cbrt(r / p_j))
            x = span_j * math.sinh(math.asinh(r * gain_j) / 3.0)
            return x - (x * (p_j * x * x + q_j) - r) / (3.0 * p_j * x * x + q_j)

        # a finite x may overflow G, and then the own cells' sum
        x, known, terms = march.run(step, f[1:], p, q, span, gain)
        x = np.array(x[1:])
        # a lone infinite x_N would make the residual and its tolerance both inf
        if not np.all(np.isfinite(x)):
            raise SolverError("the march overflowed: x is not finite")
        if not np.all(np.isfinite(terms)):
            raise SolverError("the march overflowed: G(x) is not finite")
        # forward_apply(x) - f from the same running sums; known + terms may
        # round past the float maximum, which the gate below refuses
        residual = float(np.max(np.abs(known + terms - f[1:])))
        # the residual is a difference of sums that grow with x, so rounding
        # scales with the largest own-cell term as well as with f
        tol = DEFAULT_RESIDUAL_TOL * max(f_scale, float(np.max(np.abs(terms))))
        if not residual <= tol:
            raise SolverError(f"the march left residual {fmt12(residual)} above {fmt12(tol)}")
        return SolveResult(
            x=np.concatenate([x[:1], x]),
            residual=residual,
            diagnostics={"newton_iterations": polish.astype(int)},
        )


# --- kernel configuration ---------------------------------------------------

def _numbers(values, where: str) -> list:
    if not isinstance(values, list):
        raise DataError(f"{where} must be a list of numbers, got {values!r}")
    return [config_number(v, where) for v in values]


def _build_efficiency(entry, idx):
    kind = entry.get("type") if isinstance(entry, dict) else None
    if kind not in ("const", "exp_decay"):  # a JSON list or object is no key
        raise DataError(f"K[{idx}]: unknown efficiency type {kind!r} (try 'const' or 'exp_decay')")
    keys = ("value",) if kind == "const" else ("value", "rate")
    config_keys(entry, ("type", *keys), f"K[{idx}] {kind}")
    for key in keys:
        if key not in entry:
            raise DataError(f"K[{idx}]: {kind} factor needs a {key!r}")
    return _ExpFactor(*(config_number(entry[key], f"K[{idx}].{key}") for key in keys))


def _build_response(entry, idx):
    """None for the identity, otherwise a Cubic."""
    kind = entry.get("type") if isinstance(entry, dict) else None
    if kind == "linear":
        config_keys(entry, ("type",), f"G[{idx}] linear")
        return None
    if kind == "cubic":
        config_keys(entry, ("type", "a", "b"), f"G[{idx}] cubic")
        a = config_number(entry.get("a", 1.0), f"G[{idx}].a")
        b = config_number(entry.get("b", 0.0), f"G[{idx}].b")
        return None if (a, b) == (1.0, 0.0) else Cubic(a, b)
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

    "alphas" may be omitted for a single band (n=1). Numbers must be finite,
    and a key that its object does not take is an error.
    """
    if not isinstance(config, dict):
        raise DataError("kernel config must be a JSON object")
    config_keys(config, ("n", "alphas", "K", "G", "kernel_floor"), "kernel config")
    n = config_number(config.get("n"), "kernel config band count 'n'", integer=True)
    if n < 1:
        raise DataError(f"band count must be >= 1, got {n}")

    spec = config.get("alphas")
    if n == 1:
        if spec and (not isinstance(spec, dict) or spec.get("c") or spec.get("alpha")):
            raise DataError("a single-band kernel takes no interior boundaries")
        if spec:
            config_keys(spec, ("type", "c", "t", "alpha"), "alphas")
        partition = BandPartition()
    else:
        if not isinstance(spec, dict):
            raise DataError("kernel config needs an 'alphas' object for n > 1")
        kind = spec.get("type")
        if kind == "proportional":
            config_keys(spec, ("type", "c"), "alphas proportional")
            cs = spec.get("c")
            if not isinstance(cs, list) or len(cs) != n - 1:
                raise DataError(f"'alphas.c' must list {n - 1} fractions")
            partition = BandPartition.proportional(_numbers(cs, "alphas.c"))
        elif kind == "table":
            config_keys(spec, ("type", "t", "alpha"), "alphas table")
            rows = spec.get("alpha")
            if not isinstance(rows, list) or len(rows) != n - 1:
                raise DataError(f"'alphas.alpha' must list {n - 1} boundary rows")
            partition = BandPartition.from_table(
                _numbers(spec.get("t", []), "alphas.t"),
                [_numbers(row, "alphas.alpha") for row in rows])
        else:
            raise DataError(f"unknown boundary type {kind!r} (try 'proportional' or 'table')")

    k_entries = config.get("K")
    g_entries = config.get("G")
    if not isinstance(k_entries, list) or len(k_entries) != n:
        raise DataError(f"'K' must list {n} efficiency factors")
    if not isinstance(g_entries, list) or len(g_entries) != n:
        raise DataError(f"'G' must list {n} response functions")
    return KernelSpec(
        partition=partition,
        K=tuple(_build_efficiency(e, i) for i, e in enumerate(k_entries)),
        G=tuple(_build_response(e, i) for i, e in enumerate(g_entries)),
        kernel_floor=config_number(config.get("kernel_floor", DEFAULT_KERNEL_FLOOR), "kernel_floor"),
    )


def load_kernel(path) -> KernelSpec:
    return kernel_from_config(read_json(path, "kernel"))
