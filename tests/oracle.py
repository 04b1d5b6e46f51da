"""Slow reference implementations for the solver and tree tests.

The Volterra part is the product right-rectangle rule of ``voltgrid.volterra``
written out the slow way: every fragment of every grid cell at every node, as
a dense N x N coefficient matrix per band. The solver's march keeps running
sums instead; the tests compare the two. ``estimate_order`` measures the
march's convergence order against manufactured solutions, and
``report_dict`` builds the report.json object the storage writer formats
from columns.

``grow_tree_dfs`` grows a regression tree depth first, sorting each node's
rows again for every feature, and relabels its nodes into level order from
the children it recorded; ``descend`` predicts through those children one row
at a time. ``grow_tree_bfs`` visits the nodes of each level in order with the
same per-node search and draws each level's feature candidates the way
``voltgrid.forecast.models`` does, so it also checks the sampled-feature
path. ``voltgrid.forecast.models`` grows the same trees level by level over
presorted orders. Both tree oracles score splits and take node
values from exact integer sums of the targets in the fixed point of
``models._quantize``.

``parse_timeseries_csv_rows`` and ``read_frame_csv_rows`` read a CSV file one
row at a time through ``read_rows``: each timestamp through ``datetime``
alone, each value through ``parse_value``, then order, duplicates and the
hourly grid checked on Python datetimes. ``voltgrid.timeseries`` converts
whole columns to arrays and checks them there; the two share no conversion
code.

``write_csv_cells`` writes columns one cell at a time, each number through
``fmt12`` and every row through ``csv.writer``; ``ioutil.write_csv`` fills
whole blocks into a row template and must write the same bytes.
"""

import csv
import math
from datetime import datetime

import numpy as np

from voltgrid.errors import DataError, SolverError
from voltgrid.forecast.models import RegressionTree, _quantize
from voltgrid.ioutil import NA_STRINGS, fmt12, naive_utc
from voltgrid.timeseries import SECONDS_PER_HOUR, AlignedFrame, CsvSpec, TimeSeries
from voltgrid.volterra import Grid, solve_apf


def segment_cells(t_j, grid, partition):
    """Cells of [0, t_j]: grid cells intersected with the bands at t_j.

    Returns an ordered list of ``(band_index, (a, b))`` with 1-based band
    indices; zero-width fragments (a boundary sitting exactly on a node) are
    dropped.
    """
    h = grid.step
    j = int(round(t_j / h))
    if j < 1 or j > grid.n_cells or abs(t_j - j * h) > 1e-9 * max(1.0, grid.horizon):
        raise DataError(f"t={t_j!r} is not a positive grid node (h={fmt12(h)})")
    nodes = grid.nodes()
    t_j = float(nodes[j])

    bounds = partition.boundary_values(np.array([t_j]))[:, 0]
    if np.any(np.diff(bounds) <= 0.0):
        raise DataError(f"band boundaries out of order at node {j} (t={fmt12(t_j)})")

    tol = 1e-13 * max(1.0, t_j)
    points = np.unique(np.concatenate([nodes[:j + 1], bounds]))
    points = points[(points > -tol) & (points < t_j + tol)]
    cells = []
    for a, b in zip(points, points[1:]):
        if b - a <= tol:
            continue
        mid = 0.5 * (a + b)
        band = int(np.searchsorted(bounds, mid, side="left"))
        cells.append((band, (float(a), float(b))))
    total = math.fsum(b - a for _, (a, b) in cells)
    if abs(total - t_j) > 1e-12 * max(1.0, t_j):
        raise SolverError(f"cell partition of [0, {fmt12(t_j)}] lost width {fmt12(t_j - total)}")
    return cells


def band_matrices(kernel, grid):
    """Per band: the coefficient matrix of shape (N, N).

    Row j-1 stands for node j, column k-1 for grid cell [t_{k-1}, t_k]
    (unknown x_k). The entry is fragment width * K_i(t_j, b), b the
    fragment's right endpoint, and zero wherever the band misses the cell.
    """
    nodes = grid.nodes()
    bm = kernel.partition.validate_on(grid)
    t_row = nodes[1:, None]
    t_left = nodes[None, :-1]
    t_right = nodes[None, 1:]
    out = []
    for i in range(kernel.partition.n_bands):
        lo = bm[i][:, None]
        hi = bm[i + 1][:, None]
        right = np.minimum(t_right, hi)
        width = np.clip(right - np.maximum(t_left, lo), 0.0, None)
        point = np.maximum(right, lo)
        coef = width * np.asarray(kernel.K[i](t_row, point), dtype=float)
        out.append(np.tril(coef))
    return out


def _response(g, x):
    return x if g is None else np.asarray(g(x), dtype=float)


def dense_forward(kernel, grid, x):
    """f at nodes 0..N from x at nodes 1..N, summing every dense row."""
    x = np.asarray(x, dtype=float)
    f = np.zeros(grid.n_cells + 1)
    for g, coef in zip(kernel.G, band_matrices(kernel, grid)):
        f[1:] += (coef * _response(g, x[None, :])).sum(axis=1)
    return f


def dense_solve(kernel, grid, f):
    """x at nodes 1..N by forward substitution over the dense rows.

    A node's own-cell equation sum_i c_i G_i(xi) = rhs is solved by
    bisection on the sign change down to a few ulps; every response used in
    the tests is monotone.
    """
    n = grid.n_cells
    mats = band_matrices(kernel, grid)
    x = np.zeros(n)
    for j in range(n):
        known = sum(float(np.dot(coef[j, :j], _response(g, x[:j])))
                    for g, coef in zip(kernel.G, mats))
        rhs = f[j + 1] - known
        own = [(coef[j, j], g) for g, coef in zip(kernel.G, mats) if coef[j, j] != 0.0]

        def phi(xi):
            return sum(c * float(_response(g, xi)) for c, g in own) - rhs

        if all(g is None for _, g in own):
            x[j] = rhs / sum(c for c, _ in own)
            continue
        span = 1.0
        while phi(-span) * phi(span) > 0.0:
            span *= 2.0
        lo, hi = -span, span
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (phi(mid) > 0.0) == (phi(lo) > 0.0):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 4e-16 * max(1.0, abs(mid)):
                break
        x[j] = 0.5 * (lo + hi)
    return x


def estimate_order(kernel, f_analytic, x_analytic, horizon, n_coarse):
    """Observed convergence order of ``solve_apf`` from one grid refinement.

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


def report_dict(report):
    """A DispatchReport as the JSON object report.json holds: its scalars and
    one record per violation, built row by row from the violation columns."""
    rows = zip(report.violations.constraint.tolist(), report.violations.node.tolist(),
               report.violations.magnitude.tolist())
    return {**report.scalars(), "violations": [
        {"constraint": c, "node": n, "magnitude": m} for c, n, m in rows]}


def _best_split(X, q_node, idx, candidates, min_child):
    """Exact scan over sorted values of the node's fixed-point targets
    ``q_node``; returns (feature, threshold, left rows, right rows) or None
    when no admissible split exists."""
    n = len(idx)
    best_gain = -np.inf
    best = None
    counts = np.arange(1, n)
    for fi in candidates:
        vals = X[idx, fi]
        order = np.argsort(vals)
        v = vals[order]
        cum = np.cumsum(q_node[order])
        total = cum[-1]
        ok = (v[1:] > v[:-1]) & (counts >= min_child) & (n - counts >= min_child)
        if not ok.any():
            continue
        pos = np.flatnonzero(ok)
        n_left = counts[pos]
        s_left = cum[:-1][pos]
        # within-node SSE drop, up to the constant total**2/n, from exact sums
        gain = (s_left.astype(float) ** 2 / n_left
                + (total - s_left).astype(float) ** 2 / (n - n_left))
        local = int(np.argmax(gain))
        if gain[local] > best_gain:
            best_gain = float(gain[local])
            cut = pos[local]
            lo, hi = v[cut], v[cut + 1]
            with np.errstate(over="ignore"):
                mid = 0.5 * (lo + hi)
            best = (fi, mid if lo <= mid < hi else lo, order[:cut + 1])
    if best is None:
        return None
    fi, threshold, left_order = best
    left_idx = idx[left_order]
    mask = np.zeros(n, dtype=bool)
    mask[left_order] = True
    right_idx = idx[~mask]
    return fi, threshold, left_idx, right_idx


def _node_value(q, shift, idx):
    return float(np.ldexp(float(q[idx].sum()), -shift) / len(idx))


def grow_tree_dfs(X, y, *, max_depth=None, min_child: int = 1) -> dict:
    """Greedy variance-reduction tree over all features, grown depth first,
    as a model document's tree: its node lists relabelled into level order
    by a breadth-first walk of the children the growth recorded.

    ``min_child`` is the smallest sample count allowed in a child node.
    """
    n, p = X.shape
    depth_cap = 1 << 30 if max_depth is None else max_depth
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    q, shift = _quantize(y, n)
    root = new_node()
    stack = [(root, np.arange(n), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        q_node = q[idx]
        value[nid] = _node_value(q, shift, idx)
        if depth >= depth_cap or len(idx) < 2 * min_child:
            continue
        if q_node.min() == q_node.max():
            continue
        split = _best_split(X, q_node, idx, range(p), min_child)
        if split is None:
            continue
        fi, thr, left_idx, right_idx = split
        lid = new_node()
        rid = new_node()
        feature[nid] = int(fi)
        threshold[nid] = float(thr)
        left[nid] = lid
        right[nid] = rid
        stack.append((rid, right_idx, depth + 1))
        stack.append((lid, left_idx, depth + 1))

    order = [root]
    for nid in order:  # the walk appends each split node's children as it goes
        if feature[nid] >= 0:
            order += [left[nid], right[nid]]
    label = {nid: k for k, nid in enumerate(order)} | {-1: -1}
    return {"feature": [feature[i] for i in order], "threshold": [threshold[i] for i in order],
            "left": [label[left[i]] for i in order], "right": [label[right[i]] for i in order],
            "value": [value[i] for i in order]}


def descend(tree_doc, X) -> np.ndarray:
    """The leaf value of every row of X, walked one row at a time through a
    tree document's ``left`` and ``right`` children."""
    out = []
    for row in np.asarray(X, dtype=float).tolist():
        node = 0
        while tree_doc["feature"][node] >= 0:
            below = row[tree_doc["feature"][node]] <= tree_doc["threshold"][node]
            node = tree_doc["left" if below else "right"][node]
        out.append(tree_doc["value"][node])
    return np.array(out)


def grow_tree_bfs(X, y, *, rng=None, max_depth=None, min_child: int = 1,
                  mtry=None) -> RegressionTree:
    """Level-order tree from ``_best_split`` per node, each level's nodes in
    the order of their parents; a level's ``mtry`` candidates come from one
    ``rng.random`` call."""
    n, p = X.shape
    depth_cap = 1 << 30 if max_depth is None else max_depth
    feature, threshold, value = [], [], []
    q, shift = _quantize(y, n)
    level, depth = [np.arange(n)], 0
    while level:
        splittable = [depth < depth_cap and len(idx) >= 2 * min_child
                      and q[idx].min() < q[idx].max() for idx in level]
        draws = iter([range(p)] * len(level))
        if mtry is not None and mtry < p and any(splittable):
            picks = np.argsort(rng.random((sum(splittable), p)), axis=1)[:, :mtry]
            draws = iter(np.sort(picks, axis=1))
        children = []
        for idx, ok in zip(level, splittable):
            feature.append(-1)
            threshold.append(0.0)
            value.append(_node_value(q, shift, idx))
            split = _best_split(X, q[idx], idx, next(draws), min_child) if ok else None
            if split is not None:
                feature[-1], threshold[-1] = int(split[0]), float(split[1])
                children += split[2:]
        level, depth = children, depth + 1
    return RegressionTree(feature, threshold, value)


# --- CSV readers, one row at a time ------------------------------------------

def write_csv_cells(path, header, columns):
    """``ioutil.write_csv``'s output, one cell at a time."""
    cells = [np.datetime_as_string(col, unit="s").tolist() if col.dtype.kind == "M"
             else [fmt12(v) for v in col.tolist()] if col.dtype.kind in "fiu"
             else col.tolist() for col in map(np.asarray, columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def read_rows(path):
    """Yield (1, header with stripped names), then (line number, cells) for
    every row of a CSV file that is not all blank."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty CSV: missing header row")
            yield 1, [name.strip() for name in header]
            first = reader.line_num + 1  # the line a row starts on
            for row in reader:
                if "".join(row).strip():
                    yield first, row
                first = reader.line_num + 1
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None


def parse_value(cell, path, lineno):
    """One numeric cell; a missing-value marker (any case, padded) is NaN,
    and an infinite number is a bad value."""
    try:
        value = float(cell)
    except ValueError:
        if cell.strip().lower() in NA_STRINGS:
            return math.nan
        value = math.inf  # a bad cell: reported with the infinite ones below
    if math.isinf(value):
        raise DataError(f"{path}: line {lineno}: bad value {cell!r}")
    return value


def parse_stamp(text, fmt, path, lineno):
    """One timestamp cell, stripped, as a naive UTC datetime."""
    cleaned = text.strip()
    try:
        if fmt is not None:
            return naive_utc(datetime.strptime(cleaned, fmt))
        if cleaned.endswith("Z"):
            cleaned = cleaned[:-1] + "+00:00"
        return naive_utc(datetime.fromisoformat(cleaned))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: line {lineno}: bad timestamp {text!r}: {exc}") from None


def parse_timeseries_csv_rows(path, spec=CsvSpec()):
    """``voltgrid.timeseries.parse_timeseries_csv`` row by row."""
    lines = read_rows(path)
    _, header = next(lines)
    for role, column in (("timestamp", "timestamp"), ("value", spec.value_column)):
        if column not in header:
            raise DataError(f"{path}: {role} column {column!r} not in header {header}")
    ts_idx, val_idx = header.index("timestamp"), header.index(spec.value_column)
    rows = []
    for lineno, row in lines:
        if len(row) <= max(ts_idx, val_idx):
            raise DataError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}")
        stamp = parse_stamp(row[ts_idx], None, path, lineno)
        rows.append((stamp, parse_value(row[val_idx], path, lineno), lineno))

    if not rows:
        raise DataError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for (t0, _, _), (t1, _, line1) in zip(rows, rows[1:]):
        if t0 == t1:
            raise DataError(f"{path}: duplicate timestamp at line {line1}")

    start = rows[0][0]
    offsets = np.array([(stamp - start).total_seconds() for stamp, _, _ in rows])
    steps = offsets / SECONDS_PER_HOUR
    rounded = np.rint(steps)
    if np.any(np.abs(steps - rounded) > 1e-6):
        bad = int(np.argmax(np.abs(steps - rounded) > 1e-6))
        raise DataError(
            f"{path}: line {rows[bad][2]}: timestamp not on the "
            f"{SECONDS_PER_HOUR:g}s grid anchored at {start}"
        )

    length = int(rounded[-1]) + 1
    values = np.full(length, np.nan)
    values[rounded.astype(int)] = [v for _, v, _ in rows]
    name = spec.name if spec.name is not None else spec.value_column
    return TimeSeries(start=start, values=values, name=name)


def read_frame_csv_rows(path):
    """``voltgrid.timeseries.read_frame_csv`` row by row."""
    lines = read_rows(path)
    _, header = next(lines)
    if not header or header[0] != "timestamp":
        raise DataError(f"{path}: expected a leading 'timestamp' column")
    names = header[1:]
    if not names:
        raise DataError(f"{path}: no value columns")
    stamps = []
    data = []
    for lineno, row in lines:
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        stamps.append((parse_stamp(row[0], None, path, lineno), lineno))
        data.append([parse_value(cell, path, lineno) for cell in row[1:]])
    if not stamps:
        raise DataError(f"{path}: no data rows")
    for (a, line_a), (b, line_b) in zip(stamps, stamps[1:]):
        if (b - a).total_seconds() != SECONDS_PER_HOUR:
            raise DataError(f"{path}: lines {line_a}-{line_b} are not consecutive hours")
    values = np.asarray(data, dtype=float)
    columns = {name: values[:, k].copy() for k, name in enumerate(names)}
    return AlignedFrame(start=stamps[0][0], columns=columns)
