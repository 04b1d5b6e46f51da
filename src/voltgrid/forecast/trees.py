"""Regression trees and the two ensembles built on them.

Trees live in flat parallel arrays (feature, threshold, children, value) so
prediction is a vectorized descent and serialization is plain lists. Trees
grow one depth level at a time over presorted orders: each feature's rows are
sorted once per ensemble fit and every tree filters that presort, a level
scores every (node, candidate feature) boundary in one pass of segmented
prefix sums, and a stable partition keeps each child's rows sorted. A split's
threshold is the midpoint of the two values it separates, or the lower value
where that midpoint would round onto the upper one or overflow. Rows may
carry integer weights; a row of weight w grows the same tree as w copies of
it, which is how a bootstrap sample is grown.

A tree's targets are quantized once to int64 fixed point (``_quantize``), so
every prefix sum is exact and independent of summation order. A gain is a
fixed function of exact sums, so two features that cut a node into the same
row sets tie bitwise, and ties go to the lowest feature index, then the
lowest threshold. Node values come from the same exact sums. Nodes are
numbered in level order; depth-first trees load the same.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError

_NO_DEPTH_CAP = 1 << 30


class RegressionTree:
    """Binary tree over one float matrix; rows with x <= threshold go left."""

    FIELDS = {"feature": np.int64, "threshold": float, "left": np.int64,
              "right": np.int64, "value": float}  # the node arrays and their dtypes
    __slots__ = tuple(FIELDS)

    def __init__(self, feature, threshold, left, right, value):
        for (name, dtype), array in zip(self.FIELDS.items(), (feature, threshold, left, right, value)):
            setattr(self, name, np.asarray(array, dtype=dtype))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            active = self.feature[node] >= 0
        return self.value[node]

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in self.FIELDS}


def _quantize(y, total_weight: int):
    """Targets as int64 fixed point: ``(q, k)`` with q = round(y * 2**k) and
    total_weight * max|q| < 2**62, so every weighted sum of q is exact."""
    top = float(np.max(np.abs(y), initial=0.0))
    if top == 0.0:
        return np.zeros(len(y), dtype=np.int64), 0
    # top < 2**e and total_weight < 2**b, so |q| <= 2**(e+k) = 2**(61-b)
    k = 61 - int(total_weight).bit_length() - math.frexp(top)[1]
    return np.rint(np.ldexp(y, k)).astype(np.int64), k


def _score_level(values, targets, weights, orders, starts, counts, cand, min_child):
    """Best exact split of every node over its candidate features ``cand``.

    Returns (split mask, feature, threshold, left row count); the last three
    list only the split nodes, in node order.
    """
    # gather each (candidate feature, node) block of sorted rows into one
    # flat array, feature-major; only these cells are scored
    bf, bn = np.nonzero(cand)
    lengths = counts[bn]
    first = np.cumsum(lengths) - lengths
    k = int(lengths.sum())
    blk = np.repeat(np.arange(len(bn)), lengths)
    cells = orders.ravel()[np.arange(k)
                           + np.repeat(bf * orders.shape[1] + starts[bn] - first, lengths)]
    v = values[cells]
    cum = np.cumsum(targets[cells])
    before = np.where(first > 0, cum[first - 1], 0)
    total = cum[first + lengths - 1] - before
    n_left = np.arange(k) - first[blk] + 1
    # weight left of each boundary and in its node; unit weights (None)
    # count rows, which keeps boosting clear of the weighted sums' cost
    if weights is None:
        w_left, w_node = n_left, lengths[blk]
    else:
        w_cum = np.cumsum(weights[cells])
        w_before = np.where(first > 0, w_cum[first - 1], 0)
        w_left = w_cum - w_before[blk]
        w_node = (w_cum[first + lengths - 1] - w_before)[blk]
    # a boundary between distinct values, leaving min_child weight on each side
    ok = (np.append(v[1:] > v[:-1], False)
          & (w_left >= min_child) & (w_node - w_left >= min_child))
    at = np.flatnonzero(ok)
    b, w_l = blk[at], w_left[at]
    s_left = cum[at] - before[b]
    s_right = (total[b] - s_left).astype(float)
    s_left = s_left.astype(float)
    gain = np.full(k, -np.inf)
    # within-node SSE drop, up to the constant total**2/w
    gain[at] = s_left * s_left / w_l + s_right * s_right / (w_node[at] - w_l)

    # per node the best gain, then the lowest feature, then the lowest
    # threshold
    block_best = np.maximum.reduceat(gain, first)
    by_feature = np.full(cand.shape, -np.inf)
    by_feature[bf, bn] = block_best
    best = by_feature.max(axis=0)
    split = best > -np.inf
    best_f = np.argmax(by_feature == best, axis=0)
    chosen = (bf == best_f[bn]) & split[bn]
    hits = np.flatnonzero((gain == block_best[blk]) & chosen[blk])
    # a node's hits all lie in its chosen block: its first hit is the cut
    cut = hits[np.unique(bn[blk[hits]], return_index=True)[1]]
    lo, hi = v[cut], v[cut + 1]
    # the midpoint, unless it rounds onto hi (adjacent floats) or overflows
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return split, bf[blk[cut]], np.where((lo <= mid) & (mid < hi), mid, lo), n_left[cut]


def _partition(orders, seg, counts, split, feature, n_left, n):
    """Stable partition of every feature order into the split nodes' children,
    which keep their rows in parent order; ``feature`` and ``n_left`` list the
    split nodes only."""
    orders = orders[:, split[seg]]
    p, m = orders.shape
    sizes = counts[split]
    n_right = sizes - n_left
    parent = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(m) - (np.cumsum(sizes) - sizes)[parent]
    f = feature[parent]
    row_left = np.zeros(n, dtype=bool)
    row_left[orders[f, np.arange(m)] - n * f] = rank < n_left[parent]
    left = np.tile(row_left, p)[orders].ravel()
    # every feature sends the same number of rows left in each node, so one
    # column permutation interleaves the nodes' left and right blocks
    flat = orders.ravel()
    both = np.concatenate([np.compress(left, flat).reshape(p, -1),
                           np.compress(~left, flat).reshape(p, -1)], axis=1)
    counts = np.column_stack([n_left, n_right]).ravel()
    starts = np.cumsum(counts) - counts
    src = np.column_stack([np.cumsum(n_left) - n_left,
                           n_left.sum() + np.cumsum(n_right) - n_right]).ravel()
    return both[:, np.repeat(src - starts, counts) + np.arange(m)], starts, counts


def _presort(X) -> np.ndarray:
    """Stable per-feature row orders of X, shape (features, rows)."""
    return np.argsort(X.T, axis=1, kind="stable")


def _restrict(order, keep) -> np.ndarray:
    """The stable presort of ``X[keep]``, taken from X's presort ``order``
    without sorting again: filtering keeps each feature's order, ties
    included, and ranks renumber the kept rows."""
    rank = np.cumsum(keep) - 1
    return rank[order[keep[order]].reshape(len(order), -1)]


def grow_tree(X, y, *, rng=None, max_depth=None, min_child: int = 1,
              mtry=None) -> RegressionTree:
    """Greedy variance-reduction tree, grown one depth level at a time.

    ``min_child`` is the smallest sample count allowed in a child node;
    ``mtry`` draws that many feature candidates per node without replacement
    (all features when None). Nodes are numbered in level order.
    """
    n, p = X.shape
    if n < 1:
        raise DataError("cannot grow a tree on zero rows")
    if mtry is not None and not 1 <= mtry <= p:
        raise DataError(f"mtry must be in [1, {p}], got {mtry}")
    if min_child < 1:
        raise DataError(f"min_child must be >= 1, got {min_child}")
    return _grow(X, _presort(X), y, None, rng, max_depth, min_child, mtry)


def _grow(X, order, y, weight, rng, max_depth, min_child, mtry) -> RegressionTree:
    """``grow_tree`` on checked arguments, with X's presort ``order``.

    ``weight`` gives each row a positive integer count, or is None for unit
    weights: a row of weight w grows the same tree as w copies of it, and
    ``min_child`` counts weight.
    """
    n, p = X.shape
    depth_cap = _NO_DEPTH_CAP if max_depth is None else max_depth
    # orders[f] lists the live rows node by node, each node's rows sorted by
    # feature f (ties keep row order), as flat indices f*n + row into the
    # feature-major ``values``, ``targets`` and ``weights``
    orders = order + n * np.arange(p)[:, None]
    values = np.ascontiguousarray(X.T).ravel()
    if weight is None:
        q, shift = _quantize(y, n)
        targets, weights = np.tile(q, p), None
    else:
        q, shift = _quantize(y, int(weight.sum()))
        targets, weights = np.tile(q * weight, p), np.tile(weight, p)
    starts, counts = np.zeros(1, dtype=np.int64), np.array([n])
    levels = []
    n_nodes = 0
    for depth in range(depth_cap + 1):
        n_live = len(counts)
        n_nodes += n_live
        seg = np.repeat(np.arange(n_live), counts)
        rows = orders[0]  # feature 0's flat indices are the row numbers
        y0 = q[rows]
        mass = counts if weight is None else np.add.reduceat(weight[rows], starts)
        feature, left = np.full((2, n_live), -1, dtype=np.int64)
        threshold = np.zeros(n_live)
        value = np.ldexp(np.add.reduceat(targets[rows], starts).astype(float), -shift) / mass
        levels.append((feature, threshold, left, value))
        splittable = ((mass >= 2 * min_child) & (depth < depth_cap)
                      & (np.minimum.reduceat(y0, starts) < np.maximum.reduceat(y0, starts)))
        if not splittable.any():
            break
        cand = np.broadcast_to(splittable, (p, n_live))
        if mtry is not None and mtry < p:
            nodes = np.flatnonzero(splittable)
            picks = np.argsort(rng.random((len(nodes), p)), axis=1)[:, :mtry]
            cand = np.zeros((p, n_live), dtype=bool)
            cand[picks, nodes[:, None]] = True
        split, f, thr, n_left = _score_level(values, targets, weights, orders, starts,
                                             counts, cand, min_child)
        if not split.any():
            break
        feature[split] = f
        threshold[split] = thr
        left[split] = n_nodes + 2 * np.arange(len(f))
        orders, starts, counts = _partition(orders, seg, counts, split, f, n_left, n)
    feature, threshold, left, value = (np.concatenate(c) for c in zip(*levels))
    return RegressionTree(feature, threshold, left, np.where(left < 0, -1, left + 1), value)


def _params(model) -> dict:
    """A model's constructor arguments: its attributes whose names do not end
    in ``_``, as fitted state's always do."""
    return {name: value for name, value in vars(model).items() if not name.endswith("_")}


def _check_training_arrays(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise DataError(f"bad training shapes {X.shape} / {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("training data contains non-finite values")
    return X, y


def _sum_trees(model, X) -> np.ndarray:
    """Summed outputs of a fitted ensemble's trees over the rows of X."""
    X = np.asarray(X, dtype=float)
    if not hasattr(model, "trees_"):
        raise DataError("model is not fitted")
    if X.shape[1] != model.n_features_:
        raise DataError(f"expected {model.n_features_} features, got {X.shape[1]}")
    total = np.zeros(len(X))
    for tree in model.trees_:
        total += tree.predict(X)
    return total


# rf: feature candidates per split, smallest leaf weight; gbdt: depth cap,
# stage weight, smallest child, fraction of the rows each stage draws
RF_MTRY, RF_MIN_LEAF = 4, 5
GBDT_MAX_DEPTH, GBDT_SHRINKAGE, GBDT_MIN_NODE, GBDT_SUBSAMPLE = 9, 0.1, 10, 0.5


class RandomForest:
    """Bagged variance-reduction trees with per-node feature sampling.

    Each tree sees a bootstrap resample (with replacement, original size),
    grown as its distinct rows weighted by their counts (Breiman, "Random
    Forests", Machine Learning 45, 2001), and draws ``RF_MTRY`` feature
    candidates per split, a depth level at a time. Prediction is the plain
    mean over trees. ``oob_rmse_`` scores each sample by the trees that did
    not see it; samples that every tree saw are left out of it.
    """

    def __init__(self, n_trees: int = 500, seed: int = 0):
        self.n_trees = n_trees
        self.seed = seed

    get_params = _params

    def fit(self, X, y) -> "RandomForest":
        X, y = _check_training_arrays(X, y)
        n, p = X.shape
        if self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees}")
        if RF_MTRY > p:
            raise DataError(f"mtry {RF_MTRY} exceeds the feature count {p}")
        if n < 2 * RF_MIN_LEAF:
            raise DataError(f"need at least {2 * RF_MIN_LEAF} rows, got {n}")

        self.trees_ = []
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n, dtype=np.int64)
        order = _presort(X)
        for t in range(self.n_trees):
            # one stream per tree: growth never depends on fit order
            rng = np.random.default_rng([self.seed, t])
            # the bootstrap sample as its distinct rows, weighted by count
            count = np.bincount(rng.integers(0, n, size=n), minlength=n)
            seen = count > 0
            tree = _grow(X[seen], _restrict(order, seen), y[seen], count[seen], rng,
                         None, RF_MIN_LEAF, RF_MTRY)
            self.trees_.append(tree)
            outside = ~seen
            if outside.any():
                oob_sum[outside] += tree.predict(X[outside])
                oob_count[outside] += 1

        covered = oob_count > 0
        if covered.any():
            err = oob_sum[covered] / oob_count[covered] - y[covered]
            self.oob_rmse_ = float(np.sqrt(np.mean(err ** 2)))
        else:
            self.oob_rmse_ = float("nan")
        self.n_features_ = p
        return self

    def predict(self, X) -> np.ndarray:
        return _sum_trees(self, X) / len(self.trees_)


class GradientBoostedTrees:
    """Stagewise least-squares boosting with depth-capped trees.

    Starts from the target mean, fits each stage to the current residuals on
    a without-replacement subsample of ``GBDT_SUBSAMPLE`` of the rows, and
    adds ``GBDT_SHRINKAGE`` times the stage output. Prediction is base_score
    + GBDT_SHRINKAGE * sum of tree outputs.
    """

    def __init__(self, n_trees: int = 100, seed: int = 0):
        self.n_trees = n_trees
        self.seed = seed

    get_params = _params

    def fit(self, X, y) -> "GradientBoostedTrees":
        X, y = _check_training_arrays(X, y)
        n, p = X.shape
        if self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees}")
        if n < 2 * GBDT_MIN_NODE:
            raise DataError(f"need at least {2 * GBDT_MIN_NODE} rows, got {n}")

        self.base_score_ = float(y.mean())
        self.trees_ = []
        current = np.full(n, self.base_score_)
        # 0 < m < n, as n >= 2 * GBDT_MIN_NODE
        m = int(GBDT_SUBSAMPLE * n)
        order = _presort(X)
        for stage in range(self.n_trees):
            rng = np.random.default_rng([self.seed, stage])
            keep = np.zeros(n, dtype=bool)
            keep[rng.choice(n, size=m, replace=False)] = True
            residual = y - current
            tree = _grow(X[keep], _restrict(order, keep), residual[keep], None, rng,
                         GBDT_MAX_DEPTH, GBDT_MIN_NODE, None)
            self.trees_.append(tree)
            current += GBDT_SHRINKAGE * tree.predict(X)
        self.n_features_ = p
        return self

    def predict(self, X) -> np.ndarray:
        return self.base_score_ + GBDT_SHRINKAGE * _sum_trees(self, X)
