"""The three forecasters (ridge regression, a random forest and gradient
boosting), their shared checks, and the model document they are saved as.

Trees live in flat parallel arrays (feature, threshold, value) with nodes in
level order, so a node's children follow from the order, prediction is a
vectorized descent and serialization is plain lists. Trees
grow a depth level at a time over presorted orders of row numbers: each
feature's rows are sorted once per ensemble fit and every tree filters that
presort. A level takes prefix sums over each (node, candidate feature) block
and scores only the boundaries between distinct values that leave enough
weight on both sides; a stable partition keeps each child's rows sorted. A
split's threshold is the midpoint of the two values it separates, or the
lower value where that midpoint would round onto the upper one or overflow.
Rows may carry integer weights; a row of weight w grows the same tree as w
copies of it, which is how a bootstrap sample is grown.

A tree's targets are quantized once to int64 fixed point (``_quantize``), so
every prefix sum is exact and independent of summation order. A gain is a
fixed function of exact sums, so two features that cut a node into the same
row sets tie bitwise, and ties go to the lowest feature index, then the
lowest threshold. Node values come from the same exact sums.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from ..errors import DataError, overflow_as_data_error
from ..ioutil import config_keys


class RegressionTree:
    """Binary tree over one float matrix, its nodes in level order: node 0 is
    the root, a leaf has feature -1, and rows with x <= threshold go left."""

    FIELDS = {"feature": np.int64, "threshold": float, "value": float}  # the node arrays
    __slots__ = tuple(FIELDS)

    def __init__(self, feature, threshold, value):
        for (name, dtype), array in zip(self.FIELDS.items(), (feature, threshold, value)):
            setattr(self, name, np.asarray(array, dtype=dtype))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def _left(self) -> np.ndarray:  # the k-th split node's children are 2k - 1 and 2k
        return 2 * np.cumsum(self.feature >= 0) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        left, split = self._left(), self.feature >= 0
        node = np.zeros(len(X), dtype=np.int64)
        rows, cells = np.arange(len(X)), X.ravel()  # row-major: X[r, f] is cells[r * p + f]
        while len(rows := rows[split[node[rows]]]):  # the rows still on a split node
            at = node[rows]
            x = cells[rows * X.shape[1] + self.feature[at]]
            node[rows] = left[at] + ~(x <= self.threshold[at])
        return self.value[node]

    def to_dict(self) -> dict:  # the node arrays and each node's children, -1 on a leaf
        left = np.where(self.feature >= 0, self._left(), -1)
        return {**{name: getattr(self, name).tolist() for name in self.FIELDS},
                "left": left.tolist(), "right": (left + (left >= 0)).tolist()}


def _quantize(y, total_weight: int):
    """Targets as int64 fixed point: ``(q, k)`` with q = round(y * 2**k) and
    total_weight * max|q| < 2**62, so every weighted sum of q is exact."""
    top = float(np.max(np.abs(y), initial=0.0))
    if top == 0.0:
        return np.zeros(len(y), dtype=np.int64), 0
    # top < 2**e and total_weight < 2**b, so |y * 2**k| < 2**(e+k) = 2**(61-b);
    # rint may round onto that bound, and a mean of such q would be 2**e
    b = int(total_weight).bit_length()
    k = 61 - b - math.frexp(top)[1]
    bound = 2 ** (61 - b) - 1
    return np.clip(np.rint(np.ldexp(y, k)).astype(np.int64), -bound, bound), k


def _score_level(values, targets, weights, orders, starts, counts, cand, min_child):
    """Best exact split of every node over its candidate features ``cand``.

    Returns (split mask, feature, threshold, left row count); the last three
    list only the split nodes, in node order.
    """
    # each (candidate feature f, node k) block of sorted row numbers, feature-major:
    # cell c of block b holds orders[f, starts[k] + c - first[b]]
    bf, bn = np.nonzero(cand)
    lengths = counts[bn]
    first = np.cumsum(lengths) - lengths
    last = first + lengths - 1
    cell = np.arange(last[-1] + 1)
    rows = orders.ravel()[np.repeat(bf * orders.shape[1] + starts[bn] - first, lengths) + cell]
    # row-major X holds a cell's value at row * p + feature
    v = values[rows * orders.shape[0] + np.repeat(bf, lengths)]
    # a cut after a cell in [lo, hi] leaves min_child weight on each side;
    # unit weights (None) count rows and keep boosting off weighted sums
    if weights is None:
        lo, hi, w_total = first + min_child - 1, last - min_child, lengths
    else:
        w_cum = np.cumsum(weights[rows])
        w_before = np.where(first > 0, w_cum[first - 1], 0)
        w_total = w_cum[last] - w_before
        lo = np.searchsorted(w_cum, w_before + min_child)
        hi = np.searchsorted(w_cum, w_cum[last] - min_child, side="right") - 1
    cum = np.cumsum(targets[rows], out=rows)  # exact, in the row numbers' place
    before = np.where(first > 0, cum[first - 1], 0)
    inside = np.repeat(lo, lengths) <= cell  # each cell against its block's range
    inside &= cell <= np.repeat(hi, lengths)
    # only the boundaries between distinct values in those ranges are scored
    at = np.flatnonzero(np.logical_and(inside[:-1], v[1:] > v[:-1], out=inside[:-1]))
    heads = np.searchsorted(at, first)  # each block's first boundary
    per_block = np.diff(heads, append=len(at))
    s_left = cum[at] - np.repeat(before, per_block)
    w_left = (at - np.repeat(first - 1, per_block) if weights is None
              else w_cum[at] - np.repeat(w_before, per_block))
    # within-node SSE drop, up to the constant total**2/w
    gain = (s_left.astype(float) ** 2 / w_left
            + (np.repeat(cum[last] - before, per_block) - s_left).astype(float) ** 2
            / (np.repeat(w_total, per_block) - w_left))

    # each node's cut is its first boundary, feature-major, with the node's
    # best gain: the lowest feature, then the lowest threshold
    by_feature = np.full(cand.shape, -np.inf)
    scored = per_block > 0
    by_feature[bf[scored], bn[scored]] = np.maximum.reduceat(gain, heads[scored])
    best = by_feature.max(axis=0)
    node = np.repeat(bn, per_block)
    hits = np.flatnonzero(gain == best[node])
    cut = at[hits[np.unique(node[hits], return_index=True)[1]]]
    lo, hi = v[cut], v[cut + 1]
    # the midpoint, unless it rounds onto hi (adjacent floats) or overflows
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    b = np.searchsorted(first, cut, side="right") - 1
    return best > -np.inf, bf[b], np.where((lo <= mid) & (mid < hi), mid, lo), cut - first[b] + 1


def _partition(orders, counts, split, feature, n_left, n):
    """Stable partition of every feature order into the split nodes' children,
    which keep their rows in parent order; ``feature`` and ``n_left`` list the
    split nodes only. Rows of the nodes that did not split are dropped."""
    sizes = counts[split]
    cols = np.flatnonzero(np.repeat(split, counts))
    # each split node sends the first n_left rows of its cut feature's order
    # left (1), and the rest right (2)
    side = np.zeros(n, dtype=np.int8)
    side[orders[np.repeat(feature, sizes), cols]] = np.where(
        np.arange(len(cols)) < np.repeat(np.cumsum(sizes) - sizes + n_left, sizes), 1, 2)
    side = side[orders]
    counts = np.column_stack([n_left, sizes - n_left]).ravel()
    starts = np.cumsum(counts) - counts
    # every feature sends the same rows each way: its left rows fill the
    # left children's columns in node order, its right rows the rest
    to_left = np.repeat(np.arange(len(counts)) % 2 == 0, counts)
    both = np.empty((len(orders), len(cols)), dtype=orders.dtype)
    both[:, to_left] = orders[side == 1].reshape(len(orders), -1)
    both[:, ~to_left] = orders[side == 2].reshape(len(orders), -1)
    return both, starts, counts


def _presort(X) -> np.ndarray:
    """Stable per-feature row orders of X, shape (features, rows)."""
    return np.argsort(X.T, axis=1, kind="stable")


def _restrict(order, keep) -> np.ndarray:
    """The stable presort of ``X[keep]``, taken from X's presort ``order``
    without sorting again: filtering keeps each feature's order, ties
    included, and ranks renumber the kept rows."""
    rank = np.cumsum(keep) - 1
    return rank[order[keep[order]].reshape(len(order), -1)]


def _grow(X, orders, y, weight, rng, max_depth, min_child, mtry) -> RegressionTree:
    """Greedy variance-reduction tree on X, grown a depth level at a time to
    ``max_depth`` (None: no cap); nodes are numbered in level order. ``orders``
    is X's stable presort, the row numbers sorted per feature. ``weight`` gives
    each row a positive integer count (None: unit weights); a row of weight w
    grows the same tree as w copies of it. ``min_child`` >= 1 is the least
    weight a child may hold; ``mtry`` draws that many of the p features per
    node from ``rng`` without replacement, all p when None.
    """
    n, p = X.shape
    depth_cap = n if max_depth is None else max_depth  # no tree is n levels deep
    # orders[f] keeps the live rows' numbers node by node, each node's sorted
    # by feature f (ties keep row order); they index X, q and weight as is
    q, shift = _quantize(y, n if weight is None else int(weight.sum()))
    targets = q if weight is None else q * weight
    starts, counts = np.zeros(1, dtype=np.int64), np.array([n])
    levels = []
    for depth in range(depth_cap + 1):
        n_live = len(counts)
        rows = orders[0]
        y0 = q[rows]
        mass = counts if weight is None else np.add.reduceat(weight[rows], starts)
        feature, threshold = np.full(n_live, -1), np.zeros(n_live)
        # the mean before the scaling, so no sum passes the float maximum
        value = np.ldexp(np.add.reduceat(targets[rows], starts).astype(float) / mass, -shift)
        levels.append((feature, threshold, value))
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
        split, f, thr, n_left = _score_level(X.ravel(), targets, weight, orders, starts,
                                             counts, cand, min_child)
        if not split.any():
            break
        feature[split] = f
        threshold[split] = thr
        orders, starts, counts = _partition(orders, counts, split, f, n_left, n)
    return RegressionTree(*(np.concatenate(c) for c in zip(*levels)))


def rms(values) -> float:
    """The root mean square of finite values, taken of them scaled by 2**-top
    (2**top > their largest magnitude), so no square overflows, nor the
    largest underflows. The scaling is exact: above the subnormals the
    result is sqrt(mean(values ** 2)) bit for bit."""
    top = math.frexp(float(np.max(np.abs(values))))[1]
    return float(np.ldexp(np.sqrt(np.mean(np.ldexp(values, -top) ** 2)), top))


def scaled_mean(values, e: int = 0) -> float:
    """mean(values) * 2**e of finite values, taken of them scaled by
    2**-shift (2**shift > their count), so no sum overflows; exact above
    the subnormals."""
    shift = len(values).bit_length()
    return float(np.ldexp(np.mean(np.ldexp(values, -shift)), shift + e))


def _finite_matrix(X, use: str) -> np.ndarray:
    """X as a float matrix of finite values with at least one feature;
    ``use`` ("training" or "prediction") names it in the errors."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise DataError(f"bad {use} shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError(f"{use} data contains non-finite values")
    return X


def _check_fitted(model) -> None:
    """Fit sets ``n_features_`` on a model last; before that it has no state."""
    if not hasattr(model, "n_features_"):
        raise DataError("model is not fitted")


class _Forecaster:
    """``fit`` and ``predict`` of every forecaster: each checks its input
    once, then runs the model's ``_fit`` or ``_predict`` on finite floats
    with numpy's overflow, invalid-value and divide-by-zero faults raised as
    DataError."""

    def get_params(self) -> dict:
        """The constructor arguments: the attributes whose names do not end
        in ``_``, as fitted state's always do."""
        return {name: value for name, value in vars(self).items() if not name.endswith("_")}

    @overflow_as_data_error("the training data overflow the fit")
    def fit(self, X, y):
        X = _finite_matrix(X, "training")
        y = np.asarray(y, dtype=float)
        if y.shape != (len(X),):
            raise DataError(f"bad training shapes {X.shape} / {y.shape}")
        if not np.all(np.isfinite(y)):
            raise DataError("training data contains non-finite values")
        self._fit(X, y)
        self.n_features_ = X.shape[1]
        return self

    @overflow_as_data_error("the prediction input overflows the forecast")
    def predict(self, X) -> np.ndarray:
        _check_fitted(self)
        X = _finite_matrix(X, "prediction")
        if X.shape[1] != self.n_features_:
            raise DataError(f"expected {self.n_features_} features, got {X.shape[1]}")
        return self._predict(X)


RIDGE = 1e-8  # the L2 penalty on the weights, there only for conditioning


class RidgeRegression(_Forecaster):
    """Least squares with the L2 penalty ``RIDGE`` on the weights (not the
    intercept), solved through one QR/SVD pass over the design augmented with
    the penalty rows rather than the normal equations, so near-collinear
    features stay stable. The penalty rows give the design full rank.
    """

    def _fit(self, X, y) -> None:
        n, p = X.shape
        if n < p + 1:
            raise DataError(f"need at least {p + 1} rows to fit {p} features, got {n}")
        # penalty rows: sqrt(RIDGE) on each weight, none on the intercept
        design = np.block([[X, np.ones((n, 1))],
                           [np.sqrt(RIDGE) * np.eye(p), np.zeros((p, 1))]])
        solution = np.linalg.lstsq(design, np.concatenate([y, np.zeros(p)]), rcond=None)[0]
        if not np.all(np.isfinite(solution)):
            raise DataError("linear fit produced non-finite weights")
        self.weights_ = solution[:p]
        self.intercept_ = float(solution[p])

    def _predict(self, X) -> np.ndarray:
        return X @ self.weights_ + self.intercept_


# rf: feature candidates per split, smallest leaf weight; gbdt: depth cap,
# stage weight, smallest child, fraction of the rows each stage draws
RF_MTRY, RF_MIN_LEAF = 4, 5
GBDT_MAX_DEPTH, GBDT_SHRINKAGE, GBDT_MIN_NODE, GBDT_SUBSAMPLE = 9, 0.1, 10, 0.5


class _Ensemble(_Forecaster):
    """A sum of seeded trees, behind one constructor gate: ``n_trees`` and
    ``seed`` are Python ints, not bools, with n_trees >= 1 and seed >= 0."""

    def __init__(self, n_trees: int, seed: int):
        for name, value, least in (("n_trees", n_trees, 1), ("seed", seed, 0)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise DataError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise DataError(f"{name} must be >= {least}, got {value}")
        self.n_trees = n_trees
        self.seed = seed

    @property
    def _shift(self) -> int:
        """2**_shift > n_trees, so a sum of n_trees finite values scaled by
        2**-_shift stays finite; the scaling is exact above the subnormals."""
        return self.n_trees.bit_length()

    def _sum_trees(self, X) -> np.ndarray:
        """The sum of the trees' predictions, scaled by 2**-_shift."""
        total = np.zeros(len(X))
        for tree in self.trees_:
            total += np.ldexp(tree.predict(X), -self._shift)
        return total


class RandomForest(_Ensemble):
    """Bagged variance-reduction trees with per-node feature sampling.

    Each tree sees a bootstrap resample (with replacement, original size),
    grown as its distinct rows weighted by their counts (Breiman, "Random
    Forests", Machine Learning 45, 2001), and draws ``RF_MTRY`` feature
    candidates per split, a depth level at a time. Prediction is the plain
    mean over trees. ``oob_rmse_`` scores each sample by the trees that did
    not see it; samples that every tree saw are left out of it.
    """

    def __init__(self, n_trees: int = 500, seed: int = 0):
        super().__init__(n_trees, seed)

    def _fit(self, X, y) -> None:
        n, p = X.shape
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
            oob_sum[outside] += np.ldexp(tree.predict(X[outside]), -self._shift)
            oob_count[outside] += 1

        covered = oob_count > 0
        if covered.any():  # scaled by 2**-_shift
            err = oob_sum[covered] / oob_count[covered] - np.ldexp(y[covered], -self._shift)
            self.oob_rmse_ = float(np.ldexp(rms(err), self._shift))
        else:
            self.oob_rmse_ = float("nan")

    def _predict(self, X) -> np.ndarray:
        return np.ldexp(self._sum_trees(X) / len(self.trees_), self._shift)


class GradientBoostedTrees(_Ensemble):
    """Stagewise least-squares boosting with depth-capped trees.

    Starts from the target mean, fits each stage to the current residuals on
    a without-replacement subsample of ``GBDT_SUBSAMPLE`` of the rows, and
    adds ``GBDT_SHRINKAGE`` times the stage output. Prediction is base_score
    + GBDT_SHRINKAGE * sum of tree outputs.
    """

    def __init__(self, n_trees: int = 100, seed: int = 0):
        super().__init__(n_trees, seed)

    def _fit(self, X, y) -> None:
        n = len(X)
        if n < 2 * GBDT_MIN_NODE:
            raise DataError(f"need at least {2 * GBDT_MIN_NODE} rows, got {n}")

        self.base_score_ = scaled_mean(y)
        self.trees_ = []
        current = np.full(n, self.base_score_)
        # 0 < m < n, as n >= 2 * GBDT_MIN_NODE
        m = int(GBDT_SUBSAMPLE * n)
        order = _presort(X)
        for stage in range(self.n_trees):
            rng = np.random.default_rng([self.seed, stage])
            keep = np.zeros(n, dtype=bool)
            keep[rng.choice(n, size=m, replace=False)] = True
            # grown on half the residual, which stays finite where y - current
            # would not, then doubled; both scalings are exact
            half = np.ldexp(y, -1) - np.ldexp(current, -1)
            tree = _grow(X[keep], _restrict(order, keep), half[keep], None, rng,
                         GBDT_MAX_DEPTH, GBDT_MIN_NODE, None)
            tree.value = np.ldexp(tree.value, 1)
            self.trees_.append(tree)
            current += GBDT_SHRINKAGE * tree.predict(X)

    def _predict(self, X) -> np.ndarray:
        return self.base_score_ + np.ldexp(GBDT_SHRINKAGE * self._sum_trees(X), self._shift)


# the forecasters by short name; rf and gbdt take the harness seed
MODELS = {"lm": RidgeRegression, "rf": RandomForest, "gbdt": GradientBoostedTrees}


def make_model(name: str, params: dict | None = None, seed: int = 0):
    """Instantiate one of the three forecasters by its short name."""
    if name not in MODELS:
        raise DataError(f"unknown model {name!r} (choose from {tuple(MODELS)})")
    params = dict(params or {})
    config_keys(params, MODELS[name]().get_params(), f"{name} model parameter")
    if name != "lm":
        params.setdefault("seed", seed)
    return MODELS[name](**params)


FORMAT = "voltgrid-model/2"


def save_model(model, path) -> None:
    """A fitted forecaster's document as compact JSON with sorted keys,
    written a tree at a time, so a forest's document is never whole in
    memory. Anything but a fitted forecaster is refused before the file is
    opened."""
    kind = next((kind for kind, cls in MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    _check_fitted(model)
    doc = {"format": FORMAT, "kind": kind, "params": model.get_params(),
           "n_features": model.n_features_}
    names = getattr(model, "feature_names_", None)
    if names is not None:
        doc["feature_names"] = list(names)
    if kind == "lm":
        doc.update(weights=model.weights_.tolist(), intercept=model.intercept_)
    if kind == "gbdt":
        doc["base_score"] = model.base_score_
    # not ioutil.write_json: its json_ready rounds floats to 12 digits, and a
    # model's floats are written exactly. json.dumps, not json.dump: only
    # dumps uses the C encoder
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        if kind == "lm":
            fh.write(dumps(doc) + "\n")
        else:  # "trees" sorts after every other key, so it ends the document
            fh.write(dumps(doc)[:-1] + ',"trees":[')
            for k, tree in enumerate(model.trees_):
                fh.write("," * (k > 0) + dumps(tree.to_dict()))
            fh.write("]}\n")
