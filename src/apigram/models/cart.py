"""CART engine: exact threshold splits on dense arrays, plus the
single-decision-tree learner.

Both tree kinds run one exact greedy search over a statistics matrix:
one-hot class counts per row for classification trees, ``[g, h]``
(gradient, hessian) for the regression trees of the boosting learner.
Per candidate feature the node's rows are taken in ascending value order,
ties by ascending row id, and the statistics are summed cumulatively in
that order. A score function then rates only the valid boundaries: those
between two distinct values with at least ``min_samples_leaf`` rows on
each side. Gini scores sum(left_counts^2)/n_left +
sum(right_counts^2)/n_right, a monotone transform of the weighted Gini
decrease; integer counts make the tree independent of training-row order.
Newton scores G_l^2/(H_l+lambda) + G_r^2/(H_r+lambda).

Trees that search every feature at every node (the boosting learner's and
the single decision tree) use the exact presorted algorithm of XGBoost
(Chen & Guestrin, KDD 2016): ``presort`` stable-argsorts each column once
per fit, and each split filters its node's slice of every sorted column
stably, in place, into the left rows followed by the right rows. A node's
rows are ascending row ids, so the filtered order equals a stable argsort
of the node's own values, ties included, and the tree is bit-for-bit the
one per-node sorting grows. A feature that is constant over a node stays
constant below it and is left out there. Forest nodes draw a fresh
feature sample and argsort just those columns at the node.

Split ties are broken by lowest feature index, then lowest threshold.
Trees are stored as flat node lists (children referenced by index),
which keeps JSON serialization free of deep nesting.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner

# Minimum accepted improvement. Class-count scores change by at least
# 1/n for any real split, so 1e-9 only filters float noise.
_MIN_GAIN = 1e-9
_MIN_GAIN_REGRESSION = 1e-12

# Scratch elements per block of features. The split search gathers and
# sums rows x features x statistics per block and scores only the block's
# valid boundaries; ``presort`` and the partition move rows x features per
# block. Both search paths cut the candidates into the same blocks, and a
# later block replaces the best split only on a strictly greater score.
_BLOCK_ELEMENTS = 1 << 20

# Rates boundaries from the statistic sums and row counts of their two
# sides: (left (m, k), right (m, k), n_left (m,), n_right (m,)) -> (m,).
ScoreFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# A block of candidate features -> the ids it keeps (a presorted node drops
# the features that are constant on it), and per id the node's rows (w, n)
# in ascending value order, ties by ascending row id, with the values in
# that order (w, n).
SortFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

# The presorted state: per feature (one row each) the row order and the
# values in that order, as ``presort`` returns it.
Presorted = tuple[np.ndarray, np.ndarray]


def _gini_score(left: np.ndarray, right: np.ndarray, nl: np.ndarray, nr: np.ndarray) -> np.ndarray:
    # Integer counts: every sum of squares is exact.
    return np.einsum("mk,mk->m", left, left) / nl + np.einsum("mk,mk->m", right, right) / nr


def _newton_score(left: np.ndarray, right: np.ndarray, lam: float) -> np.ndarray:
    return left[:, 0] ** 2 / (left[:, 1] + lam) + right[:, 0] ** 2 / (right[:, 1] + lam)


def presort(X: np.ndarray) -> Presorted:
    """Each column's stable row order and its values in that order, one row
    per feature. Row ids take the narrowest unsigned type that holds them."""
    n_rows, n_features = X.shape
    order = np.empty((n_features, n_rows), dtype=np.min_scalar_type(n_rows))
    values = np.empty((n_features, n_rows))
    width = max(1, _BLOCK_ELEMENTS // max(n_rows, 1))
    for start in range(0, n_features, width):
        columns = X[:, start:start + width].T
        local = np.argsort(columns, axis=1, kind="stable")
        order[start:start + width] = local
        values[start:start + width] = np.take_along_axis(columns, local, axis=1)
    return order, values


def _argsorted(X: np.ndarray, idx: np.ndarray) -> SortFn:
    """Sorts a block of columns over rows ``idx`` (ascending) at the node."""

    def sort_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        columns = X[np.ix_(idx, block)].T
        local = np.argsort(columns, axis=1, kind="stable")
        return block, idx[local], np.take_along_axis(columns, local, axis=1)

    return sort_block


def _presorted(state: Presorted, varying: np.ndarray, start: int, stop: int) -> SortFn:
    """Reads a block of columns from the node's slice [start, stop) of the
    presorted state; only the ``varying`` features (ascending) are live there."""
    order, values = state

    def sort_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = varying[np.searchsorted(varying, block[0]):np.searchsorted(varying, block[-1], "right")]
        return ids, order[ids, start:stop], values[ids, start:stop]

    return sort_block


def _partition(state: Presorted, varying: np.ndarray, side: np.ndarray, start: int,
               n_left: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the node's slice [start, stop) of every varying column stably,
    in place, into its rows with ``side`` True followed by the rest; returns
    the features that still vary on the left and on the right."""
    order, values = state
    mid = start + n_left
    width = max(1, _BLOCK_ELEMENTS // (stop - start))
    for first in range(0, varying.size, width):
        ids = varying[first:first + width]
        rows = order[ids, start:stop]
        goes_left = side[rows].ravel()
        # Positions in row-major order: each feature's left rows (then its
        # right rows) in their sorted order.
        to_left, to_right = np.flatnonzero(goes_left), np.flatnonzero(~goes_left)
        for target, part in ((order, rows), (values, values[ids, start:stop])):
            part = part.ravel()
            target[ids, start:mid] = part.take(to_left).reshape(ids.size, -1)
            target[ids, mid:stop] = part.take(to_right).reshape(ids.size, -1)
    return (varying[values[varying, start] < values[varying, mid - 1]],
            varying[values[varying, mid] < values[varying, stop - 1]])


def _best_split(
    stats: np.ndarray,
    n: int,
    features: np.ndarray,
    sort_block: SortFn,
    min_leaf: int,
    score: ScoreFn,
) -> tuple[float, int, float] | None:
    """Best (score, feature, threshold) over a node's ``n`` rows and
    ascending candidate ``features``; None when no boundary is valid.

    Boundary b lies between sorted positions b and b + 1. Only the valid
    ones are scored, taken feature by feature and each feature's in
    ascending order, so ``argmax`` picks the lowest feature's lowest
    threshold among equal scores (and the first NaN, if any). Features are
    searched in blocks that bound the scratch memory; only a strictly
    greater score from a later block replaces the best so far.
    """
    lo, hi = min_leaf - 1, n - min_leaf  # boundaries with min_leaf rows on each side
    if hi <= lo:
        return None
    k = stats.shape[1]
    width = max(1, _BLOCK_ELEMENTS // (n * k))
    best: tuple[float, int, float] | None = None
    for start in range(0, features.size, width):
        ids, order, values = sort_block(features[start:start + width])
        at = np.flatnonzero(values[:, lo:hi] < values[:, lo + 1:hi + 1])
        if at.size == 0:
            continue
        f = at // (hi - lo)
        at += f * (n - hi + lo) + lo  # f * n + b: boundary b's row in cum as (w * n, k)
        cum = np.take(stats, order, axis=0)
        np.cumsum(cum, axis=1, out=cum)  # in place: one scratch buffer, not two
        cum = cum.reshape(-1, k)
        left = cum.take(at, axis=0)
        nl = (at - f * n + 1).astype(np.float64)
        st = score(left, cum.take(f * n + n - 1, axis=0) - left, nl, n - nl)
        i = int(np.argmax(st))
        if best is None or st[i] > best[0]:
            sv = values.ravel()
            best = (float(st[i]), int(ids[f[i]]), float((sv[at[i]] + sv[at[i] + 1]) / 2.0))
    return best if best is not None and np.isfinite(best[0]) else None


def _grow(
    X: np.ndarray,
    stats: np.ndarray,
    leaf: Callable[[np.ndarray], tuple[dict, float, bool]],
    score: ScoreFn,
    min_gain: float,
    max_depth: int,
    min_samples_leaf: int,
    features: Callable[[], np.ndarray] | None = None,
    presorted: Presorted | None = None,
) -> list[dict]:
    """Depth-first growth; returns the flat node list.

    ``leaf(idx)`` gives the node's leaf form, its unsplit score and
    whether it may split at all. ``features()`` gives the candidate
    feature ids of each split attempt, whose columns are argsorted at the
    node. Without it every feature is a candidate at every node and
    ``presorted``, from ``presort(X)``, is partitioned in place as the
    tree grows: each node owns one slice of every sorted column.
    ``max_depth`` 0 means unlimited.
    """
    n_rows, n_features = X.shape
    all_features = np.arange(n_features)
    varying = all_features
    if features is None:
        varying = np.flatnonzero(presorted[1][:, 0] < presorted[1][:, -1])
        side = np.zeros(n_rows, dtype=bool)
    nodes: list[dict] = []
    # Parent links are encoded as parent_position * 2 + side (0 = left);
    # -1 marks the root. The root is always processed first, so it lands
    # at node index 0. ``start`` is the node's offset into the presorted
    # columns, whose ``varying`` features are the ones live there.
    stack: list[tuple[np.ndarray, int, int, int, np.ndarray]] = [
        (np.arange(n_rows), 0, -1, 0, varying)
    ]
    while stack:
        idx, depth, pos, start, varying = stack.pop()
        n = idx.size
        node, parent_score, splittable = leaf(idx)
        depth_capped = max_depth > 0 and depth >= max_depth
        split = None
        if splittable and not depth_capped and n >= 2 * min_samples_leaf:
            if features is None:
                candidates = all_features
                sort_block = _presorted(presorted, varying, start, start + n)
            else:
                candidates = features()
                sort_block = _argsorted(X, idx)
            split = _best_split(stats, n, candidates, sort_block, min_samples_leaf, score)
            if split is not None and split[0] <= parent_score + min_gain:
                split = None
        if split is not None:
            _, j, threshold = split
            node = {"f": j, "t": threshold, "l": -1, "r": -1}
            mask = X[idx, j] <= threshold
            n_left = int(np.count_nonzero(mask))
            left_varying = right_varying = varying
            if features is None:
                side[idx] = mask
                left_varying, right_varying = _partition(
                    presorted, varying, side, start, n_left, start + n)
            stack.append((idx[~mask], depth + 1, len(nodes) * 2 + 1, start + n_left, right_varying))
            stack.append((idx[mask], depth + 1, len(nodes) * 2, start, left_varying))
        nodes.append(node)
        if pos != -1:
            nodes[pos // 2]["l" if pos % 2 == 0 else "r"] = len(nodes) - 1
    return nodes


def grow_classification_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    feature_selector=None,
    rng: np.random.Generator | None = None,
) -> list[dict]:
    """Grow a Gini tree; leaves hold class counts.

    ``feature_selector(rng)`` supplies the candidate feature ids for each
    split (ascending), argsorted at each node; None means all features,
    presorted once for the tree.
    """
    y_onehot = np.zeros((y.size, N_CLASSES), dtype=np.int64)
    y_onehot[np.arange(y.size), y] = 1

    def leaf(idx: np.ndarray) -> tuple[dict, float, bool]:
        counts = np.bincount(y[idx], minlength=N_CLASSES)
        parent_score = float((counts.astype(np.float64) ** 2).sum()) / idx.size
        return {"c": counts.tolist()}, parent_score, int((counts > 0).sum()) > 1

    if feature_selector is None:
        return _grow(X, y_onehot, leaf, _gini_score, _MIN_GAIN, max_depth,
                     min_samples_leaf, presorted=presort(X))
    return _grow(X, y_onehot, leaf, _gini_score, _MIN_GAIN, max_depth,
                 min_samples_leaf, features=lambda: feature_selector(rng))


def grow_regression_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    lam: float,
    presorted: Presorted,
) -> list[dict]:
    """Grow a gradient/hessian tree; leaves hold the Newton step value.

    ``presorted`` is ``presort(X)``, shared by every tree of a fit; the
    tree grows on a copy, so it stays unchanged.
    """

    def leaf(idx: np.ndarray) -> tuple[dict, float, bool]:
        # 1-D sums: their pairwise order fixes the leaf-value bits.
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        return {"v": -g_sum / (h_sum + lam)}, g_sum * g_sum / (h_sum + lam), True

    return _grow(X, np.column_stack((g, h)), leaf,
                 lambda left, right, nl, nr: _newton_score(left, right, lam),
                 _MIN_GAIN_REGRESSION, max_depth, min_samples_leaf,
                 presorted=tuple(part.copy() for part in presorted))


def tree_apply(nodes: list[dict], X: np.ndarray) -> np.ndarray:
    """Index of the leaf node every row of X lands in."""
    out = np.zeros(X.shape[0], dtype=np.int64)
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
    while stack:
        pos, idx = stack.pop()
        if idx.size == 0:
            continue
        node = nodes[pos]
        if "f" not in node:
            out[idx] = pos
            continue
        mask = X[idx, node["f"]] <= node["t"]
        stack.append((node["l"], idx[mask]))
        stack.append((node["r"], idx[~mask]))
    return out


def leaf_table(nodes: list[dict], key: str) -> np.ndarray:
    """Per-node array of the leaf entry ``key`` ("c" counts or "v" value),
    zero at internal nodes, for indexing with ``tree_apply``."""
    fill = [0] * N_CLASSES if key == "c" else 0.0
    return np.array([node.get(key, fill) for node in nodes])


class DecisionTreeLearner(Learner):
    def __init__(self, nodes: list[dict]):
        self.nodes = nodes

    def scores(self, X: np.ndarray) -> np.ndarray:
        return leaf_table(self.nodes, "c")[tree_apply(self.nodes, X)].astype(np.float64)

    def to_payload(self) -> dict:
        return {"nodes": self.nodes}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "DecisionTreeLearner":
        return cls(nodes=payload["nodes"])


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> DecisionTreeLearner:
    X = matrix.to_dense()
    nodes = grow_classification_tree(
        X,
        y,
        max_depth=int(params["max_depth"]),
        min_samples_leaf=int(params["min_samples_leaf"]),
    )
    return DecisionTreeLearner(nodes=nodes)
