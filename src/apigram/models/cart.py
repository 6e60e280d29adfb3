"""CART engine: exact threshold splits on dense arrays, plus the
single-decision-tree learner.

Both tree kinds run one exact greedy search over a statistics matrix:
one-hot class counts per row for classification trees, ``[g, h]``
(gradient, hessian) for the regression trees of the boosting learner.
Per candidate feature the node's rows are sorted by value, the statistics
are summed cumulatively in that order, and a score function rates every
boundary between distinct values. Gini scores sum(left_counts^2)/n_left +
sum(right_counts^2)/n_right, a monotone transform of the weighted Gini
decrease; integer counts make the tree independent of training-row order.
Newton scores G_l^2/(H_l+lambda) + G_r^2/(H_r+lambda).

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

# Scratch elements (rows x features x statistics) per block of candidate
# features in the split search.
_BLOCK_ELEMENTS = 1 << 20

# Rates every boundary from the cumulative statistics: (n, F, k) -> (n-1, F).
ScoreFn = Callable[[np.ndarray], np.ndarray]


def _gini_score(cum: np.ndarray) -> np.ndarray:
    # sum((total - left)^2) is expanded so that only (n-1, F) arrays are
    # formed; the counts are integers, so every sum is exact. Every
    # feature's column ends at the same node totals.
    n = cum.shape[0]
    left = cum[:-1]
    total = cum[-1, 0]
    left_sq = np.einsum("bfk,bfk->bf", left, left)
    right_sq = total @ total - 2 * (left @ total) + left_sq
    nl = np.arange(1, n, dtype=np.float64)[:, np.newaxis]
    return left_sq / nl + right_sq / (n - nl)


def _newton_score(cum: np.ndarray, lam: float) -> np.ndarray:
    gl, hl = cum[:-1, :, 0], cum[:-1, :, 1]
    return gl ** 2 / (hl + lam) + (cum[-1, :, 0] - gl) ** 2 / (cum[-1, :, 1] - hl + lam)


def _best_split(
    X: np.ndarray,
    stats: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    score: ScoreFn,
) -> tuple[float, int, float] | None:
    """Best (score, feature, threshold) over rows ``idx`` and ascending
    candidate ``features``; None when no boundary is valid.

    A boundary is valid between two distinct sorted values with at least
    ``min_leaf`` rows on each side. Features are searched in blocks that
    bound the scratch memory; only a strictly greater score from a later
    block replaces the best so far, which keeps the tie rule.
    """
    n = idx.size
    if n < 2:
        return None
    node_stats = stats[idx]
    nl = np.arange(1, n)
    sizes_ok = ((nl >= min_leaf) & (n - nl >= min_leaf))[:, np.newaxis]
    width = max(1, _BLOCK_ELEMENTS // (n * stats.shape[1]))
    best: tuple[float, int, float] | None = None
    for start in range(0, features.size, width):
        block = features[start:start + width]
        M = X[np.ix_(idx, block)]
        order = np.argsort(M, axis=0, kind="stable")
        sv = np.take_along_axis(M, order, axis=0)
        valid = (sv[:-1] < sv[1:]) & sizes_ok
        if not valid.any():
            continue
        cum = np.take(node_stats, order, axis=0)
        np.cumsum(cum, axis=0, out=cum)  # in place: one scratch buffer, not two
        st = np.where(valid, score(cum), -np.inf).T
        f, b = divmod(int(np.argmax(st)), n - 1)
        if best is None or st[f, b] > best[0]:
            best = (float(st[f, b]), int(block[f]), float((sv[b, f] + sv[b + 1, f]) / 2.0))
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
) -> list[dict]:
    """Depth-first growth; returns the flat node list.

    ``leaf(idx)`` gives the node's leaf form, its unsplit score and
    whether it may split at all; ``features()`` gives the candidate
    feature ids of each split attempt, None meaning all of them.
    ``max_depth`` 0 means unlimited.
    """
    all_features = np.arange(X.shape[1])
    nodes: list[dict] = []
    # Parent links are encoded as parent_position * 2 + side (0 = left);
    # -1 marks the root. The root is always processed first, so it lands
    # at node index 0.
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(X.shape[0]), 0, -1)]
    while stack:
        idx, depth, pos = stack.pop()
        node, parent_score, splittable = leaf(idx)
        depth_capped = max_depth > 0 and depth >= max_depth
        split = None
        if splittable and not depth_capped and idx.size >= 2 * min_samples_leaf:
            candidates = all_features if features is None else features()
            split = _best_split(X, stats, idx, candidates, min_samples_leaf, score)
            if split is not None and split[0] <= parent_score + min_gain:
                split = None
        if split is not None:
            _, j, threshold = split
            node = {"f": j, "t": threshold, "l": -1, "r": -1}
            mask = X[idx, j] <= threshold
            stack.append((idx[~mask], depth + 1, len(nodes) * 2 + 1))
            stack.append((idx[mask], depth + 1, len(nodes) * 2))
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
    split (ascending); None means all features.
    """
    y_onehot = np.zeros((y.size, N_CLASSES), dtype=np.int64)
    y_onehot[np.arange(y.size), y] = 1

    def leaf(idx: np.ndarray) -> tuple[dict, float, bool]:
        counts = np.bincount(y[idx], minlength=N_CLASSES)
        parent_score = float((counts.astype(np.float64) ** 2).sum()) / idx.size
        return {"c": counts.tolist()}, parent_score, int((counts > 0).sum()) > 1

    features = None if feature_selector is None else (lambda: feature_selector(rng))
    return _grow(X, y_onehot, leaf, _gini_score, _MIN_GAIN, max_depth,
                 min_samples_leaf, features)


def grow_regression_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    lam: float,
) -> list[dict]:
    """Grow a gradient/hessian tree; leaves hold the Newton step value."""

    def leaf(idx: np.ndarray) -> tuple[dict, float, bool]:
        # 1-D sums: their pairwise order fixes the leaf-value bits.
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        return {"v": -g_sum / (h_sum + lam)}, g_sum * g_sum / (h_sum + lam), True

    return _grow(X, np.column_stack((g, h)), leaf, lambda cum: _newton_score(cum, lam),
                 _MIN_GAIN_REGRESSION, max_depth, min_samples_leaf)


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
