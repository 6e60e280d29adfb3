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
one per-node sorting grows. Every column is partitioned and searched, so
a node reads a block of columns as one slice of the state; a column that
is constant on the node has no valid boundary there. Forest nodes draw a
fresh feature sample and argsort just those columns at the node.

A presorted tree grows inside a ``SplitWorkspace``: the working copy of
the sorted columns plus the scratch buffers of its searches and
partitions, allocated once and reused node after node (and, in boosting,
tree after tree). Block-sized arrays allocated and freed per node went
back to the kernel past the allocator's thresholds and were faulted in
again, zeroed, at the next node, which cost more than the arithmetic.
The regression trees carry ``[g, h]`` as one complex128 per row
(``g + ih``): complex addition adds each part on its own, so the
cumulative sums are bit-identical to summing g and h apart, and they run
over one contiguous axis.

Split ties are broken by lowest feature index, then lowest threshold.
Trees are stored as flat node lists (children referenced by index),
which keeps JSON serialization free of deep nesting.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner, _is_int

# Minimum accepted improvement. Class-count scores change by at least
# 1/n for any real split, so 1e-9 only filters float noise.
_MIN_GAIN = 1e-9
_MIN_GAIN_REGRESSION = 1e-12

# Scratch elements per block of features. The split search gathers and
# sums rows x features x statistics per block and scores only the block's
# valid boundaries; ``presort`` and the partition move rows x features per
# block. Both search paths cut the candidates into the same blocks, and a
# later block replaces the best split only on a strictly greater score.
# A statistic counts as one element per 8 bytes: a complex [g, h] is two.
_BLOCK_ELEMENTS = 1 << 20

# Rates boundaries from the statistic sums and row counts of their two
# sides: (left (m, ...), right (m, ...), n_left (m,), n_right (m,)) -> (m,).
# It may overwrite its arguments, which are scratch.
ScoreFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# A block of candidate features (w,) -> per feature the node's rows (w, n)
# in ascending value order, ties by ascending row id, as np.intp, and the
# values in that order (w, n).
SortFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# The presorted state: per feature (one row each) the row order and the
# values in that order, as ``presort`` returns it.
Presorted = tuple[np.ndarray, np.ndarray]


def _gini_score(left: np.ndarray, right: np.ndarray, nl: np.ndarray, nr: np.ndarray) -> np.ndarray:
    # Integer counts: every sum of squares is exact.
    np.divide(np.einsum("mk,mk->m", left, left), nl, out=nl)
    np.divide(np.einsum("mk,mk->m", right, right), nr, out=nr)
    nl += nr
    return nl


def _newton_score(left: np.ndarray, right: np.ndarray, out: np.ndarray, lam: float) -> np.ndarray:
    """G_l^2/(H_l+lam) + G_r^2/(H_r+lam) into ``out``, from ``left`` and
    ``right`` holding G + iH, which it overwrites."""
    for part in (left, right):
        part.imag += lam
        np.square(part.real, out=part.real)
    np.divide(left.real, left.imag, out=out)
    np.divide(right.real, right.imag, out=right.real)
    out += right.real
    return out


def _row_elements(stats: np.ndarray) -> int:
    """Block elements per row of statistics: 8 for the class counts, 2 for
    a complex [g, h]."""
    return stats.itemsize * math.prod(stats.shape[1:]) // 8


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

    def sort_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        columns = X[np.ix_(idx, block)].T
        local = np.argsort(columns, axis=1, kind="stable")
        return idx[local], np.take_along_axis(columns, local, axis=1)

    return sort_block


def _head(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the flat ``buffer`` as an array of ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)


class SplitWorkspace:
    """The working presorted state of a tree plus the scratch buffers of its
    split searches and partitions, reused node after node.

    ``order``/``values`` start as the state given and are partitioned in
    place as a tree grows; ``load`` refills them from a root, so one
    workspace serves every tree of a fit. The block buffers hold one block
    of the widest kind (a partition block of a root-sized node), never the
    whole state when that is larger. The boundary buffers grow to the most
    valid boundaries one block has had. A partition runs after its node's
    search, so the two share the block buffers.
    """

    def __init__(self, state: Presorted, stats: np.ndarray):
        self.order, self.values = state
        n_features, n_rows = self.order.shape
        cells = max(n_rows, min(n_features * n_rows, _BLOCK_ELEMENTS))
        # A block's row ids as the index type of ``take``: the search
        # gathers the statistics with them, the partition the side flags.
        self.rows = np.empty(cells, dtype=np.intp)
        # Boundary masks in the search, side flags in the partition.
        self.flags = np.empty(cells, dtype=bool)
        # The gathered statistics in the search; in the partition, a
        # block's values and then its moved parts.
        stat_rows = max(n_rows, min(n_features * n_rows, _BLOCK_ELEMENTS // _row_elements(stats)))
        scratch = np.empty(max(stat_rows * stats[:1].nbytes, 16 * cells), dtype=np.uint8)
        self.stats = scratch.view(stats.dtype)
        self.block_values = scratch[:8 * cells].view(np.float64)
        self.moved_rows = scratch[8 * cells:16 * cells].view(np.intp)
        self.moved_values = scratch[8 * cells:16 * cells].view(np.float64)
        self._template = np.empty((0,) + stats.shape[1:], dtype=stats.dtype)
        self._boundaries = _boundary_arrays(0, self._template)

    def boundaries(self, count: int) -> tuple[np.ndarray, ...]:
        """``_boundary_arrays`` for ``count`` valid boundaries, from buffers
        that grow to the largest count asked for."""
        if self._boundaries[0].size < count:
            self._boundaries = _boundary_arrays(count, self._template)
        return tuple(array[:count] for array in self._boundaries)

    def load(self, root: Presorted) -> None:
        """Refill the working state from ``root``, which stays unchanged."""
        np.copyto(self.order, root[0])
        np.copyto(self.values, root[1])


def _boundary_arrays(count: int, stats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Scratch for ``count`` valid boundaries of a block: each one's feature
    and total row (np.intp), then its left and right statistic sums and row
    counts."""
    features_and_totals = np.empty((2, count), dtype=np.intp)
    sums = np.empty((2, count) + stats.shape[1:], dtype=stats.dtype)
    counts = np.empty((2, count))
    return (*features_and_totals, *sums, *counts)


def _presorted(workspace: SplitWorkspace, start: int, stop: int) -> SortFn:
    """Reads a block of columns from the node's slice [start, stop) of the
    workspace's state. A presorted node searches every feature, so a block
    is a range of feature ids."""

    def sort_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        columns = slice(block[0], block[-1] + 1)
        rows = _head(workspace.rows, (block.size, stop - start))
        np.copyto(rows, workspace.order[columns, start:stop])
        return rows, workspace.values[columns, start:stop]

    return sort_block


def _partition(workspace: SplitWorkspace, side: np.ndarray, start: int, n_left: int,
               stop: int) -> None:
    """Split the node's slice [start, stop) of every sorted column stably,
    in place, into its rows with ``side`` True followed by the rest."""
    order, values = workspace.order, workspace.values
    mid = start + n_left
    width = max(1, _BLOCK_ELEMENTS // (stop - start))
    for first in range(0, order.shape[0], width):
        columns = slice(first, first + width)
        shape = (min(width, order.shape[0] - first), stop - start)
        rows = _head(workspace.rows, shape)
        np.copyto(rows, order[columns, start:stop])
        block_values = _head(workspace.block_values, shape)
        np.copyto(block_values, values[columns, start:stop])
        goes = np.take(side, rows.ravel(), out=workspace.flags[:rows.size], mode="clip")
        for places in (slice(start, mid), slice(mid, stop)):
            # Positions in row-major order: each feature's rows of this side
            # in their sorted order. It is the one block-sized array a node
            # allocates, and only one is alive at a time.
            positions = np.flatnonzero(goes)
            for target, part, moved in ((order, rows, workspace.moved_rows),
                                        (values, block_values, workspace.moved_values)):
                target[columns, places] = np.take(part.ravel(), positions, mode="clip",
                                                  out=moved[:positions.size]).reshape(shape[0], -1)
            del positions
            np.logical_not(goes, out=goes)


def _best_split(
    stats: np.ndarray,
    n: int,
    features: np.ndarray,
    sort_block: SortFn,
    min_leaf: int,
    score: ScoreFn,
    workspace: SplitWorkspace | None = None,
) -> tuple[float, int, float] | None:
    """Best (score, feature, threshold) over a node's ``n`` rows and
    ascending candidate ``features``; None when no boundary is valid.

    Boundary b lies between sorted positions b and b + 1. Only the valid
    ones are scored, taken feature by feature and each feature's in
    ascending order, so ``argmax`` picks the lowest feature's lowest
    threshold among equal scores (and the first NaN, if any). Features are
    searched in blocks that bound the scratch memory; only a strictly
    greater score from a later block replaces the best so far. With a
    ``workspace``, every block-sized array is one of its buffers.
    """
    lo, hi = min_leaf - 1, n - min_leaf  # boundaries with min_leaf rows on each side
    if hi <= lo:
        return None
    width = max(1, _BLOCK_ELEMENTS // (n * _row_elements(stats)))
    best: tuple[float, int, float] | None = None
    for start in range(0, features.size, width):
        block = features[start:start + width]
        order, values = sort_block(block)
        valid = None if workspace is None else _head(workspace.flags, (block.size, hi - lo))
        at = np.flatnonzero(np.less(values[:, lo:hi], values[:, lo + 1:hi + 1], out=valid))
        if at.size == 0:
            continue
        shape = order.shape + stats.shape[1:]
        cum = np.take(stats, order, axis=0, mode="clip",
                      out=None if workspace is None else _head(workspace.stats, shape))
        np.cumsum(cum, axis=1, out=cum)  # in place: one scratch buffer, not two
        cum = cum.reshape((-1,) + stats.shape[1:])
        f, q, left, right, nl, nr = (_boundary_arrays(at.size, stats) if workspace is None
                                     else workspace.boundaries(at.size))
        np.floor_divide(at, hi - lo, out=f)
        np.multiply(f, n - hi + lo, out=q)
        at += q
        at += lo  # f * n + b: boundary b's row in cum as (w * n, ...)
        np.multiply(f, n, out=q)
        q += n - 1  # the feature's total row
        np.take(cum, at, axis=0, out=left, mode="clip")
        np.take(cum, q, axis=0, out=right, mode="clip")
        right -= left
        np.subtract(at, q, out=nl)
        nl += n  # b + 1 rows on the left
        np.subtract(n, nl, out=nr)
        st = score(left, right, nl, nr)
        i = int(np.argmax(st))
        if best is None or st[i] > best[0]:
            j, b = divmod(int(at[i]), n)
            best = (float(st[i]), int(block[j]), float((values[j, b] + values[j, b + 1]) / 2.0))
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
    workspace: SplitWorkspace | None = None,
) -> list[dict]:
    """Depth-first growth; returns the flat node list.

    ``leaf(idx)`` gives the node's leaf form, its unsplit score and
    whether it may split at all. ``features()`` gives the candidate
    feature ids of each split attempt, whose columns are argsorted at the
    node. Without it every feature is a candidate at every node and the
    state of ``workspace``, ``presort(X)`` or a copy of it, is partitioned
    in place as the tree grows: each node owns one slice of every sorted
    column. ``max_depth`` 0 means unlimited.
    """
    n_rows, n_features = X.shape
    all_features = np.arange(n_features)
    if features is None:
        side = np.zeros(n_rows, dtype=bool)
    nodes: list[dict] = []
    # Parent links are encoded as parent_position * 2 + side (0 = left);
    # -1 marks the root. The root is always processed first, so it lands
    # at node index 0. ``start`` is the node's offset into the presorted
    # columns.
    stack: list[tuple[np.ndarray, int, int, int]] = [(np.arange(n_rows), 0, -1, 0)]
    while stack:
        idx, depth, pos, start = stack.pop()
        n = idx.size
        node, parent_score, splittable = leaf(idx)
        depth_capped = max_depth > 0 and depth >= max_depth
        split = None
        if splittable and not depth_capped and n >= 2 * min_samples_leaf:
            if features is None:
                candidates = all_features
                sort_block = _presorted(workspace, start, start + n)
            else:
                candidates = features()
                sort_block = _argsorted(X, idx)
            split = _best_split(stats, n, candidates, sort_block, min_samples_leaf, score, workspace)
            if split is not None and split[0] <= parent_score + min_gain:
                split = None
        if split is not None:
            _, j, threshold = split
            node = {"f": j, "t": threshold, "l": -1, "r": -1}
            mask = X[idx, j] <= threshold
            n_left = int(np.count_nonzero(mask))
            if features is None:
                side[idx] = mask
                _partition(workspace, side, start, n_left, start + n)
            stack.append((idx[~mask], depth + 1, len(nodes) * 2 + 1, start + n_left))
            stack.append((idx[mask], depth + 1, len(nodes) * 2, start))
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
                     min_samples_leaf, workspace=SplitWorkspace(presort(X), y_onehot))
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
    workspace: SplitWorkspace | None = None,
) -> list[dict]:
    """Grow a gradient/hessian tree; leaves hold the Newton step value.

    ``presorted`` is ``presort(X)``, shared by every tree of a fit; the
    tree grows on a copy in ``workspace``, so it stays unchanged. A fit
    passes one ``new_regression_workspace(presorted)`` to all its trees;
    None grows the tree in a fresh one.
    """
    gh = np.empty(g.size, dtype=np.complex128)
    gh.real = g
    gh.imag = h
    if workspace is None:
        workspace = new_regression_workspace(presorted)
    workspace.load(presorted)

    def leaf(idx: np.ndarray) -> tuple[dict, float, bool]:
        # 1-D sums: their pairwise order fixes the leaf-value bits.
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        return {"v": -g_sum / (h_sum + lam)}, g_sum * g_sum / (h_sum + lam), True

    return _grow(X, gh, leaf,
                 lambda left, right, nl, nr: _newton_score(left, right, nl, lam),
                 _MIN_GAIN_REGRESSION, max_depth, min_samples_leaf, workspace=workspace)


def new_regression_workspace(presorted: Presorted) -> SplitWorkspace:
    """A workspace for growing ``grow_regression_tree`` trees over ``presorted``."""
    order, values = presorted
    return SplitWorkspace((np.empty_like(order), np.empty_like(values)),
                          np.empty(order.shape[1], dtype=np.complex128))


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


def check_nodes(nodes: list, dim: int, leaf_key: str) -> None:
    """Reject a loaded tree unless it is a node list as ``_grow`` writes it.

    Each split reads a feature in [0, dim) at a numeric threshold and names
    two children after itself (``_grow`` appends children after their
    parent, so every walk down the tree ends). Each leaf holds ``leaf_key``:
    "v", a number, or "c", one count per class.
    """
    if not isinstance(nodes, list) or not nodes:
        raise ValueError("a tree must be a non-empty node list")
    for i, node in enumerate(nodes):
        if "f" in node:
            if not (_is_int(node["f"]) and 0 <= node["f"] < dim):
                raise ValueError(f"node {i} splits on feature {node['f']!r}, outside [0, {dim})")
            if not all(_is_int(node[c]) and i < node[c] < len(nodes) for c in ("l", "r")):
                raise ValueError(f"node {i} has children {node['l']!r} and {node['r']!r}, "
                                 f"not both in ({i}, {len(nodes)})")
            if not _is_number(node["t"]):
                raise ValueError(f"node {i} has threshold {node['t']!r}")
        elif leaf_key == "v" and not _is_number(node["v"]):
            raise ValueError(f"leaf {i} has value {node['v']!r}")
        elif leaf_key == "c" and not (isinstance(node["c"], list) and len(node["c"]) == N_CLASSES
                                      and all(_is_int(c) and c >= 0 for c in node["c"])):
            raise ValueError(f"leaf {i} does not hold {N_CLASSES} class counts")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class DecisionTreeLearner(Learner):
    def __init__(self, nodes: list[dict]):
        self.nodes = nodes

    def scores(self, X: np.ndarray) -> np.ndarray:
        return leaf_table(self.nodes, "c")[tree_apply(self.nodes, X)].astype(np.float64)

    def to_payload(self) -> dict:
        return {"nodes": self.nodes}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "DecisionTreeLearner":
        check_nodes(payload["nodes"], dim, "c")
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
