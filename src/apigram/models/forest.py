"""Random forest: bagged Gini trees with per-split feature sampling.

Each tree draws its bootstrap sample and its per-node feature subsets
from a generator seeded by (seed, tree ordinal), so training is
reproducible for a fixed data order regardless of scheduling. Prediction
is a majority vote over the trees' argmax labels; vote ties go to the
lowest class ordinal.
"""
from __future__ import annotations

import math

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner
from .cart import check_nodes, grow_classification_tree, leaf_table, tree_apply


def _resolve_mtry(max_features: object, n_features: int) -> int | None:
    """Feature-subset size per split; None means all features."""
    if max_features == "all":
        return None
    if max_features == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    size = min(int(max_features), n_features)
    return None if size == n_features else size


class RandomForestLearner(Learner):
    def __init__(self, trees: list[list[dict]]):
        self.trees = trees

    def scores(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], N_CLASSES), dtype=np.float64)
        rows = np.arange(X.shape[0])
        for nodes in self.trees:
            winners = np.argmax(leaf_table(nodes, "c"), axis=1)
            votes[rows, winners[tree_apply(nodes, X)]] += 1
        return votes

    def to_payload(self) -> dict:
        return {"trees": self.trees}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "RandomForestLearner":
        for nodes in payload["trees"]:
            check_nodes(nodes, dim, "c")
        return cls(trees=payload["trees"])


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> RandomForestLearner:
    X = matrix.to_dense()
    n, v = X.shape
    mtry = _resolve_mtry(params["max_features"], v)
    trees = []
    for t in range(int(params["n_trees"])):
        rng = np.random.default_rng([abs(seed), t])
        if params["bootstrap"]:
            boot = rng.integers(0, n, size=n)
            Xb, yb = X[boot], y[boot]
        else:
            Xb, yb = X, y
        selector = None
        if mtry is not None:
            def selector(r: np.random.Generator, _m=mtry, _v=v) -> np.ndarray:
                return np.sort(r.choice(_v, size=_m, replace=False))
        trees.append(
            grow_classification_tree(
                Xb,
                yb,
                max_depth=int(params["max_depth"]),
                min_samples_leaf=int(params["min_samples_leaf"]),
                feature_selector=selector,
                rng=rng,
            )
        )
    return RandomForestLearner(trees=trees)
