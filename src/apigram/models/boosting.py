"""Gradient-boosted trees with softmax coupling.

One regression tree per present class per round, fitted to the softmax
gradients/hessians taken from the scores at the start of the round, with
Newton leaf values damped by the learning rate. Scores for classes absent
from the training data stay at probability zero. The per-round training
log-loss is recorded into the payload so the descent is auditable.
"""
from __future__ import annotations

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner, check_heads
from .cart import (
    check_nodes,
    grow_regression_tree,
    leaf_table,
    new_regression_workspace,
    presort,
    tree_apply,
)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _tree_values(nodes: list[dict], X: np.ndarray) -> np.ndarray:
    return leaf_table(nodes, "v")[tree_apply(nodes, X)]


class GradientBoostedTreesLearner(Learner):
    def __init__(
        self,
        heads: list[int],
        rounds: list[list[list[dict]]],
        learning_rate: float,
        train_loss: list[float],
    ):
        self.heads = heads
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.train_loss = train_loss

    def scores(self, X: np.ndarray) -> np.ndarray:
        head_scores = np.zeros((X.shape[0], len(self.heads)), dtype=np.float64)
        for round_trees in self.rounds:
            for i, nodes in enumerate(round_trees):
                head_scores[:, i] += self.learning_rate * _tree_values(nodes, X)
        out = np.zeros((X.shape[0], N_CLASSES), dtype=np.float64)
        out[:, self.heads] = _softmax(head_scores)
        return out

    def to_payload(self) -> dict:
        return {
            "heads": self.heads,
            "rounds": self.rounds,
            "learning_rate": self.learning_rate,
            "train_loss": self.train_loss,
        }

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "GradientBoostedTreesLearner":
        heads = list(payload["heads"])
        check_heads(heads)
        for round_trees in payload["rounds"]:
            if len(round_trees) != len(heads):
                raise ValueError(f"a round holds {len(round_trees)} trees for {len(heads)} heads")
            for nodes in round_trees:
                check_nodes(nodes, dim, "v")
        return cls(
            heads=heads,
            rounds=payload["rounds"],
            learning_rate=float(payload["learning_rate"]),
            train_loss=list(payload["train_loss"]),
        )


def fit(
    matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int
) -> GradientBoostedTreesLearner:
    X = matrix.to_dense()
    n = X.shape[0]
    heads = sorted(int(c) for c in np.unique(y))
    head_of = {c: i for i, c in enumerate(heads)}
    Y = np.zeros((n, len(heads)), dtype=np.float64)
    Y[np.arange(n), [head_of[int(c)] for c in y]] = 1.0

    lr = float(params["learning_rate"])
    lam = float(params["reg_lambda"])
    depth = int(params["max_depth"])
    min_leaf = int(params["min_samples_leaf"])

    sorted_columns = presort(X)
    # One workspace for every tree of the fit: see ``cart.SplitWorkspace``.
    workspace = new_regression_workspace(sorted_columns)
    F = np.zeros((n, len(heads)), dtype=np.float64)
    true_cols = np.array([head_of[int(c)] for c in y])

    def loss() -> float:
        p = _softmax(F)[np.arange(n), true_cols]
        return float(-np.mean(np.log(np.maximum(p, 1e-300))))

    train_loss = [loss()]
    rounds: list[list[list[dict]]] = []
    for _ in range(int(params["n_rounds"])):
        P = _softmax(F)
        round_trees: list[list[dict]] = []
        for i in range(len(heads)):
            g = P[:, i] - Y[:, i]
            h = P[:, i] * (1.0 - P[:, i])
            nodes = grow_regression_tree(X, g, h, depth, min_leaf, lam, sorted_columns, workspace)
            round_trees.append(nodes)
        for i, nodes in enumerate(round_trees):
            F[:, i] += lr * _tree_values(nodes, X)
        rounds.append(round_trees)
        train_loss.append(loss())
    return GradientBoostedTreesLearner(
        heads=heads, rounds=rounds, learning_rate=lr, train_loss=train_loss
    )
