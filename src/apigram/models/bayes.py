"""Multinomial naive Bayes over TF-IDF weights as fractional counts.

Per-class feature totals are accumulated with exactly rounded summation,
so the fitted model is identical under any permutation of the training
rows. Laplace smoothing keeps every likelihood positive; classes absent
from the training data keep probability zero.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateData
from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner, check_head_shapes, check_heads


class NaiveBayesLearner(Learner):
    def __init__(self, heads: list[int], log_prior: list[float], log_theta: list[list[float]]):
        self.heads = heads
        self.log_prior = log_prior
        self.log_theta = log_theta
        self._W = np.array(log_theta, dtype=np.float64)
        self._b = np.array(log_prior, dtype=np.float64)

    def scores(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], N_CLASSES), dtype=np.float64)
        # One mat-vec per row: a batched product may round differently.
        for r, x in enumerate(X):
            s = self._W @ x + self._b
            out[r, self.heads] = np.exp(s - s.max())
        return out

    def to_payload(self) -> dict:
        return {"heads": self.heads, "log_prior": self.log_prior, "log_theta": self.log_theta}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "NaiveBayesLearner":
        learner = cls(
            heads=list(payload["heads"]),
            log_prior=list(payload["log_prior"]),
            log_theta=payload["log_theta"],
        )
        check_heads(learner.heads)
        check_head_shapes(learner._W, learner._b, len(learner.heads), dim)
        return learner


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> NaiveBayesLearner:
    alpha = float(params["alpha"])
    v = matrix.n_cols
    heads = sorted(int(c) for c in np.unique(y))
    if np.any(matrix.data < 0.0):
        raise DegenerateData("naive Bayes requires nonnegative feature weights")

    # Group the stored weights by (class head, column); each group is
    # summed exactly, so the totals do not depend on the row order.
    head_of_row = np.searchsorted(heads, y)
    cells = head_of_row[matrix.entry_rows()] * v + matrix.indices
    order = np.argsort(cells)
    cells, weights = cells[order], matrix.data[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    totals = np.zeros((len(heads), v), dtype=np.float64)
    groups = np.split(weights, starts)[1:]  # the piece before the first start is empty
    totals.flat[cells[starts]] = [math.fsum(group) for group in groups]

    log_prior = [math.log(count / matrix.n_rows) for count in np.bincount(head_of_row).tolist()]
    log_theta: list[list[float]] = []
    for head_totals in totals.tolist():
        denom = math.fsum(head_totals) + alpha * v
        log_theta.append([math.log((t + alpha) / denom) for t in head_totals])
    return NaiveBayesLearner(heads=heads, log_prior=log_prior, log_theta=log_theta)
