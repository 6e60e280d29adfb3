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
from .base import Learner


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
        return cls(
            heads=list(payload["heads"]),
            log_prior=list(payload["log_prior"]),
            log_theta=payload["log_theta"],
        )


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> NaiveBayesLearner:
    alpha = float(params["alpha"])
    v = matrix.n_cols
    heads = sorted(int(c) for c in np.unique(y))
    head_of = {c: i for i, c in enumerate(heads)}

    per_class_weights: list[list[list[float]]] = [[[] for _ in range(v)] for _ in heads]
    class_counts = [0] * len(heads)
    for i, row in enumerate(matrix.rows):
        head = head_of[int(y[i])]
        class_counts[head] += 1
        for j, w in row.items():
            if w < 0.0:
                raise DegenerateData("naive Bayes requires nonnegative feature weights")
            per_class_weights[head][j].append(w)

    n = matrix.n_rows
    log_prior = [math.log(count / n) for count in class_counts]
    log_theta: list[list[float]] = []
    for head in range(len(heads)):
        totals = [math.fsum(per_class_weights[head][j]) for j in range(v)]
        denom = math.fsum(totals) + alpha * v
        log_theta.append([math.log((t + alpha) / denom) for t in totals])
    return NaiveBayesLearner(heads=heads, log_prior=log_prior, log_theta=log_theta)
