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
from .base import LinearHeads


class NaiveBayesLearner(LinearHeads):
    """``W`` holds each head's log feature likelihoods, ``b`` its log prior."""

    PAYLOAD_KEYS = ("log_theta", "log_prior")

    def scores(self, X: np.ndarray) -> np.ndarray:
        s = self.head_scores(X)
        out = np.zeros((X.shape[0], N_CLASSES), dtype=np.float64)
        out[:, self.heads] = np.exp(s - s.max(axis=1, keepdims=True))
        return out


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
    # Each head's totals row is overwritten by its log likelihoods.
    for h, head_totals in enumerate(totals.tolist()):
        denom = math.fsum(head_totals) + alpha * v
        totals[h] = [math.log((t + alpha) / denom) for t in head_totals]
    return NaiveBayesLearner(heads, W=totals, b=log_prior)
