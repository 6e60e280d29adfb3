"""k-nearest-neighbors with cosine distance.

Training rows are memorized sparsely; prediction ranks neighbors by
cosine distance with a stable sort, so equal distances resolve to the
lower training-row index, and neighbor-vote ties resolve to the lower
class ordinal. Zero rows have similarity 0 with everything.
"""
from __future__ import annotations

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner, is_class_ordinal


class KNearestNeighborsLearner(Learner):
    def __init__(self, rows: list[list[list[float]]], labels: list[int], k: int, dim: int):
        self.rows = rows
        self.labels = labels
        self.k = k
        self.dim = dim
        dense = np.zeros((len(rows), dim), dtype=np.float64)
        for i, pairs in enumerate(rows):
            for j, w in pairs:
                dense[i, int(j)] = w
        norms = np.sqrt((dense ** 2).sum(axis=1))
        norms[norms == 0.0] = 1.0
        dense /= norms[:, np.newaxis]
        self._unit = dense
        self._y = np.array(labels, dtype=np.int64)

    def scores(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], N_CLASSES), dtype=np.float64)
        k = min(self.k, self._y.size)
        # One mat-vec per row: a batched product may round differently.
        for r, x in enumerate(X):
            norm = float(np.sqrt((x ** 2).sum()))
            xu = x / norm if norm > 0.0 else x
            distances = 1.0 - self._unit @ xu
            nearest = np.argsort(distances, kind="stable")[:k]
            votes[r] = np.bincount(self._y[nearest], minlength=N_CLASSES)
        return votes

    def to_payload(self) -> dict:
        return {"rows": self.rows, "labels": self.labels, "k": self.k, "dim": self.dim}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "KNearestNeighborsLearner":
        rows = payload["rows"]
        if int(payload["dim"]) != dim:
            raise ValueError(f"kNN payload dim {payload['dim']} differs from the model's {dim}")
        if not all(0 <= int(j) < dim for pairs in rows for j, _ in pairs):
            raise ValueError(f"a kNN row holds a column outside [0, {dim})")
        labels = list(payload["labels"])
        if len(labels) != len(rows) or not all(map(is_class_ordinal, labels)):
            raise ValueError(f"kNN labels must be one class ordinal in [0, {N_CLASSES}) per row")
        return cls(rows=rows, labels=labels, k=int(payload["k"]), dim=dim)


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> KNearestNeighborsLearner:
    pairs = [list(pair) for pair in zip(matrix.indices.tolist(), matrix.data.tolist())]
    rows = [pairs[a:b] for a, b in zip(matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist())]
    return KNearestNeighborsLearner(
        rows=rows,
        labels=[int(c) for c in y],
        k=int(params["k"]),
        dim=matrix.n_cols,
    )
