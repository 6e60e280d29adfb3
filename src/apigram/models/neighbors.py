"""k-nearest-neighbors with cosine distance.

Training rows are memorized sparsely; prediction ranks neighbors by
cosine distance with a stable sort, so equal distances resolve to the
lower training-row index, and neighbor-vote ties resolve to the lower
class ordinal. Zero rows have similarity 0 with everything.
"""
from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch
from ..labels import ALL_LABELS, N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner, is_class_ordinal

# Elements squared at a time when the unit rows' norms are taken; a whole
# matrix squared at once would be a second full-size copy of it.
_NORM_BLOCK_ELEMENTS = 1 << 18


class KNearestNeighborsLearner(Learner):
    def __init__(self, matrix: FeatureMatrix, labels: np.ndarray | list[int], k: int):
        self.matrix = matrix
        self.k = k
        self._y = np.asarray(labels, dtype=np.int64)
        unit = matrix.to_dense()
        step = max(1, _NORM_BLOCK_ELEMENTS // max(1, matrix.n_cols))
        for start in range(0, matrix.n_rows, step):
            block = unit[start:start + step]
            norms = np.sqrt((block ** 2).sum(axis=1))
            norms[norms == 0.0] = 1.0
            block /= norms[:, np.newaxis]
        self._unit = unit

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
        m = self.matrix
        pairs = [list(pair) for pair in zip(m.indices.tolist(), m.data.tolist())]
        rows = [pairs[a:b] for a, b in zip(m.indptr[:-1].tolist(), m.indptr[1:].tolist())]
        return {"rows": rows, "labels": self._y.tolist(), "k": self.k, "dim": m.n_cols}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "KNearestNeighborsLearner":
        rows = payload["rows"]
        if int(payload["dim"]) != dim:
            raise ValueError(f"kNN payload dim {payload['dim']} differs from the model's {dim}")
        labels = list(payload["labels"])
        if len(labels) != len(rows) or not all(map(is_class_ordinal, labels)):
            raise ValueError(f"kNN labels must be one class ordinal in [0, {N_CLASSES}) per row")
        if len(set(labels)) < 2:
            raise ValueError("kNN labels must span at least two classes")
        try:
            matrix = FeatureMatrix.from_rows(
                [{int(j): w for j, w in pairs} for pairs in rows],
                dim,
                sample_ids=[""] * len(rows),
                labels=[ALL_LABELS[c] for c in labels],
            )
        except DimensionMismatch as exc:
            raise ValueError(f"a kNN row holds a column outside [0, {dim})") from exc
        return cls(matrix, labels, k=int(payload["k"]))


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> KNearestNeighborsLearner:
    return KNearestNeighborsLearner(matrix, y, k=int(params["k"]))
