"""Linear SVM: one-vs-rest hinge loss trained by SGD.

Each class head runs the 1/(lambda*t) step-size schedule over seeded
per-epoch shuffles; the bias rides along as an augmented constant
feature. Prediction is the argmax margin; margin ties resolve to the
lower class ordinal. No probability output.
"""
from __future__ import annotations

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import Learner, check_head_shapes, check_heads

_GATHER_BYTES = 2 << 20


class LinearSvmLearner(Learner):
    probabilistic = False

    def __init__(self, heads: list[int], weights: list[list[float]], bias: list[float]):
        self.heads = heads
        self.weights = weights
        self.bias = bias
        self._W = np.array(weights, dtype=np.float64)
        self._b = np.array(bias, dtype=np.float64)

    def scores(self, X: np.ndarray) -> np.ndarray:
        margins = np.full((X.shape[0], N_CLASSES), -np.inf)
        # One mat-vec per row: a batched product may round differently.
        for r, x in enumerate(X):
            margins[r, self.heads] = self._W @ x + self._b
        return margins

    def to_payload(self) -> dict:
        return {"heads": self.heads, "weights": self.weights, "bias": self.bias}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "LinearSvmLearner":
        learner = cls(
            heads=list(payload["heads"]),
            weights=payload["weights"],
            bias=list(payload["bias"]),
        )
        check_heads(learner.heads)
        check_head_shapes(learner._W, learner._b, len(learner.heads), dim)
        return learner


def fit(matrix: FeatureMatrix, y: np.ndarray, params: dict, seed: int) -> LinearSvmLearner:
    lam = float(params["reg_lambda"])
    epochs = int(params["epochs"])
    X = matrix.to_dense()
    n, v = X.shape
    Xa = np.concatenate([X, np.ones((n, 1))], axis=1)

    heads = sorted(int(c) for c in np.unique(y))
    # Step t has the same learning rate in every head; only the sample, drawn
    # from each head's own seeded permutation, differs. So the heads step in
    # lockstep, each doing exactly the float operations of a lone SGD loop.
    rngs = [np.random.default_rng([abs(seed), c]) for c in heads]
    signs = np.where(y == np.array(heads)[:, np.newaxis], 1.0, -1.0)
    W = np.zeros((len(heads), v + 1), dtype=np.float64)
    step = np.empty_like(W)
    dots = np.empty((len(heads), 1, 1), dtype=np.float64)
    hit = np.empty((len(heads), 1), dtype=bool)
    # The rows of a block of steps are gathered with one fancy index, in a
    # buffer of about _GATHER_BYTES; a very wide matrix gathers per step.
    block = max(1, _GATHER_BYTES // W.nbytes)
    t = 0
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs], axis=1)
        sign = signs[np.arange(len(heads)), order][:, :, np.newaxis]
        for start in range(0, n, block):
            stop = start + block
            for xg, s in zip(Xa[order[start:stop]], sign[start:stop]):
                t += 1
                lr = 1.0 / (lam * t)
                # Stacked vector-vector products: the same ddot as ``w @ x`` per head.
                np.matmul(W[:, np.newaxis, :], xg[:, :, np.newaxis], out=dots)
                np.less(s * dots[:, 0], 1.0, out=hit)
                W *= 1.0 - lr * lam
                if hit.any():
                    np.multiply(lr * s, xg, out=step)
                    np.add(W, step, out=W, where=hit)
    return LinearSvmLearner(heads=heads, weights=W[:, :v].tolist(), bias=W[:, v].tolist())
