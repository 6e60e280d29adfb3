"""Linear SVM: one-vs-rest hinge loss trained by SGD.

Each class head runs the 1/(lambda*t) step-size schedule over seeded
per-epoch shuffles; the bias rides along as an augmented constant
feature. Prediction is the argmax margin; margin ties resolve to the
lower class ordinal. No probability output.

Training replays the steps in speculative blocks. Most steps put no head
under the hinge, and such a step only scales the weights by
``1 - lr * lambda``. So a block first writes the weights every step would
start from if no head hit, one multiply per step in step order, takes all
the block's margins with one stacked product (the same per-head ``ddot``
as ``w @ x``) and adopts the weights up to the first step where a head
hits; that step's hinge update is applied and the next block starts after
it. Weights computed for steps past the hit are thrown away, never reused.
So each weight goes through exactly the IEEE operations, in the same order,
of one SGD loop per head. Two faster-looking forms are not used: Pegasos'
scaled-vector form (``w = a * v``, one scalar multiply per step) rounds
differently, and ``np.multiply.accumulate`` over the decay chain gives the
same bits but costs more per element than one multiply call per step.
"""
from __future__ import annotations

import numpy as np

from ..labels import N_CLASSES
from ..vectorize import FeatureMatrix
from .base import LinearHeads

_GATHER_BYTES = 2 << 20
# Steps per speculative block at most. The steps computed past a hit are
# thrown away, so a long block wastes more than its per-block calls save:
# on a 3,200 x 116 matrix with a hit every ~100 steps, blocks of 16 to 64
# steps fit in half the time of blocks of 279.
_BLOCK_STEPS = 32


class LinearSvmLearner(LinearHeads):
    PAYLOAD_KEYS = ("weights", "bias")
    probabilistic = False

    def scores(self, X: np.ndarray) -> np.ndarray:
        margins = np.full((X.shape[0], N_CLASSES), -np.inf)
        margins[:, self.heads] = self.head_scores(X)
        return margins


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
    step = np.empty((len(heads), v + 1), dtype=np.float64)
    # The rows of a run of steps are gathered with one fancy index, in a
    # buffer of about _GATHER_BYTES; a very wide matrix gathers per step.
    gather = max(1, _GATHER_BYTES // step.nbytes)
    # Ws[k] holds the weights step k of a block starts from if no earlier
    # step of the block hit; Ws[0], aliased as W, holds the current weights.
    # (depth + 1) * W.nbytes stays within _GATHER_BYTES unless W takes more than half.
    depth = max(1, min(_BLOCK_STEPS, gather - 1))
    Ws = np.zeros((depth + 1, *step.shape), dtype=np.float64)
    W = Ws[0]
    dots = np.empty((depth, len(heads), 1, 1))
    hits = np.empty((depth, len(heads), 1), dtype=bool)
    flat_hits = hits.reshape(-1)
    t = 0
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs], axis=1)
        sign = signs[np.arange(len(heads)), order][:, :, np.newaxis]
        for start in range(0, n, gather):
            rows = Xa[order[start:start + gather]]
            row_signs = sign[start:start + gather]
            # Each step's factor ``1 - lr * lambda``, lr = 1 / (lambda * t): the same
            # float operations as a lone loop's, element by element.
            decay = (1.0 - (1.0 / (lam * np.arange(t + 1, t + len(rows) + 1))) * lam).tolist()
            p = 0
            while p < len(rows):
                m = min(depth, len(rows) - p)
                for before, after, factor in zip(Ws, Ws[1:m + 1], decay[p:p + m]):
                    np.multiply(before, factor, out=after)
                # Stacked vector-vector products: the same ddot as ``w @ x`` per head.
                np.matmul(Ws[:m, :, np.newaxis, :], rows[p:p + m, :, :, np.newaxis], out=dots[:m])
                np.less(row_signs[p:p + m] * dots[:m, :, 0], 1.0, out=hits[:m])
                first = int(flat_hits[:m * len(heads)].argmax())
                hit = bool(flat_hits[first])
                taken = first // len(heads) + 1 if hit else m
                W[...] = Ws[taken]
                p += taken
                if hit:
                    lr = 1.0 / (lam * (t + p))
                    np.multiply(lr * row_signs[p - 1], rows[p - 1], out=step)
                    np.add(W, step, out=W, where=hits[taken - 1])
            t += len(rows)
    return LinearSvmLearner(heads, W=W[:, :v], b=W[:, v])
