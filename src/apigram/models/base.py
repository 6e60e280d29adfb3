"""Shared learner plumbing: kinds, hyperparameters, dispatch, persistence.

Every learner trains on a sparse FeatureMatrix plus aligned labels and
predicts over the fixed 8-class roster through one method: ``scores(X)``
maps a dense (n, dim) array to (n, 8) class scores in ordinal order.
``predict`` and ``predict_matrix`` take each row's argmax, ties going to
the lowest ordinal. ``predict_proba`` divides the row by its sum, so only
``probabilistic`` learners offer it: every kind but the linear SVM, whose
margins may be negative. Classes absent from the training data score zero
(the SVM: minus infinity). Model files are JSON with a versioned header;
the recorded seed plus the training-data order (a fingerprint of the
ordered sample ids) pin down stochastic learners.
"""
from __future__ import annotations

import enum
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import (
    ConfigError,
    CorruptModel,
    DegenerateData,
    DimensionMismatch,
    NonFiniteInput,
    Unsupported,
    VersionMismatch,
)
from ..labels import ALL_LABELS, ClassLabel, N_CLASSES
from ..tables import write_text
from ..vectorize import FeatureMatrix

FORMAT_VERSION = 1


class ModelKind(enum.Enum):
    DECISION_TREE = "DecisionTree"
    RANDOM_FOREST = "RandomForest"
    GRADIENT_BOOSTED_TREES = "GradientBoostedTrees"
    K_NEAREST_NEIGHBORS = "KNearestNeighbors"
    MULTINOMIAL_NAIVE_BAYES = "MultinomialNaiveBayes"
    LINEAR_SVM = "LinearSVM"

    @staticmethod
    def from_name(name: str) -> "ModelKind":
        for kind in ModelKind:
            if kind.value == name:
                return kind
        aliases = {
            "decision_tree": ModelKind.DECISION_TREE,
            "random_forest": ModelKind.RANDOM_FOREST,
            "gradient_boosted_trees": ModelKind.GRADIENT_BOOSTED_TREES,
            "gbt": ModelKind.GRADIENT_BOOSTED_TREES,
            "knn": ModelKind.K_NEAREST_NEIGHBORS,
            "k_nearest_neighbors": ModelKind.K_NEAREST_NEIGHBORS,
            "naive_bayes": ModelKind.MULTINOMIAL_NAIVE_BAYES,
            "nb": ModelKind.MULTINOMIAL_NAIVE_BAYES,
            "linear_svm": ModelKind.LINEAR_SVM,
            "svm": ModelKind.LINEAR_SVM,
        }
        key = name.strip().lower()
        if key in aliases:
            return aliases[key]
        raise ConfigError(f"unknown model kind {name!r}")


# Documented defaults per kind; every value is overridable and the
# resolved set is recorded into the model file.
DEFAULT_PARAMS: dict[ModelKind, dict[str, object]] = {
    ModelKind.DECISION_TREE: {"max_depth": 0, "min_samples_leaf": 1},
    ModelKind.RANDOM_FOREST: {
        "n_trees": 100,
        "bootstrap": True,
        "max_features": "sqrt",
        "max_depth": 0,
        "min_samples_leaf": 1,
    },
    ModelKind.GRADIENT_BOOSTED_TREES: {
        "n_rounds": 200,
        "learning_rate": 0.1,
        "max_depth": 6,
        "min_samples_leaf": 1,
        "reg_lambda": 1.0,
    },
    ModelKind.K_NEAREST_NEIGHBORS: {"k": 5},
    ModelKind.MULTINOMIAL_NAIVE_BAYES: {"alpha": 1.0},
    ModelKind.LINEAR_SVM: {"reg_lambda": 1e-4, "epochs": 50},
}


@dataclass(frozen=True)
class HyperParams:
    """Per-kind settings plus the training seed."""

    seed: int = 0
    values: dict[str, object] = field(default_factory=dict)

    def resolve(self, kind: ModelKind) -> dict[str, object]:
        """Merge with the kind's defaults, rejecting unknown keys and
        out-of-range values."""
        defaults = DEFAULT_PARAMS[kind]
        unknown = set(self.values) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown {kind.value} settings: {sorted(unknown)}")
        merged = dict(defaults)
        merged.update(self.values)
        _validate_params(kind, merged)
        return merged


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate_params(kind: ModelKind, p: dict[str, object]) -> None:
    def integer(key: str, low: int, note: str = "") -> None:
        _require(_is_int(p[key]) and p[key] >= low, f"{key} must be an integer >= {low}{note}")

    def real(key: str, in_range, bounds: str) -> None:
        v = p[key]
        ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        _require(ok and in_range(v), f"{key} must be a number {bounds}")

    if kind in (ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST,
                ModelKind.GRADIENT_BOOSTED_TREES):
        integer("max_depth", 0, " (0 = unlimited)")
        integer("min_samples_leaf", 1)
    if kind is ModelKind.RANDOM_FOREST:
        integer("n_trees", 1)
        mf = p["max_features"]
        _require(
            mf in ("sqrt", "all") or (_is_int(mf) and mf >= 1),
            "max_features must be 'sqrt', 'all', or a positive integer",
        )
        _require(isinstance(p["bootstrap"], bool), "bootstrap must be true or false")
    if kind is ModelKind.GRADIENT_BOOSTED_TREES:
        integer("n_rounds", 1)
        real("learning_rate", lambda v: 0.0 < v <= 1.0, "in (0, 1]")
        real("reg_lambda", lambda v: v >= 0.0, ">= 0")
    if kind is ModelKind.K_NEAREST_NEIGHBORS:
        integer("k", 1)
    if kind is ModelKind.MULTINOMIAL_NAIVE_BAYES:
        real("alpha", lambda v: v > 0.0, "> 0")
    if kind is ModelKind.LINEAR_SVM:
        real("reg_lambda", lambda v: v > 0.0, "> 0")
        integer("epochs", 1)


@dataclass(frozen=True)
class ClassDistribution:
    """Probability vector over the 8 classes in ordinal order."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probabilities) != N_CLASSES:
            raise DimensionMismatch(f"distribution must have {N_CLASSES} entries")
        if any(p < 0.0 for p in self.probabilities):
            raise DimensionMismatch("probabilities must be nonnegative")
        if abs(math.fsum(self.probabilities) - 1.0) > 1e-9:
            raise DimensionMismatch("probabilities must sum to 1")

    def argmax(self) -> ClassLabel:
        best = max(range(N_CLASSES), key=lambda c: (self.probabilities[c], -c))
        return ALL_LABELS[best]


class Learner:
    """Interface of every learner; the module docstring gives ``scores``."""

    probabilistic = True

    def scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_payload(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "Learner":
        raise NotImplementedError


def is_class_ordinal(value: object) -> bool:
    return _is_int(value) and 0 <= value < N_CLASSES


def check_heads(heads: list) -> None:
    """Reject loaded class heads unless they are two or more distinct class
    ordinals in ascending order, as ``fit`` lists the classes it saw."""
    if not (len(heads) >= 2 and all(map(is_class_ordinal, heads)) and heads == sorted(set(heads))):
        raise ValueError(
            f"heads {heads} are not two or more distinct ascending class ordinals in [0, {N_CLASSES})"
        )


class LinearHeads(Learner):
    """A learner that scores each class head as ``W @ x + b``.

    ``W`` holds one row of weights and ``b`` one bias per head. The model
    file keeps them under the two keys ``PAYLOAD_KEYS`` names.
    """

    PAYLOAD_KEYS: tuple[str, str]

    def __init__(self, heads: list[int], W: np.ndarray | list, b: np.ndarray | list):
        self.heads = heads
        self.W = np.array(W, dtype=np.float64)
        self.b = np.array(b, dtype=np.float64)

    def head_scores(self, X: np.ndarray) -> np.ndarray:
        """The (n, heads) array of ``W @ x + b`` for each row ``x`` of ``X``."""
        out = np.empty((X.shape[0], len(self.heads)), dtype=np.float64)
        # One mat-vec per row: a batched product may round differently.
        for r, x in enumerate(X):
            out[r] = self.W @ x + self.b
        return out

    def to_payload(self) -> dict:
        weights, bias = self.PAYLOAD_KEYS
        return {"heads": self.heads, weights: self.W.tolist(), bias: self.b.tolist()}

    @classmethod
    def from_payload(cls, payload: dict, dim: int) -> "LinearHeads":
        weights, bias = cls.PAYLOAD_KEYS
        learner = cls(list(payload["heads"]), payload[weights], payload[bias])
        heads, W, b = learner.heads, learner.W, learner.b
        check_heads(heads)
        if W.shape != (len(heads), dim) or b.shape != (len(heads),):
            raise ValueError(
                f"weights {W.shape} and bias {b.shape} do not fit {len(heads)} heads x {dim} columns"
            )
        return learner


@dataclass(frozen=True)
class TrainedModel:
    kind: ModelKind
    dim: int
    classes: tuple[ClassLabel, ...]
    hyperparams: dict[str, object]
    seed: int
    data_fingerprint: str
    learner: Learner


def _dense_row(row: dict[int, float] | list[float] | np.ndarray, dim: int) -> np.ndarray:
    if isinstance(row, dict):
        x = np.zeros(dim, dtype=np.float64)
        for j, w in row.items():
            if not isinstance(j, int) or j < 0 or j >= dim:
                raise DimensionMismatch(f"row index {j} outside [0, {dim})")
            x[j] = w
        return x
    x = np.asarray(row, dtype=np.float64)
    if x.shape != (dim,):
        raise DimensionMismatch(f"row has shape {x.shape}, expected ({dim},)")
    return x


def _data_fingerprint(matrix: FeatureMatrix) -> str:
    digest = hashlib.sha256()
    for sid in matrix.sample_ids:
        digest.update(sid.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _learner_kind(kind: ModelKind):
    """The kind's fit function and learner class."""
    from . import bayes, boosting, cart, forest, neighbors, svm

    return {
        ModelKind.DECISION_TREE: (cart.fit, cart.DecisionTreeLearner),
        ModelKind.RANDOM_FOREST: (forest.fit, forest.RandomForestLearner),
        ModelKind.GRADIENT_BOOSTED_TREES: (boosting.fit, boosting.GradientBoostedTreesLearner),
        ModelKind.K_NEAREST_NEIGHBORS: (neighbors.fit, neighbors.KNearestNeighborsLearner),
        ModelKind.MULTINOMIAL_NAIVE_BAYES: (bayes.fit, bayes.NaiveBayesLearner),
        ModelKind.LINEAR_SVM: (svm.fit, svm.LinearSvmLearner),
    }[kind]


def train(
    kind: ModelKind,
    matrix: FeatureMatrix,
    params: HyperParams | None = None,
) -> TrainedModel:
    """Fit one learner on ``matrix`` and its row labels; deterministic given
    the data order and seed."""
    if matrix.n_rows == 0 or matrix.n_cols == 0:
        raise DegenerateData("training needs at least one row and one feature")
    y = np.array([label.ordinal for label in matrix.labels], dtype=np.int64)
    if np.unique(y).size < 2:
        raise DegenerateData("training needs at least two distinct classes")
    bad = np.flatnonzero(~np.isfinite(matrix.data))
    if bad.size:
        i, j = matrix.entry_rows()[bad[0]], matrix.indices[bad[0]]
        raise NonFiniteInput(f"non-finite weight at row {i}, col {j}")

    params = params or HyperParams()
    resolved = params.resolve(kind)

    fit, _ = _learner_kind(kind)
    learner = fit(matrix, y, resolved, params.seed)
    return TrainedModel(
        kind=kind,
        dim=matrix.n_cols,
        classes=ALL_LABELS,
        hyperparams=resolved,
        seed=params.seed,
        data_fingerprint=_data_fingerprint(matrix),
        learner=learner,
    )


def _row_scores(model: TrainedModel, row) -> np.ndarray:
    return model.learner.scores(_dense_row(row, model.dim)[np.newaxis])[0]


def predict(model: TrainedModel, row: dict[int, float] | list[float] | np.ndarray) -> ClassLabel:
    return ALL_LABELS[int(np.argmax(_row_scores(model, row)))]


def predict_proba(model: TrainedModel, row) -> ClassDistribution:
    s = _row_scores(model, row)
    if not model.learner.probabilistic:
        raise Unsupported(f"{type(model.learner).__name__} does not emit probabilities")
    return ClassDistribution(probabilities=tuple(float(v) for v in s / s.sum()))


def predict_matrix(model: TrainedModel, matrix: FeatureMatrix) -> list[ClassLabel]:
    if matrix.n_cols != model.dim:
        raise DimensionMismatch(
            f"matrix has {matrix.n_cols} columns, model expects {model.dim}"
        )
    ordinals = np.argmax(model.learner.scores(matrix.to_dense()), axis=1)
    return [ALL_LABELS[int(o)] for o in ordinals]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: TrainedModel, path: str | Path) -> None:
    document = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind.value,
        "dim": model.dim,
        "classes": [label.value for label in model.classes],
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "data_fingerprint": model.data_fingerprint,
        "payload": model.learner.to_payload(),
    }
    write_text(path, [json.dumps(document, sort_keys=True, separators=(",", ":"))])


def load_model(path: str | Path) -> TrainedModel:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CorruptModel(f"model file {path} is not a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"model format {version!r}, expected {FORMAT_VERSION}")
    try:
        kind = ModelKind(document["kind"])
        dim = int(document["dim"])
        classes = tuple(ClassLabel.from_name(name) for name in document["classes"])
        if classes != ALL_LABELS:
            raise KeyError("class roster mismatch")
        payload = document["payload"]
        learner = _learner_kind(kind)[1].from_payload(payload, dim)
        # ``train`` records the resolved settings, and the payload repeats
        # some of them (kNN ``k``, GBT ``learning_rate``): both must match.
        hyperparams = dict(document["hyperparams"])
        if HyperParams(values=hyperparams).resolve(kind) != hyperparams:
            raise ValueError(f"hyperparams {hyperparams} are not a full {kind.value} set")
        differing = sorted(key for key in payload.keys() & hyperparams.keys()
                           if payload[key] != hyperparams[key])
        if differing:
            raise ValueError(f"payload settings {differing} differ from hyperparams")
        return TrainedModel(
            kind=kind,
            dim=dim,
            classes=classes,
            hyperparams=hyperparams,
            seed=int(document["seed"]),
            data_fingerprint=str(document.get("data_fingerprint", "")),
            learner=learner,
        )
    except (KeyError, ValueError, TypeError, IndexError, ConfigError) as exc:
        raise CorruptModel(f"model file {path} is malformed: {exc}") from exc
