"""Acceptance gate: six end-to-end criteria, one pass/fail line each.

Criterion summary (each test prints its own verdict line):
  1. hand-checked TF-IDF worked example within 1e-4, under 1 second
  2. sparse TF-IDF, MI, and Pearson match brute-force oracles, under 30 s
  3. all six classifiers clear their accuracy bars on the desk corpus
  4. selection keeps at most 1.6% of features at no more than a
     2-point accuracy cost for the random forest
  5. six cross-module invariants hold for 200+ randomized cases each
  6. two identical pipeline runs emit byte-identical artifacts
"""
from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from apigram.cli import main
from apigram.evaluate import SplitSpec, metrics_from_confusion, stratified_split
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.models import (
    HyperParams,
    ModelKind,
    load_model,
    predict,
    predict_proba,
    save_model,
    train,
)
from apigram.select import _pearson, mutual_information_all
from apigram.tokens import TokenDocument, build_vocabulary
from apigram.vectorize import FeatureMatrix, idf, tf, tfidf_matrix

SEED = 1


@contextlib.contextmanager
def _criterion(capsys, number, title, budget_seconds, carried_seconds=0.0):
    """Time a criterion body, enforce its budget, print one verdict line."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start + carried_seconds
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
        )
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({title}): PASS in {elapsed:.1f}s")


def _doc(sample_id, counts, label=ClassLabel.BENIGN):
    return TokenDocument(sample_id, label, dict(counts), sum(counts.values()))


def _matrix(dense, labels):
    dense = np.asarray(dense, dtype=float)
    rows = tuple({j: float(v) for j, v in enumerate(r) if v != 0.0} for r in dense)
    return FeatureMatrix.from_rows(
        rows=rows,
        n_cols=dense.shape[1],
        sample_ids=tuple(f"s{i}" for i in range(dense.shape[0])),
        labels=tuple(labels),
    )


def _accuracy_of(workdir) -> float:
    row = (workdir / "metrics.csv").read_text().splitlines()[1].split(",")
    return float(row[1])


def _stage_args(workdir):
    return ("--scale", "desk", "--workdir", str(workdir), "--seed", str(SEED))


@dataclass
class DeskRun:
    workdir: object
    setup_seconds: float


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Desk-scale corpus taken through synth/ingest/featurize/select once."""
    workdir = tmp_path_factory.mktemp("desk")
    start = time.perf_counter()
    for command in ("synth", "ingest", "featurize", "select"):
        assert main([command, *_stage_args(workdir)]) == 0, command
    return DeskRun(workdir=workdir, setup_seconds=time.perf_counter() - start)


def _train_and_score(workdir, model_name) -> float:
    args = _stage_args(workdir)
    assert main(["train", *args, "--model", model_name]) == 0
    assert main(["evaluate", *args]) == 0
    return _accuracy_of(workdir)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example fidelity (< 1 s)
# ---------------------------------------------------------------------------

def test_criterion_1_worked_example(capsys):
    with _criterion(capsys, 1, "worked example", budget_seconds=1.0):
        doc_a = _doc("A", {"sample": 1, "text": 1, "document": 2, "here": 1})
        doc_b = _doc("B", {"another": 1, "text": 1, "document": 2, "here": 1})
        assert tf(1, 5) == pytest.approx(0.2000, abs=1e-4)
        assert idf(1, 2) == pytest.approx(0.30103, abs=1e-4)
        vocabulary = build_vocabulary([doc_a, doc_b])
        matrix = tfidf_matrix([doc_a, doc_b], vocabulary)
        coordinate = matrix.to_dense()[0, vocabulary.index_of("sample")]
        assert coordinate == pytest.approx(0.0602, abs=1e-4)


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence (< 30 s)
# ---------------------------------------------------------------------------

def _dense_tfidf_oracle(docs, vocabulary):
    dense = np.zeros((len(docs), len(vocabulary)))
    for i, doc in enumerate(docs):
        total = sum(doc.counts.values())
        for j, term in enumerate(vocabulary.terms):
            count = doc.counts.get(term, 0)
            if count and total:
                dense[i, j] = (count / total) * math.log10(
                    vocabulary.n_docs / vocabulary.df[j]
                )
    return dense


def _mi_oracle(matrix):
    n = matrix.n_rows
    dense = matrix.to_dense()
    out = []
    for j in range(matrix.n_cols):
        terms = []
        for present in (True, False):
            for label in ALL_LABELS:
                joint = sum(
                    1
                    for i in range(n)
                    if (dense[i, j] != 0.0) == present
                    and matrix.labels[i] is label
                ) / n
                p_x = sum(
                    1
                    for i in range(n)
                    if (dense[i, j] != 0.0) == present
                ) / n
                p_y = sum(1 for i in range(n) if matrix.labels[i] is label) / n
                if joint > 0.0:
                    terms.append(joint * math.log(joint / (p_x * p_y)))
        out.append(max(math.fsum(terms), 0.0))
    return np.array(out)


def test_criterion_2_oracle_equivalence(capsys):
    with _criterion(capsys, 2, "oracle equivalence", budget_seconds=30.0):
        rng = np.random.default_rng(211)
        for _ in range(50):
            n_docs = int(rng.integers(2, 21))
            n_terms = int(rng.integers(2, 51))
            terms = [f"t{j:03d}" for j in range(n_terms)]
            docs = []
            for i in range(n_docs):
                present = rng.random(n_terms) < rng.uniform(0.1, 0.6)
                if not present.any():
                    present[int(rng.integers(0, n_terms))] = True
                counts = {
                    terms[j]: int(rng.integers(1, 6)) for j in np.flatnonzero(present)
                }
                docs.append(_doc(f"d{i}", counts, ALL_LABELS[i % 8]))
            vocabulary = build_vocabulary(docs)
            matrix = tfidf_matrix(docs, vocabulary)
            gap = np.abs(matrix.to_dense() - _dense_tfidf_oracle(docs, vocabulary))
            assert np.max(gap) <= 1e-12

        for _ in range(50):
            n = int(rng.integers(5, 61))
            v = int(rng.integers(1, 13))
            dense = (rng.random((n, v)) < rng.uniform(0.2, 0.7)).astype(float)
            labels = [ALL_LABELS[int(rng.integers(0, 8))] for _ in range(n)]
            matrix = _matrix(dense, labels)
            assert np.max(
                np.abs(mutual_information_all(matrix) - _mi_oracle(matrix))
            ) <= 1e-10

        for _ in range(50):
            n = int(rng.integers(3, 61))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + rng.uniform(-1, 1) * x
            expected = float(np.corrcoef(x, y)[0, 1])
            assert abs(_pearson(x, y) - expected) <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 3: end-to-end separable corpus (< 5 min)
# ---------------------------------------------------------------------------

def test_criterion_3_classifier_accuracy_bars(desk, capsys):
    bars = [
        ("random_forest", 95.0),
        ("gbt", 95.0),
        ("decision_tree", 90.0),
        ("svm", 90.0),
        ("naive_bayes", 80.0),
        ("knn", 80.0),
    ]
    with _criterion(
        capsys,
        3,
        "classifier accuracy bars",
        budget_seconds=300.0,
        carried_seconds=desk.setup_seconds,
    ):
        scored = []
        for model_name, bar in bars:
            accuracy = _train_and_score(desk.workdir, model_name)
            scored.append((model_name, accuracy, bar))
        for model_name, accuracy, bar in scored:
            assert accuracy >= bar, f"{model_name}: {accuracy:.2f}% < {bar}%"
    with capsys.disabled():
        for model_name, accuracy, bar in scored:
            print(f"  {model_name}: {accuracy:.2f}% (bar {bar}%)")


# ---------------------------------------------------------------------------
# Criterion 4: selection efficacy (< 5 min)
# ---------------------------------------------------------------------------

def test_criterion_4_selection_efficacy(desk, capsys, tmp_path):
    with _criterion(
        capsys,
        4,
        "selection efficacy",
        budget_seconds=300.0,
        carried_seconds=desk.setup_seconds,
    ):
        kept = len((desk.workdir / "selection_mask.csv").read_text().splitlines()) - 1
        vocab_lines = (desk.workdir / "vocab_1.csv").read_text().splitlines()
        vocabulary_size = len(vocab_lines) - 2
        ratio = kept / vocabulary_size
        assert ratio <= 0.016, f"kept {kept}/{vocabulary_size} = {100 * ratio:.3f}%"

        refined = _train_and_score(desk.workdir, "random_forest")
        full_workdir = tmp_path / "full"
        assert (
            main(
                [
                    "pipeline",
                    "--scale",
                    "desk",
                    "--workdir",
                    str(full_workdir),
                    "--seed",
                    str(SEED),
                    "--model",
                    "random_forest",
                    "--no-selection",
                ]
            )
            == 0
        )
        full = _accuracy_of(full_workdir)
        assert abs(refined - full) <= 2.0, f"refined {refined} vs full {full}"
    with capsys.disabled():
        print(
            f"  kept {kept}/{vocabulary_size} features "
            f"({100 * ratio:.2f}%), refined {refined:.2f}% vs full {full:.2f}%"
        )


# ---------------------------------------------------------------------------
# Criterion 5: invariant suites, 200+ cases each (< 2 min)
# ---------------------------------------------------------------------------

def _random_split_case(rng, case):
    sizes = {label: int(rng.integers(2, 25)) for label in ALL_LABELS}
    labels = [label for label in ALL_LABELS for _ in range(sizes[label])]
    spec = SplitSpec(train_ratio=float(rng.uniform(0.3, 0.9)), seed=case)
    train_idx, test_idx = stratified_split(labels, spec)
    assert sorted(train_idx + test_idx) == list(range(len(labels)))
    assert not set(train_idx) & set(test_idx)
    for label, size in sizes.items():
        members = {i for i, item in enumerate(labels) if item is label}
        expected = math.floor(spec.train_ratio * size + 0.5)
        assert len(members & set(train_idx)) == expected


def _random_l2_case(rng):
    n_docs = int(rng.integers(2, 10))
    terms = [f"t{j}" for j in range(int(rng.integers(2, 15)))]
    docs = []
    for i in range(n_docs):
        counts = {
            t: int(rng.integers(1, 5)) for t in terms if rng.random() < 0.5
        } or {terms[0]: 1}
        docs.append(_doc(f"d{i}", counts, ALL_LABELS[i % 8]))
    matrix = tfidf_matrix(docs, build_vocabulary(docs), l2=True)
    for row in matrix.to_dense():
        if row.any():
            norm = math.sqrt(math.fsum(w * w for w in row))
            assert norm == pytest.approx(1.0, abs=1e-9)


def _random_confusion_case(rng):
    confusion = rng.integers(0, 25, size=(8, 8)).tolist()
    if sum(map(sum, confusion)) == 0:
        confusion[0][0] = 1
    report = metrics_from_confusion(confusion)
    total = sum(map(sum, confusion))
    trace = sum(confusion[c][c] for c in range(8))
    assert report.accuracy == pytest.approx(trace / total, abs=1e-12)
    assert report.support == tuple(sum(row) for row in confusion)
    for m in report.per_class:
        if m.precision + m.recall > 0:
            harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(harmonic, abs=1e-12)


def _random_training_data(rng, min_classes=2):
    n = int(rng.integers(8, 20))
    v = int(rng.integers(2, 6))
    dense = np.abs(rng.normal(size=(n, v))) * (rng.random((n, v)) < 0.7)
    classes = rng.choice(8, size=int(rng.integers(min_classes, 4)), replace=False)
    labels = [ALL_LABELS[int(classes[i % len(classes)])] for i in range(n)]
    return _matrix(dense, labels)


def _random_gbt_case(rng, case):
    matrix = _random_training_data(rng)
    model = train(
        ModelKind.GRADIENT_BOOSTED_TREES,
        matrix,
        params=HyperParams(
            seed=case,
            values={
                "n_rounds": int(rng.integers(2, 6)),
                "learning_rate": float(rng.uniform(0.05, 0.3)),
                "max_depth": int(rng.integers(2, 5)),
            },
        ),
    )
    losses = model.learner.train_loss
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def _random_forest_equals_tree_case(rng, case):
    matrix = _random_training_data(rng)
    tree = train(ModelKind.DECISION_TREE, matrix)
    forest = train(
        ModelKind.RANDOM_FOREST,
        matrix,
        params=HyperParams(
            seed=case,
            values={"n_trees": 1, "bootstrap": False, "max_features": "all"},
        ),
    )
    assert forest.learner.trees[0] == tree.learner.nodes


_ROUND_TRIP_PARAMS = {
    ModelKind.DECISION_TREE: {},
    ModelKind.RANDOM_FOREST: {"n_trees": 3},
    ModelKind.GRADIENT_BOOSTED_TREES: {"n_rounds": 2},
    ModelKind.K_NEAREST_NEIGHBORS: {"k": 3},
    ModelKind.MULTINOMIAL_NAIVE_BAYES: {},
    ModelKind.LINEAR_SVM: {"epochs": 3},
}


def _random_round_trip_case(rng, case, tmp_path):
    kind = list(ModelKind)[case % len(ModelKind)]
    matrix = _random_training_data(rng)
    model = train(
        kind, matrix, params=HyperParams(seed=case, values=_ROUND_TRIP_PARAMS[kind])
    )
    path = tmp_path / "round-trip.json"
    save_model(model, path)
    loaded = load_model(path)
    queries = [
        {int(j): float(abs(rng.normal())) for j in range(matrix.n_cols)}
        for _ in range(4)
    ]
    for row in queries:
        assert predict(loaded, row) is predict(model, row)
        if kind is not ModelKind.LINEAR_SVM:
            assert (
                predict_proba(loaded, row).probabilities
                == predict_proba(model, row).probabilities
            )


def test_criterion_5_invariant_suites(capsys, tmp_path):
    with _criterion(capsys, 5, "invariant suites", budget_seconds=120.0):
        rng = np.random.default_rng(223)
        for case in range(200):
            _random_split_case(rng, case)
        for _ in range(200):
            _random_l2_case(rng)
        for _ in range(200):
            _random_confusion_case(rng)
        for case in range(200):
            _random_gbt_case(rng, case)
        for case in range(200):
            _random_forest_equals_tree_case(rng, case)
        for case in range(200):
            _random_round_trip_case(rng, case, tmp_path)


# ---------------------------------------------------------------------------
# Criterion 6: determinism
# ---------------------------------------------------------------------------

def test_criterion_6_determinism(capsys, tmp_path):
    with _criterion(capsys, 6, "determinism", budget_seconds=600.0):
        runs = []
        for name in ("one", "two"):
            workdir = tmp_path / name
            assert (
                main(
                    [
                        "pipeline",
                        "--scale",
                        "desk",
                        "--workdir",
                        str(workdir),
                        "--seed",
                        str(SEED),
                    ]
                )
                == 0
            )
            runs.append(workdir)
        first, second = runs
        for name in (
            "metrics.csv",
            "confusion.csv",
            "selection_mask.csv",
            "selection_report.csv",
            "model.json",
            "confusion.svg",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
