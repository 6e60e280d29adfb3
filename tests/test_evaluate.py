"""Splits, confusion-matrix metrics, and report artifacts."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from apigram.errors import ClassTooSmall, DimensionMismatch, EmptyTestSet, IoFailure
from apigram.evaluate import (
    ClassMetrics,
    EvalReport,
    SplitSpec,
    emit_report,
    evaluate,
    metrics_from_confusion,
    stratified_split,
    write_confusion,
    write_confusion_svg,
    write_metrics,
)
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.models import ModelKind, train
from apigram.vectorize import FeatureMatrix


def _labels(counts):
    """Label sequence with the given per-class sizes, interleaved."""
    pools = [[label] * n for label, n in counts.items()]
    out = []
    while any(pools):
        for pool in pools:
            if pool:
                out.append(pool.pop())
    return out


def _embed(block, classes):
    """Place a small confusion block into the 8x8 layout."""
    matrix = [[0] * 8 for _ in range(8)]
    for bi, truth in enumerate(classes):
        for bj, predicted in enumerate(classes):
            matrix[truth.ordinal][predicted.ordinal] = block[bi][bj]
    return matrix


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_sends_eight_of_ten_to_train():
    labels = [ClassLabel.TROJAN] * 10 + [ClassLabel.BENIGN] * 10
    train_idx, test_idx = stratified_split(labels, SplitSpec(train_ratio=0.8, seed=1))
    for label in (ClassLabel.TROJAN, ClassLabel.BENIGN):
        members = {i for i, item in enumerate(labels) if item is label}
        assert len(members & set(train_idx)) == 8
        assert len(members & set(test_idx)) == 2


def test_split_of_a_large_class_rounds_half_up():
    labels = [ClassLabel.TROJAN] * 3568 + [ClassLabel.BENIGN] * 2
    train_idx, test_idx = stratified_split(labels, SplitSpec(train_ratio=0.8, seed=0))
    trojans = set(range(3568))
    assert len(trojans & set(train_idx)) == 2854
    assert len(trojans & set(test_idx)) == 714


def test_split_rejects_a_single_member_class():
    labels = [ClassLabel.TROJAN] * 4 + [ClassLabel.BENIGN]
    with pytest.raises(ClassTooSmall):
        stratified_split(labels, SplitSpec())


def test_split_skips_absent_classes():
    labels = [ClassLabel.TROJAN] * 5 + [ClassLabel.BENIGN] * 5
    train_idx, test_idx = stratified_split(labels, SplitSpec(seed=3))
    assert len(train_idx) + len(test_idx) == 10


def test_split_partitions_exactly_and_deterministically():
    rng = np.random.default_rng(191)
    for trial in range(20):
        sizes = {label: int(rng.integers(2, 30)) for label in ALL_LABELS}
        labels = _labels(sizes)
        spec = SplitSpec(train_ratio=float(rng.uniform(0.4, 0.9)), seed=trial)
        train_idx, test_idx = stratified_split(labels, spec)
        assert sorted(train_idx + test_idx) == list(range(len(labels)))
        assert not set(train_idx) & set(test_idx)
        assert train_idx == sorted(train_idx)
        for label, size in sizes.items():
            members = {i for i, item in enumerate(labels) if item is label}
            expected = math.floor(spec.train_ratio * size + 0.5)
            assert len(members & set(train_idx)) == expected
        again = stratified_split(labels, spec)
        assert again == (train_idx, test_idx)


def test_split_seed_changes_the_assignment():
    labels = _labels({label: 20 for label in ALL_LABELS})
    first, _ = stratified_split(labels, SplitSpec(seed=1))
    second, _ = stratified_split(labels, SplitSpec(seed=2))
    assert first != second


def test_unstratified_split_uses_the_global_count():
    labels = [ClassLabel.TROJAN] * 9 + [ClassLabel.BENIGN]
    train_idx, test_idx = stratified_split(
        labels, SplitSpec(train_ratio=0.8, stratified=False, seed=5)
    )
    assert len(train_idx) == 8
    assert len(test_idx) == 2
    assert sorted(train_idx + test_idx) == list(range(10))


def test_split_spec_validates_the_ratio():
    with pytest.raises(DimensionMismatch):
        SplitSpec(train_ratio=0.0)
    with pytest.raises(DimensionMismatch):
        SplitSpec(train_ratio=1.0)


# ---------------------------------------------------------------------------
# Metrics from a confusion matrix
# ---------------------------------------------------------------------------

def test_perfect_predictions_score_one_everywhere():
    matrix = [[0] * 8 for _ in range(8)]
    for c in range(8):
        matrix[c][c] = 5
    report = metrics_from_confusion(matrix)
    assert report.accuracy == 1.0
    assert report.macro == ClassMetrics(precision=1.0, recall=1.0, f1=1.0)
    assert report.support == (5,) * 8


def test_constant_benign_predictor_on_a_balanced_corpus():
    matrix = [[0] * 8 for _ in range(8)]
    for c in range(8):
        matrix[c][ClassLabel.BENIGN.ordinal] = 4
    report = metrics_from_confusion(matrix)
    assert report.accuracy == pytest.approx(0.125, abs=1e-12)
    benign = report.per_class[ClassLabel.BENIGN.ordinal]
    assert benign.recall == 1.0
    assert benign.precision == pytest.approx(0.125, abs=1e-12)


def test_two_class_block_metrics():
    block = [[8, 2], [1, 9]]
    matrix = _embed(block, [ClassLabel.TROJAN, ClassLabel.BENIGN])
    report = metrics_from_confusion(matrix)
    assert report.accuracy == pytest.approx(0.85, abs=1e-12)
    trojan = report.per_class[ClassLabel.TROJAN.ordinal]
    assert trojan.precision == pytest.approx(8 / 9, abs=1e-12)
    assert trojan.recall == pytest.approx(0.8, abs=1e-12)
    expected_f1 = 2 * (8 / 9) * 0.8 / (8 / 9 + 0.8)
    assert trojan.f1 == pytest.approx(expected_f1, abs=1e-12)
    assert report.support[ClassLabel.TROJAN.ordinal] == 10


def test_macro_metrics_average_all_eight_classes():
    block = [[8, 2], [1, 9]]
    matrix = _embed(block, [ClassLabel.TROJAN, ClassLabel.BENIGN])
    report = metrics_from_confusion(matrix, average="macro")
    per = report.per_class
    assert report.macro.f1 == pytest.approx(sum(m.f1 for m in per) / 8, abs=1e-12)


def test_weighted_metrics_ignore_empty_classes():
    block = [[8, 2], [1, 9]]
    matrix = _embed(block, [ClassLabel.TROJAN, ClassLabel.BENIGN])
    report = metrics_from_confusion(matrix, average="weighted")
    trojan = report.per_class[ClassLabel.TROJAN.ordinal]
    benign = report.per_class[ClassLabel.BENIGN.ordinal]
    assert report.macro.f1 == pytest.approx(
        (trojan.f1 * 10 + benign.f1 * 10) / 20, abs=1e-12
    )
    assert report.macro.recall == pytest.approx(report.accuracy, abs=1e-12)


def test_unknown_averaging_mode_is_rejected():
    matrix = _embed([[1, 0], [0, 1]], [ClassLabel.TROJAN, ClassLabel.BENIGN])
    with pytest.raises(DimensionMismatch):
        metrics_from_confusion(matrix, average="median")


def test_confusion_shape_and_emptiness_are_validated():
    with pytest.raises(DimensionMismatch):
        metrics_from_confusion([[1]])
    with pytest.raises(EmptyTestSet):
        metrics_from_confusion([[0] * 8 for _ in range(8)])


def test_metric_identities_hold_on_random_confusions():
    rng = np.random.default_rng(193)
    for _ in range(200):
        matrix = rng.integers(0, 20, size=(8, 8)).tolist()
        if sum(map(sum, matrix)) == 0:
            matrix[0][0] = 1
        report = metrics_from_confusion(matrix)
        total = sum(map(sum, matrix))
        trace = sum(matrix[c][c] for c in range(8))
        assert report.accuracy == pytest.approx(trace / total, abs=1e-12)
        assert report.support == tuple(sum(row) for row in matrix)
        f1_values = [m.f1 for m in report.per_class]
        assert min(f1_values) - 1e-12 <= report.macro.f1 <= max(f1_values) + 1e-12
        for m in report.per_class:
            if m.precision + m.recall > 0:
                expected = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert m.f1 == pytest.approx(expected, abs=1e-12)
            else:
                assert m.f1 == 0.0


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------

def _toy_model_and_test():
    dense = [[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4
    labels = [ClassLabel.TROJAN] * 4 + [ClassLabel.BENIGN] * 4
    matrix = FeatureMatrix.from_rows(
        rows=tuple({j: v for j, v in enumerate(r) if v} for r in dense),
        n_cols=2,
        sample_ids=tuple(f"s{i}" for i in range(8)),
        labels=tuple(labels),
    )
    model = train(ModelKind.DECISION_TREE, matrix)
    return model, matrix


def test_evaluate_counts_true_versus_predicted():
    model, matrix = _toy_model_and_test()
    report = evaluate(model, matrix)
    assert report.accuracy == 1.0
    assert report.confusion[ClassLabel.TROJAN.ordinal][ClassLabel.TROJAN.ordinal] == 4
    assert report.confusion[ClassLabel.BENIGN.ordinal][ClassLabel.BENIGN.ordinal] == 4


def test_evaluate_rejects_an_empty_test_set():
    model, _ = _toy_model_and_test()
    empty = FeatureMatrix.from_rows(rows=(), n_cols=2, sample_ids=(), labels=())
    with pytest.raises(EmptyTestSet):
        evaluate(model, empty)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_metrics_row_formats_percentages_with_two_decimals(tmp_path):
    report = EvalReport(
        confusion=tuple((0,) * 8 for _ in range(8)),
        accuracy=0.9902,
        per_class=(ClassMetrics(0.0, 0.0, 0.0),) * 8,
        macro=ClassMetrics(precision=0.9804, recall=0.9774, f1=0.9835),
        support=(0,) * 8,
    )
    path = tmp_path / "metrics.csv"
    write_metrics(path, "XGBoost", report)
    assert path.read_text() == (
        "classifier,accuracy,f1,recall,precision\nXGBoost,99.02,98.35,97.74,98.04\n"
    )


def test_confusion_csv_round_trip_and_self_consistency(tmp_path):
    rng = np.random.default_rng(197)
    matrix = rng.integers(0, 30, size=(8, 8)).tolist()
    report = metrics_from_confusion(matrix)
    path = tmp_path / "confusion.csv"
    write_confusion(path, report)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["Adware", "Backdoor", "Downloader", "Spyware", "Trojan", "Worm", "Virus", "Benign"]
    recovered = tuple(tuple(int(v) for v in row) for row in rows)
    assert recovered == report.confusion
    derived = metrics_from_confusion(recovered)
    assert derived.accuracy == pytest.approx(report.accuracy, abs=1e-9)
    assert derived.macro.f1 == pytest.approx(report.macro.f1, abs=1e-9)
    assert derived.macro.precision == pytest.approx(report.macro.precision, abs=1e-9)
    assert derived.macro.recall == pytest.approx(report.macro.recall, abs=1e-9)


def test_svg_has_exactly_64_cells_and_16_axis_labels(tmp_path):
    rng = np.random.default_rng(199)
    matrix = rng.integers(0, 30, size=(8, 8))
    matrix[3, 3] = 100
    report = metrics_from_confusion(matrix.tolist())
    path = tmp_path / "confusion.svg"
    write_confusion_svg(path, report)
    text = path.read_text()
    assert text.count("<rect") == 64
    assert text.count("<text") == 16
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    for label in ALL_LABELS:
        assert text.count(f">{label.value}</text>") == 2


def test_svg_peak_cell_gets_the_deepest_shade(tmp_path):
    matrix = [[0] * 8 for _ in range(8)]
    matrix[2][2] = 50
    matrix[4][4] = 10
    report = metrics_from_confusion(matrix)
    path = tmp_path / "confusion.svg"
    write_confusion_svg(path, report)
    rects = [line for line in path.read_text().splitlines() if "<rect" in line]
    assert len(rects) == 64
    peak = rects[2 * 8 + 2]
    lesser = rects[4 * 8 + 4]
    zero = rects[1]
    assert 'fill="#084081"' in peak
    assert 'fill="#ffffff"' in zero
    assert 'fill="#084081"' not in lesser and 'fill="#ffffff"' not in lesser


def test_emit_report_writes_all_three_artifacts(tmp_path):
    model, matrix = _toy_model_and_test()
    report = evaluate(model, matrix)
    paths = emit_report(
        report,
        "DecisionTree",
        tmp_path / "metrics.csv",
        tmp_path / "confusion.csv",
        tmp_path / "confusion.svg",
    )
    assert [p.name for p in paths] == ["metrics.csv", "confusion.csv", "confusion.svg"]
    for path in paths:
        assert path.exists() and path.stat().st_size > 0
    first_line, second_line = (tmp_path / "metrics.csv").read_text().splitlines()
    assert first_line == "classifier,accuracy,f1,recall,precision"
    # Only 2 of the 8 classes carry support, so the macro average is 2/8.
    assert second_line == "DecisionTree,100.00,25.00,25.00,25.00"


def test_emit_report_wraps_write_failures(tmp_path):
    model, matrix = _toy_model_and_test()
    report = evaluate(model, matrix)
    missing = tmp_path / "no-such-dir" / "metrics.csv"
    with pytest.raises(IoFailure):
        emit_report(report, "DecisionTree", missing, missing, missing)
