"""Stratified splitting, confusion matrices, and the metric suite.

The split shuffles within each class under one seeded generator and
sends round(train_ratio * class_size) samples (half rounds up) to train.
Metrics are accuracy plus per-class and macro precision/recall/F1; the
CSV row reports percentages with two decimals, and the confusion matrix
is also rendered as a self-contained SVG heatmap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ClassTooSmall, DimensionMismatch, EmptyTestSet
from .labels import ALL_LABELS, ClassLabel, N_CLASSES
from .models import TrainedModel, predict_matrix
from .tables import csv_field, write_table, write_text
from .vectorize import FeatureMatrix


@dataclass(frozen=True)
class SplitSpec:
    train_ratio: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.train_ratio < 1.0:
            raise DimensionMismatch(
                f"train_ratio must be in (0, 1), got {self.train_ratio}"
            )


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def stratified_split(
    labels: Sequence[ClassLabel],
    spec: SplitSpec,
) -> tuple[list[int], list[int]]:
    """Disjoint, exhaustive (train, test) index lists, sorted ascending."""
    rng = np.random.default_rng(spec.seed)
    train: list[int] = []
    test: list[int] = []
    if not spec.stratified:
        perm = rng.permutation(len(labels))
        n_train = _round_half_up(spec.train_ratio * len(labels))
        train = sorted(int(i) for i in perm[:n_train])
        test = sorted(int(i) for i in perm[n_train:])
        return train, test
    for label in ALL_LABELS:
        members = [i for i, item in enumerate(labels) if item is label]
        if not members:
            continue
        if len(members) < 2:
            raise ClassTooSmall(f"class {label} has {len(members)} sample(s), needs >= 2")
        perm = rng.permutation(len(members))
        n_train = _round_half_up(spec.train_ratio * len(members))
        train.extend(members[i] for i in perm[:n_train])
        test.extend(members[i] for i in perm[n_train:])
    return sorted(train), sorted(test)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    confusion: tuple[tuple[int, ...], ...]
    accuracy: float
    per_class: tuple[ClassMetrics, ...]
    macro: ClassMetrics
    support: tuple[int, ...]


def metrics_from_confusion(
    confusion: Sequence[Sequence[int]],
    average: str = "macro",
) -> EvalReport:
    """Derive every metric from an 8x8 (true x predicted) count matrix.

    ``average`` picks how the summary precision/recall/F1 row is formed:
    unweighted over the 8 classes ("macro") or support-weighted
    ("weighted").
    """
    matrix = tuple(tuple(int(v) for v in row) for row in confusion)
    if len(matrix) != N_CLASSES or any(len(row) != N_CLASSES for row in matrix):
        raise DimensionMismatch("confusion matrix must be 8x8")
    total = sum(sum(row) for row in matrix)
    if total == 0:
        raise EmptyTestSet("confusion matrix counts no samples")
    correct = sum(matrix[c][c] for c in range(N_CLASSES))
    per_class = []
    for c in range(N_CLASSES):
        tp = matrix[c][c]
        fp = sum(matrix[r][c] for r in range(N_CLASSES)) - tp
        fn = sum(matrix[c]) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        per_class.append(ClassMetrics(precision=precision, recall=recall, f1=f1))
    support = tuple(sum(row) for row in matrix)
    if average == "weighted":
        macro = ClassMetrics(
            precision=sum(m.precision * s for m, s in zip(per_class, support)) / total,
            recall=sum(m.recall * s for m, s in zip(per_class, support)) / total,
            f1=sum(m.f1 * s for m, s in zip(per_class, support)) / total,
        )
    elif average == "macro":
        macro = ClassMetrics(
            precision=sum(m.precision for m in per_class) / N_CLASSES,
            recall=sum(m.recall for m in per_class) / N_CLASSES,
            f1=sum(m.f1 for m in per_class) / N_CLASSES,
        )
    else:
        raise DimensionMismatch(f"unknown averaging {average!r}")
    return EvalReport(
        confusion=matrix,
        accuracy=correct / total,
        per_class=tuple(per_class),
        macro=macro,
        support=support,
    )


def evaluate(
    model: TrainedModel,
    test: FeatureMatrix,
    average: str = "macro",
) -> EvalReport:
    """Predict the test matrix and tabulate (true, predicted) counts."""
    if test.n_rows == 0:
        raise EmptyTestSet("cannot evaluate on an empty test set")
    predictions = predict_matrix(model, test)
    counts = [[0] * N_CLASSES for _ in range(N_CLASSES)]
    for truth, predicted in zip(test.labels, predictions):
        counts[truth.ordinal][predicted.ordinal] += 1
    return metrics_from_confusion(counts, average=average)


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

def write_metrics(path: str | Path, classifier: str, report: EvalReport) -> None:
    macro = report.macro
    scores = [f"{100.0 * value:.2f}" for value in (report.accuracy, macro.f1, macro.recall, macro.precision)]
    write_table(path, ("classifier", "accuracy", "f1", "recall", "precision"),
                [",".join([csv_field(classifier), *scores]) + "\n"])


def write_confusion(path: str | Path, report: EvalReport) -> None:
    write_table(path, [label.value for label in ALL_LABELS],
                (",".join(map(str, row)) + "\n" for row in report.confusion))


_CELL = 46
_LEFT = 130
_TOP = 96


def _heat_color(value: int, peak: int) -> str:
    """White-to-blue ramp; the global maximum gets the deepest blue."""
    t = value / peak if peak > 0 else 0.0
    r = round(255 + (8 - 255) * t)
    g = round(255 + (64 - 255) * t)
    b = round(255 + (129 - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def write_confusion_svg(path: str | Path, report: EvalReport) -> None:
    """Render the 8x8 heatmap: exactly 64 cells and 16 axis labels."""
    peak = max(max(row) for row in report.confusion)
    width = _LEFT + N_CLASSES * _CELL + 20
    height = _TOP + N_CLASSES * _CELL + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" style="background:#ffffff;'
        'font-family:sans-serif;font-size:13px">'
    ]
    for col, label in enumerate(ALL_LABELS):
        x = _LEFT + col * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{_TOP - 10}" text-anchor="start" '
            f'transform="rotate(-45 {x} {_TOP - 10})">{label.value}</text>'
        )
    for row, label in enumerate(ALL_LABELS):
        y = _TOP + row * _CELL + _CELL // 2 + 5
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y}" text-anchor="end">{label.value}</text>'
        )
    for row in range(N_CLASSES):
        for col in range(N_CLASSES):
            value = report.confusion[row][col]
            x = _LEFT + col * _CELL
            y = _TOP + row * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_heat_color(value, peak)}" stroke="#888888" stroke-width="1">'
                f"<title>{value}</title></rect>"
            )
    parts.append("</svg>")
    write_text(path, ["\n".join(parts)])


def emit_report(
    report: EvalReport,
    classifier: str,
    metrics_path: str | Path,
    confusion_path: str | Path,
    svg_path: str | Path,
) -> list[Path]:
    write_metrics(metrics_path, classifier, report)
    write_confusion(confusion_path, report)
    write_confusion_svg(svg_path, report)
    return [Path(metrics_path), Path(confusion_path), Path(svg_path)]
