"""Sparse TF-IDF and relative-frequency feature matrices.

TF is the term's share of all token-window occurrences in its document
(out-of-vocabulary occurrences still count toward the denominator). IDF is
the base-10 log of corpus size over document frequency, with no smoothing:
a term present in every document weighs exactly zero, and absent terms
stay exactly zero, so sparsity is preserved.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import chain, dropwhile
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus, EmptyDocument, IoFailure, ZeroDf
from .labels import ClassLabel
from .tables import csv_field, read_table, write_table
from .tokens import TokenDocument, Vocabulary

# One stored entry of a matrix, before it is ordered into CSR form.
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("weight", np.float64)])


def tf(count: int, doc_total: int) -> float:
    """Relative frequency of a term within one document."""
    if doc_total <= 0:
        raise EmptyDocument("term frequency is undefined for an empty document")
    if count < 0 or count > doc_total:
        raise DimensionMismatch(f"count {count} outside [0, {doc_total}]")
    return count / doc_total


def idf(df: int, n_docs: int) -> float:
    """Base-10 inverse document frequency, unsmoothed."""
    if n_docs <= 0:
        raise EmptyCorpus("idf is undefined for an empty corpus")
    if df <= 0:
        raise ZeroDf("idf is undefined for a term no document contains")
    if df > n_docs:
        raise DimensionMismatch(f"df {df} exceeds corpus size {n_docs}")
    return math.log10(n_docs / df)


def tfidf(count: int, doc_total: int, df: int, n_docs: int) -> float:
    return tf(count, doc_total) * idf(df, n_docs)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Compressed sparse row (CSR) matrix with per-row sample identity and class label.

    Row ``i`` stores its entries at positions ``indptr[i]:indptr[i + 1]`` of
    ``indices`` (column numbers, strictly increasing within the row and
    following the vocabulary's term order) and ``data`` (the weights, all
    nonzero).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int
    sample_ids: tuple[str, ...]
    labels: tuple[ClassLabel, ...]

    def __post_init__(self) -> None:
        for name, dtype in (("indptr", np.int64), ("indices", np.int64), ("data", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        indptr, indices = self.indptr, self.indices
        if not (indptr.size - 1 == len(self.sample_ids) == len(self.labels)):
            raise DimensionMismatch("rows, sample_ids and labels must align")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0) or not indptr[-1] == indices.size == self.data.size:
            raise DimensionMismatch("indptr must rise monotonically from 0 to the entry count")
        if self.n_cols < 0 or (indices.size and (indices.min() < 0 or indices.max() >= self.n_cols)):
            raise DimensionMismatch(f"column index outside [0, {self.n_cols})")
        if np.any((np.diff(indices) <= 0) & (np.diff(self.entry_rows()) == 0)):
            raise DimensionMismatch("column indices must strictly increase within each row")
        if np.any(self.data == 0.0):
            raise DimensionMismatch("zero weights must not be stored")

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[int, float]],
        n_cols: int,
        sample_ids: Sequence[str],
        labels: Sequence[ClassLabel],
    ) -> "FeatureMatrix":
        """Matrix from one ``{column: weight}`` dict per row; zero weights are dropped."""
        entries = np.fromiter(((i, j, w) for i, row in enumerate(rows) for j, w in row.items()), _ENTRY)
        return _from_entries(entries, len(rows), n_cols, sample_ids, labels)

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    def entry_rows(self) -> np.ndarray:
        """Row number of every stored entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        dense[self.entry_rows(), self.indices] = self.data
        return dense

    def select_rows(self, rows: list[int]) -> "FeatureMatrix":
        picked = np.asarray(rows, dtype=np.int64)
        if picked.size and (picked.min() < 0 or picked.max() >= self.n_rows):
            raise DimensionMismatch(f"row index outside [0, {self.n_rows})")
        starts = self.indptr[picked]
        lengths = self.indptr[picked + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return replace(
            self,
            indptr=indptr,
            indices=self.indices[take],
            data=self.data[take],
            sample_ids=tuple(self.sample_ids[i] for i in rows),
            labels=tuple(self.labels[i] for i in rows),
        )

    def apply_mask(self, kept_columns: list[int] | tuple[int, ...]) -> "FeatureMatrix":
        """Keep only the given (strictly increasing) columns, renumbering
        them to 0..k-1.

        Weights are carried over unchanged.
        """
        kept = np.asarray(kept_columns, dtype=np.int64)
        if np.any(np.diff(kept) <= 0) or (kept.size and (kept[0] < 0 or kept[-1] >= self.n_cols)):
            raise DimensionMismatch(f"kept columns must strictly increase within [0, {self.n_cols})")
        renumber = np.full(self.n_cols, -1, dtype=np.int64)
        renumber[kept] = np.arange(kept.size)
        new_indices = renumber[self.indices]
        return self._keep_entries(new_indices >= 0, new_indices, self.data, kept.size)

    def _keep_entries(self, keep, indices, data, n_cols: int) -> "FeatureMatrix":
        """Same rows, holding ``indices`` and ``data`` at the entries where ``keep`` is set."""
        indptr = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
        return replace(self, indptr=indptr, indices=indices[keep], data=data[keep], n_cols=n_cols)


def _from_entries(
    entries: np.ndarray, n_rows: int, n_cols: int, sample_ids: Sequence[str], labels: Sequence[ClassLabel]
) -> FeatureMatrix:
    """Matrix of the nonzero ``_ENTRY`` records, given in any order."""
    rows, cols, weights = entries["row"], entries["col"], entries["weight"]
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise DimensionMismatch(f"row index outside [0, {n_rows})")
    order = np.lexsort((cols, rows))
    order = order[weights[order] != 0.0]
    return FeatureMatrix(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows[order], minlength=n_rows)))),
        indices=cols[order],
        data=weights[order],
        n_cols=n_cols,
        sample_ids=tuple(sample_ids),
        labels=tuple(labels),
    )


def _l2_normalize(matrix: FeatureMatrix) -> FeatureMatrix:
    rows = np.split(matrix.data, matrix.indptr[1:-1])
    norms = np.array([math.sqrt(math.fsum(row * row)) for row in rows])
    norms[norms == 0.0] = 1.0
    return replace(matrix, data=matrix.data / np.repeat(norms, np.diff(matrix.indptr)))


def tfidf_matrix(
    documents: list[TokenDocument],
    vocabulary: Vocabulary,
    l2: bool = False,
    counts: FeatureMatrix | None = None,
) -> FeatureMatrix:
    """TF-IDF weights for each document against a fixed vocabulary.

    Terms outside the vocabulary are dropped but still count toward each
    document's occurrence total. Documents with zero occurrences become
    all-zero rows. ``counts`` is ``frequency_matrix(documents, vocabulary)``
    when the caller has already built it; it is counted here otherwise.
    """
    if counts is None:
        counts = frequency_matrix(documents, vocabulary)
    idf_by_col = np.array([idf(df, vocabulary.n_docs) for df in vocabulary.df], dtype=np.float64)
    totals = np.array([doc.total for doc in documents], dtype=np.float64)
    weights = (counts.data / totals[counts.entry_rows()]) * idf_by_col[counts.indices]
    matrix = counts._keep_entries(weights != 0.0, counts.indices, weights, counts.n_cols)
    return _l2_normalize(matrix) if l2 else matrix


def frequency_matrix(
    documents: list[TokenDocument],
    vocabulary: Vocabulary,
) -> FeatureMatrix:
    """Raw per-document occurrence counts over the vocabulary."""
    if not documents:
        raise EmptyCorpus("cannot vectorize zero documents")
    entries = np.fromiter(
        (
            (i, col, count)
            for i, doc in enumerate(documents)
            for term, count in doc.counts.items()
            if (col := vocabulary.index_of(term)) is not None
        ),
        _ENTRY,
    )
    ids, labels = [d.sample_id for d in documents], [d.label for d in documents]
    return _from_entries(entries, len(documents), len(vocabulary), ids, labels)


# ---------------------------------------------------------------------------
# CSV persistence (17 significant digits, so floats round-trip exactly)
# ---------------------------------------------------------------------------

_MATRIX_COLUMNS = ("row", "col", "weight")
_LABEL_COLUMNS = ("row", "sample_id", "label")


def write_matrix(path: str | Path, matrix: FeatureMatrix) -> None:
    # Every field is a number, so no csv quoting is ever needed: each row's
    # entries are written as one string.
    bounds = matrix.indptr.tolist()
    rows = (
        "".join([f"{i},{col},{w:.17g}\n" for col, w in zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist())])
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    )
    write_table(path, _MATRIX_COLUMNS, chain([f"#shape,{matrix.n_rows},{matrix.n_cols}\n"], rows))


def write_labels(path: str | Path, matrix: FeatureMatrix) -> None:
    # Sample ids are free text that may need quoting, so csv_field writes them.
    write_table(path, _LABEL_COLUMNS, (
        f"{i},{csv_field(sample_id)},{csv_field(label.value)}\n"
        for i, (sample_id, label) in enumerate(zip(matrix.sample_ids, matrix.labels))
    ))


def _is_blank(line: str) -> bool:
    return line in ("\n", "\r\n", "\r")


def read_matrix(path: str | Path, labels_path: str | Path) -> FeatureMatrix:
    """Read a matrix and its labels; zero weights are dropped, and entries
    outside ``#shape`` or stored twice are rejected."""
    with read_table(labels_path, _LABEL_COLUMNS) as (records, _):
        pairs = [(sample_id, ClassLabel.from_name(label)) for _, sample_id, label in records]
    with read_table(path, _MATRIX_COLUMNS) as (records, lines):
        tag, n_rows, n_cols = next(records, ("", "", ""))
        if tag != "#shape":
            raise ValueError("missing #shape row")
        n_rows, n_cols = int(n_rows), int(n_cols)
        # numpy skips blank lines, and warns when it finds no entry line.
        body = dropwhile(_is_blank, lines)
        first = next(body, None)
        if first is None:
            entries = np.empty(0, _ENTRY)
        else:
            entries = np.loadtxt(chain([first], body), dtype=_ENTRY, delimiter=",", comments=None, ndmin=1)
    if len(pairs) != n_rows:
        raise IoFailure(f"label file {labels_path} does not match matrix shape")
    sample_ids, labels = [sid for sid, _ in pairs], [label for _, label in pairs]
    try:
        return _from_entries(entries, n_rows, n_cols, sample_ids, labels)
    except DimensionMismatch as exc:
        raise IoFailure(f"matrix {path} does not fit its shape: {exc}") from exc
