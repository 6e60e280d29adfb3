"""TF-IDF math against hand-computed values and a naive dense oracle."""
from __future__ import annotations

import csv
import io
import math
import warnings

import numpy as np
import pytest

from apigram.errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyDocument,
    IoFailure,
    ZeroDf,
)
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.tokens import TokenDocument, build_vocabulary
from apigram.vectorize import (
    FeatureMatrix,
    frequency_matrix,
    idf,
    read_matrix,
    tf,
    tfidf,
    tfidf_matrix,
    write_labels,
    write_matrix,
)


def _doc(sample_id, counts, label=ClassLabel.BENIGN):
    return TokenDocument(sample_id, label, dict(counts), sum(counts.values()))


def _random_corpus(rng, max_docs=20, max_terms=50):
    n_docs = int(rng.integers(2, max_docs + 1))
    n_terms = int(rng.integers(2, max_terms + 1))
    terms = [f"t{j:03d}" for j in range(n_terms)]
    docs = []
    for i in range(n_docs):
        present = rng.random(n_terms) < rng.uniform(0.1, 0.6)
        if not present.any():
            present[int(rng.integers(0, n_terms))] = True
        counts = {terms[j]: int(rng.integers(1, 6)) for j in np.flatnonzero(present)}
        docs.append(_doc(f"d{i}", counts, ALL_LABELS[i % 8]))
    return docs


def _rows(matrix):
    """Each row as a ``{column: weight}`` dict, read from the CSR arrays."""
    bounds = zip(matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist())
    return [dict(zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist())) for a, b in bounds]


def _dense_tfidf_oracle(docs, vocabulary):
    """Direct dense recomputation straight from the definitions."""
    n = len(docs)
    dense = np.zeros((n, len(vocabulary)))
    for i, doc in enumerate(docs):
        total = sum(doc.counts.values())
        for j, term in enumerate(vocabulary.terms):
            count = doc.counts.get(term, 0)
            if count and total:
                dense[i, j] = (count / total) * math.log10(vocabulary.n_docs / vocabulary.df[j])
    return dense


def test_tf_examples():
    assert tf(1, 5) == pytest.approx(0.2, abs=1e-12)
    assert tf(0, 5) == 0.0
    assert tf(2, 5) == pytest.approx(0.4, abs=1e-12)


def test_tf_empty_document_raises():
    with pytest.raises(EmptyDocument):
        tf(0, 0)


def test_idf_examples_pin_log_base_ten():
    assert idf(1, 2) == pytest.approx(0.30103, abs=1e-5)
    assert idf(1, 2) == pytest.approx(math.log10(2.0), abs=1e-15)
    assert idf(4, 4) == 0.0
    assert idf(2, 8) == pytest.approx(0.60206, abs=1e-5)
    assert idf(2, 8) == pytest.approx(math.log10(4.0), abs=1e-15)


def test_idf_rejects_zero_df():
    with pytest.raises(ZeroDf):
        idf(0, 4)


def test_idf_weakly_decreasing_in_df():
    values = [idf(df, 50) for df in range(1, 51)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 for v in values)


def test_worked_two_document_corpus():
    doc_a = _doc("A", {"sample": 1, "text": 1, "document": 2, "here": 1})
    doc_b = _doc("B", {"another": 1, "text": 1, "document": 2, "here": 1})
    vocabulary = build_vocabulary([doc_a, doc_b])
    matrix = tfidf_matrix([doc_a, doc_b], vocabulary)
    col_sample = vocabulary.index_of("sample")
    col_another = vocabulary.index_of("another")
    rows = _rows(matrix)
    assert rows[0][col_sample] == pytest.approx(0.2 * math.log10(2.0), abs=1e-12)
    assert rows[0][col_sample] == pytest.approx(0.0602, abs=1e-4)
    assert col_another not in rows[0]
    assert rows[1][col_another] == pytest.approx(0.0602, abs=1e-4)


def test_single_document_corpus_vectorizes_to_zero_rows():
    doc = _doc("only", {"X": 3, "Y": 1})
    vocabulary = build_vocabulary([doc])
    matrix = tfidf_matrix([doc], vocabulary)
    assert _rows(matrix) == [{}]


def test_tfidf_zero_iff_absent_or_ubiquitous():
    rng = np.random.default_rng(5)
    for _ in range(30):
        docs = _random_corpus(rng, max_docs=10, max_terms=12)
        vocabulary = build_vocabulary(docs)
        rows = _rows(tfidf_matrix(docs, vocabulary))
        for i, doc in enumerate(docs):
            for j, term in enumerate(vocabulary.terms):
                stored = rows[i].get(j, 0.0)
                if stored == 0.0:
                    assert term not in doc.counts or vocabulary.df[j] == vocabulary.n_docs
                else:
                    assert term in doc.counts and vocabulary.df[j] < vocabulary.n_docs
                assert (j in rows[i]) == (stored != 0.0)


def test_out_of_vocabulary_terms_count_toward_the_denominator():
    train = [_doc("a", {"X": 1}), _doc("b", {"X": 1, "Y": 1})]
    vocabulary = build_vocabulary(train)
    unseen = _doc("c", {"Y": 1, "Z": 3})
    matrix = tfidf_matrix([unseen], vocabulary)
    col_y = vocabulary.index_of("Y")
    expected = (1 / 4) * math.log10(2 / 1)
    assert _rows(matrix)[0] == {col_y: pytest.approx(expected, abs=1e-15)}


def test_tf_values_sum_to_one_per_nonempty_document():
    rng = np.random.default_rng(11)
    for _ in range(50):
        docs = _random_corpus(rng, max_docs=8, max_terms=15)
        for doc in docs:
            total = sum(doc.counts.values())
            assert math.fsum(tf(c, total) for c in doc.counts.values()) == pytest.approx(1.0, abs=1e-9)


def test_l2_rows_are_unit_norm_and_argmax_is_preserved():
    rng = np.random.default_rng(13)
    for _ in range(50):
        docs = _random_corpus(rng, max_docs=10, max_terms=20)
        vocabulary = build_vocabulary(docs)
        plain = tfidf_matrix(docs, vocabulary, l2=False)
        scaled = tfidf_matrix(docs, vocabulary, l2=True)
        for raw_row, unit_row in zip(_rows(plain), _rows(scaled)):
            if not unit_row:
                assert not raw_row
                continue
            norm = math.sqrt(math.fsum(w * w for w in unit_row.values()))
            assert norm == pytest.approx(1.0, abs=1e-9)
            argmax = max(raw_row, key=lambda j: (raw_row[j], -j))
            argmax_scaled = max(unit_row, key=lambda j: (unit_row[j], -j))
            assert argmax == argmax_scaled


def test_sparse_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        docs = _random_corpus(rng)
        vocabulary = build_vocabulary(docs)
        matrix = tfidf_matrix(docs, vocabulary)
        assert np.max(np.abs(matrix.to_dense() - _dense_tfidf_oracle(docs, vocabulary))) <= 1e-12


def test_frequency_matrix_stores_raw_counts():
    docs = [_doc("a", {"X": 3, "Y": 1}), _doc("b", {})]
    vocabulary = build_vocabulary(docs)
    matrix = frequency_matrix(docs, vocabulary)
    assert _rows(matrix) == [{vocabulary.index_of("X"): 3.0, vocabulary.index_of("Y"): 1.0}, {}]


def test_frequency_matrix_word_corpus_counts():
    doc_b = _doc("B", {"sample": 1, "another": 1, "text": 1, "document": 2})
    vocabulary = build_vocabulary([doc_b])
    matrix = frequency_matrix([doc_b], vocabulary)
    by_term = {t: _rows(matrix)[0][vocabulary.index_of(t)] for t in vocabulary.terms}
    assert by_term == {"sample": 1.0, "another": 1.0, "text": 1.0, "document": 2.0}


def test_vectorizers_reject_empty_corpus():
    vocabulary = build_vocabulary([_doc("a", {"X": 1})])
    with pytest.raises(EmptyCorpus):
        tfidf_matrix([], vocabulary)
    with pytest.raises(EmptyCorpus):
        frequency_matrix([], vocabulary)


def test_tfidf_helper_composes_tf_and_idf():
    assert tfidf(1, 5, 1, 2) == pytest.approx(0.2 * math.log10(2.0), abs=1e-15)
    assert tfidf(0, 5, 1, 2) == 0.0


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(23)
    docs = _random_corpus(rng, max_docs=12, max_terms=25)
    vocabulary = build_vocabulary(docs)
    matrix = tfidf_matrix(docs, vocabulary, l2=True)
    write_matrix(tmp_path / "m.csv", matrix)
    write_labels(tmp_path / "l.csv", matrix)
    again = read_matrix(tmp_path / "m.csv", tmp_path / "l.csv")
    assert again.n_cols == matrix.n_cols
    assert again.sample_ids == matrix.sample_ids
    assert again.labels == matrix.labels
    assert _rows(again) == _rows(matrix)


def _csv_writer_matrix_text(matrix) -> str:
    """Reference: the matrix file as ``csv.writer`` writes it, row by row."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row", "col", "weight"])
    writer.writerow(["#shape", matrix.n_rows, matrix.n_cols])
    for i, row in enumerate(_rows(matrix)):
        writer.writerows([i, col, format(w, ".17g")] for col, w in row.items())
    return out.getvalue()


def test_written_matrix_text_matches_the_csv_writer(tmp_path):
    rng = np.random.default_rng(31)
    weights = [0.1, 1 / 3, -2.5e-300, 1e22, 5e-324, -0.0, 123456789.123456789, math.pi]
    rows = ({}, {0: weights[0], 7: weights[1]}, {}, {j: w for j, w in enumerate(weights)})
    matrices = [FeatureMatrix.from_rows(rows=rows, n_cols=8, sample_ids=("a", "b", "c", "d"),
                                        labels=(ClassLabel.BENIGN,) * 4)]
    docs = _random_corpus(rng, max_docs=12, max_terms=25)
    matrices.append(tfidf_matrix(docs, build_vocabulary(docs), l2=True))
    for matrix in matrices:
        write_matrix(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes().decode("utf-8") == _csv_writer_matrix_text(matrix)


def test_written_labels_quote_sample_ids_like_csv(tmp_path):
    ids = ("plain", "a,b", 'say "hi"', "line\nbreak", "")
    matrix = FeatureMatrix.from_rows(rows=({},) * 5, n_cols=1, sample_ids=ids,
                                     labels=(ClassLabel.WORM,) * 5)
    write_labels(tmp_path / "l.csv", matrix)
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row", "sample_id", "label"])
    for i, sample_id in enumerate(ids):
        writer.writerow([i, sample_id, "Worm"])
    assert (tmp_path / "l.csv").read_bytes().decode("utf-8") == out.getvalue()


def test_select_rows_and_apply_mask_semantics():
    docs = [_doc(f"d{i}", {"X": i + 1, "Y": 1, "Z": 2}) for i in range(4)]
    vocabulary = build_vocabulary(docs + [_doc("e", {"X": 1})])
    matrix = tfidf_matrix(docs, vocabulary, l2=True)
    subset = matrix.select_rows([2, 0])
    assert subset.sample_ids == ("d2", "d0")
    assert _rows(subset) == [_rows(matrix)[2], _rows(matrix)[0]]
    kept = [vocabulary.index_of("X"), vocabulary.index_of("Z")]
    masked = matrix.apply_mask(kept)
    assert masked.n_cols == 2
    for old_row, new_row in zip(_rows(matrix), _rows(masked)):
        for new_col, old_col in enumerate(kept):
            assert new_row.get(new_col, 0.0) == old_row.get(old_col, 0.0)


@pytest.mark.parametrize("row", [5, 2, -1])
def test_select_rows_rejects_rows_outside_the_matrix(row):
    matrix = FeatureMatrix.from_rows(
        rows=({0: 1.0}, {1: 2.0}),
        n_cols=2,
        sample_ids=("a", "b"),
        labels=(ClassLabel.BENIGN, ClassLabel.WORM),
    )
    with pytest.raises(DimensionMismatch):
        matrix.select_rows([0, row])


def test_feature_matrix_alignment_is_enforced():
    with pytest.raises(DimensionMismatch):
        FeatureMatrix.from_rows(rows=({},), n_cols=1, sample_ids=("a", "b"), labels=(ClassLabel.BENIGN,))


@pytest.mark.parametrize(
    "indptr, indices, data",
    [
        ([0, 2, 1], [0, 1], [1.0, 1.0]),  # indptr falls
        ([1, 1, 2], [0], [1.0]),  # indptr does not start at 0
        ([0, 1, 1], [0, 1], [1.0, 1.0]),  # indptr does not end at the entry count
        ([0, 1, 2], [0, 1], [1.0]),  # fewer weights than column indices
        ([0, 1, 2], [0, 3], [1.0, 1.0]),  # column past n_cols
        ([0, 1, 2], [-1, 0], [1.0, 1.0]),  # negative column
        ([0, 2, 2], [1, 1], [1.0, 1.0]),  # column repeated within a row
        ([0, 2, 2], [2, 0], [1.0, 1.0]),  # columns out of order within a row
        ([0, 1, 2], [0, 1], [1.0, 0.0]),  # stored zero
    ],
)
def test_feature_matrix_rejects_non_canonical_csr(indptr, indices, data):
    with pytest.raises(DimensionMismatch):
        FeatureMatrix(
            indptr=indptr,
            indices=indices,
            data=data,
            n_cols=3,
            sample_ids=("a", "b"),
            labels=(ClassLabel.BENIGN, ClassLabel.WORM),
        )


def test_reshaping_matches_dense_indexing():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n_rows, n_cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.4)
        matrix = FeatureMatrix.from_rows(
            rows=[dict(enumerate(row.tolist())) for row in dense],  # zeros are dropped
            n_cols=n_cols,
            sample_ids=[f"s{i}" for i in range(n_rows)],
            labels=[ALL_LABELS[i % 8] for i in range(n_rows)],
        )
        assert np.array_equal(matrix.to_dense(), dense)
        picked = rng.integers(0, n_rows, size=int(rng.integers(0, 2 * n_rows)))
        subset = matrix.select_rows(picked.tolist())
        assert np.array_equal(subset.to_dense(), dense[picked])
        assert subset.sample_ids == tuple(f"s{i}" for i in picked)
        kept = np.flatnonzero(rng.random(n_cols) < 0.5)
        assert np.array_equal(matrix.apply_mask(kept.tolist()).to_dense(), dense[:, kept])


@pytest.mark.parametrize(
    "entry",
    ["-1,0,2.0", "2,0,2.0", "0,-1,2.0", "0,3,2.0", "0,1,2.0"],
    ids=["negative-row", "row-past-shape", "negative-col", "col-past-shape", "duplicate"],
)
def test_read_matrix_rejects_entries_outside_the_shape_or_stored_twice(tmp_path, entry):
    (tmp_path / "l.csv").write_text("row,sample_id,label\n0,a,Trojan\n1,b,Worm\n")
    body = "row,col,weight\n#shape,2,3\n0,1,1.0\n1,2,1.0\n" + entry + "\n"
    (tmp_path / "m.csv").write_text(body)
    with pytest.raises(IoFailure):
        read_matrix(tmp_path / "m.csv", tmp_path / "l.csv")


def _write_two_row_matrix(tmp_path, body: str) -> None:
    (tmp_path / "l.csv").write_text("row,sample_id,label\n0,a,Trojan\n1,b,Worm\n")
    (tmp_path / "m.csv").write_text("row,col,weight\n#shape,2,3\n" + body)


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n"], ids=["empty", "blank-line", "blank-lines"])
def test_read_matrix_with_no_entries_reads_back_without_a_warning(tmp_path, body):
    _write_two_row_matrix(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = read_matrix(tmp_path / "m.csv", tmp_path / "l.csv")
    assert (matrix.n_rows, matrix.n_cols, matrix.data.size) == (2, 3, 0)
    written = FeatureMatrix.from_rows(rows=({}, {}), n_cols=3, sample_ids=("a", "b"),
                                      labels=(ClassLabel.TROJAN, ClassLabel.WORM))
    write_matrix(tmp_path / "w.csv", written)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = read_matrix(tmp_path / "w.csv", tmp_path / "l.csv")
    assert again.data.size == 0 and again.n_cols == 3


@pytest.mark.parametrize(
    "body",
    [
        "0,1,1.0\n# note\n1,2,1.0\n",
        "#shape,2,3\n0,1,1.0\n",
        "0,1,1.0 # x\n",
        "0,1,1.0\n1,2\n",
        "0,1,1.0,4\n",
        "0,1,\n",
        "0,1,1.0\n  \n",
        "0,x,1.0\n",
        "0,1.0,1.0\n",
        "99999999999999999999,1,1.0\n",
    ],
    ids=["comment-line", "second-shape-row", "trailing-comment", "short-row", "long-row", "no-weight",
         "space-only-line", "text-column", "float-column", "row-overflow"],
)
def test_read_matrix_rejects_malformed_body_lines(tmp_path, body):
    _write_two_row_matrix(tmp_path, body)
    with pytest.raises(IoFailure):
        read_matrix(tmp_path / "m.csv", tmp_path / "l.csv")


@pytest.mark.parametrize(
    "body",
    ["0_1,1,1.0\n", "0,1,1_0.5\n", '"0",1,1.0\n', '0,1,"1.0"\n', "\u0661,1,1.0\n"],
    ids=["underscore-index", "underscore-weight", "quoted-index", "quoted-weight", "non-ascii-digit"],
)
def test_read_matrix_rejects_number_forms_outside_the_written_format(tmp_path, body):
    # int() and float() after csv unquoting accepted these; write_matrix
    # never writes them, and the numpy parser rejects them.
    _write_two_row_matrix(tmp_path, body)
    with pytest.raises(IoFailure):
        read_matrix(tmp_path / "m.csv", tmp_path / "l.csv")


def test_read_matrix_skips_blank_body_lines(tmp_path):
    _write_two_row_matrix(tmp_path, "\n0,1,1.5\n\n\r\n1,2, 2.5 \n\n")
    matrix = read_matrix(tmp_path / "m.csv", tmp_path / "l.csv")
    assert _rows(matrix) == [{1: 1.5}, {2: 2.5}]
