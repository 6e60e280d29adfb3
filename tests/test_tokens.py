"""Canonical tokens, n-gram windows, vocabularies, and their CSV forms."""
from __future__ import annotations

import csv
import io
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from apigram.errors import EmptyCorpus, InvalidN
from apigram.ingest import ApiCallRecord, BehaviorReport
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.tokens import (
    TokenDocument,
    build_vocabulary,
    canonical_token,
    csv_field,
    documents_for_n,
    extract_ngrams,
    merge_documents,
    read_vocabulary,
    report_ngrams,
    sanitize_segment,
    write_ngram_counts,
    write_vocabulary,
)


def _call(name: str, *args: str) -> ApiCallRecord:
    return ApiCallRecord(category="system", name=name, arguments=tuple(args), return_value="0")


def _report(names_with_args, counts=(), sample_id="r", label=ClassLabel.TROJAN) -> BehaviorReport:
    calls = tuple(_call(n, *a) for n, a in names_with_args)
    ends = list(itertools.accumulate(counts or (len(calls),)))
    processes = tuple(calls[start:end] for start, end in zip([0, *ends], ends))
    return BehaviorReport(sample_id, label, processes)


def test_canonical_token_name_plus_two_arguments():
    call = _call("LdrLoadDll", "urlmon", "urlmon.dll")
    assert canonical_token(call) == "LdrLoadDll_urlmon_urlmon.dll"


def test_canonical_token_no_arguments_gets_placeholder():
    assert canonical_token(_call("NtAllocateVirtualMemory")) == "NtAllocateVirtualMemory_na"


def test_canonical_token_procedure_address_example():
    call = _call("LdrGetProcedureAddress", "ole32", "OleUninitialize")
    assert canonical_token(call) == "LdrGetProcedureAddress_ole32_OleUninitialize"


def test_canonical_token_truncates_to_max_args():
    call = _call("NtCreateFile", "a", "b", "c", "d")
    assert canonical_token(call, max_args=2) == "NtCreateFile_a_b"
    assert canonical_token(call, max_args=3) == "NtCreateFile_a_b_c"
    assert canonical_token(call, max_args=0) == "NtCreateFile_na"


def test_sanitize_whitespace_comma_and_control_characters():
    assert sanitize_segment("a b\tc") == "a-b-c"
    assert sanitize_segment("x,y") == "x;y"
    assert sanitize_segment("k\x00e\x1fy\x7f") == "key"
    call = _call("Reg Open", "val,ue")
    assert canonical_token(call) == "Reg-Open_val;ue"


def _two_regex_sanitize(text: str) -> str:
    """Reference: both substitutions on every input, no shortcut."""
    text = re.sub(r"[ \t\n\r\f\v]+", "-", text)
    text = re.sub(r"[\x00-\x1f\x7f]", "", text)
    return text.replace(",", ";")


def test_sanitize_segment_matches_the_two_regex_reference():
    rng = np.random.default_rng(41)
    alphabet = (
        list("aZ09._:\\-;") + list("\t\n\r\f\v") + [chr(c) for c in range(0x20)]
        + ["\x7f", "\x85", "\xa0", "\u2028", "\u3000", "\u00e9", " ", ","]
    )
    texts = [""] + ["".join(rng.choice(alphabet, size=int(rng.integers(1, 9)))) for _ in range(3000)]
    for text in texts:
        assert sanitize_segment(text) == _two_regex_sanitize(text), repr(text)


def test_arguments_that_sanitize_to_empty_are_skipped():
    assert canonical_token(_call("NtClose", "\x00", "handle")) == "NtClose_handle"
    assert canonical_token(_call("NtClose", "\x00\x1f")) == "NtClose_na"


def test_extract_ngrams_window_shorter_than_n_is_empty():
    assert extract_ngrams(["A"], 2) == []
    assert extract_ngrams([], 1) == []


def test_extract_ngrams_bigrams_of_three_tokens():
    assert Counter(extract_ngrams(["A", "B", "C"], 2)) == {"A,B": 1, "B,C": 1}


def test_extract_ngrams_counts_repeated_windows():
    assert Counter(extract_ngrams(["A", "B", "A", "B"], 2)) == {"A,B": 2, "B,A": 1}


def test_extract_ngrams_rejects_unsupported_n():
    for bad in (0, 4, -1, 100, True, 2.0):
        with pytest.raises(InvalidN):
            extract_ngrams(["A", "B"], bad)


def test_ngram_count_matches_window_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        length = int(rng.integers(0, 30))
        tokens = [f"T{int(rng.integers(0, 5))}" for _ in range(length)]
        for n in (1, 2, 3):
            assert len(extract_ngrams(tokens, n)) == max(0, length - n + 1)


def test_report_ngrams_cross_process_by_default_and_reset_on_request():
    report = _report(
        [("A", ()), ("B", ()), ("C", ()), ("D", ())],
        counts=(2, 2),
    )
    crossing = report_ngrams(report, 2)
    assert crossing == ["A_na,B_na", "B_na,C_na", "C_na,D_na"]
    stopped = report_ngrams(report, 2, reset_at_process=True)
    assert stopped == ["A_na,B_na", "C_na,D_na"]


def test_token_document_total_counts_all_windows():
    report = _report([("A", ()), ("B", ()), ("C", ())])
    for n in (1, 2, 3):
        doc = TokenDocument.from_report(report, n)
        assert doc.total == max(0, len(report.calls) - n + 1)
        assert sum(doc.counts.values()) == doc.total


def test_documents_share_one_string_per_term():
    reports = [_report([("A", ("x",)), ("B", ())], sample_id=s) for s in ("r1", "r2")]
    first, second = documents_for_n(reports, 1)
    assert first.counts == second.counts == {"A_x": 1, "B_na": 1}
    assert all(a is b for a, b in zip(first.counts, second.counts))


def test_merge_documents_unions_counts_per_sample():
    report = _report([("A", ()), ("B", ())])
    uni = documents_for_n([report], 1)
    bi = documents_for_n([report], 2)
    merged = merge_documents([uni, bi])[0]
    assert merged.counts == {"A_na": 1, "B_na": 1, "A_na,B_na": 1}
    assert merged.total == 3
    with pytest.raises(EmptyCorpus):
        merge_documents([])


def _doc(sample_id, counts, label=ClassLabel.BENIGN):
    return TokenDocument(sample_id, label, dict(counts), sum(counts.values()))


def test_vocabulary_single_document():
    vocabulary = build_vocabulary([_doc("d", {"X": 3})])
    assert len(vocabulary) == 1
    assert vocabulary.terms == ("X",)
    assert vocabulary.df == (1,)
    assert vocabulary.n_docs == 1


def test_vocabulary_two_documents_counts_df_by_hand():
    docs = [_doc("a", {"X": 1, "Y": 2}), _doc("b", {"Y": 1, "Z": 1})]
    vocabulary = build_vocabulary(docs)
    assert len(vocabulary) == 3
    by_term = dict(zip(vocabulary.terms, vocabulary.df))
    assert by_term == {"X": 1, "Y": 2, "Z": 1}


def test_vocabulary_word_corpus_document_frequencies():
    doc_a = _doc("A", {"sample": 1, "text": 1, "document": 2, "here": 1})
    doc_b = _doc("B", {"another": 1, "text": 1, "document": 2, "here": 1})
    vocabulary = build_vocabulary([doc_a, doc_b])
    by_term = dict(zip(vocabulary.terms, vocabulary.df))
    assert by_term["sample"] == 1
    assert by_term["another"] == 1
    assert by_term["text"] == 2
    assert by_term["document"] == 2


def test_vocabulary_is_lexicographic_bijection_and_order_independent():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n_docs = int(rng.integers(1, 10))
        docs = [
            _doc(
                f"d{i}",
                {f"t{int(rng.integers(0, 20)):02d}": int(rng.integers(1, 5))
                 for _ in range(int(rng.integers(1, 8)))},
            )
            for i in range(n_docs)
        ]
        vocabulary = build_vocabulary(docs)
        assert list(vocabulary.terms) == sorted(vocabulary.terms)
        assert [vocabulary.index_of(t) for t in vocabulary.terms] == list(range(len(vocabulary)))
        assert all(1 <= f <= n_docs for f in vocabulary.df)
        shuffled = [docs[i] for i in rng.permutation(n_docs)]
        assert build_vocabulary(shuffled).terms == vocabulary.terms
        assert build_vocabulary(shuffled).df == vocabulary.df


def test_build_vocabulary_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])


def test_ngram_counts_csv_round_trip(tmp_path):
    docs = [
        _doc("a", {"X": 2, "Y": 1}, ClassLabel.ADWARE),
        _doc("b", {"Z": 4}, ClassLabel.WORM),
    ]
    path = tmp_path / "ngrams.csv"
    write_ngram_counts(path, docs)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["sample_id", "label", "ngram", "count"]
    assert rows == [
        ["a", ClassLabel.ADWARE.value, "X", "2"],
        ["a", ClassLabel.ADWARE.value, "Y", "1"],
        ["b", ClassLabel.WORM.value, "Z", "4"],
    ]
    for doc in docs:
        counts = {row[2]: int(row[3]) for row in rows if row[0] == doc.sample_id}
        assert counts == doc.counts
        assert sum(counts.values()) == doc.total


def test_vocabulary_csv_round_trip(tmp_path):
    vocabulary = build_vocabulary([_doc("a", {"X": 1, "Y": 2}), _doc("b", {"Y": 1})])
    path = tmp_path / "vocab.csv"
    write_vocabulary(path, vocabulary)
    again = read_vocabulary(path)
    assert again.terms == vocabulary.terms
    assert again.df == vocabulary.df
    assert again.n_docs == vocabulary.n_docs


# ---------------------------------------------------------------------------
# Field quoting and the writers, against csv.writer
# ---------------------------------------------------------------------------

def _csv_line(fields) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


_FIELD_ALPHABET = [",", '"', "\n", " ", "\t", "\x00", "é", ";", "_", "a", "Z", "q", "0", "7"]


def _random_fields(rng, alphabet, count):
    return [""] + ["".join(rng.choices(alphabet, k=rng.randrange(1, 7))) for _ in range(count)]


def test_csv_field_quotes_as_csv_writer_does():
    rng = random.Random(24)
    for field in _random_fields(rng, _FIELD_ALPHABET, 5000):
        assert f"{csv_field(field)},x\n" == _csv_line([field, "x"]), repr(field)


def test_csv_field_quotes_a_carriage_return_and_reads_it_back():
    rng = random.Random(25)
    for field in _random_fields(rng, [*_FIELD_ALPHABET, "\r"], 2000):
        if "\r" not in field:
            continue
        quoted = csv_field(field)
        assert quoted.startswith('"') and quoted.endswith('"'), repr(field)
        assert list(csv.reader(io.StringIO(f"{quoted},x\n", newline=""))) == [[field, "x"]]


def _reference_ngram_counts(path, documents):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label", "ngram", "count"])
        for doc in documents:
            for term in sorted(doc.counts):
                writer.writerow([doc.sample_id, doc.label.value, term, doc.counts[term]])


def _reference_vocabulary(path, vocabulary):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "ngram", "df"])
        for i, term in enumerate(vocabulary.terms):
            writer.writerow([i, term, vocabulary.df[i]])
        writer.writerow(["#n_docs", "", vocabulary.n_docs])


# Ids and terms that need quoting, non-ASCII text and empty strings.
_AWKWARD = ["", "plain", "a,b", 'say "hi"', "two\nlines", "dé,jà", '"', ",", "A_x,B_y,C_z", "名前_値"]


def _awkward_documents():
    rng = random.Random(7)
    return [
        _doc(sample_id, {term: rng.randrange(1, 5) for term in rng.sample(_AWKWARD, 5)}, label)
        for sample_id, label in zip(_AWKWARD, itertools.cycle(ALL_LABELS))
    ]


def test_ngram_counts_match_the_csv_writer_reference(tmp_path):
    docs = _awkward_documents()
    write_ngram_counts(tmp_path / "fast.csv", docs)
    _reference_ngram_counts(tmp_path / "reference.csv", docs)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_vocabulary_matches_the_csv_writer_reference_and_reads_back(tmp_path):
    vocabulary = build_vocabulary(_awkward_documents())
    assert "" in vocabulary.terms and "two\nlines" in vocabulary.terms
    write_vocabulary(tmp_path / "fast.csv", vocabulary)
    _reference_vocabulary(tmp_path / "reference.csv", vocabulary)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert read_vocabulary(tmp_path / "fast.csv") == vocabulary


def test_tokenize_report_uses_trace_order():
    report = _report([("B", ("x",)), ("A", ())])
    assert report_ngrams(report, 1) == ["B_x", "A_na"]
