"""Canonical API-call tokens, n-gram extraction, and vocabularies.

A call becomes one token: the API name joined to its first ``max_args``
argument values with ``_`` (calls without arguments get the ``na``
placeholder). n-grams are consecutive token windows joined with ``,``;
commas inside tokens are rewritten to ``;`` so the joiner stays
unambiguous.
"""
from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .errors import EmptyCorpus, InvalidN
from .ingest import ApiCallRecord, BehaviorReport
from .labels import ClassLabel
from .tables import csv_field, read_table, write_table

_WHITESPACE = re.compile(r"[ \t\n\r\f\v]+")
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")

NO_ARGS_PLACEHOLDER = "na"
NGRAM_JOINER = ","
TOKEN_JOINER = "_"


def sanitize_segment(text: str) -> str:
    """Make a name or argument value safe inside tokens and n-grams.

    Whitespace collapses before control characters are stripped so tab and
    newline count as whitespace, not as control characters. Apart from the
    ASCII space, every character either pattern matches is unprintable, so
    printable text without a space or comma comes back unchanged.
    """
    if text.isprintable() and " " not in text and NGRAM_JOINER not in text:
        return text
    text = _WHITESPACE.sub("-", text)
    text = _CONTROL.sub("", text)
    return text.replace(NGRAM_JOINER, ";")


def canonical_token(call: ApiCallRecord, max_args: int = 2) -> str:
    """Collapse one API call to its canonical token.

    Only the first ``max_args`` recorded arguments contribute; arguments
    that sanitize to the empty string are skipped. A call with no surviving
    arguments yields ``name_na``.
    """
    segments = [s for s in map(sanitize_segment, call.arguments[:max_args]) if s]
    return TOKEN_JOINER.join([sanitize_segment(call.name), *(segments or [NO_ARGS_PLACEHOLDER])])


SUPPORTED_N = (1, 2, 3)


def _check_n(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n not in SUPPORTED_N:
        raise InvalidN(f"n-gram size must be one of {SUPPORTED_N}, got {n!r}")


def extract_ngrams(tokens: list[str] | tuple[str, ...], n: int) -> list[str]:
    """All order-preserving n-grams of a token sequence, with multiplicity.

    Sequences shorter than ``n`` yield no n-grams.
    """
    _check_n(n)
    return [NGRAM_JOINER.join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def report_ngrams(
    report: BehaviorReport,
    n: int,
    max_args: int = 2,
    reset_at_process: bool = False,
) -> list[str]:
    """All n-gram occurrences of one report, in trace order.

    With ``reset_at_process`` the sliding window restarts at each process
    boundary, so no n-gram spans two processes.
    """
    _check_n(n)
    out: list[str] = []
    for calls in report.processes if reset_at_process else (report.calls,):
        out.extend(extract_ngrams([canonical_token(call, max_args) for call in calls], n))
    return out


@dataclass(frozen=True)
class TokenDocument:
    """One sample's n-gram occurrence counts for a single n (or a union)."""

    sample_id: str
    label: ClassLabel
    counts: dict[str, int]
    total: int

    @staticmethod
    def from_report(
        report: BehaviorReport,
        n: int,
        max_args: int = 2,
        reset_at_process: bool = False,
    ) -> "TokenDocument":
        grams = report_ngrams(report, n, max_args, reset_at_process)
        return TokenDocument(
            sample_id=report.sample_id,
            label=report.label,
            # Interned, so all documents and the vocabulary share one string
            # per term instead of holding a copy per document.
            counts={sys.intern(gram): k for gram, k in Counter(grams).items()},
            total=len(grams),
        )

    def merged_with(self, other: "TokenDocument") -> "TokenDocument":
        """Union document combining counts from two n-gram sizes."""
        combined = Counter(self.counts)
        combined.update(other.counts)
        return TokenDocument(
            sample_id=self.sample_id,
            label=self.label,
            counts=dict(combined),
            total=self.total + other.total,
        )


def documents_for_n(
    reports: list[BehaviorReport],
    n: int,
    max_args: int = 2,
    reset_at_process: bool = False,
) -> list[TokenDocument]:
    return [TokenDocument.from_report(r, n, max_args, reset_at_process) for r in reports]


def merge_documents(per_n: list[list[TokenDocument]]) -> list[TokenDocument]:
    """Merge parallel per-n document lists into union documents."""
    if not per_n:
        raise EmptyCorpus("no document lists to merge")
    merged = per_n[0]
    for docs in per_n[1:]:
        merged = [a.merged_with(b) for a, b in zip(merged, docs, strict=True)]
    return merged


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    """Immutable term list with document frequencies.

    Terms are sorted lexicographically, which fixes the column order of
    every downstream matrix. ``df[i]`` counts the documents containing
    ``terms[i]`` at least once; ``n_docs`` is the corpus size the
    frequencies were measured on.
    """

    terms: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def index_of(self, term: str) -> int | None:
        return self._index.get(term)


def build_vocabulary(documents: list[TokenDocument]) -> Vocabulary:
    """Collect every term that occurs in the corpus, with its df."""
    if not documents:
        raise EmptyCorpus("cannot build a vocabulary from zero documents")
    df_counter: Counter[str] = Counter()
    for doc in documents:
        df_counter.update(doc.counts.keys())
    terms = tuple(sorted(df_counter))
    return Vocabulary(
        terms=terms,
        df=tuple(df_counter[t] for t in terms),
        n_docs=len(documents),
    )


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def _ngram_rows(doc: TokenDocument) -> str:
    # Each sample's rows are one string; only the text fields need csv
    # quoting, which csv_field gives them.
    prefix = f"{csv_field(doc.sample_id)},{csv_field(doc.label.value)},"
    counts = doc.counts
    return "".join([f"{prefix}{csv_field(term)},{counts[term]}\n" for term in sorted(counts)])


def write_ngram_counts(path: str | Path, documents: list[TokenDocument]) -> None:
    """Write per-sample n-gram counts (terms sorted within each sample)."""
    write_table(path, ("sample_id", "label", "ngram", "count"), map(_ngram_rows, documents))


_VOCAB_COLUMNS = ("index", "ngram", "df")


def write_vocabulary(path: str | Path, vocabulary: Vocabulary) -> None:
    # One string per row, streamed; only the term needs csv quoting.
    rows = (f"{i},{csv_field(term)},{df}\n" for i, (term, df) in enumerate(zip(vocabulary.terms, vocabulary.df)))
    write_table(path, _VOCAB_COLUMNS, chain(rows, [f"#n_docs,,{vocabulary.n_docs}\n"]))


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary back; its last row must be the ``#n_docs`` row, so a
    truncated file fails."""
    with read_table(path, _VOCAB_COLUMNS) as (records, _):
        *rows, (tag, _, n_docs) = records
        if tag != "#n_docs":
            raise ValueError("the last row is not the #n_docs row")
        terms = tuple([term for _, term, _ in rows])
        return Vocabulary(terms=terms, df=tuple([int(df) for _, _, df in rows]), n_docs=int(n_docs))
