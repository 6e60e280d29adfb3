"""Hybrid feature-selection cascade.

Stages run in a fixed order: lexical rules over argument content, then
document-frequency bounds, then mutual-information ranking, then greedy
correlation pruning, then truncation to the target retention ratio. Each
stage takes the mask the stage before it kept, judges only those columns
and returns a narrower mask with its own provenance row appended. Both
ratio stages are measured against the original vocabulary size, so the
final mask never exceeds ``ceil(target_ratio * V)`` columns.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AllFeaturesRemoved, DimensionMismatch
from .labels import N_CLASSES
from .tables import csv_field, read_table, write_table
from .tokens import NGRAM_JOINER, TOKEN_JOINER, Vocabulary
from .vectorize import FeatureMatrix

RULE_CONTAINS_DIGIT = "contains-digit"
RULE_CONTAINS_SPECIAL = "contains-special"
RULE_HEX_ADDRESS = "is-hex-address"
RULE_PURE_NUMERIC = "is-pure-numeric"

# Each lexical rule and the pattern an argument segment matches to break it.
_LEXICAL_PATTERNS = {
    RULE_CONTAINS_DIGIT: r"\d",
    RULE_CONTAINS_SPECIAL: r"[^A-Za-z._-]",
    RULE_HEX_ADDRESS: r"^0x[0-9a-fA-F]+$",
    RULE_PURE_NUMERIC: r"^[0-9]+$",
}

ALL_LEXICAL_RULES = frozenset(_LEXICAL_PATTERNS)

# A successful duplicate match at a clamped threshold of 1.0 tolerates
# float rounding in the correlation itself.
_DUPLICATE_EPS = 1e-12

# Candidate rows per BLAS product in correlation pruning. A block holds
# _CORR_BLOCK x k correlations, so small blocks keep the select stage's
# memory peak flat.
_CORR_BLOCK = 128

# A BLAS correlation decides a pair only when it lies further than this
# from the cut; closer ones are re-decided by ``_pearson``. Both values come
# from the same centered vectors, so by Cauchy-Schwarz they differ by at
# most about (n + 4) * 2**-53, which stays below 1e-9 up to about 10**6 rows.
_CORR_MARGIN = 1e-9

# Squared norms outside this range can make ``_pearson``'s product
# sq_j * sq_k underflow or overflow, so such columns always go to ``_pearson``.
_SAFE_SQ_NORM = (1e-150, 1e150)


@dataclass(frozen=True)
class SelectionConfig:
    lexical_filters: frozenset[str] = ALL_LEXICAL_RULES
    min_df: int = 2
    max_df_ratio: float = 0.95
    mi_top_ratio: float = 0.05
    corr_threshold: float = 0.95
    target_ratio: float = 0.016

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ratio <= 1.0:
            raise DimensionMismatch(f"target_ratio must be in (0, 1], got {self.target_ratio}")
        if self.min_df < 1:
            raise DimensionMismatch(f"min_df must be >= 1, got {self.min_df}")
        if not math.isfinite(self.mi_top_ratio):
            raise DimensionMismatch(f"mi_top_ratio must be finite, got {self.mi_top_ratio}")
        if math.isnan(self.corr_threshold) or math.isnan(self.max_df_ratio):
            raise DimensionMismatch("corr_threshold and max_df_ratio must be numbers, got nan")
        unknown = set(self.lexical_filters) - ALL_LEXICAL_RULES
        if unknown:
            raise DimensionMismatch(f"unknown lexical rules: {sorted(unknown)}")


@dataclass(frozen=True)
class SelectionMask:
    """Kept original column indices (strictly increasing) with provenance.

    ``scores`` maps a column to its mutual-information score when the
    ranking stage has run; ``provenance`` records each stage's input and
    output feature counts in execution order.
    """

    kept: tuple[int, ...]
    scores: dict[int, float] = field(default_factory=dict)
    provenance: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.kept:
            raise AllFeaturesRemoved("selection mask would keep zero features")
        if any(a >= b for a, b in zip(self.kept, self.kept[1:])):
            raise DimensionMismatch("mask indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.kept)


def identity_mask(n_cols: int, stage: str = "identity") -> SelectionMask:
    return SelectionMask(kept=tuple(range(n_cols)), provenance=((stage, n_cols, n_cols),))


def _narrow(
    mask: SelectionMask, stage: str, kept: list[int], scores: dict[int, float] | None, failure: str
) -> SelectionMask:
    """The mask a stage keeps of ``mask``: the ``kept`` columns in ascending
    order, their ``scores`` (0.0 where missing) and the stage's provenance row
    appended. Raises ``AllFeaturesRemoved(failure)`` when nothing is kept."""
    kept = sorted(kept)
    if not kept:
        raise AllFeaturesRemoved(failure)
    return SelectionMask(
        kept=tuple(kept),
        scores={} if scores is None else {j: scores.get(j, 0.0) for j in kept},
        provenance=mask.provenance + ((stage, len(mask), len(kept)),),
    )


def _by_rank(mask: SelectionMask) -> list[int]:
    """The mask's columns by descending score, ties by ascending column."""
    return sorted(mask.kept, key=lambda j: (-mask.scores.get(j, 0.0), j))


# ---------------------------------------------------------------------------
# Stage 1: lexical rules over argument segments
# ---------------------------------------------------------------------------

def lexical_filter(vocabulary: Vocabulary, rules: frozenset[str] | set[str]) -> SelectionMask:
    """Drop terms whose argument content matches any enabled rule."""
    rules = frozenset(rules)
    unknown = rules - ALL_LEXICAL_RULES
    if unknown:
        raise DimensionMismatch(f"unknown lexical rules: {sorted(unknown)}")
    if not rules:
        return identity_mask(len(vocabulary), "lexical")
    search = re.compile("|".join(f"(?:{_LEXICAL_PATTERNS[rule]})" for rule in sorted(rules))).search

    def token_violates(token: str) -> bool:
        # The leading API-name segment of a token is exempt.
        return any(map(search, token.split(TOKEN_JOINER)[1:]))

    # n-grams share most of their tokens, so each distinct token of a
    # multi-token term is judged once per call.
    cached_violates = functools.cache(token_violates)

    kept = []
    for j, term in enumerate(vocabulary.terms):
        if NGRAM_JOINER in term:
            violates = any(map(cached_violates, term.split(NGRAM_JOINER)))
        else:
            violates = token_violates(term)
        if not violates:
            kept.append(j)
    # The stage's input is every column; a range keeps V int objects out of
    # the heap, which would otherwise raise the select stage's peak RSS.
    every = SelectionMask(kept=range(len(vocabulary)))
    return _narrow(every, "lexical", kept, None, "lexical rules removed every feature")


# ---------------------------------------------------------------------------
# Stage 2: document-frequency bounds
# ---------------------------------------------------------------------------

def frequency_filter(
    freq: FeatureMatrix,
    candidates: SelectionMask,
    min_df: int,
    max_df_ratio: float,
) -> SelectionMask:
    """Keep the candidates seen in at least ``min_df`` and at most
    ``max_df_ratio * N`` of the matrix's rows.

    Document frequency is measured on the matrix itself, so masks fitted
    on a training subset reflect that subset.
    """
    if candidates.kept[0] < 0 or candidates.kept[-1] >= freq.n_cols:
        raise DimensionMismatch("candidate columns lie outside the frequency matrix")
    cols = np.array(candidates.kept)
    df = np.bincount(freq.indices, minlength=freq.n_cols)[cols]
    in_bounds = (df >= min_df) & (df <= max_df_ratio * freq.n_rows)
    return _narrow(
        candidates, "frequency", cols[in_bounds].tolist(), None,
        "document-frequency bounds removed every feature",
    )


# ---------------------------------------------------------------------------
# Stage 3: mutual information between feature presence and class label
# ---------------------------------------------------------------------------

def _presence_class_counts(matrix: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-column presence counts broken out by class, plus class sizes."""
    y = np.array([label.ordinal for label in matrix.labels], dtype=np.int64)
    cells = matrix.indices * N_CLASSES + y[matrix.entry_rows()]
    counts = np.bincount(cells, minlength=matrix.n_cols * N_CLASSES)
    return counts.reshape(matrix.n_cols, N_CLASSES), np.bincount(y, minlength=N_CLASSES)


def mutual_information_all(matrix: FeatureMatrix) -> np.ndarray:
    """MI (nats) of every column's presence indicator with the class label.

    Computed from exact integer contingency counts, so the result is
    independent of row order.
    """
    n = matrix.n_rows
    if n == 0:
        raise DimensionMismatch("mutual information needs at least one row")
    present_c, class_sizes = _presence_class_counts(matrix)
    absent_c = class_sizes[np.newaxis, :] - present_c
    n_present = present_c.sum(axis=1)
    n_absent = n - n_present

    def cell_terms(joint: np.ndarray, marginal: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (joint * n) / (marginal[:, np.newaxis] * class_sizes[np.newaxis, :])
            terms = (joint / n) * np.log(ratio)
        return np.where(joint > 0, terms, 0.0)

    mi = cell_terms(present_c, n_present).sum(axis=1)
    mi += cell_terms(absent_c, n_absent).sum(axis=1)
    return np.maximum(mi, 0.0)


def rank_by_mi(matrix: FeatureMatrix, candidates: SelectionMask, keep: int) -> SelectionMask:
    """Keep the ``keep`` highest-MI candidates (ties: lower column index)."""
    # A column's MI depends on that column alone, so only the candidates' is
    # computed: the per-column arrays then scale with them, not the vocabulary.
    mi = dict(zip(candidates.kept, mutual_information_all(matrix.apply_mask(candidates.kept)).tolist()))
    ranked = _by_rank(SelectionMask(kept=candidates.kept, scores=mi))
    return _narrow(
        candidates, "mi", ranked[:max(keep, 1)], mi, "mutual-information ranking removed every feature"
    )


# ---------------------------------------------------------------------------
# Stage 4: greedy correlation pruning
# ---------------------------------------------------------------------------

def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xc, yc)) / denom


def _correlation_blocks(cols: np.ndarray):
    """Yield ``(start, block)`` with ``block[i, q]`` the correlation of rows
    ``start + i`` and ``q`` of ``cols``, for every ``q`` below the block's end.

    Each row is centered as ``_pearson`` centers it and scaled to unit norm;
    a zero-norm row stays zero, so it scores 0 like ``_pearson``'s
    ``denom == 0`` rule. Pairs with a row whose squared norm lies outside
    ``_SAFE_SQ_NORM`` read NaN: BLAS cannot stand in for ``_pearson`` there.
    """
    unit = cols.copy()
    for row in unit:
        row -= row.mean()
    sq = np.einsum("ij,ij->i", unit, unit)
    scorable = (sq >= _SAFE_SQ_NORM[0]) & (sq <= _SAFE_SQ_NORM[1])
    unit /= np.sqrt(np.where(scorable, sq, np.inf))[:, np.newaxis]
    unit[~scorable] = 0.0
    unscorable = ~scorable & (sq != 0.0)
    for start in range(0, len(unit), _CORR_BLOCK):
        end = min(start + _CORR_BLOCK, len(unit))
        block = unit[start:end] @ unit[:end].T
        if unscorable[:end].any():
            block[:, unscorable[:end]] = np.nan
            block[unscorable[start:end]] = np.nan
        yield start, block


def correlation_prune(
    matrix: FeatureMatrix,
    candidates: SelectionMask,
    threshold: float,
) -> SelectionMask:
    """Greedy redundancy pruning over the TF-IDF columns.

    Candidates are visited in descending MI order (ties: ascending column
    index); one is dropped when its Pearson correlation with any feature
    kept so far exceeds the threshold. Thresholds above 1.0 clamp to 1.0,
    where only exact duplicates are pruned.

    BLAS computes the correlations as blocked products of the centered,
    unit-norm columns (``_CORR_BLOCK`` candidates at a time). A product
    further than ``_CORR_MARGIN`` from the cut decides its pair; a closer
    one, or one BLAS cannot score, is re-decided by ``_pearson`` on the
    original columns, so the kept set matches the pairwise rule tie for tie.
    """
    thr = min(threshold, 1.0)
    duplicates_only = thr >= 1.0
    cut = 1.0 - _DUPLICATE_EPS if duplicates_only else thr

    def redundant(r: float) -> bool:
        return r >= cut if duplicates_only else r > cut

    order = _by_rank(candidates)
    # cols[p] is the column of order[p], one contiguous row per candidate.
    position = {j: p for p, j in enumerate(order)}
    rank = np.array([position[j] for j in candidates.kept], dtype=np.int64)
    masked = matrix.apply_mask(candidates.kept)
    cols = np.zeros((len(order), matrix.n_rows), dtype=np.float64)
    cols[rank[masked.indices], masked.entry_rows()] = masked.data

    kept = np.empty(len(order), dtype=np.int64)
    n_kept = 0
    for start, block in _correlation_blocks(cols):
        for p in range(start, start + len(block)):
            prior = kept[:n_kept]
            r = block[p - start, prior]
            if np.any(r > cut + _CORR_MARGIN):
                continue
            unsure = prior[~(r < cut - _CORR_MARGIN)]
            if any(redundant(_pearson(cols[p], cols[q])) for q in unsure):
                continue
            kept[n_kept] = p
            n_kept += 1
    return _narrow(
        candidates, "correlation", [order[p] for p in kept[:n_kept]], candidates.scores,
        "correlation pruning removed every feature",
    )


# ---------------------------------------------------------------------------
# Full cascade
# ---------------------------------------------------------------------------

def hybrid_select(
    tfidf: FeatureMatrix,
    freq: FeatureMatrix,
    vocabulary: Vocabulary,
    config: SelectionConfig,
) -> SelectionMask:
    """Run the full cascade and return the final mask with provenance.

    Feature presence for MI is read from the frequency matrix (a TF-IDF
    weight of zero can also mean df = N). Both ratio stages are sized
    against the original vocabulary; at ``target_ratio`` = 1.0 the ranking
    keeps everything and pruning is skipped, so the cascade reduces to the
    enabled filter stages alone.
    """
    if tfidf.n_cols != len(vocabulary) or freq.n_cols != len(vocabulary):
        raise DimensionMismatch("matrices do not match the vocabulary")
    v_original = len(vocabulary)
    mask = lexical_filter(vocabulary, config.lexical_filters)
    mask = frequency_filter(freq, mask, config.min_df, config.max_df_ratio)
    mi_keep = math.ceil(max(config.mi_top_ratio, config.target_ratio) * v_original)
    mask = rank_by_mi(freq, mask, mi_keep)
    if config.target_ratio < 1.0:
        mask = correlation_prune(tfidf, mask, config.corr_threshold)
        target = math.ceil(config.target_ratio * v_original)
        ranked = _by_rank(mask)[:target]
        mask = _narrow(mask, "truncate", ranked, mask.scores, "truncation removed every feature")
    return mask


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

_MASK_COLUMNS = ("kept_index", "ngram", "mi_score")


def write_mask(path: str | Path, mask: SelectionMask, vocabulary: Vocabulary) -> None:
    write_table(path, _MASK_COLUMNS, (
        f"{j},{csv_field(vocabulary.terms[j])},{mask.scores.get(j, 0.0):.17g}\n" for j in mask.kept
    ))


def read_mask(path: str | Path) -> SelectionMask:
    with read_table(path, _MASK_COLUMNS) as (records, _):
        pairs = [(int(index), float(score)) for index, _, score in records]
    return SelectionMask(kept=tuple([j for j, _ in pairs]), scores=dict(pairs))


def write_selection_report(path: str | Path, mask: SelectionMask) -> None:
    write_table(path, ("stage", "features_in", "features_out"), (
        f"{csv_field(stage)},{n_in},{n_out}\n" for stage, n_in, n_out in mask.provenance
    ))
