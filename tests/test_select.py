"""Feature-selection cascade: lexical, frequency, MI, correlation, truncation."""
from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import pytest

from apigram import select
from apigram.errors import AllFeaturesRemoved, DimensionMismatch
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.select import (
    _DUPLICATE_EPS,
    _correlation_blocks,
    _pearson,
    ALL_LEXICAL_RULES,
    RULE_CONTAINS_DIGIT,
    RULE_CONTAINS_SPECIAL,
    RULE_HEX_ADDRESS,
    RULE_PURE_NUMERIC,
    SelectionConfig,
    SelectionMask,
    correlation_prune,
    frequency_filter,
    hybrid_select,
    identity_mask,
    lexical_filter,
    mutual_information_all,
    rank_by_mi,
    read_mask,
    write_mask,
    write_selection_report,
)
from apigram.tokens import Vocabulary
from apigram.vectorize import FeatureMatrix


def _vocab(terms, n_docs=4):
    return Vocabulary(terms=tuple(terms), df=tuple(1 for _ in terms), n_docs=n_docs)


def _matrix(dense, labels=None):
    dense = np.asarray(dense, dtype=float)
    if labels is None:
        labels = [ALL_LABELS[i % 8] for i in range(dense.shape[0])]
    rows = tuple(
        {j: float(v) for j, v in enumerate(row) if v != 0.0} for row in dense
    )
    return FeatureMatrix.from_rows(
        rows=rows,
        n_cols=dense.shape[1],
        sample_ids=tuple(f"s{i}" for i in range(dense.shape[0])),
        labels=tuple(labels),
    )


def _indicator_matrix(present_classes_per_col, rows_per_class=2):
    """Binary matrix whose columns flag membership in given class sets."""
    labels = [label for label in ALL_LABELS for _ in range(rows_per_class)]
    dense = np.zeros((len(labels), len(present_classes_per_col)))
    for j, class_set in enumerate(present_classes_per_col):
        for i, label in enumerate(labels):
            if label in class_set:
                dense[i, j] = 1.0
    return _matrix(dense, labels)


def _mi_oracle(matrix):
    """Plug-in MI from explicit joint probabilities, feature by feature."""
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
                    1 for i in range(n) if (dense[i, j] != 0.0) == present
                ) / n
                p_y = sum(1 for i in range(n) if matrix.labels[i] is label) / n
                if joint > 0.0:
                    terms.append(joint * math.log(joint / (p_x * p_y)))
        out.append(max(math.fsum(terms), 0.0))
    return np.array(out)


# ---------------------------------------------------------------------------
# Lexical stage
# ---------------------------------------------------------------------------

def test_lexical_rules_judge_argument_segments():
    vocabulary = _vocab(
        [
            "LdrLoadDll_urlmon_urlmon.dll",          # clean arguments
            "NtAllocateVirtualMemory_0x404000",       # hex address
            "SetTimer_1000",                          # pure numeric
            "CreateFileW_report2.doc",                # embedded digit
            "RegOpenKeyExW_Software\\Run",            # backslash is special
        ]
    )
    mask = lexical_filter(vocabulary, ALL_LEXICAL_RULES)
    assert mask.kept == (0,)
    assert mask.provenance == (("lexical", 5, 1),)


def test_lexical_api_name_segment_is_exempt():
    vocabulary = _vocab(["Crypt32AcquireContext_clean", "Ntdll.dll!Load_clean"])
    mask = lexical_filter(vocabulary, ALL_LEXICAL_RULES)
    assert mask.kept == (0, 1)


def test_lexical_checks_every_token_of_an_ngram():
    vocabulary = _vocab(
        [
            "LdrLoadDll_urlmon,NtClose_na",
            "LdrLoadDll_urlmon,NtAllocateVirtualMemory_0x1f",
        ]
    )
    mask = lexical_filter(vocabulary, ALL_LEXICAL_RULES)
    assert mask.kept == (0,)


def test_lexical_single_rule_scopes():
    vocabulary = _vocab(["A_123", "A_0xff", "A_v2", "A_x;y", "A_ok"])
    by_rule = {
        RULE_PURE_NUMERIC: (1, 2, 3, 4),
        RULE_HEX_ADDRESS: (0, 2, 3, 4),
        RULE_CONTAINS_DIGIT: (3, 4),
        # Digits fall outside [A-Za-z._-], so they are special characters too.
        RULE_CONTAINS_SPECIAL: (4,),
    }
    for rule, expected in by_rule.items():
        assert lexical_filter(vocabulary, {rule}).kept == expected


def _reference_lexical_kept(terms, rules):
    """The per-segment loop: every argument segment of every token, judged
    afresh for each term."""
    def violates(segment):
        return (
            (RULE_HEX_ADDRESS in rules and re.match(r"^0x[0-9a-fA-F]+$", segment))
            or (RULE_PURE_NUMERIC in rules and re.match(r"^[0-9]+$", segment))
            or (RULE_CONTAINS_DIGIT in rules and re.search(r"\d", segment))
            or (RULE_CONTAINS_SPECIAL in rules and re.search(r"[^A-Za-z._-]", segment))
        )

    kept = []
    for j, term in enumerate(terms):
        segments = [seg for token in term.split(",") for seg in token.split("_")[1:]]
        if not any(violates(seg) for seg in segments):
            kept.append(j)
    return tuple(kept)


# Shared tokens, hex- and numeric-looking API names (exempt: only argument
# segments are judged), ``name_na`` tokens, and one argument of each rule.
_LEXICAL_TOKENS = (
    "A_x", "B_na", "C_na", "0x1f_ok", "123_ok", "D_0x404000", "E_1000",
    "F_v2", "G_x;y", "H_lib.dll_my-file", "I_ok_7", "J_", "K",
)


def _lexical_terms(seed):
    rng = random.Random(seed)
    terms = set(_LEXICAL_TOKENS)
    terms.update({"A_x,A_x", "A_x,A_x,A_x", "B_na,B_na,B_na"})
    for n in (2, 3):
        terms.update(",".join(rng.choices(_LEXICAL_TOKENS, k=n)) for _ in range(60))
    return sorted(terms)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lexical_filter_matches_the_per_segment_reference_for_every_rule_subset(seed):
    terms = _lexical_terms(seed)
    vocabulary = _vocab(terms)
    for size in range(len(ALL_LEXICAL_RULES) + 1):
        for rules in itertools.combinations(sorted(ALL_LEXICAL_RULES), size):
            expected = _reference_lexical_kept(terms, frozenset(rules))
            assert lexical_filter(vocabulary, rules).kept == expected, rules


def test_lexical_dot_dash_underscore_are_not_special():
    vocabulary = _vocab(["A_lib.dll", "A_my-file", "A_x"])
    mask = lexical_filter(vocabulary, {RULE_CONTAINS_SPECIAL})
    assert mask.kept == (0, 1, 2)


def test_lexical_empty_ruleset_keeps_everything():
    vocabulary = _vocab(["A_0x1", "B_2"])
    assert lexical_filter(vocabulary, frozenset()).kept == (0, 1)


def test_lexical_unknown_rule_rejected():
    with pytest.raises(DimensionMismatch):
        lexical_filter(_vocab(["A_x"]), {"is-palindrome"})


def test_lexical_removing_everything_raises():
    with pytest.raises(AllFeaturesRemoved):
        lexical_filter(_vocab(["A_1", "B_0x2"]), ALL_LEXICAL_RULES)


# ---------------------------------------------------------------------------
# Frequency stage
# ---------------------------------------------------------------------------

def test_frequency_filter_bounds():
    dense = [
        [1, 1, 1, 0],
        [2, 1, 0, 1],
        [1, 0, 0, 3],
        [4, 0, 0, 1],
    ]
    freq = _matrix(dense)
    mask = frequency_filter(freq, identity_mask(4), min_df=2, max_df_ratio=0.95)
    assert mask.kept == (1, 3)
    assert mask.provenance == (("identity", 4, 4), ("frequency", 4, 2))


def test_frequency_filter_ratio_one_keeps_ubiquitous_terms():
    freq = _matrix([[1, 1], [1, 0]])
    mask = frequency_filter(freq, identity_mask(2), min_df=1, max_df_ratio=1.0)
    assert mask.kept == (0, 1)


def test_frequency_filter_requires_matching_width():
    # A candidate at or beyond the matrix's last column is rejected.
    with pytest.raises(DimensionMismatch):
        frequency_filter(_matrix([[1, 1]]), identity_mask(3), 1, 1.0)
    with pytest.raises(DimensionMismatch):
        frequency_filter(_matrix([[1, 1]]), SelectionMask(kept=(2,)), 1, 1.0)


def test_frequency_filter_removing_everything_raises():
    with pytest.raises(AllFeaturesRemoved):
        frequency_filter(_matrix([[1], [1]]), identity_mask(1), min_df=3, max_df_ratio=1.0)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def test_mi_is_zero_for_a_ubiquitous_feature():
    matrix = _indicator_matrix([set(ALL_LABELS)])
    assert mutual_information_all(matrix)[0] == pytest.approx(0.0, abs=1e-15)


def test_mi_of_a_balanced_two_class_indicator_is_ln_two():
    labels = [ClassLabel.TROJAN] * 4 + [ClassLabel.BENIGN] * 4
    dense = [[1.0]] * 4 + [[0.0]] * 4
    matrix = _matrix(dense, labels)
    assert mutual_information_all(matrix)[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_mi_of_a_single_class_indicator_over_eight_classes():
    matrix = _indicator_matrix([{ClassLabel.TROJAN}])
    expected = math.log(8.0) / 8.0 + (7.0 / 8.0) * math.log(8.0 / 7.0)
    value = mutual_information_all(matrix)[0]
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.37677016125643676, abs=1e-12)


def test_mi_of_an_independent_feature_is_zero():
    labels = [label for label in ALL_LABELS for _ in range(2)]
    dense = [[1.0] if i % 2 == 0 else [0.0] for i in range(16)]
    matrix = _matrix(dense, labels)
    assert mutual_information_all(matrix)[0] == pytest.approx(0.0, abs=1e-12)


def test_mi_is_nonnegative_on_random_matrices():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        v = int(rng.integers(1, 10))
        dense = (rng.random((n, v)) < 0.4).astype(float)
        labels = [ALL_LABELS[int(rng.integers(0, 8))] for _ in range(n)]
        assert (mutual_information_all(_matrix(dense, labels)) >= 0.0).all()


def test_mi_matches_brute_force_oracle():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(5, 61))
        v = int(rng.integers(1, 13))
        dense = (rng.random((n, v)) < rng.uniform(0.2, 0.7)).astype(float)
        labels = [ALL_LABELS[int(rng.integers(0, 8))] for _ in range(n)]
        matrix = _matrix(dense, labels)
        got = mutual_information_all(matrix)
        assert np.max(np.abs(got - _mi_oracle(matrix))) <= 1e-10


def test_mi_is_invariant_under_row_permutation():
    rng = np.random.default_rng(47)
    dense = (rng.random((30, 6)) < 0.5).astype(float)
    labels = [ALL_LABELS[int(rng.integers(0, 8))] for _ in range(30)]
    base = mutual_information_all(_matrix(dense, labels))
    perm = rng.permutation(30)
    shuffled = mutual_information_all(_matrix(dense[perm], [labels[i] for i in perm]))
    assert np.max(np.abs(base - shuffled)) <= 1e-15


def test_rank_by_mi_breaks_ties_by_lower_column_index():
    labels = [ClassLabel.TROJAN] * 4 + [ClassLabel.BENIGN] * 4
    dense = [
        [1, 1, 1],
        [1, 1, 1],
        [1, 1, 1],
        [1, 1, 1],
        [0, 0, 1],
        [0, 0, 1],
        [0, 0, 0],
        [0, 0, 0],
    ]
    matrix = _matrix(dense, labels)
    mask = rank_by_mi(matrix, identity_mask(3), keep=2)
    mi = mutual_information_all(matrix)
    assert mi[0] == mi[1] and mi[0] > mi[2]
    assert mask.kept == (0, 1)
    assert mask.scores[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_rank_by_mi_scores_the_candidates_as_the_whole_vocabulary_would():
    # rank_by_mi computes MI on the candidate columns alone; each score must
    # have the bits of that column's MI over the full matrix.
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 80))
        v = int(rng.integers(1, 300))
        dense = (rng.random((n, v)) < rng.uniform(0.05, 0.5)) * rng.integers(1, 4, size=(n, v))
        labels = [ALL_LABELS[int(c)] for c in rng.integers(0, int(rng.integers(1, 9)), size=n)]
        matrix = _matrix(dense, labels)
        kept = tuple(sorted(rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False).tolist()))
        mask = rank_by_mi(matrix, SelectionMask(kept=kept), keep=len(kept))
        full = mutual_information_all(matrix)
        assert mask.kept == kept
        assert [mask.scores[j] for j in kept] == full[list(kept)].tolist()


# ---------------------------------------------------------------------------
# Correlation pruning
# ---------------------------------------------------------------------------

def _scored(n_cols, scores):
    return SelectionMask(kept=tuple(range(n_cols)), scores=dict(enumerate(scores)))


def test_correlation_prune_drops_the_lower_ranked_duplicate():
    dense = [[1, 2], [2, 4], [3, 6], [4, 8]]
    mask = correlation_prune(_matrix(dense), _scored(2, [0.9, 0.5]), threshold=0.95)
    assert mask.kept == (0,)
    assert mask.provenance[-1] == ("correlation", 2, 1)


def test_correlation_prune_keeps_mildly_negative_indicators():
    dense = [[1, 0], [0, 1], [0, 0], [0, 0]]
    mask = correlation_prune(_matrix(dense), _scored(2, [0.9, 0.5]), threshold=0.95)
    assert mask.kept == (0, 1)


def test_correlation_prune_uses_signed_correlation():
    dense = [[1, 0], [1, 0], [0, 1], [0, 1]]
    mask = correlation_prune(_matrix(dense), _scored(2, [0.9, 0.5]), threshold=0.95)
    assert mask.kept == (0, 1)


def test_correlation_prune_threshold_above_one_keeps_near_duplicates():
    dense = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.001]])
    near = correlation_prune(_matrix(dense), _scored(2, [0.9, 0.5]), threshold=1.5)
    assert near.kept == (0, 1)
    exact = correlation_prune(
        _matrix(dense[:, [0, 0]]), _scored(2, [0.9, 0.5]), threshold=1.5
    )
    assert exact.kept == (0,)


def test_correlation_prune_matches_numpy_oracle():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(6, 61))
        v = int(rng.integers(2, 13))
        dense = rng.random((n, v)) * (rng.random((n, v)) < 0.6)
        base = rng.random((n, 1))
        clones = rng.integers(0, 2, v).astype(bool)
        dense[:, clones] = base * rng.uniform(0.5, 2.0, clones.sum())
        scores = rng.random(v)
        threshold = float(rng.uniform(0.5, 1.0))
        mask = correlation_prune(_matrix(dense), _scored(v, scores), threshold)

        order = sorted(range(v), key=lambda j: (-scores[j], j))
        expected: list[int] = []
        for j in order:
            redundant = False
            for k in expected:
                with np.errstate(invalid="ignore"):
                    r = np.corrcoef(dense[:, j], dense[:, k])[0, 1]
                if not math.isnan(r) and r > threshold:
                    redundant = True
                    break
            if not redundant:
                expected.append(j)
        assert mask.kept == tuple(sorted(expected))


def _pairwise_prune_oracle(dense, scores, threshold):
    """The pairwise ``_pearson`` loop that the blocked product replaced."""
    thr = min(threshold, 1.0)
    duplicates_only = thr >= 1.0
    order = sorted(range(dense.shape[1]), key=lambda j: (-scores[j], j))
    columns = np.ascontiguousarray(dense.T)
    kept_order: list[int] = []
    for j in order:
        redundant = False
        for k in kept_order:
            r = _pearson(columns[j], columns[k])
            if (r >= 1.0 - _DUPLICATE_EPS) if duplicates_only else (r > thr):
                redundant = True
                break
        if not redundant:
            kept_order.append(j)
    return tuple(sorted(kept_order))


def _redundant_matrix(rng, n, v):
    """Random columns plus clones, all-zero, constant and tiny-norm ones."""
    dense = rng.random((n, v)) * (rng.random((n, v)) < rng.uniform(0.2, 0.9))
    if rng.random() < 0.5:
        dense = np.round(dense, 1)
    kind = rng.random(v)
    dense[:, kind < 0.1] = 0.0
    constant = (kind >= 0.1) & (kind < 0.2)
    dense[:, constant] = rng.choice([0.1, 1.0 / 3.0, 7.0], constant.sum())
    clones = kind >= 0.75
    sources = rng.integers(0, v, clones.sum())
    dense[:, clones] = dense[:, sources] * rng.choice([1.0, 0.5, 3.0], clones.sum())
    dense[:, (kind >= 0.2) & (kind < 0.22)] *= 1e-80
    return dense


def test_correlation_prune_matches_the_pairwise_loop_across_block_sizes(monkeypatch):
    rng = np.random.default_rng(61)
    for trial in range(100):
        n = int(rng.integers(4, 40))
        v = 300 if trial % 20 == 0 else int(rng.integers(2, 60))
        dense = _redundant_matrix(rng, n, v)
        scores = np.round(rng.random(v), 1)
        a, b = rng.choice(v, 2)
        threshold = float(rng.choice([
            0.5, 0.8, 0.95, 1.0, 1.5, rng.uniform(0.3, 1.0),
            _pearson(dense[:, a], dense[:, b]),
        ]))
        expected = _pairwise_prune_oracle(dense, scores, threshold)
        matrix = _matrix(dense)
        for block in (1, 7, 128):
            monkeypatch.setattr(select, "_CORR_BLOCK", block)
            mask = correlation_prune(matrix, _scored(v, scores), threshold)
            assert mask.kept == expected, (trial, block, threshold)


def test_blocked_correlations_sit_far_inside_the_recheck_margin(monkeypatch):
    rng = np.random.default_rng(67)
    monkeypatch.setattr(select, "_CORR_BLOCK", 7)
    for _ in range(30):
        dense = _redundant_matrix(rng, int(rng.integers(4, 40)), int(rng.integers(2, 40)))
        cols = np.ascontiguousarray(dense.T)
        for start, block in _correlation_blocks(cols):
            for i, row in enumerate(block):
                for q, r in enumerate(row):
                    if not math.isnan(r):
                        assert abs(r - _pearson(cols[start + i], cols[q])) <= 1e-12


def test_correlation_prune_tie_rule_at_the_threshold():
    """A correlation equal to the threshold is not above it; one ulp lower is."""
    rng = np.random.default_rng(71)
    for _ in range(60):
        n = int(rng.integers(5, 200))
        x = rng.random(n)
        y = rng.random(n) + rng.uniform(0.0, 3.0) * x
        r = _pearson(x, y)
        matrix = _matrix(np.column_stack([x, y]))
        at = correlation_prune(matrix, _scored(2, [0.9, 0.5]), threshold=r)
        assert at.kept == (0, 1)
        below = correlation_prune(matrix, _scored(2, [0.9, 0.5]), np.nextafter(r, -np.inf))
        assert below.kept == (0,)


# ---------------------------------------------------------------------------
# Full cascade
# ---------------------------------------------------------------------------

def _planted_corpus(rng, n_cols=1000, rows_per_class=10):
    """Binary corpus with 10 high-MI columns planted in front of noise."""
    labels = [label for label in ALL_LABELS for _ in range(rows_per_class)]
    n = len(labels)
    dense = np.zeros((n, n_cols))
    informative = [{label} for label in ALL_LABELS]
    informative.append(set(ALL_LABELS[:2]))
    informative.append(set(ALL_LABELS[2:4]))
    for j, class_set in enumerate(informative):
        for i, label in enumerate(labels):
            if label in class_set:
                dense[i, j] = 1.0
    noise = (rng.random((n, n_cols - 10)) < 0.3).astype(float)
    deficient = noise.sum(axis=0) < 2
    noise[:2, deficient] = 1.0
    dense[:, 10:] = noise
    vocabulary = _vocab([f"feat{j:04d}_arg" for j in range(n_cols)], n_docs=n)
    return _matrix(dense, labels), vocabulary


def test_hybrid_final_mask_respects_the_retention_ceiling():
    rng = np.random.default_rng(59)
    matrix, vocabulary = _planted_corpus(rng)
    mask = hybrid_select(matrix, matrix, vocabulary, SelectionConfig())
    assert len(mask) <= math.ceil(0.016 * 1000)


def test_hybrid_keeps_the_planted_informative_features():
    rng = np.random.default_rng(61)
    matrix, vocabulary = _planted_corpus(rng)
    mask = hybrid_select(matrix, matrix, vocabulary, SelectionConfig())
    assert set(range(10)) <= set(mask.kept)


def test_hybrid_with_everything_disabled_is_the_identity():
    rng = np.random.default_rng(67)
    dense = (rng.random((16, 40)) < 0.5).astype(float)
    dense[0] = 1.0
    matrix = _matrix(dense)
    vocabulary = _vocab([f"t{j}" for j in range(40)], n_docs=16)
    config = SelectionConfig(
        lexical_filters=frozenset(),
        min_df=1,
        max_df_ratio=1.0,
        mi_top_ratio=1.0,
        corr_threshold=0.95,
        target_ratio=1.0,
    )
    mask = hybrid_select(matrix, matrix, vocabulary, config)
    assert mask.kept == tuple(range(40))


def test_hybrid_provenance_records_the_stage_chain():
    rng = np.random.default_rng(71)
    matrix, vocabulary = _planted_corpus(rng)
    mask = hybrid_select(matrix, matrix, vocabulary, SelectionConfig())
    assert [stage for stage, _, _ in mask.provenance] == [
        "lexical",
        "frequency",
        "mi",
        "correlation",
        "truncate",
    ]
    assert mask.provenance[0][1] == 1000
    for _, n_in, n_out in mask.provenance:
        assert n_out <= n_in


def test_hybrid_is_deterministic():
    rng = np.random.default_rng(73)
    matrix, vocabulary = _planted_corpus(rng, n_cols=200, rows_per_class=4)
    config = SelectionConfig(target_ratio=0.1)
    first = hybrid_select(matrix, matrix, vocabulary, config)
    second = hybrid_select(matrix, matrix, vocabulary, config)
    assert first.kept == second.kept
    assert first.scores == second.scores
    assert first.provenance == second.provenance


def test_hybrid_ceiling_holds_across_random_targets():
    rng = np.random.default_rng(79)
    for _ in range(10):
        v = int(rng.integers(20, 120))
        n = int(rng.integers(16, 48))
        dense = (rng.random((n, v)) < 0.5).astype(float)
        dense[:2] = 1.0
        labels = [ALL_LABELS[i % 8] for i in range(n)]
        matrix = _matrix(dense, labels)
        vocabulary = _vocab([f"t{j}" for j in range(v)], n_docs=n)
        target = float(rng.uniform(0.02, 0.9))
        config = SelectionConfig(min_df=1, max_df_ratio=1.0, target_ratio=target)
        mask = hybrid_select(matrix, matrix, vocabulary, config)
        assert len(mask) <= math.ceil(target * v)
        assert all(0 <= j < v for j in mask.kept)
        assert list(mask.kept) == sorted(set(mask.kept))


def _reference_cascade(tfidf_dense, freq_dense, labels, terms, config):
    """The cascade from its parts: per-segment lexical rules, df bounds over
    every column intersected as sets, MI ranked over the whole vocabulary,
    the pairwise ``_pearson`` prune and truncation. ``None`` when a stage
    removes every feature."""
    v = len(terms)
    lexical = _reference_lexical_kept(terms, config.lexical_filters)
    provenance = [("lexical", v, len(lexical))]
    df = (freq_dense != 0).sum(axis=0)
    ceiling = config.max_df_ratio * freq_dense.shape[0]
    in_bounds = {j for j in range(v) if config.min_df <= df[j] <= ceiling}
    surviving = sorted(set(lexical) & in_bounds)
    if not lexical or not surviving:
        return None
    provenance.append(("frequency", len(lexical), len(surviving)))
    mi = mutual_information_all(_matrix(freq_dense, labels)).tolist()
    keep = math.ceil(max(config.mi_top_ratio, config.target_ratio) * v)
    kept = sorted(sorted(surviving, key=lambda j: (-mi[j], j))[:keep])
    provenance.append(("mi", len(surviving), len(kept)))
    if config.target_ratio < 1.0:
        pruned = _pairwise_prune_oracle(
            tfidf_dense[:, kept], [mi[j] for j in kept], config.corr_threshold
        )
        pruned = [kept[p] for p in pruned]
        provenance.append(("correlation", len(kept), len(pruned)))
        target = math.ceil(config.target_ratio * v)
        kept = sorted(sorted(pruned, key=lambda j: (-mi[j], j))[:target])
        provenance.append(("truncate", len(pruned), len(kept)))
    return tuple(kept), {j: mi[j] for j in kept}, tuple(provenance)


def _cascade_corpus(rng, seed):
    """Random counts over lexical-test terms, with ubiquitous columns and
    clones; the TF-IDF stand-in scales each count column by its own weight."""
    terms = _lexical_terms(seed)
    n, v = int(rng.integers(8, 41)), len(terms)
    freq = (rng.random((n, v)) < rng.uniform(0.1, 0.6)) * rng.integers(1, 4, size=(n, v))
    kind = rng.random(v)
    freq[:, kind < 0.05] = 1
    clones = kind > 0.8
    freq[:, clones] = freq[:, rng.integers(0, v, clones.sum())]
    tfidf = freq * rng.uniform(0.1, 3.0, v)
    labels = [ALL_LABELS[int(c)] for c in rng.integers(0, 8, size=n)]
    return terms, freq.astype(float), tfidf, labels


def test_hybrid_matches_the_cascade_built_from_its_parts():
    rng = np.random.default_rng(83)
    subsets = [
        frozenset(rules)
        for size in range(len(ALL_LEXICAL_RULES) + 1)
        for rules in itertools.combinations(sorted(ALL_LEXICAL_RULES), size)
    ]
    outcomes = set()
    for trial in range(30):
        terms, freq_dense, tfidf_dense, labels = _cascade_corpus(rng, trial)
        freq, tfidf = _matrix(freq_dense, labels), _matrix(tfidf_dense, labels)
        vocabulary = _vocab(terms, n_docs=len(labels))
        mi_top_ratio = float(rng.choice([0.05, 0.3, 1.0]))
        for (min_df, max_df_ratio), target_ratio, corr_threshold in itertools.product(
            [(1, 1.0), (2, 0.9), (len(labels) + 1, 1.0)], [1.0, 0.05, 0.2], [0.9, 1.5, math.inf]
        ):
            config = SelectionConfig(
                lexical_filters=subsets[trial % len(subsets)],
                min_df=min_df,
                max_df_ratio=max_df_ratio,
                mi_top_ratio=mi_top_ratio,
                corr_threshold=corr_threshold,
                target_ratio=target_ratio,
            )
            expected = _reference_cascade(tfidf_dense, freq_dense, labels, terms, config)
            if expected is None:
                with pytest.raises(AllFeaturesRemoved):
                    hybrid_select(tfidf, freq, vocabulary, config)
                outcomes.add("removed")
                continue
            mask = hybrid_select(tfidf, freq, vocabulary, config)
            assert (mask.kept, mask.scores, mask.provenance) == expected, (trial, config)
            outcomes.update(stage for stage, n_in, n_out in mask.provenance if n_out < n_in)
    # Every stage cut somewhere, and some config removed everything.
    assert outcomes == {"lexical", "frequency", "mi", "correlation", "truncate", "removed"}


def test_hybrid_rejects_mismatched_matrices():
    matrix = _matrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        hybrid_select(matrix, matrix, _vocab(["a"]), SelectionConfig())


def test_hybrid_surfaces_total_removal():
    matrix = _matrix([[1.0], [1.0]], [ClassLabel.TROJAN, ClassLabel.BENIGN])
    vocabulary = _vocab(["A_0x1f"], n_docs=2)
    with pytest.raises(AllFeaturesRemoved):
        hybrid_select(matrix, matrix, vocabulary, SelectionConfig())


def test_selection_config_validation():
    with pytest.raises(DimensionMismatch):
        SelectionConfig(target_ratio=0.0)
    with pytest.raises(DimensionMismatch):
        SelectionConfig(target_ratio=1.5)
    with pytest.raises(DimensionMismatch):
        SelectionConfig(min_df=0)
    with pytest.raises(DimensionMismatch):
        SelectionConfig(lexical_filters=frozenset({"bogus"}))


@pytest.mark.parametrize(
    "setting",
    [
        {"corr_threshold": math.nan},
        {"max_df_ratio": math.nan},
        {"mi_top_ratio": math.nan},
        {"mi_top_ratio": math.inf},
        {"mi_top_ratio": -math.inf},
    ],
)
def test_selection_config_rejects_non_finite_ratios(setting):
    with pytest.raises(DimensionMismatch):
        SelectionConfig(**setting)


def test_infinite_corr_threshold_is_accepted_and_prunes_only_duplicates():
    assert SelectionConfig(corr_threshold=math.inf).corr_threshold == math.inf
    dense = [[1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 4.5]]
    mask = correlation_prune(_matrix(dense), _scored(3, [0.9, 0.5, 0.1]), math.inf)
    assert mask.kept == (0, 2)


def test_selection_mask_invariants():
    with pytest.raises(AllFeaturesRemoved):
        SelectionMask(kept=())
    with pytest.raises(DimensionMismatch):
        SelectionMask(kept=(3, 1))


def test_mask_csv_round_trip(tmp_path):
    vocabulary = _vocab(["alpha", "beta", "gamma", "delta"])
    mask = SelectionMask(kept=(0, 2), scores={0: 0.1234567890123456789, 2: 0.5})
    path = tmp_path / "mask.csv"
    write_mask(path, mask, vocabulary)
    again = read_mask(path)
    assert again.kept == mask.kept
    assert again.scores == {0: mask.scores[0], 2: 0.5}
    header, first = path.read_text().splitlines()[:2]
    assert header == "kept_index,ngram,mi_score"
    assert first.startswith("0,alpha,")


def test_selection_report_csv(tmp_path):
    mask = SelectionMask(
        kept=(1,),
        provenance=(("lexical", 10, 6), ("frequency", 6, 3), ("mi", 3, 1)),
    )
    path = tmp_path / "report.csv"
    write_selection_report(path, mask)
    assert path.read_text() == (
        "stage,features_in,features_out\nlexical,10,6\nfrequency,6,3\nmi,3,1\n"
    )
