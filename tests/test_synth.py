"""Synthetic corpus generator: determinism, structure, class signal."""
from __future__ import annotations

import json

import numpy as np
import pytest

from apigram.errors import InvalidSpec
from apigram.ingest import ApiCallRecord, load_corpus, load_manifest, parse_report
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.models import ModelKind, train
from apigram.select import mutual_information_all
from apigram.synth import (
    ApiTemplate,
    BACKGROUND_MID,
    ClassProfile,
    CorpusSpec,
    PROLOGUE,
    VOLATILE_APIS,
    default_spec,
    generate_corpus,
    write_corpus,
)
from apigram.tokens import TokenDocument, build_vocabulary, canonical_token
from apigram.vectorize import frequency_matrix, tfidf_matrix


def _documents(corpus, n=1):
    reports = [parse_report(raw, label, sid) for sid, raw, label in corpus]
    return [TokenDocument.from_report(r, n=n) for r in reports]


def _quiet_spec(per_class=4, seed=77):
    base = default_spec("tiny", seed=seed)
    profiles = tuple(
        ClassProfile(
            label=p.label,
            api_pool=p.api_pool,
            trace_length=(30, 50),
            noise_ratio=0.0,
        )
        for p in base.profiles
    )
    return CorpusSpec(
        profiles=profiles,
        samples_per_class={label: per_class for label in ALL_LABELS},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Scales and determinism
# ---------------------------------------------------------------------------

def test_tiny_scale_yields_160_samples():
    corpus = generate_corpus(default_spec("tiny", seed=1))
    assert len(corpus) == 160
    per_class = {label: 0 for label in ALL_LABELS}
    for _, _, label in corpus:
        per_class[label] += 1
    assert all(count == 20 for count in per_class.values())


def test_desk_scale_yields_800_samples():
    corpus = generate_corpus(default_spec("desk", seed=1))
    assert len(corpus) == 800


def test_unknown_scale_is_rejected():
    with pytest.raises(InvalidSpec):
        default_spec("planetary")


def test_generation_is_byte_identical():
    spec = default_spec("tiny", seed=42)
    assert generate_corpus(spec) == generate_corpus(spec)


def test_seed_changes_the_corpus():
    first = generate_corpus(default_spec("tiny", seed=1))
    second = generate_corpus(default_spec("tiny", seed=2))
    assert [raw for _, raw, _ in first] != [raw for _, raw, _ in second]


def test_sample_ids_are_unique_and_class_tagged():
    corpus = generate_corpus(default_spec("tiny", seed=9))
    ids = [sid for sid, _, _ in corpus]
    assert len(set(ids)) == len(ids)
    for sid, _, label in corpus:
        assert sid.startswith(label.value.lower() + "-")


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------

def test_every_report_parses_with_at_least_one_call():
    corpus = generate_corpus(default_spec("tiny", seed=11))
    for sample_id, raw, label in corpus:
        report = parse_report(raw, label, sample_id)
        assert report.calls
        assert report.label is label
        assert report.sample_id == sample_id


def test_reports_have_the_sandbox_document_shape():
    corpus = generate_corpus(default_spec("tiny", seed=13))
    for sample_id, raw, _ in corpus[:24]:
        document = json.loads(raw)
        assert set(document) == {"behavior", "info", "target"}
        processes = document["behavior"]["processes"]
        assert 1 <= len(processes) <= 3
        assert processes[0]["process_name"] == f"{sample_id}.exe"
        assert all(p["calls"] for p in processes)


def test_noisy_traces_open_with_the_fixed_prologue():
    corpus = generate_corpus(default_spec("tiny", seed=17))
    prologue_names = [t.name for t in PROLOGUE]
    for sample_id, raw, label in corpus:
        report = parse_report(raw, label, sample_id)
        assert [c.name for c in report.calls[:2]] == prologue_names


def test_quiet_traces_have_no_background_calls():
    corpus = generate_corpus(_quiet_spec())
    background = {t.name for t in PROLOGUE}
    background |= {t.name for t in BACKGROUND_MID}
    background |= {name for name, _ in VOLATILE_APIS}
    for sample_id, raw, label in corpus:
        report = parse_report(raw, label, sample_id)
        assert not background & {c.name for c in report.calls}


def test_pools_cover_the_loader_and_memory_apis():
    spec = default_spec("tiny")
    pool_names = {t.name for p in spec.profiles for t in p.api_pool}
    assert {"LdrLoadDll", "LdrGetProcedureAddress"} <= pool_names
    assert "NtAllocateVirtualMemory" in {name for name, _ in VOLATILE_APIS}
    assert "LdrUnloadDll" in {t.name for t in BACKGROUND_MID}


# ---------------------------------------------------------------------------
# Class signal
# ---------------------------------------------------------------------------

def test_quiet_corpus_has_disjoint_class_vocabularies():
    corpus = generate_corpus(_quiet_spec())
    tokens_by_class: dict[ClassLabel, set[str]] = {label: set() for label in ALL_LABELS}
    for doc in _documents(corpus):
        tokens_by_class[doc.label].update(doc.counts)
    labels = list(ALL_LABELS)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            assert not tokens_by_class[a] & tokens_by_class[b]


def test_quiet_corpus_is_perfectly_learnable():
    corpus = generate_corpus(_quiet_spec())
    documents = _documents(corpus)
    vocabulary = build_vocabulary(documents)
    matrix = tfidf_matrix(documents, vocabulary)
    model = train(ModelKind.DECISION_TREE, matrix)
    from apigram.models import predict_matrix

    assert predict_matrix(model, matrix) == [doc.label for doc in documents]


def test_exclusive_tokens_outrank_background_tokens_by_mi():
    spec = default_spec("tiny", seed=23)
    corpus = generate_corpus(spec)
    documents = _documents(corpus)
    vocabulary = build_vocabulary(documents)
    matrix = frequency_matrix(documents, vocabulary)
    mi = mutual_information_all(matrix)

    def token_of(template):
        call = ApiCallRecord(
            category=template.category,
            name=template.name,
            arguments=template.arguments,
            return_value="0",
        )
        return canonical_token(call)

    exclusive = {
        token_of(t) for profile in spec.profiles for t in profile.api_pool
    }
    background = {token_of(t) for t in PROLOGUE} | {
        token_of(t) for t in BACKGROUND_MID
    }
    exclusive_mi = [
        mi[vocabulary.index_of(tok)] for tok in exclusive if tok in vocabulary.terms
    ]
    background_mi = [
        mi[vocabulary.index_of(tok)] for tok in background if tok in vocabulary.terms
    ]
    assert len(exclusive_mi) == 96
    assert background_mi
    assert min(exclusive_mi) > max(background_mi)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def _one_profile(label, **overrides):
    kwargs = {
        "label": label,
        "api_pool": (ApiTemplate("LdrLoadDll", "system", ("a.dll", "b")),),
        "trace_length": (5, 10),
        "noise_ratio": 0.2,
    }
    kwargs.update(overrides)
    return ClassProfile(**kwargs)


def test_profile_guards():
    with pytest.raises(InvalidSpec):
        _one_profile(ClassLabel.TROJAN, api_pool=())
    with pytest.raises(InvalidSpec):
        _one_profile(
            ClassLabel.TROJAN,
            api_pool=(ApiTemplate("A", "system", (), weight=0.0),),
        )
    with pytest.raises(InvalidSpec):
        _one_profile(ClassLabel.TROJAN, trace_length=(0, 5))
    with pytest.raises(InvalidSpec):
        _one_profile(ClassLabel.TROJAN, trace_length=(10, 5))
    with pytest.raises(InvalidSpec):
        _one_profile(ClassLabel.TROJAN, noise_ratio=1.0)
    with pytest.raises(InvalidSpec):
        _one_profile(ClassLabel.TROJAN, noise_ratio=-0.1)


def test_corpus_spec_guards():
    profiles = tuple(_one_profile(label) for label in ALL_LABELS)
    counts = {label: 2 for label in ALL_LABELS}
    CorpusSpec(profiles=profiles, samples_per_class=counts, seed=0)
    with pytest.raises(InvalidSpec):
        CorpusSpec(profiles=profiles[:-1], samples_per_class=counts, seed=0)
    with pytest.raises(InvalidSpec):
        CorpusSpec(
            profiles=profiles + (profiles[0],), samples_per_class=counts, seed=0
        )
    starved = dict(counts)
    starved[ClassLabel.WORM] = 1
    with pytest.raises(InvalidSpec):
        CorpusSpec(profiles=profiles, samples_per_class=starved, seed=0)


# ---------------------------------------------------------------------------
# On-disk corpus
# ---------------------------------------------------------------------------

def test_write_corpus_round_trips_through_ingest(tmp_path):
    corpus = generate_corpus(_quiet_spec(per_class=2))
    manifest_path = write_corpus(corpus, tmp_path)
    assert manifest_path == tmp_path / "manifest.csv"
    entries = load_manifest(manifest_path)
    assert [(sid, label) for sid, label, _ in entries] == [
        (sid, label) for sid, _, label in corpus
    ]
    for (sid, raw, _), (_, _, path) in zip(corpus, entries):
        assert path.read_bytes() == raw
    reports = list(load_corpus(manifest_path))
    assert [r.sample_id for r in reports] == [sid for sid, _, _ in corpus]
    assert [r.label for r in reports] == [label for _, _, label in corpus]
