"""Golden sha256 digests of the pipeline's artifacts at ``--scale tiny --seed 7``.

Refactors of the matrix, selection and learner code must leave every
artifact byte-identical; these digests pin the TF-IDF and frequency
matrices, the selection mask and report, and each learner's model file
and metrics. The second run uses the 1,2,3 union, where every selection
stage (lexical, frequency, MI, correlation, truncation) removes features,
so mutual-information ranking and correlation pruning are pinned too.
"""
from __future__ import annotations

import csv
import hashlib

from apigram.cli import main

_BASE = ("--scale", "tiny", "--seed", "7")
_KINDS = ("decision_tree", "random_forest", "gbt", "knn", "naive_bayes", "svm")
_STAGE_FILES = ("selection_mask.csv", "selection_report.csv")
_MODEL_FILES = ("model.json", "metrics.csv", "confusion.csv")

GOLDEN_PER_KIND: dict[str, str] = {
    "freq_1.csv": "ca3c33f3868169c50375ae9894fbebe70e98d81b2775f163bcb01ea642866801",
    "tfidf_1.csv": "d96da2538ec618821e907828a01ee1615d145c18be05dfff809f4336cf587a51",
    "selection_mask.csv": "2d054239dbbbb85e89b9eaa6c21d4acff2897ab4debae7f17663ee69bbef892e",
    "selection_report.csv": "48a527d0ca60345f7c164d404f4229ba472cd2037c424cb41b473be57f78ff6b",
    "decision_tree/model.json": "f3cb0f30e78492acb593be7c111b5912e42dbe3bee18e8a3f95b9eb0ed3a48bf",
    "decision_tree/metrics.csv": "60a305af878b0ac57ecc8129e7f24fc4496f8853fd6df330cfb0a510ad388ac6",
    "decision_tree/confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
    "random_forest/model.json": "48e39b6d406191e15d116cea4d0138385c3fd06fe919ab098435843701fa4ed0",
    "random_forest/metrics.csv": "5f60afbc50f33248faf8c8013d3c22ac08d2ecf380e232be7c94f733cb1c9a6b",
    "random_forest/confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
    "gbt/model.json": "9525ae502cd9d421d1b689178040b0eb23f160af25273d7aeab08aeb7d39d313",
    "gbt/metrics.csv": "967e66fb342a1d560ceaa5ebe3b74f304a7c1c87789f8ae7cfdd78253e99b7c2",
    "gbt/confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
    "knn/model.json": "27fff620c82d50f8a85da6cd28c9a3ee8e057d84ae8406892887001153dfc31d",
    "knn/metrics.csv": "ba564e3be78dbd50560ee65c3aeee5d78c7f586fb97c9399bf943755086b3dcf",
    "knn/confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
    "naive_bayes/model.json": "ff52f0bdbbb8c7ad252dd6b1633b35175446554dfc371073eba8592d44f6cc22",
    "naive_bayes/metrics.csv": "b000d644b8f31da13fbcd8703d059966195dc446660cabb92a2fc819dc24f34b",
    "naive_bayes/confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
    "svm/model.json": "93fae46c177d9c360c80e8721d3eabb74f6d8e596ffd8907c728c879e9f9fc54",
    "svm/metrics.csv": "b9decc66ca3ca3c8d92bfbef6f966489fd518cea650e1835cb08c7cbaf86bdba",
    "svm/confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
}

GOLDEN_UNION: dict[str, str] = {
    "freq_1.csv": "ca3c33f3868169c50375ae9894fbebe70e98d81b2775f163bcb01ea642866801",
    "freq_2.csv": "fbc676e0db7a337e7ffe87513908844770cfd871bd45589379c79a32ef9cdd8c",
    "freq_3.csv": "2bd4510e22a6a49e5b24a2f9174391086221ce03770b2dca34cba31000ba148e",
    "freq_union.csv": "0f616bcd720d7b54d83c57ef818cc7fa440a4e802d3ed91e28abf7c6902bb780",
    "tfidf_1.csv": "d96da2538ec618821e907828a01ee1615d145c18be05dfff809f4336cf587a51",
    "tfidf_2.csv": "9886f4a7094bd82b41a1248774b55a89054f570c50a48396b558455422e39474",
    "tfidf_3.csv": "f77c866a2f7e27a6c8b271784d5ab6ec665531b2cc769148d6d50ed9698a8403",
    "tfidf_union.csv": "c05a61eca6ed804ea5c5738bc5a1b4e04a11d2aebb858ae073086e72b061bea7",
    "selection_mask.csv": "5cd5410b1bf83354a0c787e09c6d07a03b91d7d912a7272867bcaf6da559613f",
    "selection_report.csv": "32e7f7f88653d843e726995fc2da42cf364bae7eb0ba9524567ade275e1a2793",
    "model.json": "d58bff6f0b37fa1b49a79fc260bce04b401cb3906a432c365a0b774dfbbd3473",
    "metrics.csv": "60a305af878b0ac57ecc8129e7f24fc4496f8853fd6df330cfb0a510ad388ac6",
    "confusion.csv": "4a198db3554eda3e68f58939aee02c9a262a141fc55cdfaaf119421473111996",
}


def _run(command, workdir, *extra):
    assert main([command, *_BASE, "--workdir", str(workdir), *extra]) == 0


def _digests(workdir, names):
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in names}


def _matrix_files(workdir):
    return sorted(p.name for pattern in ("tfidf_*.csv", "freq_*.csv") for p in workdir.glob(pattern))


def test_each_learner_reproduces_the_golden_artifacts(tmp_path):
    for command in ("synth", "ingest", "featurize", "select"):
        _run(command, tmp_path)
    digests = _digests(tmp_path, _matrix_files(tmp_path) + list(_STAGE_FILES))
    for kind in _KINDS:
        _run("train", tmp_path, "--model", kind)
        _run("evaluate", tmp_path, "--model", kind)
        for name, digest in _digests(tmp_path, _MODEL_FILES).items():
            digests[f"{kind}/{name}"] = digest
    assert digests == GOLDEN_PER_KIND


def test_union_pipeline_cuts_at_every_stage_and_reproduces_the_golden_artifacts(tmp_path):
    _run(
        "pipeline", tmp_path,
        "--ngram-sizes", "1,2,3", "--ngram-combine", "true", "--ngram-active", "union",
        "--model", "decision_tree",
    )
    with open(tmp_path / "selection_report.csv", newline="", encoding="utf-8") as fh:
        stages = list(csv.DictReader(fh))
    assert [row["stage"] for row in stages] == [
        "lexical", "frequency", "mi", "correlation", "truncate",
    ]
    assert all(int(row["features_out"]) < int(row["features_in"]) for row in stages)
    names = _matrix_files(tmp_path) + list(_STAGE_FILES) + list(_MODEL_FILES)
    assert _digests(tmp_path, names) == GOLDEN_UNION
