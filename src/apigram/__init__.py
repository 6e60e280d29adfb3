"""Behavioral-report classification toolkit.

Sandbox-style JSON reports in; API-call n-gram TF-IDF features, a hybrid
feature-selection cascade, six from-scratch classifiers, and evaluation
artifacts out. Every stage is deterministic given its seed.

The exported names load on first use, so ``import apigram`` loads neither
numpy nor any stage module.
"""
from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "config": ("PipelineConfig", "read_config", "write_config"),
    "errors": (
        "AllFeaturesRemoved",
        "ClassTooSmall",
        "ConfigError",
        "CorruptModel",
        "DegenerateData",
        "DimensionMismatch",
        "EmptyCorpus",
        "EmptyDocument",
        "EmptyTestSet",
        "EmptyTrace",
        "InvalidN",
        "InvalidSpec",
        "IoFailure",
        "MalformedJson",
        "MissingArtifact",
        "MissingBehaviorSection",
        "NonFiniteInput",
        "PipelineError",
        "Unsupported",
        "VersionMismatch",
        "ZeroDf",
    ),
    "evaluate": (
        "EvalReport",
        "SplitSpec",
        "emit_report",
        "evaluate",
        "metrics_from_confusion",
        "stratified_split",
    ),
    "ingest": ("ApiCallRecord", "BehaviorReport", "load_corpus", "load_manifest", "parse_report"),
    "labels": ("ALL_LABELS", "N_CLASSES", "ClassLabel"),
    "models": (
        "DEFAULT_PARAMS",
        "ClassDistribution",
        "HyperParams",
        "ModelKind",
        "TrainedModel",
        "load_model",
        "predict",
        "predict_matrix",
        "predict_proba",
        "save_model",
        "train",
    ),
    "select": ("SelectionConfig", "SelectionMask", "hybrid_select", "mutual_information_all"),
    "synth": ("ClassProfile", "CorpusSpec", "default_spec", "generate_corpus"),
    "tokens": (
        "TokenDocument",
        "Vocabulary",
        "build_vocabulary",
        "canonical_token",
        "documents_for_n",
        "extract_ngrams",
    ),
    "vectorize": ("FeatureMatrix", "frequency_matrix", "idf", "tf", "tfidf", "tfidf_matrix"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that ``apigram.<name>`` reaches without importing it first.
_SUBMODULES = frozenset(_EXPORTS) | {"tables"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Loading a submodule binds it on its package. Where an export has
        # the submodule's name (``evaluate``), the export keeps the name.
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
