"""Exception taxonomy for the pipeline.

Every stage raises a subclass of :class:`PipelineError` so the CLI can map
failures to a machine-readable error line and a nonzero exit status.
"""
from __future__ import annotations


class PipelineError(Exception):
    """Base class for all pipeline failures."""

    code = "PipelineError"


# --- report ingest ---------------------------------------------------------

class MalformedJson(PipelineError):
    code = "MalformedJson"


class MissingBehaviorSection(PipelineError):
    code = "MissingBehaviorSection"


class EmptyTrace(PipelineError):
    """Report parsed fine but contains zero API calls."""

    code = "EmptyTrace"


# --- tokenizer / vectorizer ------------------------------------------------

class InvalidN(PipelineError):
    code = "InvalidN"


class EmptyCorpus(PipelineError):
    code = "EmptyCorpus"


class EmptyDocument(PipelineError):
    code = "EmptyDocument"


class ZeroDf(PipelineError):
    code = "ZeroDf"


# --- selector ---------------------------------------------------------------

class AllFeaturesRemoved(PipelineError):
    code = "AllFeaturesRemoved"


# --- models -----------------------------------------------------------------

class DegenerateData(PipelineError):
    code = "DegenerateData"


class NonFiniteInput(PipelineError):
    code = "NonFiniteInput"


class DimensionMismatch(PipelineError):
    code = "DimensionMismatch"


class Unsupported(PipelineError):
    code = "Unsupported"


class VersionMismatch(PipelineError):
    code = "VersionMismatch"


class CorruptModel(PipelineError):
    code = "CorruptModel"


# --- evaluator / synth ------------------------------------------------------

class ClassTooSmall(PipelineError):
    code = "ClassTooSmall"


class EmptyTestSet(PipelineError):
    code = "EmptyTestSet"


class InvalidSpec(PipelineError):
    code = "InvalidSpec"


class IoFailure(PipelineError):
    code = "IoFailure"


# --- cli ---------------------------------------------------------------------

class ConfigError(PipelineError):
    code = "ConfigError"


class MissingArtifact(PipelineError):
    code = "MissingArtifact"
