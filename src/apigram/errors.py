"""Exception taxonomy for the pipeline.

Every stage raises a subclass of :class:`PipelineError` so the CLI can map
failures to a machine-readable error line and a nonzero exit status.
"""
from __future__ import annotations


class PipelineError(Exception):
    """Base class for all pipeline failures; ``code`` is the class name."""

    code = "PipelineError"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


# --- report ingest ---------------------------------------------------------

class MalformedJson(PipelineError):
    """A report or ``corpus.jsonl`` line is not the JSON it should be."""


class MissingBehaviorSection(PipelineError):
    """A report has no per-process call lists."""


class EmptyTrace(PipelineError):
    """Report parsed fine but contains zero API calls."""


# --- tokenizer / vectorizer ------------------------------------------------

class InvalidN(PipelineError):
    """An n-gram size outside the supported ones."""


class EmptyCorpus(PipelineError):
    """No documents to build a vocabulary or matrix from."""


class EmptyDocument(PipelineError):
    """Term frequency asked of a document with no n-grams."""


class ZeroDf(PipelineError):
    """IDF asked of a term no document contains."""


# --- selector ---------------------------------------------------------------

class AllFeaturesRemoved(PipelineError):
    """A selection stage kept no feature."""


# --- models -----------------------------------------------------------------

class DegenerateData(PipelineError):
    """Training data a learner cannot fit, such as a single class."""


class NonFiniteInput(PipelineError):
    """A NaN or infinite feature weight."""


class DimensionMismatch(PipelineError):
    """Shapes that do not fit each other."""


class Unsupported(PipelineError):
    """An operation the chosen learner does not offer."""


class VersionMismatch(PipelineError):
    """A model file of another format version."""


class CorruptModel(PipelineError):
    """A model file that cannot be read back."""


# --- evaluator / synth ------------------------------------------------------

class ClassTooSmall(PipelineError):
    """A class with too few samples to split."""


class EmptyTestSet(PipelineError):
    """Evaluation asked on zero test rows."""


class InvalidSpec(PipelineError):
    """A synthetic-corpus spec that cannot be generated."""


class IoFailure(PipelineError):
    """A file that cannot be read or written."""


# --- cli ---------------------------------------------------------------------

class ConfigError(PipelineError):
    """A config file, key or value that cannot be used."""


class MissingArtifact(PipelineError):
    """A stage's input file that an earlier stage has not written."""
