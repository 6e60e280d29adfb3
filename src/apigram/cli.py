"""Command-line front end: seven stages over one shared working directory.

Each stage command reads its inputs from earlier stages' artifacts and
writes its own. ``pipeline`` writes the same artifacts, byte for byte, but
hands what each stage built to the next one in memory instead of reading it
back: ingest streams its reports into featurize, and featurize's active
feature set goes on to select, train and evaluate. Every config
key can be set in a config file (``key = value`` lines), through a flag
of the same name (dots and underscores become dashes, so
``selection.target_ratio`` is ``--selection-target-ratio``), or through
``--set key=value``. Specific flags beat ``--set``, which beats the file;
the merged layers are checked once, before any command writes.
"""
from __future__ import annotations

if __name__ == "__main__":
    # Run as a command: set the BLAS policy before the imports below load numpy.
    from .__main__ import one_blas_thread

    one_blas_thread()

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

from .config import SCHEMA, PipelineConfig, coerce, read_config_values
from .errors import ConfigError, IoFailure, MalformedJson, MissingArtifact, PipelineError
from .evaluate import evaluate, emit_report, stratified_split
from .ingest import (
    BehaviorReport,
    load_corpus,
    load_manifest,
    report_from_json_line,
    report_to_json_bytes,
)
from .models import load_model, save_model, train
from .select import SelectionMask, hybrid_select, read_mask, write_mask, write_selection_report
from .synth import default_spec, generate_corpus, write_corpus
from .tables import csv_field, read_table, write_table
from .tokens import (
    Vocabulary,
    build_vocabulary,
    documents_for_n,
    merge_documents,
    read_vocabulary,
    write_ngram_counts,
    write_vocabulary,
)
from .vectorize import FeatureMatrix, frequency_matrix, read_matrix, tfidf_matrix, write_labels, write_matrix

# Shorthand option strings for the keys people touch most, each mapped
# onto the same destination as its full generated flag.
_ALIASES: dict[str, tuple[str, ...]] = {
    "synth.scale": ("--scale",),
    "model.kind": ("--model",),
    "io.workdir": ("--workdir",),
    "io.manifest": ("--manifest",),
    "selection.target_ratio": ("--target-ratio",),
    "split.train_ratio": ("--train-ratio",),
}

# Shorthand toggles: flag -> (help text, the values it sets).
_TOGGLES: dict[str, tuple[str, dict[str, object]]] = {
    "--no-lexical": ("disable the lexical filter (selection.lexical_rules = empty)",
                     {"selection.lexical_rules": ()}),
    "--no-frequency": ("disable the frequency filter (min_df 1, max_df_ratio 1.0)",
                       {"selection.min_df": 1, "selection.max_df_ratio": 1.0}),
    "--no-selection": ("skip feature selection entirely (selection.enabled = false)",
                       {"selection.enabled": False}),
    "--select-on-all": ("fit selection on all rows (selection.on_all = true)",
                        {"selection.on_all": True}),
    "--reset-at-process": ("restart n-gram windows at process boundaries",
                           {"ngram.reset_at_process": True}),
}

_STAGES = ("synth", "ingest", "featurize", "select", "train", "evaluate", "pipeline")


def _dest(key: str) -> str:
    return "key_" + key.replace(".", "_")


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE", help="config file of 'key = value' lines")
    group.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="sets",
        help="override any config key, including model hyperparameters "
        "such as model.n_trees=50",
    )
    for key, (_, default, help_text) in SCHEMA.items():
        flags = ("--" + key.replace(".", "-").replace("_", "-"),) + _ALIASES.get(key, ())
        shown = default if not isinstance(default, tuple) else ",".join(map(str, default))
        group.add_argument(
            *flags,
            dest=_dest(key),
            metavar="V",
            default=None,
            help=f"{help_text} [{key} = {shown!r}]",
        )
    toggles = parser.add_argument_group("shorthand toggles")
    for flag, (help_text, _) in _TOGGLES.items():
        toggles.add_argument(flag, action="store_true", dest=flag, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apigram",
        description="Behavioral-report classification pipeline: sandbox JSON "
        "to API-call n-gram TF-IDF features, hybrid feature selection, and "
        "classifier training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    texts = {
        "synth": "generate a labeled synthetic corpus plus manifest",
        "ingest": "parse the manifest's reports into a normalized corpus",
        "featurize": "tokenize, build vocabularies and matrices, split rows",
        "select": "fit the hybrid feature-selection mask",
        "train": "fit the configured classifier on the training rows",
        "evaluate": "score the test rows and emit metric artifacts",
        "pipeline": "run every stage in order inside one working directory",
    }
    for name in _STAGES:
        stage = sub.add_parser(name, help=texts[name], description=texts[name])
        _add_config_options(stage)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge the file, ``--set``, flag and toggle layers, then build one config."""
    values = read_config_values(args.config) if args.config else {}
    for item in args.sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        values[key.strip()] = coerce(key.strip(), value.strip())
    for key in SCHEMA:
        raw = getattr(args, _dest(key), None)
        if raw is not None:
            values[key] = coerce(key, raw)
    for flag, (_, implied) in _TOGGLES.items():
        if getattr(args, flag):
            values.update(implied)
    return PipelineConfig(values)


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------

def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"{path} not found; run `apigram {producer}` first")
    return path


def _read_reports(cfg: PipelineConfig) -> Iterator[BehaviorReport]:
    """Yield one report per ``corpus.jsonl`` line, reading the file line by line."""
    path = _require(cfg.workdir / "corpus.jsonl", "ingest")
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                report = report_from_json_line(line.decode("utf-8"))
            except (UnicodeDecodeError, MalformedJson) as exc:
                raise MalformedJson(f"{path}:{line_no}: {exc}") from exc
            yield report


_SPLIT_COLUMNS = ("row", "sample_id", "part")


def _write_split(cfg: PipelineConfig, sample_ids, train_rows, test_rows) -> None:
    membership = {row: "train" for row in train_rows}
    membership.update({row: "test" for row in test_rows})
    write_table(cfg.workdir / "split.csv", _SPLIT_COLUMNS, (
        f"{row},{csv_field(sample_ids[row])},{csv_field(membership[row])}\n" for row in sorted(membership)
    ))


def _read_split(cfg: PipelineConfig) -> tuple[list[int], list[int]]:
    path = _require(cfg.workdir / "split.csv", "featurize")
    parts: dict[str, list[int]] = {"train": [], "test": []}
    seen: set[int] = set()
    with read_table(path, _SPLIT_COLUMNS) as (records, _):
        for index, _, part in records:
            row = int(index)
            if row in seen:
                raise ValueError(f"row {row} is listed twice")
            seen.add(row)
            parts[part].append(row)
    return parts["train"], parts["test"]


def _feature_file(cfg: PipelineConfig, prefix: str) -> Path:
    """The active feature set's ``<prefix>_<suffix>.csv`` artifact."""
    return _require(cfg.workdir / f"{prefix}_{cfg['ngram.active']}.csv", "featurize")


class _Features(NamedTuple):
    """The active feature set over all rows, and the train/test split."""

    tfidf: FeatureMatrix
    freq: FeatureMatrix
    vocabulary: Vocabulary
    train_rows: list[int]
    test_rows: list[int]


class _Dataset(NamedTuple):
    """The all-rows TF-IDF matrix, masked when selection is enabled, and the split."""

    matrix: FeatureMatrix
    train_rows: list[int]
    test_rows: list[int]


def _dataset(
    tfidf: FeatureMatrix, kept: tuple[int, ...] | None, train_rows: list[int], test_rows: list[int]
) -> _Dataset:
    """Cut the all-rows TF-IDF to the ``kept`` columns, if a mask was made.

    The mask applies to every row, not only to the rows select scored.
    """
    return _Dataset(tfidf if kept is None else tfidf.apply_mask(kept), train_rows, test_rows)


def _read_features(cfg: PipelineConfig) -> _Features:
    labels_path = _feature_file(cfg, "labels")
    return _Features(
        read_matrix(_feature_file(cfg, "tfidf"), labels_path),
        read_matrix(_feature_file(cfg, "freq"), labels_path),
        read_vocabulary(_feature_file(cfg, "vocab")),
        *_read_split(cfg),
    )


def _read_dataset(cfg: PipelineConfig) -> _Dataset:
    tfidf = read_matrix(_feature_file(cfg, "tfidf"), _feature_file(cfg, "labels"))
    kept = None
    if cfg["selection.enabled"]:
        kept = read_mask(_require(cfg.workdir / "selection_mask.csv", "select")).kept
    return _dataset(tfidf, kept, *_read_split(cfg))


# ---------------------------------------------------------------------------
# Stage commands
#
# A stage given its inputs as arguments uses them; by default it reads them
# from the workdir. Either way it writes the same artifacts.
# ---------------------------------------------------------------------------

def cmd_synth(cfg: PipelineConfig) -> None:
    spec = default_spec(str(cfg["synth.scale"]), seed=int(cfg["seed"]))
    corpus = generate_corpus(spec)
    manifest = write_corpus(corpus, cfg.workdir)
    print(f"synth: {len(corpus)} reports across {len(spec.samples_per_class)} classes -> {manifest}")


def _ingest(cfg: PipelineConfig) -> Iterator[BehaviorReport]:
    """Write ``corpus.jsonl`` one report at a time and yield each report once
    its line is written. The lines go to a temporary file that replaces
    ``corpus.jsonl`` only once every report has been parsed; a failure, or
    closing the generator early, removes it."""
    entries = load_manifest(_require(cfg.manifest_path, "synth (or point io.manifest at a corpus)"))
    out_path = cfg.workdir / "corpus.jsonl"
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    n_reports = 0
    try:
        fh = open(tmp_path, "wb")
    except OSError as exc:
        raise IoFailure(f"cannot write {tmp_path}: {exc}") from exc
    try:
        with fh:
            for report in load_corpus(entries):
                fh.write(report_to_json_bytes(report) + b"\n")
                n_reports += 1
                yield report
        os.replace(tmp_path, out_path)
    except BaseException as exc:
        tmp_path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {out_path}: {exc}") from exc
        raise
    print(
        f"ingest: parsed {n_reports} reports, dropped {len(entries) - n_reports} "
        f"with an empty trace -> {out_path}"
    )


def cmd_ingest(cfg: PipelineConfig) -> None:
    for _ in _ingest(cfg):
        pass


def cmd_featurize(cfg: PipelineConfig, reports: Iterable[BehaviorReport] | None = None) -> _Features:
    """Write every feature set's artifacts and return the active set's.

    Nothing is written until the last report has been read.
    """
    if reports is None:
        reports = _read_reports(cfg)
    sizes = tuple(cfg["ngram.sizes"])
    max_args = int(cfg["ngram.max_args"])
    reset = bool(cfg["ngram.reset_at_process"])
    labels, sample_ids = [], []
    document_sets = {str(n): [] for n in sizes}
    for report in reports:
        labels.append(report.label)
        sample_ids.append(report.sample_id)
        for n in sizes:
            document_sets[str(n)].extend(documents_for_n([report], n, max_args, reset))

    train_rows, test_rows = stratified_split(labels, cfg.split)
    _write_split(cfg, sample_ids, train_rows, test_rows)

    if cfg["ngram.combine"]:
        document_sets["union"] = merge_documents(list(document_sets.values()))

    summary = []
    for suffix, documents in document_sets.items():
        vocabulary = build_vocabulary([documents[i] for i in train_rows])
        freq = frequency_matrix(documents, vocabulary)
        tfidf = tfidf_matrix(documents, vocabulary, l2=bool(cfg["vectorizer.l2"]), counts=freq)
        workdir = cfg.workdir
        write_ngram_counts(workdir / f"ngrams_{suffix}.csv", documents)
        write_vocabulary(workdir / f"vocab_{suffix}.csv", vocabulary)
        write_matrix(workdir / f"tfidf_{suffix}.csv", tfidf)
        write_matrix(workdir / f"freq_{suffix}.csv", freq)
        write_labels(workdir / f"labels_{suffix}.csv", tfidf)
        summary.append(f"{suffix}:{len(vocabulary)}")
        if suffix == cfg["ngram.active"]:
            active = _Features(tfidf, freq, vocabulary, train_rows, test_rows)
        # Only the active set's matrices outlive their turn.
        del vocabulary, freq, tfidf
    print(
        f"featurize: {len(labels)} docs, train {len(train_rows)} test {len(test_rows)}, "
        f"vocabulary sizes {{{', '.join(summary)}}}"
    )
    return active


def cmd_select(cfg: PipelineConfig, features: _Features | None = None) -> SelectionMask:
    tfidf, freq, vocabulary, train_rows, _ = _read_features(cfg) if features is None else features
    if not cfg["selection.on_all"]:
        tfidf = tfidf.select_rows(train_rows)
        freq = freq.select_rows(train_rows)
    mask = hybrid_select(tfidf, freq, vocabulary, cfg.selection)
    write_mask(cfg.workdir / "selection_mask.csv", mask, vocabulary)
    write_selection_report(cfg.workdir / "selection_report.csv", mask)
    chain = " -> ".join(f"{stage}:{n_out}" for stage, _, n_out in mask.provenance)
    print(f"select: kept {len(mask)} of {len(vocabulary)} features ({chain})")
    return mask


def cmd_train(cfg: PipelineConfig, dataset: _Dataset | None = None) -> None:
    matrix, train_rows, _ = _read_dataset(cfg) if dataset is None else dataset
    training = matrix.select_rows(train_rows)
    kind, params = cfg.model
    model = train(kind, training, params=params)
    model_path = cfg.workdir / "model.json"
    save_model(model, model_path)
    print(
        f"train: {kind.value} on {training.n_rows} rows x {training.n_cols} features "
        f"-> {model_path}"
    )


def cmd_evaluate(cfg: PipelineConfig, dataset: _Dataset | None = None) -> None:
    # The model is always read back, so every run checks the file it wrote.
    model = load_model(_require(cfg.workdir / "model.json", "train"))
    matrix, _, test_rows = _read_dataset(cfg) if dataset is None else dataset
    test = matrix.select_rows(test_rows)
    report = evaluate(model, test, average=str(cfg["eval.average"]))
    workdir = cfg.workdir
    emit_report(
        report,
        classifier=model.kind.value,
        metrics_path=workdir / "metrics.csv",
        confusion_path=workdir / "confusion.csv",
        svg_path=workdir / "confusion.svg",
    )
    print(
        f"evaluate: accuracy {100.0 * report.accuracy:.2f}% "
        f"{cfg['eval.average']}-f1 {100.0 * report.macro.f1:.2f}% "
        f"on {test.n_rows} test rows -> metrics.csv confusion.csv confusion.svg"
    )


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """The chained stages, each handed what the stage before it built."""
    if not str(cfg["io.manifest"]):
        cmd_synth(cfg)
    with closing(_ingest(cfg)) as reports:
        features = cmd_featurize(cfg, reports)
    kept = cmd_select(cfg, features).kept if cfg["selection.enabled"] else None
    dataset = _dataset(features.tfidf, kept, features.train_rows, features.test_rows)
    del features  # freq, and the unmasked TF-IDF once masked, are freed here
    cmd_train(cfg, dataset)
    cmd_evaluate(cfg, dataset)


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "featurize": cmd_featurize,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        try:
            cfg.workdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot make the workdir {cfg.workdir}: {exc}") from exc
        _COMMANDS[args.command](cfg)
    except PipelineError as exc:
        line = json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True)
        print(line, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
