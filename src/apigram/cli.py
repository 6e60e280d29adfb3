"""Command-line front end: seven stages over one shared working directory.

Each stage reads its inputs from earlier stages' artifacts and writes its
own, so ``pipeline`` is exactly the chained single stages. Every config
key can be set in a config file (``key = value`` lines), through a flag
of the same name (dots and underscores become dashes, so
``selection.target_ratio`` is ``--selection-target-ratio``), or through
``--set key=value``. Specific flags beat ``--set``, which beats the file;
the merged layers are checked once, before any command writes.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from .config import SCHEMA, PipelineConfig, coerce, read_config_values
from .errors import ConfigError, IoFailure, MalformedJson, MissingArtifact, PipelineError
from .evaluate import evaluate, emit_report, stratified_split
from .ingest import BehaviorReport, load_corpus, load_manifest, report_from_json_line, report_to_json_bytes
from .models import load_model, save_model, train
from .select import hybrid_select, read_mask, write_mask, write_selection_report
from .synth import default_spec, generate_corpus, write_corpus
from .tokens import (
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


def _write_split(cfg: PipelineConfig, sample_ids, train_rows, test_rows) -> Path:
    path = cfg.workdir / "split.csv"
    membership = {row: "train" for row in train_rows}
    membership.update({row: "test" for row in test_rows})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "sample_id", "part"])
        for row in sorted(membership):
            writer.writerow([row, sample_ids[row], membership[row]])
    return path


def _read_split(cfg: PipelineConfig) -> tuple[list[int], list[int]]:
    path = _require(cfg.workdir / "split.csv", "featurize")
    parts: dict[str, list[int]] = {"train": [], "test": []}
    seen: set[int] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for line_no, record in enumerate(reader, start=2):
            try:
                row, part = int(record[0]), parts[record[2]]
            except (IndexError, KeyError, ValueError) as exc:
                raise IoFailure(f"{path}:{line_no}: bad split record {record!r}") from exc
            if row in seen:
                raise IoFailure(f"{path}:{line_no}: row {row} is listed twice")
            seen.add(row)
            part.append(row)
    return parts["train"], parts["test"]


def _feature_file(cfg: PipelineConfig, prefix: str) -> Path:
    """The active feature set's ``<prefix>_<suffix>.csv`` artifact."""
    return _require(cfg.workdir / f"{prefix}_{cfg['ngram.active']}.csv", "featurize")


def _masked_tfidf(cfg: PipelineConfig) -> FeatureMatrix:
    tfidf = read_matrix(_feature_file(cfg, "tfidf"), _feature_file(cfg, "labels"))
    if not cfg["selection.enabled"]:
        return tfidf
    mask = read_mask(_require(cfg.workdir / "selection_mask.csv", "select"))
    return tfidf.apply_mask(mask.kept)


# ---------------------------------------------------------------------------
# Stage commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: PipelineConfig) -> None:
    spec = default_spec(str(cfg["synth.scale"]), seed=int(cfg["seed"]))
    corpus = generate_corpus(spec)
    manifest = write_corpus(corpus, cfg.workdir)
    print(f"synth: {len(corpus)} reports across {len(spec.samples_per_class)} classes -> {manifest}")


def cmd_ingest(cfg: PipelineConfig) -> None:
    """Write ``corpus.jsonl`` one report at a time, through a temporary file
    that replaces it only once every report has been parsed."""
    manifest = _require(cfg.manifest_path, "synth (or point io.manifest at a corpus)")
    n_entries = len(load_manifest(manifest))
    out_path = cfg.workdir / "corpus.jsonl"
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    n_reports = 0
    try:
        with open(tmp_path, "wb") as fh:
            for report in load_corpus(manifest):
                fh.write(report_to_json_bytes(report) + b"\n")
                n_reports += 1
        os.replace(tmp_path, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    print(
        f"ingest: parsed {n_reports} reports, dropped {n_entries - n_reports} "
        f"with an empty trace -> {out_path}"
    )


def cmd_featurize(cfg: PipelineConfig) -> None:
    sizes = tuple(cfg["ngram.sizes"])
    max_args = int(cfg["ngram.max_args"])
    reset = bool(cfg["ngram.reset_at_process"])
    labels, sample_ids = [], []
    document_sets = {str(n): [] for n in sizes}
    for report in _read_reports(cfg):
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
    print(
        f"featurize: {len(labels)} docs, train {len(train_rows)} test {len(test_rows)}, "
        f"vocabulary sizes {{{', '.join(summary)}}}"
    )


def cmd_select(cfg: PipelineConfig) -> None:
    labels_path = _feature_file(cfg, "labels")
    tfidf = read_matrix(_feature_file(cfg, "tfidf"), labels_path)
    freq = read_matrix(_feature_file(cfg, "freq"), labels_path)
    vocabulary = read_vocabulary(_feature_file(cfg, "vocab"))
    train_rows, _ = _read_split(cfg)
    if not cfg["selection.on_all"]:
        tfidf = tfidf.select_rows(train_rows)
        freq = freq.select_rows(train_rows)
    mask = hybrid_select(tfidf, freq, vocabulary, cfg.selection)
    write_mask(cfg.workdir / "selection_mask.csv", mask, vocabulary)
    write_selection_report(cfg.workdir / "selection_report.csv", mask)
    chain = " -> ".join(f"{stage}:{n_out}" for stage, _, n_out in mask.provenance)
    print(f"select: kept {len(mask)} of {len(vocabulary)} features ({chain})")


def cmd_train(cfg: PipelineConfig) -> None:
    matrix = _masked_tfidf(cfg)
    train_rows, _ = _read_split(cfg)
    training = matrix.select_rows(train_rows)
    kind, params = cfg.model
    model = train(kind, training, params=params)
    model_path = cfg.workdir / "model.json"
    save_model(model, model_path)
    print(
        f"train: {kind.value} on {training.n_rows} rows x {training.n_cols} features "
        f"-> {model_path}"
    )


def cmd_evaluate(cfg: PipelineConfig) -> None:
    model = load_model(_require(cfg.workdir / "model.json", "train"))
    matrix = _masked_tfidf(cfg)
    _, test_rows = _read_split(cfg)
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
    if not str(cfg["io.manifest"]):
        cmd_synth(cfg)
    cmd_ingest(cfg)
    cmd_featurize(cfg)
    if cfg["selection.enabled"]:
        cmd_select(cfg)
    cmd_train(cfg)
    cmd_evaluate(cfg)


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
        cfg.workdir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg)
    except PipelineError as exc:
        line = json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True)
        print(line, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
