"""Command-line surface: stages, artifacts, config precedence, errors."""
from __future__ import annotations

import csv
import json
import shutil
import weakref

import pytest

from apigram import cli, ingest
from apigram.cli import build_parser, main, resolve_config
from apigram.config import SCHEMA, PipelineConfig, coerce, read_config, write_config
from apigram.errors import ConfigError, DimensionMismatch
from apigram.evaluate import SplitSpec
from apigram.ingest import load_manifest, report_from_json_line, write_manifest
from apigram.models import HyperParams, ModelKind
from apigram.select import SelectionConfig
from apigram.tokens import read_vocabulary


def _run(*argv):
    return main(list(argv))


def _tiny_args(workdir, *extra):
    return (
        "pipeline",
        "--scale",
        "tiny",
        "--workdir",
        str(workdir),
        "--model",
        "decision_tree",
        "--seed",
        "1",
        *extra,
    )


def _error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert set(payload) == {"error", "message"}
    return payload


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------

def test_tiny_pipeline_produces_every_artifact(tmp_path):
    workdir = tmp_path / "run"
    assert _run(*_tiny_args(workdir)) == 0
    expected = [
        "manifest.csv",
        "corpus.jsonl",
        "split.csv",
        "ngrams_1.csv",
        "vocab_1.csv",
        "tfidf_1.csv",
        "freq_1.csv",
        "labels_1.csv",
        "selection_mask.csv",
        "selection_report.csv",
        "model.json",
        "metrics.csv",
        "confusion.csv",
        "confusion.svg",
    ]
    for name in expected:
        assert (workdir / name).is_file(), name
    confusion_lines = (workdir / "confusion.csv").read_text().splitlines()
    assert len(confusion_lines) == 9
    metrics_lines = (workdir / "metrics.csv").read_text().splitlines()
    assert metrics_lines[0] == "classifier,accuracy,f1,recall,precision"
    assert metrics_lines[1].startswith("DecisionTree,")


def test_pipeline_matches_the_individually_chained_stages(tmp_path):
    joint = tmp_path / "joint"
    staged = tmp_path / "staged"
    assert _run(*_tiny_args(joint)) == 0
    common = ("--scale", "tiny", "--workdir", str(staged), "--model",
              "decision_tree", "--seed", "1")
    for command in ("synth", "ingest", "featurize", "select", "train", "evaluate"):
        assert _run(command, *common) == 0, command
    for name in (
        "manifest.csv",
        "corpus.jsonl",
        "split.csv",
        "tfidf_1.csv",
        "selection_mask.csv",
        "selection_report.csv",
        "model.json",
        "metrics.csv",
        "confusion.csv",
        "confusion.svg",
    ):
        assert (joint / name).read_bytes() == (staged / name).read_bytes(), name


_STAGE_COMMANDS = ("synth", "ingest", "featurize", "select", "train", "evaluate")
_MODEL_KINDS = ("decision_tree", "random_forest", "gbt", "svm", "naive_bayes", "knn")
# Tiny union n-grams at seed 3: every selection stage cuts,
# 7978 -> 1878 -> 877 -> 873 -> 281.
_UNION = ("--ngram-sizes", "1,2,3", "--ngram-combine", "true", "--ngram-active", "union")


def _files(workdir):
    return {p.relative_to(workdir).as_posix(): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "flags",
    [("--model", kind) for kind in _MODEL_KINDS]
    + [
        ("--model", "random_forest", *_UNION),
        ("--model", "naive_bayes", "--no-selection"),
        ("--model", "decision_tree", "--select-on-all"),
    ],
    ids=[*_MODEL_KINDS, "union", "no-selection", "select-on-all"],
)
def test_pipeline_writes_every_file_the_chained_stage_commands_write(tmp_path, flags):
    common = ("--scale", "tiny", "--seed", "3", *flags)
    joint, staged = tmp_path / "joint", tmp_path / "staged"
    assert _run("pipeline", "--workdir", str(joint), *common) == 0
    for command in _STAGE_COMMANDS:
        if command == "select" and "--no-selection" in flags:
            continue  # the pipeline skips it as well
        assert _run(command, "--workdir", str(staged), *common) == 0, command
    joint_files, staged_files = _files(joint), _files(staged)
    assert sorted(joint_files) == sorted(staged_files)
    for name, content in joint_files.items():
        assert content == staged_files[name], name


def test_stages_read_back_sample_ids_that_need_quoting(tmp_path):
    # A carriage return, a comma and a double quote in sample ids: every
    # artifact that names a sample must quote them so the stages read back
    # what featurize wrote.
    corpus = tmp_path / "corpus"
    assert _run("synth", "--scale", "tiny", "--seed", "3", "--workdir", str(corpus)) == 0
    manifest = corpus / "manifest.csv"
    entries = load_manifest(manifest)
    odd = ("adware\r0000", 'say "hi", then\r\nleave')
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["sample_id", "label", "path"])
        for i, (sample_id, label, path) in enumerate(entries):
            writer.writerow([odd[i] if i < len(odd) else sample_id, label.value, str(path)])
    common = ("--manifest", str(manifest), "--seed", "3", "--model", "decision_tree")
    joint, staged = tmp_path / "joint", tmp_path / "staged"
    assert _run("pipeline", "--workdir", str(joint), *common) == 0
    for command in ("ingest", "featurize", "select", "train", "evaluate"):
        assert _run(command, "--workdir", str(staged), *common) == 0, command
    joint_files, staged_files = _files(joint), _files(staged)
    assert sorted(joint_files) == sorted(staged_files)
    for name, content in joint_files.items():
        assert content == staged_files[name], name
    with open(joint / "labels_1.csv", newline="", encoding="utf-8") as fh:
        assert [row["sample_id"] for row in csv.DictReader(fh)][:2] == list(odd)


_READERS = ("report_from_json_line", "read_matrix", "read_vocabulary", "read_mask", "_read_split")


def test_pipeline_reads_back_nothing_it_wrote(tmp_path, monkeypatch):
    originals = {name: getattr(cli, name) for name in _READERS}

    def forbidden(name):
        def reader(*args, **kwargs):
            raise AssertionError(f"pipeline called {name}")
        return reader

    for name in _READERS:
        monkeypatch.setattr(cli, name, forbidden(name))
    workdir = tmp_path / "run"
    assert _run(*_tiny_args(workdir)) == 0

    called = []

    def recorded(name):
        def reader(*args, **kwargs):
            called.append(name)
            return originals[name](*args, **kwargs)
        return reader

    for name in _READERS:
        monkeypatch.setattr(cli, name, recorded(name))
    common = ("--workdir", str(workdir), "--model", "decision_tree", "--seed", "1")
    for command in ("featurize", "select", "train", "evaluate"):
        before = len(called)
        assert _run(command, *common) == 0, command
        assert len(called) > before, command
    assert set(called) == set(_READERS)


def test_identity_selection_matches_disabled_selection(tmp_path):
    disabled = tmp_path / "disabled"
    identity = tmp_path / "identity"
    assert _run(*_tiny_args(disabled, "--no-selection")) == 0
    assert (
        _run(
            *_tiny_args(
                identity,
                "--no-lexical",
                "--no-frequency",
                "--target-ratio",
                "1.0",
            )
        )
        == 0
    )
    assert not (disabled / "selection_mask.csv").exists()
    mask_lines = (identity / "selection_mask.csv").read_text().splitlines()
    vocab_lines = (identity / "vocab_1.csv").read_text().splitlines()
    assert len(mask_lines) - 1 == len(vocab_lines) - 2
    for name in ("metrics.csv", "confusion.csv"):
        assert (disabled / name).read_bytes() == (identity / name).read_bytes()


def test_rerunning_the_pipeline_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert _run(*_tiny_args(first)) == 0
    assert _run(*_tiny_args(second)) == 0
    for name in ("metrics.csv", "confusion.csv", "model.json", "selection_mask.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# ---------------------------------------------------------------------------
# Error surface
# ---------------------------------------------------------------------------

def test_featurize_before_ingest_reports_the_missing_artifact(tmp_path, capsys):
    workdir = tmp_path / "empty"
    assert _run("featurize", "--workdir", str(workdir)) == 2
    payload = _error_line(capsys)
    assert payload["error"] == "MissingArtifact"
    assert "apigram ingest" in payload["message"]


def test_unknown_scale_reports_a_config_error(tmp_path, capsys):
    assert _run("synth", "--scale", "huge", "--workdir", str(tmp_path / "w")) == 2
    assert _error_line(capsys)["error"] == "ConfigError"


def test_uncoercible_set_value_reports_a_config_error(tmp_path, capsys):
    assert (
        _run(
            "synth",
            "--workdir",
            str(tmp_path / "w"),
            "--set",
            "ngram.max_args=banana",
        )
        == 2
    )
    assert _error_line(capsys)["error"] == "ConfigError"


def test_malformed_set_item_reports_a_config_error(tmp_path, capsys):
    assert _run("synth", "--workdir", str(tmp_path / "w"), "--set", "seed") == 2
    assert _error_line(capsys)["error"] == "ConfigError"


def test_negative_max_args_reports_a_config_error(tmp_path, capsys):
    assert _run("featurize", "--workdir", str(tmp_path / "w"), "--ngram-max-args", "-1") == 2
    assert _error_line(capsys)["error"] == "ConfigError"
    assert PipelineConfig({"ngram.max_args": 0})["ngram.max_args"] == 0


def test_repeated_ngram_sizes_report_a_config_error(tmp_path, capsys):
    argv = ("featurize", "--workdir", str(tmp_path / "w"), "--ngram-combine", "true")
    assert _run(*argv, "--ngram-sizes", "1,1") == 2
    payload = _error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert "subset" in payload["message"]


def test_non_object_corpus_line_reports_malformed_json(tmp_path, capsys):
    workdir = tmp_path / "w"
    workdir.mkdir()
    (workdir / "corpus.jsonl").write_text("[1]\n")
    assert _run("featurize", "--workdir", str(workdir)) == 2
    assert _error_line(capsys)["error"] == "MalformedJson"


def test_undecodable_corpus_line_reports_malformed_json(tmp_path, capsys):
    workdir = tmp_path / "w"
    workdir.mkdir()
    (workdir / "corpus.jsonl").write_bytes(b"\xff\xfe\n")
    assert _run("featurize", "--workdir", str(workdir)) == 2
    payload = _error_line(capsys)
    assert payload["error"] == "MalformedJson"
    assert "corpus.jsonl:1:" in payload["message"]


def test_cuckoo_shaped_corpus_line_reports_malformed_json(tmp_path, capsys):
    workdir = tmp_path / "w"
    workdir.mkdir()
    (workdir / "corpus.jsonl").write_text(
        '{"behavior":{"processes":[{"calls":[{"api":"NtClose","arguments":[],'
        '"category":"system","return":"0"}]}]},"label":"Worm","sample_id":"s0"}\n'
    )
    assert _run("featurize", "--workdir", str(workdir)) == 2
    assert _error_line(capsys)["error"] == "MalformedJson"


@pytest.mark.parametrize(
    "setting",
    ["selection.corr_threshold=nan", "selection.mi_top_ratio=nan", "selection.mi_top_ratio=inf"],
)
def test_non_finite_selection_ratio_reports_an_error(tmp_path, setting, capsys):
    assert _run(*_tiny_args(tmp_path / "run", "--set", setting)) == 2
    assert _error_line(capsys)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("bad, code", [
    pytest.param(("--model", "nosuch"), "ConfigError", id="unknown-kind"),
    pytest.param(("--set", "model.n_trees=0"), "ConfigError", id="zero-trees"),
    pytest.param(("--set", "selection.target_ratio=2"), "DimensionMismatch", id="target-ratio-2"),
    pytest.param(("--set", "split.train_ratio=1.5"), "DimensionMismatch", id="train-ratio-1.5"),
    pytest.param(("--set", "selection.min_df=0"), "DimensionMismatch", id="min-df-0"),
    pytest.param(("--set", "selection.mi_top_ratio=inf"), "DimensionMismatch", id="mi-top-ratio-inf"),
])
def test_pipeline_rejects_bad_model_settings_before_any_stage(tmp_path, bad, code, capsys):
    workdir = tmp_path / "run"
    assert _run("pipeline", "--scale", "tiny", "--workdir", str(workdir), *bad) == 2
    assert _error_line(capsys)["error"] == code
    assert not (workdir / "corpus.jsonl").exists()
    assert not (workdir / "manifest.csv").exists()
    assert not workdir.exists()


@pytest.mark.parametrize("argv, code", [
    pytest.param(("synth", "--set", "model.n_trees=0"), "ConfigError", id="synth-zero-trees"),
    pytest.param(("train", "--no-selection", "--set", "selection.target_ratio=2"),
                 "DimensionMismatch", id="no-selection-target-ratio-2"),
])
def test_settings_of_stages_a_command_skips_are_still_checked(tmp_path, argv, code, capsys):
    workdir = tmp_path / "run"
    assert _run(*argv, "--workdir", str(workdir)) == 2
    assert _error_line(capsys)["error"] == code
    assert not workdir.exists()


def test_split_row_outside_the_matrix_reports_an_error(tmp_path, capsys):
    workdir = tmp_path / "run"
    assert _run(*_tiny_args(workdir, "--no-selection")) == 0
    split = workdir / "split.csv"
    header, first, *rest = split.read_text().splitlines()
    _, sample_id, part = first.split(",")
    split.write_text("\n".join([header, f"10000,{sample_id},{part}", *rest]) + "\n")
    capsys.readouterr()
    assert _run("train", "--workdir", str(workdir), "--no-selection",
                "--model", "decision_tree", "--seed", "1") == 2
    assert _error_line(capsys)["error"] == "DimensionMismatch"


def test_malformed_split_record_reports_an_io_failure(tmp_path, capsys):
    workdir = tmp_path / "run"
    assert _run(*_tiny_args(workdir, "--no-selection")) == 0
    split = workdir / "split.csv"
    good = split.read_text()
    first = good.splitlines()[1] + "\n"
    test_rows_as_train = "".join(
        line.replace(",test", ",train") + "\n" for line in good.splitlines() if line.endswith(",test")
    )
    for bad in ("0,s0\n", "zero,s0,train\n", "0,s0,holdout\n", first, test_rows_as_train):
        split.write_text(good + bad)
        capsys.readouterr()
        assert _run("train", "--workdir", str(workdir), "--no-selection",
                    "--model", "decision_tree", "--seed", "1") == 2, bad
        assert _error_line(capsys)["error"] == "IoFailure", bad


def test_truncated_selection_mask_line_reports_an_io_failure(tmp_path, capsys):
    workdir = tmp_path / "run"
    assert _run(*_tiny_args(workdir)) == 0
    mask = workdir / "selection_mask.csv"
    header, first, *rest = mask.read_text().splitlines()
    mask.write_text("\n".join([header, first.split(",")[0], *rest]) + "\n")
    capsys.readouterr()
    assert _run("train", "--workdir", str(workdir), "--model", "decision_tree", "--seed", "1") == 2
    assert _error_line(capsys)["error"] == "IoFailure"


def test_removed_threads_setting_is_rejected(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("threads = 2\n")
    assert _run("ingest", "--config", str(path), "--workdir", str(tmp_path / "w")) == 2
    assert _error_line(capsys)["error"] == "ConfigError"
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest", "--threads", "2"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# Streaming ingest and featurize
# ---------------------------------------------------------------------------

def _ingested(workdir):
    """A tiny synthetic corpus, ingested into ``workdir/corpus.jsonl``."""
    for command in ("synth", "ingest"):
        assert _run(command, "--scale", "tiny", "--workdir", str(workdir), "--seed", "1") == 0
    return workdir / "corpus.jsonl"


def test_featurize_holds_one_report_at_a_time(tmp_path, monkeypatch):
    workdir = tmp_path / "run"
    n_lines = len(_ingested(workdir).read_bytes().splitlines())
    parsed = []
    still_alive = []

    def recording_read(line):
        # Only the report yielded just before may outlive its turn.
        still_alive.extend(ref().sample_id for ref in parsed[:-1] if ref() is not None)
        report = report_from_json_line(line)
        parsed.append(weakref.ref(report))
        return report

    monkeypatch.setattr(cli, "report_from_json_line", recording_read)
    assert _run("featurize", "--workdir", str(workdir), "--seed", "1") == 0
    assert len(parsed) == n_lines
    assert still_alive == []


def test_malformed_last_corpus_line_writes_no_featurize_artifact(tmp_path, capsys):
    workdir = tmp_path / "run"
    corpus = _ingested(workdir)
    lines = corpus.read_bytes().splitlines()
    corpus.write_bytes(b"\n".join(lines[:-1] + [b'{"label":"Worm"}']) + b"\n")
    capsys.readouterr()
    assert _run("featurize", "--workdir", str(workdir), "--seed", "1") == 2
    payload = _error_line(capsys)
    assert payload["error"] == "MalformedJson"
    assert f"corpus.jsonl:{len(lines)}:" in payload["message"]
    featurized = ("split.csv", "ngrams_*", "vocab_*", "tfidf_*", "freq_*", "labels_*")
    assert [p.name for pattern in featurized for p in workdir.glob(pattern)] == []


def test_failed_ingest_leaves_the_previous_corpus_whole(tmp_path, capsys):
    workdir = tmp_path / "run"
    corpus = _ingested(workdir)
    before = corpus.read_bytes()
    listing = sorted(p.name for p in workdir.iterdir())
    last_report = load_manifest(workdir / "manifest.csv")[-1][2]
    last_report.unlink()
    capsys.readouterr()
    assert _run("ingest", "--workdir", str(workdir)) == 2
    assert _error_line(capsys)["error"] == "IoFailure"
    assert corpus.read_bytes() == before
    assert sorted(p.name for p in workdir.iterdir()) == listing


def test_failed_pipeline_ingest_leaves_the_previous_corpus_whole(tmp_path, capsys):
    workdir = tmp_path / "run"
    corpus = _ingested(workdir)
    before = corpus.read_bytes()
    manifest = workdir / "manifest.csv"
    load_manifest(manifest)[-1][2].unlink()
    capsys.readouterr()
    assert _run("pipeline", "--manifest", str(manifest), "--workdir", str(workdir), "--seed", "1") == 2
    assert _error_line(capsys)["error"] == "IoFailure"
    assert corpus.read_bytes() == before
    assert not (workdir / "corpus.jsonl.tmp").exists()
    featurized = ("split.csv", "ngrams_*", "vocab_*", "tfidf_*", "freq_*", "labels_*")
    assert [p.name for pattern in featurized for p in workdir.glob(pattern)] == []


def test_ingest_summary_counts_the_dropped_empty_traces(tmp_path, capsys):
    calls = {"behavior": {"processes": [{"calls": [{"api": "NtClose"}]}]}}
    (tmp_path / "full.json").write_text(json.dumps(calls))
    (tmp_path / "void.json").write_text(json.dumps({"behavior": {"processes": [{"calls": []}]}}))
    write_manifest(tmp_path / "manifest.csv", [
        ("a", "Benign", "full.json"),
        ("b", "Worm", "void.json"),
        ("c", "Worm", "full.json"),
    ])
    workdir = tmp_path / "run"
    assert _run("ingest", "--manifest", str(tmp_path / "manifest.csv"), "--workdir", str(workdir)) == 0
    assert "ingest: parsed 2 reports, dropped 1 with an empty trace" in capsys.readouterr().out
    assert len((workdir / "corpus.jsonl").read_bytes().splitlines()) == 2


@pytest.mark.parametrize("command", ["ingest", "pipeline"])
def test_ingest_reads_the_manifest_once(tmp_path, monkeypatch, command, capsys):
    corpus, workdir = tmp_path / "corpus", tmp_path / "run"
    assert _run("synth", "--scale", "tiny", "--seed", "1", "--workdir", str(corpus)) == 0
    manifest = corpus / "manifest.csv"
    load_manifest(manifest)[0][2].write_text(json.dumps({"behavior": {"processes": [{"calls": []}]}}))
    parses = []

    def counting(path):
        parses.append(path)
        return load_manifest(path)

    monkeypatch.setattr(ingest, "load_manifest", counting)
    monkeypatch.setattr(cli, "load_manifest", counting)
    capsys.readouterr()
    assert _run(command, "--manifest", str(manifest), "--workdir", str(workdir), "--seed", "1") == 0
    assert len(parses) == 1
    summary = f"ingest: parsed 159 reports, dropped 1 with an empty trace -> {workdir / 'corpus.jsonl'}\n"
    assert summary in capsys.readouterr().out


def test_stages_read_back_a_field_longer_than_the_csv_default_limit(tmp_path):
    # A call with a 200,000-character argument gives an n-gram term longer
    # than the csv module's default field limit of 131,072 characters.
    staged, joint = tmp_path / "staged", tmp_path / "joint"
    assert _run("synth", "--scale", "tiny", "--seed", "3", "--workdir", str(staged)) == 0
    for report in sorted((staged / "reports").glob("*.json"))[::4]:
        document = json.loads(report.read_bytes())
        call = {"api": "NtWriteFile", "arguments": ["x" * 200_000]}
        document["behavior"]["processes"][0]["calls"].append(call)
        report.write_text(json.dumps(document))
    shutil.copytree(staged, joint)
    common = ("--seed", "3", "--model", "decision_tree")
    assert _run("pipeline", "--manifest", str(joint / "manifest.csv"), "--workdir", str(joint), *common) == 0
    for command in _STAGE_COMMANDS[1:]:
        assert _run(command, "--workdir", str(staged), *common) == 0, command
    joint_files, staged_files = _files(joint), _files(staged)
    assert sorted(joint_files) == sorted(staged_files)
    for name, content in joint_files.items():
        assert content == staged_files[name], name
    assert max(map(len, read_vocabulary(staged / "vocab_1.csv").terms)) > 200_000


@pytest.fixture(scope="module")
def finished_workdir(tmp_path_factory):
    """A tiny workdir after a full run, for each test to copy."""
    workdir = tmp_path_factory.mktemp("finished") / "run"
    assert _run(*_tiny_args(workdir)) == 0
    return workdir


_FEATURES = ("split.csv", "ngrams_1.csv", "vocab_1.csv", "tfidf_1.csv", "freq_1.csv", "labels_1.csv")
_DATASET = ("split.csv", "tfidf_1.csv", "labels_1.csv", "selection_mask.csv")
# (command, table): every table each stage writes or reads, and the table
# whose failed write once ended the pipeline with a traceback.
_TABLE_USES = (
    [("synth", "manifest.csv"), ("ingest", "manifest.csv")]
    + [("featurize", name) for name in _FEATURES]
    + [("select", name) for name in ("split.csv", "vocab_1.csv", "tfidf_1.csv", "freq_1.csv", "labels_1.csv",
                                     "selection_mask.csv", "selection_report.csv")]
    + [(command, name) for command in ("train", "evaluate") for name in _DATASET]
    + [("evaluate", name) for name in ("metrics.csv", "confusion.csv", "confusion.svg")]
    + [("pipeline", "split.csv")]
)


@pytest.mark.parametrize("command, table", _TABLE_USES, ids=[f"{c}-{t}" for c, t in _TABLE_USES])
def test_a_directory_in_a_tables_place_is_an_io_failure(tmp_path, finished_workdir, command, table, capsys):
    workdir = tmp_path / "run"
    shutil.copytree(finished_workdir, workdir)
    (workdir / table).unlink()
    (workdir / table).mkdir()
    capsys.readouterr()
    assert _run(command, "--scale", "tiny", "--workdir", str(workdir), "--model", "decision_tree", "--seed", "1") == 2
    payload = _error_line(capsys)
    assert payload["error"] == "IoFailure"
    assert table in payload["message"]


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    config = PipelineConfig({}).with_overrides(
        {
            "seed": 9,
            "ngram.sizes": (1, 2),
            "ngram.active": "union",
            "ngram.combine": True,
            "selection.target_ratio": 0.25,
            "model.kind": "naive_bayes",
            "model.alpha": 0.5,
        }
    )
    path = tmp_path / "run.conf"
    write_config(config, path)
    again = read_config(path)
    for key in SCHEMA:
        assert again[key] == config[key], key
    assert again["model.alpha"] == 0.5


def test_config_file_parsing_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# a comment\n\nseed = 4\nngram.sizes = 1,2,3\n")
    config = read_config(path)
    assert config["seed"] == 4
    assert config["ngram.sizes"] == (1, 2, 3)


def test_flag_beats_set_beats_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 1\nsynth.scale = desk\n")
    parser = build_parser()
    args = parser.parse_args(
        ["synth", "--config", str(path), "--set", "seed=2", "--set",
         "synth.scale=tiny"]
    )
    assert resolve_config(args)["seed"] == 2
    assert resolve_config(args)["synth.scale"] == "tiny"
    args = parser.parse_args(
        ["synth", "--config", str(path), "--set", "seed=2", "--seed", "3"]
    )
    assert resolve_config(args)["seed"] == 3


def test_config_file_completed_by_a_later_layer_is_accepted(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("ngram.sizes = 1,2,3\nngram.active = union\n")
    with pytest.raises(ConfigError):
        read_config(path)
    args = build_parser().parse_args(
        ["featurize", "--config", str(path), "--ngram-combine", "true"]
    )
    config = resolve_config(args)
    assert config["ngram.active"] == "union"
    assert config["ngram.combine"] is True


def test_config_builds_each_stage_settings_by_the_stage_rule():
    config = PipelineConfig({
        "seed": 4,
        "selection.lexical_rules": ("is-pure-numeric",),
        "selection.min_df": 3,
        "selection.max_df_ratio": 0.9,
        "selection.mi_top_ratio": 0.2,
        "selection.corr_threshold": 0.8,
        "selection.target_ratio": 0.1,
        "split.train_ratio": 0.6,
        "split.stratified": False,
        "model.kind": "knn",
        "model.k": 3,
    })
    assert config.selection == SelectionConfig(
        lexical_filters=frozenset({"is-pure-numeric"}), min_df=3, max_df_ratio=0.9,
        mi_top_ratio=0.2, corr_threshold=0.8, target_ratio=0.1,
    )
    assert config.split == SplitSpec(train_ratio=0.6, seed=4, stratified=False)
    assert config.model == (ModelKind.K_NEAREST_NEIGHBORS, HyperParams(seed=4, values={"k": 3}))
    assert PipelineConfig({}).selection == SelectionConfig()
    for bad in ({"split.train_ratio": 1.5}, {"selection.lexical_rules": ("nosuch",)}):
        with pytest.raises(DimensionMismatch):
            PipelineConfig(bad)
    with pytest.raises(ConfigError):
        PipelineConfig({"model.kind": "knn", "model.k": 0})


@pytest.mark.parametrize("key, value", [
    pytest.param("split.stratified", "false", id="bool-given-text"),
    pytest.param("selection.min_df", "x", id="int-given-text"),
    pytest.param("seed", "s", id="seed-given-text"),
    pytest.param("ngram.sizes", [1], id="ints-given-a-list"),
    pytest.param("seed", True, id="int-given-a-bool"),
    pytest.param("selection.target_ratio", False, id="float-given-a-bool"),
    pytest.param("selection.lexical_rules", ("is-pure-numeric", 1), id="strs-holding-an-int"),
])
def test_config_values_must_have_their_schema_type(key, value):
    # Text is parsed by coerce alone; a value passed in directly is never
    # converted, so "false" must not become a true bool("false").
    with pytest.raises(ConfigError) as excinfo:
        PipelineConfig({key: value})
    assert key in str(excinfo.value)


def test_coerced_and_toggle_values_pass_the_schema_type_check(tmp_path):
    path = tmp_path / "run.conf"
    write_config(PipelineConfig({}), path)
    text = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    for key in SCHEMA:
        assert PipelineConfig({key: coerce(key, text[key])})[key] == PipelineConfig({})[key], key
    assert PipelineConfig({"selection.target_ratio": coerce("selection.target_ratio", "1")}).selection.target_ratio == 1.0
    assert PipelineConfig({"selection.target_ratio": 1}).selection.target_ratio == 1.0
    toggles = [flag for flag in cli._TOGGLES]
    config = resolve_config(build_parser().parse_args(["select", *toggles]))
    for _, implied in cli._TOGGLES.values():
        for key, value in implied.items():
            assert config[key] == value


def test_toggle_flags_override_file_settings(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("selection.min_df = 5\n")
    parser = build_parser()
    args = parser.parse_args(["select", "--config", str(path), "--no-frequency"])
    config = resolve_config(args)
    assert config["selection.min_df"] == 1
    assert config["selection.max_df_ratio"] == 1.0


def test_unknown_config_key_is_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig({}).with_overrides({"past.the.schema": 1})


def test_help_documents_the_dotted_keys_and_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["pipeline", "--help"])
    assert excinfo.value.code == 0
    # argparse wraps long lines, so compare against whitespace-collapsed text.
    text = " ".join(capsys.readouterr().out.split())
    for fragment in (
        "[seed = 0]",
        "[ngram.sizes = '1']",
        "[selection.target_ratio = 0.016]",
        "[model.kind = 'random_forest']",
        "--target-ratio",
        "--no-selection",
        "--set",
    ):
        assert fragment in text, fragment


def test_every_stage_appears_in_the_command_listing(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for command in ("synth", "ingest", "featurize", "select", "train",
                    "evaluate", "pipeline"):
        assert command in text
