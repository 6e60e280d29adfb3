"""The exported names: every ``__all__`` entry resolves, to its home
module's object whatever was imported first, without loading numpy on
``import apigram``; removed helpers stay gone, and every function the
benchmark's tracer wraps still exists; the selection stages it wraps are
each called once per cascade. Error codes are class names, and one module
owns the CSV dialect."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apigram
import apigram.errors
import apigram.models
from apigram import select
from apigram.cli import build_parser, resolve_config
from apigram.labels import ALL_LABELS
from apigram.models import ModelKind
from apigram.tokens import Vocabulary
from apigram.vectorize import FeatureMatrix

REMOVED = {
    "apigram": ("mutual_information", "partition_elements", "tokenize_report"),
    "apigram.ingest": ("partition_elements", "write_element_files"),
    "apigram.tokens": ("read_ngram_counts", "tokenize_report"),
    "apigram.evaluate": ("read_confusion",),
    "apigram.select": ("mutual_information",),
    "apigram.cli": ("_model_settings",),
    "apigram.models.base": ("check_head_shapes",),
}


@pytest.mark.parametrize("package", [apigram, apigram.models], ids=lambda p: p.__name__)
def test_every_exported_name_resolves_once(package):
    names = package.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(package, name, None) is not None, name


def _run_python(code: str) -> str:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_importing_the_package_loads_no_numpy():
    _run_python("import apigram, sys; assert 'numpy' not in sys.modules")


# Each export is the object its home module defines, also after the
# submodule ``apigram.evaluate`` has been loaded, which binds that name on
# the package; and ``from apigram import select`` gives the module.
_HOMES = """
import importlib, json
import apigram, apigram.models, apigram.models.base
wrong = [name for name in apigram.__all__ if getattr(apigram, name)
         is not getattr(importlib.import_module("apigram." + apigram._HOME[name]), name)]
wrong += ["models." + name for name in apigram.models.__all__
          if getattr(apigram.models, name) is not getattr(apigram.models.base, name)]
from apigram import evaluate, select
wrong += [] if evaluate is sys.modules["apigram.evaluate"].evaluate else ["evaluate"]
wrong += [] if select is sys.modules["apigram.select"] else ["select"]
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("first", [
    "import apigram.cli",
    "import apigram.evaluate",
    "import apigram; apigram.evaluate; import apigram.cli",
])
def test_every_export_is_its_home_modules_object(first):
    assert json.loads(_run_python(f"import sys; {first}\n{_HOMES}")) == []
    assert inspect.ismodule(select) and select.__name__ == "apigram.select"


def test_import_apigram_reaches_every_submodule():
    # As when the package loaded them eagerly: ``import apigram`` alone
    # reaches each submodule by attribute; ``evaluate`` stays the function.
    _run_python(
        "import apigram, inspect\n"
        "apigram.select.hybrid_select; apigram.models.train; apigram.ingest.load_corpus\n"
        "for name in ('config', 'errors', 'ingest', 'labels', 'models', 'select', 'synth',"
        " 'tables', 'tokens', 'vectorize'):\n"
        "    assert inspect.ismodule(getattr(apigram, name)), name\n"
        "assert inspect.isfunction(apigram.evaluate)\n"
    )


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_helpers_are_gone(module_name):
    # importlib: the package rebinds ``apigram.evaluate`` to the function.
    module = importlib.import_module(module_name)
    for name in REMOVED[module_name]:
        assert not hasattr(module, name), name


def test_removed_parameters_are_gone():
    assert "labels" not in inspect.signature(apigram.models.train).parameters
    assert "keep_empty" not in inspect.signature(apigram.load_corpus).parameters


def test_stage_settings_have_one_builder():
    # PipelineConfig builds the model settings; no second path may return.
    assert not hasattr(apigram.PipelineConfig, "model_params")


def test_every_error_code_is_its_class_name():
    # The CLI's JSON error line reports ``exc.code``.
    classes = [c for c in vars(apigram.errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert apigram.errors.IoFailure in classes
    for error_class in classes:
        assert error_class.code == error_class("message").code == error_class.__name__


def test_the_csv_dialect_has_one_home():
    # Every table goes through apigram.tables: one module imports csv, none
    # writes through csv.writer, and csv_field is defined once.
    sources = {path.name: ast.parse(path.read_text()) for path in Path(apigram.__file__).parent.rglob("*.py")}
    nodes = {name: list(ast.walk(tree)) for name, tree in sources.items()}
    importing = [
        name for name, found in nodes.items()
        if any(isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "csv" for node in found)
    ]
    assert importing == ["tables.py"]
    assert not any(isinstance(node, ast.Attribute) and node.attr == "writer" for found in nodes.values() for node in found)
    defining = [name for name, found in nodes.items()
                for node in found if isinstance(node, ast.FunctionDef) and node.name == "csv_field"]
    assert defining == ["tables.py"]


def test_every_traced_attribute_resolves():
    # The benchmark's tracer wraps these by name and only reports a missing
    # one as absent; a rename must fail here instead.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    for module_name, attribute, _ in tracer.WRAPS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attribute}"


def test_every_traced_selection_stage_is_called_once_per_cascade(monkeypatch):
    # The tracer times each selection stage by wrapping its ``apigram.select``
    # global; a stage that ``hybrid_select`` no longer calls through that
    # global would leave its span empty without failing anything else.
    tracer = _load_perfbench("tracer", monkeypatch)
    stages = [attribute for module_name, attribute, _ in tracer.WRAPS if module_name == "apigram.select"]
    assert sorted(stages) == ["correlation_prune", "frequency_filter", "lexical_filter", "rank_by_mi"]
    calls = dict.fromkeys(stages, 0)

    def counting(name, stage):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)
        return wrapper

    for name in stages:
        monkeypatch.setattr(select, name, counting(name, getattr(select, name)))
    n_rows, n_cols = 16, 40
    rows = tuple({j: float(1 + i % 3) for j in range(n_cols) if (i * j + j) % 4} for i in range(n_rows))
    matrix = FeatureMatrix.from_rows(
        rows=rows,
        n_cols=n_cols,
        sample_ids=tuple(f"s{i}" for i in range(n_rows)),
        labels=tuple(ALL_LABELS[i % 8] for i in range(n_rows)),
    )
    vocabulary = Vocabulary(terms=tuple(f"Api{j}_arg" for j in range(n_cols)), df=(1,) * n_cols, n_docs=n_rows)
    config = select.SelectionConfig(min_df=1, max_df_ratio=1.0, mi_top_ratio=0.5, target_ratio=0.1)
    mask = select.hybrid_select(matrix, matrix, vocabulary, config)
    assert [stage for stage, _, _ in mask.provenance] == ["lexical", "frequency", "mi", "correlation", "truncate"]
    assert calls == dict.fromkeys(stages, 1)


def _load_perfbench(name: str, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while it is built.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_workload_builds_its_pipeline_config(tmp_path, monkeypatch):
    # perfbench/run.py hands each workload's flags to the pipeline command;
    # a renamed or retyped flag must fail here, not in a benchmark run.
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first
    _load_perfbench("tracer", monkeypatch)  # run.py imports it by that name
    run = _load_perfbench("run", monkeypatch)
    assert run.WORKLOADS
    for name, workload in run.WORKLOADS.items():
        argv = run.pipeline_argv(workload, tmp_path / "manifest.csv", tmp_path / name, run.DEFAULT_SEED)
        config = resolve_config(build_parser().parse_args(argv))
        assert config["ngram.active"] == workload.active, name
        model = workload.flags[workload.flags.index("--model") + 1]
        assert config.model[0] is ModelKind.from_name(model), name
