"""The exported names: every ``__all__`` entry resolves, removed helpers stay
gone, and every function the benchmark's tracer wraps still exists."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import apigram
import apigram.models

REMOVED = {
    "apigram": ("mutual_information", "partition_elements", "tokenize_report"),
    "apigram.ingest": ("partition_elements", "write_element_files"),
    "apigram.tokens": ("read_ngram_counts", "tokenize_report"),
    "apigram.evaluate": ("read_confusion",),
    "apigram.select": ("mutual_information",),
    "apigram.cli": ("_model_settings",),
}


@pytest.mark.parametrize("package", [apigram, apigram.models], ids=lambda p: p.__name__)
def test_every_exported_name_resolves_once(package):
    names = package.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(package, name, None) is not None, name


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
