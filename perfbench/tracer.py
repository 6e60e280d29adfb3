"""Traced pipeline run: timing wrappers patched onto apigram from outside.

Run as ``python perfbench/tracer.py SPANS_OUT pipeline ARGS...`` with the
``src`` directory on ``PYTHONPATH``. The script replaces the module
attributes listed in ``WRAPS`` with wrappers that record one span (name,
start, end, parent) per call, runs ``apigram.cli.main`` on the remaining
arguments, and writes the spans, a few counts and the exit status to
``SPANS_OUT`` as JSON. Nothing in the program changes.

``apigram.cli`` imports the functions it calls by name, so the wrappers
go onto ``apigram.cli``'s own attributes; the selection stages are called
through ``apigram.select``'s globals, and the tree growers through the
``forest``, ``boosting`` and ``cart`` modules that import them. Modules
are looked up through ``importlib`` because ``apigram/__init__.py``
rebinds the name ``apigram.evaluate`` to the function of that name. A
name missing from its module is listed as absent and the run goes on.

Every wrapped function is called from the main thread only (the ingest
pool runs ``parse_report``, which is not wrapped), so one stack of open
spans is enough.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

# (module, attribute, span name). Several attributes may share a span.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("apigram.cli", "cmd_ingest", "cli.ingest"),
    ("apigram.cli", "cmd_featurize", "cli.featurize"),
    ("apigram.cli", "cmd_select", "cli.select"),
    ("apigram.cli", "cmd_train", "cli.train"),
    ("apigram.cli", "cmd_evaluate", "cli.evaluate"),
    ("apigram.cli", "load_corpus", "ingest.load_corpus"),
    ("apigram.cli", "report_to_json_bytes", "ingest.serialize"),
    ("apigram.cli", "report_from_json_line", "ingest.reparse"),
    ("apigram.cli", "documents_for_n", "tokens.documents"),
    ("apigram.cli", "merge_documents", "tokens.documents"),
    ("apigram.cli", "build_vocabulary", "tokens.vocab"),
    ("apigram.cli", "write_ngram_counts", "tokens.write"),
    ("apigram.cli", "write_vocabulary", "tokens.write"),
    ("apigram.cli", "read_vocabulary", "tokens.read"),
    ("apigram.cli", "tfidf_matrix", "vectorize.tfidf"),
    ("apigram.cli", "frequency_matrix", "vectorize.freq"),
    ("apigram.cli", "write_matrix", "vectorize.write"),
    ("apigram.cli", "write_labels", "vectorize.write"),
    ("apigram.cli", "read_matrix", "vectorize.read"),
    ("apigram.vectorize", "FeatureMatrix.select_rows", "vectorize.reshape"),
    ("apigram.vectorize", "FeatureMatrix.apply_mask", "vectorize.reshape"),
    ("apigram.vectorize", "FeatureMatrix.to_dense", "vectorize.to_dense"),
    ("apigram.cli", "hybrid_select", "select.hybrid"),
    ("apigram.select", "lexical_filter", "select.lexical"),
    ("apigram.select", "frequency_filter", "select.frequency"),
    ("apigram.select", "rank_by_mi", "select.mi"),
    ("apigram.select", "correlation_prune", "select.correlation"),
    ("apigram.cli", "train", "models.train"),
    ("apigram.models.forest", "grow_classification_tree", "models.grow_tree"),
    ("apigram.models.cart", "grow_classification_tree", "models.grow_tree"),
    ("apigram.models.boosting", "grow_regression_tree", "models.grow_tree"),
    ("apigram.evaluate", "predict_matrix", "models.predict"),
    ("apigram.cli", "save_model", "models.save"),
    ("apigram.cli", "load_model", "models.load"),
    ("apigram.cli", "stratified_split", "evaluate.split"),
    ("apigram.cli", "evaluate", "evaluate.score"),
    ("apigram.cli", "emit_report", "evaluate.emit"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(span for _, _, span in WRAPS))
CLI_STAGES = ("ingest", "featurize", "select", "train", "evaluate")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._open: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, module_name: str, attribute: str, span: str, after=None) -> None:
        """Replace ``module_name.attribute`` with a timing wrapper.

        ``after(result)`` runs once the span has closed, to record counts;
        a result whose shape it no longer understands is reported as
        absent counts rather than failing the run.
        """
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            owner = None
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            self.absent.append(f"{module_name}.{attribute}")
            return

        @functools.wraps(original)
        def timed(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([span, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                try:
                    after(result)
                except (AttributeError, TypeError):
                    self.absent.append(f"counts of {module_name}.{attribute}")
            return result

        setattr(owner, leaf, timed)

    def install(self) -> None:
        hooks = {
            "load_corpus": self._count_reports,
            "documents_for_n": lambda docs: self.add("tokens.ngrams", sum(d.total for d in docs)),
            "grow_classification_tree": self._count_nodes,
            "grow_regression_tree": self._count_nodes,
        }
        for stage in CLI_STAGES:
            hooks[f"cmd_{stage}"] = functools.partial(self._record_rss, stage)
        for module_name, attribute, span in WRAPS:
            self.wrap(module_name, attribute, span, hooks.get(attribute))

    def _count_reports(self, reports) -> None:
        self.add("ingest.reports", len(reports))
        self.add("ingest.calls", sum(len(r.calls) for r in reports))

    def _count_nodes(self, tree) -> None:
        self.add("models.tree_nodes", len(tree))

    def _record_rss(self, stage: str, _result) -> None:
        self.counts[f"cli.{stage}.maxrss_mb"] = _maxrss_mb()


def main(argv: list[str]) -> int:
    out_path, pipeline_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("apigram.cli")
    status = cli.main(pipeline_argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"exit": status, "spans": tracer.spans, "counts": tracer.counts, "absent": tracer.absent},
            fh,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
