"""apigram benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload gate-gbt --seed 7 --seconds 30 --trace 0

The benchmark generates the workload's corpus from ``--seed`` (reports and
manifest, outside any pipeline workdir) and times that as set-up. It then
runs ``python -m apigram.cli pipeline`` over the corpus as a fresh
subprocess, again and again for ``--seconds``, and checks every run's
outputs. With ``--trace 1`` it follows those runs with one traced run
(``perfbench/tracer.py``) that reports per-layer times and counts. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each a value and a unit).

A run passes when the pipeline exits 0, the four pinned artifacts are
byte-equal to the reference (the digests in ``reference.json`` for the
default seed and corpus size, otherwise the invocation's first run), the
accuracy clears the learner's gate bar and the mask keeps at most
``ceil(0.016 V)`` of the ``V`` vocabulary terms. The accuracy bar and the
validity guards only apply at the workload's own corpus size; a guard that
fails means the workload no longer exercises the layer it was chosen for,
and the benchmark stops with an error instead of printing a result.

Everything it writes goes under ``.perfbench-work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

sys.path.insert(0, str(BENCH_DIR))
from tracer import CLI_STAGES, SPAN_NAMES  # noqa: E402

DEFAULT_SEED = 7
# Set-up is repeated at least this often and for at least this long, so
# that small corpora still give a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
PINNED = ("metrics.csv", "confusion.csv", "selection_mask.csv", "selection_report.csv")
# The pipeline's default selection.target_ratio: the final mask keeps at
# most ceil(TARGET_RATIO * V) columns.
TARGET_RATIO = 0.016


@dataclass(frozen=True)
class Workload:
    per_class: int
    flags: tuple[str, ...]
    active: str
    accuracy_floor: float
    # Validity guards. cuts: True when the MI and correlation stages must
    # each remove features, False when both must keep every candidate.
    # grows_trees: whether the learner may call the tree growers at all.
    cuts: bool | None
    grows_trees: bool


# Why each workload exists, and what it should and should not move, is in
# perfbench/README.md.
WORKLOADS: dict[str, Workload] = {
    "gate-gbt": Workload(
        per_class=100,
        flags=("--ngram-sizes", "1", "--model", "gbt", "--set", "model.n_rounds=50"),
        active="1",
        accuracy_floor=95.0,
        cuts=False,
        grows_trees=True,
    ),
    "union-forest": Workload(
        per_class=25,
        flags=(
            "--ngram-sizes", "1,2,3", "--ngram-combine", "true",
            "--ngram-active", "union", "--model", "random_forest",
        ),
        active="union",
        accuracy_floor=95.0,
        cuts=True,
        grows_trees=True,
    ),
    "bulk-svm": Workload(
        per_class=500,
        flags=("--ngram-sizes", "1", "--model", "svm"),
        active="1",
        accuracy_floor=90.0,
        cuts=None,
        grows_trees=False,
    ),
}

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_pct", "%"),
    ("macro_f1_pct", "%"),
    ("passed_ratio", "ratio"),
)

COUNTS: tuple[tuple[str, str], ...] = (
    ("ingest.reports", "count"),
    ("ingest.calls", "count"),
    ("ingest.skipped", "count"),
    ("tokens.ngrams", "count"),
    ("tokens.vocab_terms", "count"),
    ("vectorize.read_calls", "count"),
    ("vectorize.nnz", "count"),
    ("select.features_in", "count"),
    ("select.lexical_out", "count"),
    ("select.frequency_out", "count"),
    ("select.mi_out", "count"),
    ("select.correlation_out", "count"),
    ("select.kept", "count"),
    ("models.grow_tree_calls", "count"),
    ("models.tree_nodes", "count"),
    ("models.model_kb", "KB"),
    ("trace.overhead_ratio", "ratio"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    tuple((f"{span}_s", "s") for span in SPAN_NAMES)
    + tuple((f"{span}.self_s", "s") for span in SPAN_NAMES)
    + tuple((f"cli.{stage}.maxrss_mb", "MB") for stage in CLI_STAGES)
    + COUNTS
)


class GuardFailure(Exception):
    """The workload no longer exercises the layer it was chosen for."""


@dataclass
class Run:
    seconds: float
    rss_mb: float
    status: int
    problems: list[str]
    digests: dict[str, str]
    accuracy: float
    macro_f1: float


def _read_csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def selection_stages(workdir: Path) -> dict[str, tuple[int, int]]:
    rows = _read_csv_rows(workdir / "selection_report.csv")[1:]
    return {stage: (int(n_in), int(n_out)) for stage, n_in, n_out in rows}


def vocabulary_size(workdir: Path, active: str) -> int:
    # Header plus the trailing #n_docs row.
    return _line_count(workdir / f"vocab_{active}.csv") - 2


# ---------------------------------------------------------------------------
# Set-up: the workload corpus
# ---------------------------------------------------------------------------

def make_corpus(per_class: int, seed: int, out_dir: Path) -> Path:
    from apigram.labels import ALL_LABELS
    from apigram.synth import CorpusSpec, default_spec, generate_corpus, write_corpus

    base = default_spec("desk", seed=seed)
    spec = CorpusSpec(
        profiles=base.profiles,
        samples_per_class={label: per_class for label in ALL_LABELS},
        seed=seed,
    )
    return write_corpus(generate_corpus(spec), out_dir)


def timed_setup(per_class: int, seed: int, tmp: Path) -> tuple[Path, float]:
    """Build the corpus until both set-up minimums are met; keep the first
    copy and report the median time."""
    times: list[float] = []
    manifests = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        manifests.append(make_corpus(per_class, seed, tmp / f"corpus{len(times)}"))
        times.append(time.perf_counter() - start)
    for extra in manifests[1:]:
        shutil.rmtree(extra.parent)
    return manifests[0], statistics.median(times)


# ---------------------------------------------------------------------------
# One pipeline run and its verdict
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one child to completion: wall seconds, its own max RSS in MB, exit code.

    ``os.wait4`` gives the usage of this child alone; RUSAGE_CHILDREN would
    be a running maximum over every child so far.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env())
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def judge(workload: Workload, workdir: Path, status: int, reference: dict | None,
          full: bool) -> tuple[list[str], dict[str, str], float, float]:
    """Problems found in one run's outputs, its digests, accuracy and macro F1."""
    if status != 0:
        return [f"exit status {status}"], {}, 0.0, 0.0
    missing = [name for name in PINNED if not (workdir / name).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"], {}, 0.0, 0.0
    digests = {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in PINNED
    }
    problems = [
        f"{name} differs from the reference"
        for name in PINNED
        if reference is not None and digests[name] != reference[name]
    ]
    header, values = _read_csv_rows(workdir / "metrics.csv")[:2]
    row = dict(zip(header, values))
    accuracy, macro_f1 = float(row["accuracy"]), float(row["f1"])
    if full and accuracy < workload.accuracy_floor:
        problems.append(f"accuracy {accuracy}% below the {workload.accuracy_floor}% bar")
    vocabulary = vocabulary_size(workdir, workload.active)
    kept = _line_count(workdir / "selection_mask.csv") - 1
    if kept > math.ceil(TARGET_RATIO * vocabulary):
        problems.append(f"mask keeps {kept} of {vocabulary} terms")
    return problems, digests, accuracy, macro_f1


def check_selection_guard(name: str, workload: Workload, workdir: Path) -> None:
    if workload.cuts is None:
        return
    stages = selection_stages(workdir)
    for stage in ("mi", "correlation"):
        n_in, n_out = stages[stage]
        if workload.cuts and n_out >= n_in:
            raise GuardFailure(f"{name}: the {stage} stage removed no features ({n_in} -> {n_out})")
        if not workload.cuts and n_out != n_in:
            raise GuardFailure(f"{name}: the {stage} stage removed features ({n_in} -> {n_out})")


def pipeline_argv(workload: Workload, manifest: Path, workdir: Path, seed: int) -> list[str]:
    return [
        "pipeline", "--manifest", str(manifest), "--workdir", str(workdir),
        "--seed", str(seed), *workload.flags,
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict, workdir: Path, workload: Workload, expected_reports: int,
                  traced_seconds: float, untraced_median: float) -> dict[str, float]:
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for i, (name, start, end, parent) in enumerate(spans):
        # A span inside one of the same name is already in its parent's total.
        if parent < 0 or spans[parent][0] != name:
            total[name] += end - start
        own[name] += end - start - children[i]
        calls[name] += 1

    counts = trace["counts"]
    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}_s"] = total[span]
        metrics[f"{span}.self_s"] = own[span]
    for stage in CLI_STAGES:
        metrics[f"cli.{stage}.maxrss_mb"] = counts.get(f"cli.{stage}.maxrss_mb", 0.0)

    stages = selection_stages(workdir)
    reports = counts.get("ingest.reports", 0)
    metrics.update({
        "ingest.reports": reports,
        "ingest.calls": counts.get("ingest.calls", 0),
        "ingest.skipped": expected_reports - reports,
        "tokens.ngrams": counts.get("tokens.ngrams", 0),
        "tokens.vocab_terms": vocabulary_size(workdir, workload.active),
        "vectorize.read_calls": calls["vectorize.read"],
        # Header plus the #shape row; every other line is one nonzero.
        "vectorize.nnz": _line_count(workdir / f"tfidf_{workload.active}.csv") - 2,
        "select.features_in": stages["lexical"][0],
        "select.lexical_out": stages["lexical"][1],
        "select.frequency_out": stages["frequency"][1],
        "select.mi_out": stages["mi"][1],
        "select.correlation_out": stages["correlation"][1],
        "select.kept": _line_count(workdir / "selection_mask.csv") - 1,
        "models.grow_tree_calls": calls["models.grow_tree"],
        "models.tree_nodes": counts.get("models.tree_nodes", 0),
        "models.model_kb": (workdir / "model.json").stat().st_size / 1024.0,
        "trace.overhead_ratio": traced_seconds / untraced_median,
    })
    return metrics


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def load_reference(name: str, seed: int, full: bool) -> dict | None:
    if seed != DEFAULT_SEED or not full:
        return None
    pinned = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    return pinned.get(name)


def benchmark(args: argparse.Namespace, tmp: Path) -> tuple[dict[str, float], list[Run]]:
    workload = WORKLOADS[args.workload]
    per_class = args.per_class or workload.per_class
    full = per_class == workload.per_class
    reference = load_reference(args.workload, args.seed, full)

    manifest, setup_s = timed_setup(per_class, args.seed, tmp)
    print(f"setup: {8 * per_class} reports, median {setup_s:.3f} s")

    runs: list[Run] = []

    def attempt(label: str, program: list[str]) -> Path:
        """Run the pipeline once, judge its outputs and return its workdir."""
        workdir = tmp / label
        seconds, rss, status = spawn(
            [sys.executable, *program, *pipeline_argv(workload, manifest, workdir, args.seed)],
            tmp / f"{label}.log",
        )
        problems, digests, accuracy, macro_f1 = judge(workload, workdir, status, reference, full)
        runs.append(Run(seconds, rss, status, problems, digests, accuracy, macro_f1))
        print(f"{label}: {seconds:.3f} s, {rss:.1f} MB, "
              + ("pass" if not problems else "FAIL: " + "; ".join(problems)))
        if status != 0:
            sys.stderr.write((tmp / f"{label}.log").read_text(errors="replace")[-2000:])
        return workdir

    deadline = time.perf_counter() + args.seconds
    while True:
        workdir = attempt(f"run{len(runs) + 1}", ["-m", "apigram.cli"])
        last = runs[-1]
        if len(runs) == 1 and last.digests:
            print("artifacts " + json.dumps(last.digests, sort_keys=True))
        if reference is None and not last.problems:
            reference = last.digests
        if full and last.status == 0:
            check_selection_guard(args.workload, workload, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        if time.perf_counter() + statistics.median(run.seconds for run in runs) > deadline:
            break

    untraced_median = statistics.median(run.seconds for run in runs)
    if not args.trace:
        passing = [run for run in runs if not run.problems] or runs
        return {
            "setup_s": setup_s,
            "pipeline_s": untraced_median,
            "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
            "accuracy_pct": statistics.median(run.accuracy for run in passing),
            "macro_f1_pct": statistics.median(run.macro_f1 for run in passing),
            "passed_ratio": sum(not run.problems for run in runs) / len(runs),
        }, runs

    spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    workdir = attempt("traced", [str(BENCH_DIR / "tracer.py"), str(spans_path)])
    if runs[-1].status != 0:
        return dict.fromkeys((name for name, _ in PER_LAYER), 0.0), runs
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    for name in trace["absent"]:
        print(f"absent: {name}")
    metrics = layer_metrics(trace, workdir, workload, 8 * per_class, runs[-1].seconds, untraced_median)
    if full and (metrics["models.grow_tree_calls"] > 0) != workload.grows_trees:
        raise GuardFailure(
            f"{args.workload}: {metrics['models.grow_tree_calls']} tree-growing calls, "
            f"expected {'some' if workload.grows_trees else 'none'}"
        )
    return metrics, runs


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting pipeline runs while the next one fits in this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--per-class", type=int, default=None,
                        help="reports per class (default: the workload's own size); "
                        "the accuracy bar and validity guards only apply at the default")
    args = parser.parse_args(argv)
    if args.per_class is not None and args.per_class < 2:
        parser.error("--per-class must be at least 2")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "apigram" / "cli.py").is_file():
        print(f"error: no apigram sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        metrics, runs = benchmark(args, tmp)
    except GuardFailure as exc:
        print(f"error: workload validity guard failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(bool(run.problems) for run in runs)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'failed_ratio':<28} {failed / len(runs):>14.6g} ratio ({failed} of {len(runs)} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
