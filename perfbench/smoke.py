"""Smoke check of the benchmark itself on a tiny corpus (8 x 5 reports).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``perfbench/run.py`` twice
untraced and once traced at ``--per-class 5`` and checks that

- each run exits 0 and reports no failed pipeline run;
- the result names exactly the metrics BENCHMARK.json lists for that mode,
  each with its unit;
- the two untraced runs produce the same artifact bytes.

It also checks that the benchmark exits non-zero without printing a result
in a directory that holds only BENCHMARK.json and ``perfbench/``. The
accuracy bars and workload validity guards only apply at the workloads' own
corpus sizes, so this check does not reach them. Exits 0 when every check
passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PER_CLASS = "5"


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def artifacts(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.startswith("artifacts ")]
    return json.loads(lines[0][len("artifacts "):]) if lines else {}


def check_run(workload: str, trace: int, expected: dict[str, str]) -> dict:
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--per-class", PER_CLASS)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise AssertionError(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{where}: failed runs\n{done.stdout[-2000:]}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(n for n in set(units) & set(expected) if units[n] != expected[n])
        raise AssertionError(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    return artifacts(done.stdout)


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must refuse to run."""
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "--workload", "gate-gbt", "--seed", "7", "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or '"metrics"' in done.stdout:
            raise AssertionError("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first = check_run(workload, 0, end_to_end)
        second = check_run(workload, 0, end_to_end)
        if not first or first != second:
            raise AssertionError(f"{workload}: artifacts differ between runs: {first} {second}")
        check_run(workload, 1, per_layer)
        print(f"{workload}: ok")
    check_bare_directory()
    print("bare directory: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
