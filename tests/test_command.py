"""The command's BLAS policy: a command runs BLAS on one thread unless the
user set a thread count, a library import sets nothing, and either setting
writes the same bytes."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from apigram.__main__ import BLAS_THREAD_VARIABLES, one_blas_thread

ROOT = Path(__file__).resolve().parents[1]

# Runs one entry in a fresh interpreter and prints, as its last line, the
# OPENBLAS_NUM_THREADS value numpy's first import saw (if numpy was
# imported) and every BLAS thread variable afterwards.
_PROBE = """
import json, os, runpy, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Watch())
sys.argv = ["apigram", "--help"]
try:
    {entry}
except SystemExit:
    pass
print(json.dumps({{"at_numpy": seen, "after": {{n: os.environ.get(n) for n in {variables!r}}}}}))
"""


def _child_env(**variables: str) -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.update(variables)
    return env


def _probe(entry: str, **variables: str) -> dict:
    code = _PROBE.format(entry=entry, variables=BLAS_THREAD_VARIABLES)
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(**variables), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _blas_variables(**variables: str | None) -> dict[str, str | None]:
    return {name: variables.get(name) for name in BLAS_THREAD_VARIABLES}


def test_the_policy_sets_one_thread_when_nothing_is_set():
    environ = {"PATH": "/bin"}
    one_blas_thread(environ)
    assert environ == {"PATH": "/bin", "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_the_policy_keeps_any_thread_count_the_user_set(name):
    environ = {name: "2"}
    one_blas_thread(environ)
    assert environ == {name: "2"}


_COMMANDS = {
    "cli-module": 'runpy.run_module("apigram.cli", run_name="__main__", alter_sys=True)',
    "package": 'runpy.run_module("apigram", run_name="__main__", alter_sys=True)',
}


def _console_script() -> str:
    """The installed ``apigram`` script's entry, as pyproject.toml declares it."""
    scripts = (ROOT / "pyproject.toml").read_text().partition("[project.scripts]")[2]
    module, function = re.match(r'\s*apigram = "([\w.]+):(\w+)"', scripts).groups()
    return f"import importlib; sys.exit(importlib.import_module({module!r}).{function}())"


@pytest.mark.parametrize("entry", [*_COMMANDS.values(), _console_script()],
                         ids=[*_COMMANDS, "console-script"])
def test_a_command_sets_one_thread_before_numpy_loads(entry):
    result = _probe(entry)
    assert result == {"at_numpy": ["1"], "after": _blas_variables(OPENBLAS_NUM_THREADS="1")}


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_a_command_keeps_the_users_thread_count(name):
    result = _probe(_COMMANDS["cli-module"], **{name: "2"})
    assert result["after"] == _blas_variables(**{name: "2"})
    assert result["at_numpy"] == [None if name != "OPENBLAS_NUM_THREADS" else "2"]


@pytest.mark.parametrize("entry", ["import apigram.cli", "from apigram.cli import main", "import apigram"])
def test_a_library_import_sets_nothing(entry):
    result = _probe(entry)
    assert result["after"] == _blas_variables()
    assert result["at_numpy"] == ([] if entry == "import apigram" else [None])


def test_one_and_two_blas_threads_write_the_same_bytes(tmp_path):
    # Tiny union n-grams at seed 3 make every selection stage cut, so the
    # correlation products run.
    flags = ("--scale", "tiny", "--seed", "3",
             "--ngram-sizes", "1,2,3", "--ngram-combine", "true", "--ngram-active", "union")
    files = []
    for threads in ("1", "2"):
        workdir = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "apigram.cli", "pipeline", "--workdir", str(workdir), *flags],
                       env=_child_env(OPENBLAS_NUM_THREADS=threads), cwd=ROOT, capture_output=True, check=True)
        files.append({p.relative_to(workdir).as_posix(): p.read_bytes() for p in workdir.rglob("*") if p.is_file()})
    assert b"\ncorrelation,877,873\n" in files[0]["selection_report.csv"]
    assert sorted(files[0]) == sorted(files[1])
    for name, content in files[0].items():
        assert content == files[1][name], name
