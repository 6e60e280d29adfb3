"""The ``apigram`` command: ``python -m apigram`` and the installed script.

A command runs BLAS on one thread: its matrix products are small, and at
that size OpenBLAS's worker threads cost more than they save. OpenBLAS
reads its thread count once, when numpy loads, so the setting comes before
any stage module is imported. A thread count the user has set wins.
Importing ``apigram`` as a library sets nothing.
"""
from __future__ import annotations

import os
import sys
from collections.abc import MutableMapping

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread(environ: MutableMapping[str, str] = os.environ) -> None:
    """Set ``OPENBLAS_NUM_THREADS=1`` unless ``environ`` already sets a BLAS
    thread count."""
    if not any(name in environ for name in BLAS_THREAD_VARIABLES):
        environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: list[str] | None = None) -> int:
    one_blas_thread()
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
