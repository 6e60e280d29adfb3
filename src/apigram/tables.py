"""The working directory's CSV tables: one dialect, one writer, one reader.

Every table is UTF-8 text, a header row and then its rows, each ending in
``\\n``. Text fields are quoted by ``csv_field``; numbers are written bare.
Every field that was written reads back whole, and any failure to write or
read a table is ``IoFailure``.
"""
from __future__ import annotations

import csv
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from .errors import IoFailure


def csv_field(text: str) -> str:
    """One text field, quoted as ``csv.writer`` quotes it (when it holds a
    comma, a double quote or a line feed; inner quotes doubled) and also when
    it holds a carriage return, so that ``csv.reader`` reads it back whole."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as UTF-8 with no newline translation."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_table(path: str | Path, columns: Iterable[str], rows: Iterable[str]) -> None:
    """Write the header row of ``columns``, then ``rows``: each item is one
    or more whole rows with every text field quoted by ``csv_field``."""
    write_text(path, chain([",".join(map(csv_field, columns)) + "\n"], rows))


@contextmanager
def read_table(
    path: str | Path, columns: tuple[str, ...], *, by_name: bool = False
) -> Iterator[tuple[Iterator[Sequence[str]], TextIO]]:
    """Open the table at ``path`` and yield ``(records, lines)``: each row
    after the header as its fields, blank lines skipped, and the same file
    as raw lines, for a body that numpy parses instead.

    The header must be ``columns``; with ``by_name`` it need only hold them,
    in any order, and each record gives their fields in that order. Any
    failure to open, decode or parse the table, within the ``with`` block
    too, is ``IoFailure`` naming the file and the line last read.
    """
    # An n-gram over a call with a long argument can exceed the csv module's
    # default field limit of 131,072 characters; the limit stays raised.
    csv.field_size_limit(sys.maxsize)
    rows = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, [])
            if by_name and set(columns) <= set(header):
                records = map(itemgetter(*map(header.index, columns)), filter(None, rows))
            elif header == list(columns):
                records = filter(None, rows)
            else:
                raise ValueError(f"header {header} does not match {list(columns)}")
            yield records, fh
    # UnicodeDecodeError is a ValueError; some numpy versions raise
    # OverflowError for an integer out of range.
    except (OSError, csv.Error, ValueError, IndexError, KeyError, OverflowError) as exc:
        where = f"{path}, line {rows.line_num}" if rows is not None else path
        raise IoFailure(f"cannot read {where}: {exc}") from exc
