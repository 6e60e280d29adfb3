"""Parse sandbox behavioral JSON reports into normalized call traces.

Accepts the Cuckoo 2.x report layout (``behavior`` -> ``processes[]`` ->
``calls[]``) with case-insensitive keys and tolerance for extra fields.
Each sample becomes a :class:`BehaviorReport` that holds each process's
calls, in report order.

Ingest stores each report as one plain-record ``corpus.jsonl`` line, which
featurize reads back by indexing, without that tolerant parser.
"""
from __future__ import annotations

import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .errors import EmptyTrace, IoFailure, MalformedJson, MissingBehaviorSection
from .labels import ClassLabel
from .tables import csv_field, read_table, write_table

logger = logging.getLogger(__name__)

_NAME_KEYS = ("api", "apiname", "api_name", "name")
_CATEGORY_KEYS = ("category",)
_ARGUMENT_KEYS = ("arguments", "args")
_RETURN_KEYS = ("return", "return_value", "returnvalue")
# The fields a call layout resolves, in the order it holds their raw keys.
_CALL_FIELD_KEYS = (_NAME_KEYS, _CATEGORY_KEYS, _ARGUMENT_KEYS, _RETURN_KEYS)
# Stands for an absent key: no dict holds it, so ``obj.get`` gives None.
_ABSENT = object()


class ApiCallRecord(NamedTuple):
    """One recorded API invocation, a plain 4-tuple in field order."""

    category: str
    name: str
    arguments: tuple[str, ...]
    return_value: str


@dataclass(frozen=True)
class BehaviorReport:
    """One sample's calls, one tuple per process in report order, so n-gram
    windows can restart at each process boundary."""

    sample_id: str
    label: ClassLabel
    processes: tuple[tuple[ApiCallRecord, ...], ...]

    @property
    def calls(self) -> tuple[ApiCallRecord, ...]:
        """The whole trace: every process's calls, concatenated in report order."""
        return tuple(chain.from_iterable(self.processes))


# ---------------------------------------------------------------------------
# Value normalization
# ---------------------------------------------------------------------------

def stringify_value(value) -> str:
    """Canonical string form of a JSON argument/return value.

    Scalars map to decimal / ``true`` / ``false`` / ``na``; nested
    structures fall back to compact sorted-key JSON so the result is
    deterministic.
    """
    if isinstance(value, str):
        return value
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _key_map(raw_keys) -> dict:
    """Lower-cased string key -> raw key, over ``raw_keys`` in dict order;
    among keys that differ only in case, the first wins (it is written last)."""
    return {key.lower(): key for key in reversed(raw_keys) if isinstance(key, str)}


def _raw_key(key_map: dict, keys: tuple[str, ...]):
    """Raw key of the earliest of ``keys`` present in ``key_map``; ``_ABSENT`` if none is."""
    for key in keys:
        if key in key_map:
            return key_map[key]
    return _ABSENT


def _ci_get(obj: dict, keys: tuple[str, ...]):
    """Case-insensitive lookup of the first matching key; None if absent."""
    return obj.get(_raw_key(_key_map(obj), keys))


def normalize_arguments(raw) -> tuple[str, ...]:
    """Normalize a report's argument field to an ordered string tuple.

    JSON objects (Cuckoo's named arguments) are flattened to their values
    with keys sorted lexicographically; arrays keep their order. Array
    elements shaped like ``{"name": ..., "value": ...}`` contribute their
    value.
    """
    if raw is None:
        return ()
    if isinstance(raw, dict):
        return tuple(stringify_value(raw[k]) for k in sorted(raw, key=str))
    if isinstance(raw, list):
        out = []
        for element in raw:
            if isinstance(element, dict):
                value = _ci_get(element, ("value",))
                out.append(stringify_value(value if value is not None else element))
            else:
                out.append(stringify_value(element))
        return tuple(out)
    return (stringify_value(raw),)


# ---------------------------------------------------------------------------
# Report parsing
# ---------------------------------------------------------------------------

def _call_layout(keys: tuple) -> tuple:
    """The raw keys of name, category, arguments and return for a call object
    whose keys, in dict order, are ``keys``."""
    key_map = _key_map(keys)
    return tuple(_raw_key(key_map, field_keys) for field_keys in _CALL_FIELD_KEYS)


def _parse_call(obj, layouts: dict) -> ApiCallRecord | None:
    """One call object as a record; ``layouts`` caches ``_call_layout`` by key tuple."""
    if not isinstance(obj, dict):
        return None
    keys = tuple(obj)
    layout = layouts.get(keys)
    if layout is None:
        layout = layouts[keys] = _call_layout(keys)
    name, category, arguments, return_value = map(obj.get, layout)
    if not isinstance(name, str) or not name.strip():
        return None
    return ApiCallRecord(
        stringify_value(category) if category is not None else "",
        name.strip(),
        normalize_arguments(arguments),
        stringify_value(return_value) if return_value is not None else "",
    )


def parse_report(raw: bytes | str, label: ClassLabel, sample_id: str) -> BehaviorReport:
    """Parse one behavioral JSON report into a :class:`BehaviorReport`.

    Raises :class:`MalformedJson` on undecodable input,
    :class:`MissingBehaviorSection` when no per-process call lists exist,
    and :class:`EmptyTrace` when every call list is empty.
    """
    try:
        document = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"{sample_id}: undecodable report JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise MissingBehaviorSection(f"{sample_id}: report is not a JSON object")

    behavior = _ci_get(document, ("behavior",))
    if not isinstance(behavior, dict):
        raise MissingBehaviorSection(f"{sample_id}: no behavior section")
    processes = _ci_get(behavior, ("processes",))
    if not isinstance(processes, list):
        raise MissingBehaviorSection(f"{sample_id}: behavior has no process call lists")

    parsed: list[tuple[ApiCallRecord, ...]] = []
    # Calls in one report share a few key layouts; each is resolved once.
    layouts: dict[tuple, tuple] = {}
    for process in processes:
        if not isinstance(process, dict):
            continue
        call_list = _ci_get(process, ("calls",))
        if not isinstance(call_list, list):
            continue
        records = [_parse_call(call_obj, layouts) for call_obj in call_list]
        parsed.append(tuple([record for record in records if record is not None]))

    if not any(parsed):
        raise EmptyTrace(f"{sample_id}: report contains zero API calls")
    return BehaviorReport(sample_id=sample_id, label=label, processes=tuple(parsed))


# ---------------------------------------------------------------------------
# corpus.jsonl lines
# ---------------------------------------------------------------------------

# One encoder for every line; a report built from parsed JSON cannot hold a
# cycle, so the encoder does not look for one.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def report_to_json_bytes(report: BehaviorReport) -> bytes:
    """One ``corpus.jsonl`` line: ``{"label", "processes", "sample_id"}``, each
    process a list of ``[category, name, [arguments...], return]`` string
    records; ``report_from_json_line`` reads a parsed report back exactly."""
    document = {
        "sample_id": report.sample_id,
        "label": report.label.value,
        # JSON writes a tuple as the same array as a list, so the processes,
        # their records and each argument tuple serialize as they are.
        "processes": report.processes,
    }
    return _LINE_ENCODER.encode(document).encode("utf-8")


def _call_from_fields(fields) -> ApiCallRecord:
    # Exact type tests: json.loads builds no str or list subclass.
    if type(fields) is not list or len(fields) != 4:
        raise ValueError(f"call {fields!r} is not [category, name, arguments, return]")
    category, name, arguments, return_value = fields
    if type(category) is str and type(name) is str and type(return_value) is str and type(arguments) is list:
        try:
            "".join(arguments)  # TypeError unless every argument is a str
        except TypeError:
            pass
        else:
            return ApiCallRecord(category, name, tuple(arguments), return_value)
    raise ValueError(f"call {fields!r} holds a non-string field")


def report_from_json_line(line: str) -> BehaviorReport:
    """Rebuild a ``report_to_json_bytes`` line; any other shape is ``MalformedJson``."""
    try:
        document = json.loads(line)
        if not isinstance(document, dict):
            raise ValueError("not a JSON object")
        sample_id, label, processes = document["sample_id"], document["label"], document["processes"]
        if not (isinstance(sample_id, str) and isinstance(label, str)):
            raise ValueError("sample_id and label must be strings")
        if not (isinstance(processes, list) and all(isinstance(p, list) for p in processes)):
            raise ValueError("processes must be a list of call lists")
        # tuple() of a list allocates the tuple at its final size; from an
        # iterator it grows by reallocation, which left featurize's heap about
        # 5 MB larger on the bulk-svm workload.
        return BehaviorReport(
            sample_id=sample_id,
            label=ClassLabel.from_name(label),
            processes=tuple([tuple([_call_from_fields(f) for f in process]) for process in processes]),
        )
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise MalformedJson(f"bad corpus.jsonl line: {exc}") from exc


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

_MANIFEST_COLUMNS = ("sample_id", "label", "path")


def load_manifest(path: str | Path) -> list[tuple[str, ClassLabel, Path]]:
    """Read a corpus manifest CSV by its ``sample_id``, ``label`` and ``path``
    columns; other columns are ignored.

    Relative report paths are resolved against the manifest's directory.
    """
    base = Path(path).parent
    entries: list[tuple[str, ClassLabel, Path]] = []
    with read_table(path, _MANIFEST_COLUMNS, by_name=True) as (records, _):
        for sample_id, label, report_path in records:
            if not report_path:
                raise ValueError("no report path")
            # An absolute report path replaces the base.
            entries.append((sample_id, ClassLabel.from_name(label), base / report_path))
    return entries


def write_manifest(path: str | Path, rows: list[tuple[str, str, str]]) -> None:
    write_table(path, _MANIFEST_COLUMNS, (",".join(map(csv_field, row)) + "\n" for row in rows))


def load_corpus(manifest_path: str | Path | list[tuple[str, ClassLabel, Path]]) -> Iterator[BehaviorReport]:
    """Parse the reports named in the manifest, yielding each in manifest order.

    ``manifest_path`` may also be the entries ``load_manifest`` already read,
    so a caller that needs them too reads the manifest once. One report is
    parsed at a time and nothing is kept after it is yielded. Reports with
    an empty trace are dropped with a warning.
    """
    entries = manifest_path if isinstance(manifest_path, list) else load_manifest(manifest_path)
    for sample_id, label, report_path in entries:
        try:
            raw = report_path.read_bytes()
        except OSError as exc:
            raise IoFailure(f"cannot read report {report_path}: {exc}") from exc
        try:
            report = parse_report(raw, label, sample_id)
        except EmptyTrace:
            logger.warning("sample %s has an empty trace", sample_id)
            continue
        yield report
