"""Report parsing: schema tolerance, normalization, round trips, corpus IO."""
from __future__ import annotations

import csv
import dataclasses
import json
import random
import weakref

import numpy as np
import pytest

from apigram import ingest
from apigram.errors import EmptyTrace, IoFailure, MalformedJson, MissingBehaviorSection
from apigram.ingest import (
    ApiCallRecord,
    BehaviorReport,
    load_corpus,
    load_manifest,
    parse_report,
    report_from_json_line,
    report_to_json_bytes,
    stringify_value,
    normalize_arguments,
    write_manifest,
)
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.select import read_mask
from apigram.vectorize import read_matrix


def _raw(processes) -> bytes:
    return json.dumps({"behavior": {"processes": processes}}).encode()


SEVEN_NAMES = [
    "LdrLoadDll",
    "LdrGetProcedureAddress",
    "NtAllocateVirtualMemory",
    "NtCreateFile",
    "RegOpenKeyExW",
    "ConnectEx",
    "LdrUnloadDll",
]


def _seven_call_report() -> bytes:
    calls_a = [{"api": n, "category": "system", "arguments": [], "return": 0} for n in SEVEN_NAMES[:4]]
    calls_b = [{"api": n, "category": "system", "arguments": [], "return": 0} for n in SEVEN_NAMES[4:]]
    return _raw([{"calls": calls_a}, {"calls": calls_b}])


def test_parse_concatenates_processes_in_report_order():
    report = parse_report(_seven_call_report(), ClassLabel.TROJAN, "s1")
    assert [c.name for c in report.calls] == SEVEN_NAMES
    assert tuple(map(len, report.processes)) == (4, 3)
    assert report.label is ClassLabel.TROJAN
    assert report.sample_id == "s1"


def test_parse_is_case_insensitive_and_tolerates_extra_keys():
    raw = json.dumps({
        "Info": {"id": 9},
        "BEHAVIOR": {
            "Processes": [{
                "process_name": "a.exe",
                "Calls": [{
                    "API": "LdrLoadDll",
                    "Category": "system",
                    "Arguments": ["urlmon", "urlmon.dll"],
                    "Return": 0,
                    "status": "SUCCESS",
                }],
            }],
        },
    }).encode()
    report = parse_report(raw, ClassLabel.BENIGN, "s2")
    call = report.calls[0]
    assert call.name == "LdrLoadDll"
    assert call.category == "system"
    assert call.arguments == ("urlmon", "urlmon.dll")
    assert call.return_value == "0"


def test_alternate_name_keys_and_skipped_nameless_calls():
    raw = _raw([{"calls": [
        {"api_name": "NtCreateFile"},
        {"apiname": "NtClose"},
        {"name": "NtOpenKey"},
        {"category": "system"},
        {"api": "   "},
    ]}])
    report = parse_report(raw, ClassLabel.WORM, "s3")
    assert [c.name for c in report.calls] == ["NtCreateFile", "NtClose", "NtOpenKey"]


def test_named_arguments_flatten_by_sorted_key():
    raw = _raw([{"calls": [{
        "api": "NtAllocateVirtualMemory",
        "arguments": {"region_size": 4096, "base_address": "0x0040"},
    }]}])
    report = parse_report(raw, ClassLabel.VIRUS, "s4")
    assert report.calls[0].arguments == ("0x0040", "4096")


def test_argument_arrays_keep_order_and_unwrap_value_objects():
    raw = _raw([{"calls": [{
        "api": "RegSetValueExW",
        "arguments": [
            {"name": "key", "value": "Software\\Run"},
            "second",
            7,
            None,
            True,
        ],
    }]}])
    report = parse_report(raw, ClassLabel.ADWARE, "s5")
    assert report.calls[0].arguments == ("Software\\Run", "second", "7", "na", "true")


def test_case_insensitive_lookup_prefers_key_priority_then_dict_order():
    names = ingest._NAME_KEYS
    cases = [
        # Case-variant duplicates: the first in dict order wins.
        ({"API": "upper", "api": "lower"}, names, "upper"),
        ({"api": "lower", "API": "upper"}, names, "lower"),
        # Competing names: the earlier key in the priority tuple wins.
        ({"name": "by-name", "api": "by-api"}, names, "by-api"),
        ({"Name": "n", "API_NAME": "underscored", "ApiName": "joined"}, names, "joined"),
        # Non-string keys never match.
        ({1: "int-key", None: "none-key", ("api",): "tuple-key", "Api": "str-key"}, names, "str-key"),
        ({1: "int-key", ("api",): "tuple-key"}, names, None),
        # A present key with a None value still shadows later keys.
        ({"api": None, "name": "shadowed"}, names, None),
        ({"RETURN": None, "return_value": 3, "Return": 4}, ingest._RETURN_KEYS, None),
        ({"args": [1], "Arguments": None, "ARGS": [2]}, ingest._ARGUMENT_KEYS, None),
        ({"category": "c", "CATEGORY": None}, ingest._CATEGORY_KEYS, "c"),
        ({}, names, None),
    ]
    for obj, keys, expected in cases:
        assert ingest._ci_get(obj, keys) == expected, (obj, keys)


def test_call_fields_follow_the_lookup_rule():
    call = ingest._parse_call({
        "Name": "by-name", "API": "CreateFileW", "api": "shadowed",
        "ARGS": ["b"], "arguments": ["a"], "Category": "file", "return_value": 0, "RETURN": 1,
    }, {})
    assert call == ApiCallRecord("file", "CreateFileW", ("a",), "1")


def _reference_parse_call(obj):
    """Reference: the per-call lookup, one lower-cased key map per call object."""
    if not isinstance(obj, dict):
        return None
    fields = {key.lower(): value for key, value in reversed(obj.items()) if isinstance(key, str)}

    def first_of(keys):
        return next((fields[key] for key in keys if key in fields), None)

    name = first_of(ingest._NAME_KEYS)
    if not isinstance(name, str) or not name.strip():
        return None
    category = first_of(ingest._CATEGORY_KEYS)
    return_value = first_of(ingest._RETURN_KEYS)
    return ApiCallRecord(
        stringify_value(category) if category is not None else "",
        name.strip(),
        normalize_arguments(first_of(ingest._ARGUMENT_KEYS)),
        stringify_value(return_value) if return_value is not None else "",
    )


_LAYOUT_KEYS = [
    "api", "API", "Api", "apiname", "ApiName", "api_name", "NAME", "name",
    "category", "Category", "arguments", "Arguments", "args", "Args",
    "return", "RETURN", "return_value", "ReturnValue", "returnvalue", "status",
]


def _random_value(rng):
    return rng.choice([
        "NtClose", "  LdrLoadDll ", "", "   ", None, 0, 7, 2.5, True, False,
        ["a", 1, None, {"name": "k", "VALUE": "v"}], {"b": 1, "a": "x"}, "x,y z",
    ])


def test_layout_lookup_matches_the_per_call_lookup():
    rng = random.Random(12)
    for _ in range(150):
        # A few key sets per report, each written in several orders, so one
        # report holds the same keys in different orders and case variants.
        pool = [rng.sample(_LAYOUT_KEYS, rng.randint(0, 6)) for _ in range(3)]
        processes = []
        for _ in range(rng.randint(1, 3)):
            calls = []
            for _ in range(rng.randint(1, 25)):
                if rng.random() < 0.05:
                    calls.append(rng.choice([3, "NtClose", None, ["api", "x"]]))
                    continue
                keys = rng.choice(pool)[:]
                rng.shuffle(keys)
                calls.append({key: _random_value(rng) for key in keys})
            processes.append({"calls": calls})
        raw = _raw(processes)
        expected = [
            [record for record in map(_reference_parse_call, process["calls"]) if record is not None]
            for process in json.loads(raw)["behavior"]["processes"]
        ]
        if not any(expected):
            with pytest.raises(EmptyTrace):
                parse_report(raw, ClassLabel.WORM, "oracle")
            continue
        report = parse_report(raw, ClassLabel.WORM, "oracle")
        assert report.calls == tuple(record for process in expected for record in process)
        assert tuple(map(len, report.processes)) == tuple(map(len, expected))


def test_call_record_is_a_named_four_tuple():
    call = ApiCallRecord("file", "NtCreateFile", ("a", "b"), "0")
    assert ApiCallRecord._fields == ("category", "name", "arguments", "return_value")
    assert call == ("file", "NtCreateFile", ("a", "b"), "0")
    assert tuple(call) == (call.category, call.name, call.arguments, call.return_value)
    assert call[1] == "NtCreateFile"
    with pytest.raises(AttributeError):
        call.name = "NtClose"


def test_stringify_value_scalar_forms():
    assert stringify_value(None) == "na"
    assert stringify_value(True) == "true"
    assert stringify_value(False) == "false"
    assert stringify_value(17) == "17"
    assert stringify_value(2.5) == "2.5"
    assert stringify_value("text") == "text"
    assert stringify_value({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_scalar_argument_becomes_single_element():
    assert normalize_arguments("only") == ("only",)
    assert normalize_arguments(None) == ()


def test_malformed_json_raises():
    with pytest.raises(MalformedJson):
        parse_report(b"{not json", ClassLabel.TROJAN, "bad")


def test_missing_behavior_section_raises():
    for document in ({}, {"behavior": 3}, {"behavior": {"processes": "x"}}, [1, 2]):
        with pytest.raises(MissingBehaviorSection):
            parse_report(json.dumps(document).encode(), ClassLabel.TROJAN, "bad")


def test_empty_trace_raises():
    raw = _raw([{"calls": []}, {"calls": []}])
    with pytest.raises(EmptyTrace):
        parse_report(raw, ClassLabel.SPYWARE, "empty")


def test_parse_is_deterministic():
    raw = _seven_call_report()
    assert parse_report(raw, ClassLabel.TROJAN, "d") == parse_report(raw, ClassLabel.TROJAN, "d")


def test_normalized_json_round_trip_is_exact():
    rng = np.random.default_rng(101)
    reports = []
    for _ in range(50):
        n_proc = int(rng.integers(1, 4))
        processes = []
        for _ in range(n_proc):
            calls = [
                {
                    "api": f"Api{int(rng.integers(0, 40))}",
                    "category": "system",
                    "arguments": [f"a{int(rng.integers(0, 9))}" for _ in range(int(rng.integers(0, 3)))],
                    "return": int(rng.integers(0, 2)),
                }
                for _ in range(int(rng.integers(1, 6)))
            ]
            processes.append({"calls": calls})
        processes.insert(int(rng.integers(0, n_proc + 1)), {"calls": []})
        report = parse_report(_raw(processes), ClassLabel.DOWNLOADER, "rt")
        assert () in report.processes
        reports.append(report)
    reports.append(BehaviorReport(sample_id="void", label=ClassLabel.BENIGN, processes=((), ())))
    for report in reports:
        assert report_from_json_line(report_to_json_bytes(report).decode()) == report


def _reference_json_bytes(report):
    """Reference: the corpus.jsonl line built from per-call lists."""
    document = {
        "sample_id": report.sample_id,
        "label": report.label.value,
        "processes": [
            [[call.category, call.name, list(call.arguments), call.return_value] for call in process]
            for process in report.processes
        ],
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def test_corpus_line_bytes_match_the_list_built_line():
    calls = (
        ApiCallRecord("file", "NtCreateFile", ("C:\\x \"y\"", "ünï", "日本"), "0"),
        ApiCallRecord("", "NtClose", (), ""),
        ApiCallRecord("reg", 'Reg"Open', ("", "\n\t\x00"), "\u2028"),
        ApiCallRecord("net", "connect", ("a,b",), "-1"),
    )
    reports = [
        BehaviorReport("plain", ClassLabel.WORM, (calls,)),
        BehaviorReport("zeros", ClassLabel.VIRUS, ((), calls[:1], (), calls[1:], ())),
        BehaviorReport("void", ClassLabel.BENIGN, ((), ())),
        BehaviorReport("empty", ClassLabel.BENIGN, ()),
        BehaviorReport('id "quoted" é', ClassLabel.ADWARE, (calls[1:2],)),
        parse_report(_seven_call_report(), ClassLabel.TROJAN, "parsed"),
    ]
    for report in reports:
        assert report_to_json_bytes(report) == _reference_json_bytes(report), report.sample_id


def test_corpus_line_is_the_plain_json_dumps_line():
    # The module's one encoder must write what json.dumps writes.
    rng = random.Random(223)
    alphabet = ["a", "Z", "0", " ", ",", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t",
                "é", "ü", "日", "\u2028", "\ud800", "\U0001f600"]

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 6)))

    reports = [BehaviorReport("void", ClassLabel.BENIGN, ((), ())), BehaviorReport("", ClassLabel.BENIGN, ())]
    for _ in range(60):
        processes = tuple(
            tuple(ApiCallRecord(text(), text(), tuple(text() for _ in range(rng.randrange(0, 4))), text())
                  for _ in range(rng.randrange(0, 4)))
            for _ in range(rng.randrange(0, 4))
        )
        reports.append(BehaviorReport(text(), rng.choice(ALL_LABELS), processes))
    for report in reports:
        document = {"sample_id": report.sample_id, "label": report.label.value, "processes": report.processes}
        line = report_to_json_bytes(report)
        assert line == json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert report_from_json_line(line.decode()) == report


_NOT_A_CALL = "is not [category, name, arguments, return]"
_NON_STRING = "holds a non-string field"


@pytest.mark.parametrize("call, problem", [
    pytest.param({"api": "NtClose"}, _NOT_A_CALL, id="object"),
    pytest.param("NtClose", _NOT_A_CALL, id="string"),
    pytest.param(["system", "NtClose", []], _NOT_A_CALL, id="three-fields"),
    pytest.param(["system", "NtClose", [], "0", "x"], _NOT_A_CALL, id="five-fields"),
    pytest.param([1, "NtClose", [], "0"], _NON_STRING, id="category-number"),
    pytest.param(["system", None, [], "0"], _NON_STRING, id="name-null"),
    pytest.param(["system", "NtClose", [], 0], _NON_STRING, id="return-number"),
    pytest.param(["system", "NtClose", "h", "0"], _NON_STRING, id="arguments-string"),
    pytest.param(["system", "NtClose", {"a": "b"}, "0"], _NON_STRING, id="arguments-object"),
    pytest.param(["system", "NtClose", None, "0"], _NON_STRING, id="arguments-null"),
    pytest.param(["system", "NtClose", ["a", 7], "0"], _NON_STRING, id="argument-number"),
    pytest.param(["system", "NtClose", [["a"]], "0"], _NON_STRING, id="argument-list"),
    pytest.param(["system", "NtClose", [None], "0"], _NON_STRING, id="argument-null"),
])
def test_malformed_call_names_the_call(call, problem):
    line = _corpus_line(processes=[[["system", "NtOpenFile", ["a"], "0"], call]])
    with pytest.raises(MalformedJson) as excinfo:
        report_from_json_line(line)
    assert str(excinfo.value) == f"bad corpus.jsonl line: call {call!r} {problem}"


def test_report_holds_its_processes_and_derives_its_calls():
    assert tuple(f.name for f in dataclasses.fields(BehaviorReport)) == ("sample_id", "label", "processes")
    a, b, c = (ApiCallRecord("system", name, (), "0") for name in ("NtOpenFile", "NtReadFile", "NtClose"))
    report = BehaviorReport("gaps", ClassLabel.WORM, ((), (a, b), (), (c,), ()))
    assert report.calls == (a, b, c)
    assert BehaviorReport("one", ClassLabel.WORM, ((a,),)).calls == (a,)
    for processes in ((), ((),), ((), (), ())):
        hollow = BehaviorReport("hollow", ClassLabel.BENIGN, processes)
        assert hollow.calls == ()
        line = report_to_json_bytes(hollow).decode()
        assert json.loads(line)["processes"] == [[] for _ in processes]
        assert report_from_json_line(line) == hollow
    assert report_from_json_line(report_to_json_bytes(report).decode()) == report


def _corpus_line(**fields):
    return json.dumps({"label": "Worm", "sample_id": "x", **fields})


def test_report_from_json_line_preserves_identity_and_label():
    report = parse_report(_seven_call_report(), ClassLabel.WORM, "line-1")
    line = report_to_json_bytes(report).decode()
    again = report_from_json_line(line)
    assert again == report
    bad_lines = [
        "{nope",
        "[1]",
        '"x"',
        line.replace('"sample_id":"line-1"', '"sample_id":3'),
        line.replace('"label":"Worm"', '"label":5'),
        _corpus_line(processes=[[[1, "NtClose", [], "0"]]]),
        _corpus_line(processes=[[["system", None, [], "0"]]]),
        _corpus_line(processes=[[["system", "NtClose", [7], "0"]]]),
        _corpus_line(processes=[[["system", "NtClose", [], 0]]]),
        _corpus_line(processes=[[["system", "NtClose", "h", "0"]]]),
        _corpus_line(processes=[[["system", "NtClose", []]]]),
        _corpus_line(processes=[{}]),
        _corpus_line(processes={"calls": []}),
        _corpus_line(),
        _corpus_line(behavior={"processes": [{"calls": [
            {"api": "NtClose", "arguments": [], "category": "system", "return": "0"},
        ]}]}),
    ]
    for bad in bad_lines:
        with pytest.raises(MalformedJson):
            report_from_json_line(bad)


def test_manifest_round_trip_and_relative_paths(tmp_path):
    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    (report_dir / "a.json").write_bytes(_seven_call_report())
    write_manifest(tmp_path / "manifest.csv", [("a", "Trojan", "reports/a.json")])
    entries = load_manifest(tmp_path / "manifest.csv")
    assert len(entries) == 1
    sample_id, label, path = entries[0]
    assert sample_id == "a"
    assert label is ClassLabel.TROJAN
    assert path == report_dir / "a.json"
    assert path.exists()


def test_manifest_ids_that_need_quoting_read_back_whole(tmp_path):
    rng = random.Random(26)
    ids = ["a\rb", "\r", "a,b", 'say "hi"', "two\nlines", '\r\n,"'] + [
        "".join(rng.choices(["\r", "\n", ",", '"', " ", "x", "7"], k=rng.randrange(1, 7)))
        for _ in range(300)
    ]
    rows = [(sample_id, "Trojan", f"r{i}.json") for i, sample_id in enumerate(ids)]
    write_manifest(tmp_path / "manifest.csv", rows)
    entries = load_manifest(tmp_path / "manifest.csv")
    assert [sample_id for sample_id, _, _ in entries] == ids
    # Without a carriage return, a row is written as csv.writer writes it.
    plain = [row for row in rows if "\r" not in row[0]]
    write_manifest(tmp_path / "plain.csv", plain)
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label", "path"])
        writer.writerows(plain)
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_load_manifest_missing_file_raises(tmp_path):
    with pytest.raises(IoFailure):
        load_manifest(tmp_path / "nope.csv")


@pytest.mark.parametrize("reader, header, short_row", [
    (load_manifest, "sample_id,label,path", "a,Trojan"),
    (read_mask, "kept_index,ngram,mi_score", "3"),
    (lambda path: read_matrix(path.with_name("m.csv"), path), "row,sample_id,label", "0,s0"),
], ids=["manifest", "mask", "labels"])
def test_short_csv_rows_raise_io_failure(tmp_path, reader, header, short_row):
    (tmp_path / "m.csv").write_text("row,col,weight\n#shape,1,1\n")
    path = tmp_path / "short.csv"
    path.write_text(f"{header}\n{short_row}\n")
    with pytest.raises(IoFailure):
        reader(path)


def _write_small_corpus(tmp_path, n=10):
    rows = []
    for i in range(n):
        label = ALL_LABELS[i % len(ALL_LABELS)]
        raw = _raw([{"calls": [{"api": f"Call{i}", "arguments": []}]}])
        (tmp_path / f"s{i}.json").write_bytes(raw)
        rows.append((f"s{i}", label.value, f"s{i}.json"))
    write_manifest(tmp_path / "manifest.csv", rows)
    return tmp_path / "manifest.csv"


def test_load_corpus_preserves_manifest_order(tmp_path):
    manifest = _write_small_corpus(tmp_path, n=12)
    assert [r.sample_id for r in load_corpus(manifest)] == [f"s{i}" for i in range(12)]


def test_load_corpus_drops_empty_traces(tmp_path):
    (tmp_path / "full.json").write_bytes(_raw([{"calls": [{"api": "NtClose"}]}]))
    (tmp_path / "void.json").write_bytes(_raw([{"calls": []}]))
    write_manifest(tmp_path / "manifest.csv", [
        ("full", "Benign", "full.json"),
        ("void", "Benign", "void.json"),
    ])
    dropped = load_corpus(tmp_path / "manifest.csv")
    assert [r.sample_id for r in dropped] == ["full"]


def test_load_corpus_holds_one_report_at_a_time(tmp_path, monkeypatch):
    manifest = _write_small_corpus(tmp_path, n=6)
    parsed = []
    still_alive = []

    def recording_parse(raw, label, sample_id):
        # Only the report yielded just before may outlive its turn.
        still_alive.extend(ref().sample_id for ref in parsed[:-1] if ref() is not None)
        report = parse_report(raw, label, sample_id)
        parsed.append(weakref.ref(report))
        return report

    monkeypatch.setattr(ingest, "parse_report", recording_parse)
    seen = [report.sample_id for report in load_corpus(manifest)]
    assert seen == [f"s{i}" for i in range(6)]
    assert len(parsed) == 6
    assert still_alive == []
