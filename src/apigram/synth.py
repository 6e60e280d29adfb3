"""Deterministic synthetic corpus of sandbox-shaped behavioral reports.

Each class draws most calls from its own pool of API/argument templates
(class-exclusive tokens with clean, letters-only arguments) and the rest
from a shared background: a prologue pair present in every trace, a
mid-frequency pool common to all classes, and volatile calls whose
address/size arguments come from a large value space. The background
gives every selection stage real work: the prologue is near-ubiquitous,
the volatile tokens are numeric, and the mid pool carries no class
signal.

Generation derives one RNG per sample from (seed XOR sample ordinal),
so corpora are reproducible byte for byte and samples could be produced
in any order.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidSpec, IoFailure
from .ingest import write_manifest
from .labels import ALL_LABELS, ClassLabel


@dataclass(frozen=True)
class ApiTemplate:
    """One drawable call shape: fixed name/category/arguments."""

    name: str
    category: str
    arguments: tuple[str, ...]
    weight: float = 1.0


@dataclass(frozen=True)
class ClassProfile:
    label: ClassLabel
    api_pool: tuple[ApiTemplate, ...]
    trace_length: tuple[int, int]
    noise_ratio: float

    def __post_init__(self) -> None:
        if not self.api_pool:
            raise InvalidSpec(f"{self.label}: api_pool must not be empty")
        if any(t.weight <= 0 for t in self.api_pool):
            raise InvalidSpec(f"{self.label}: template weights must be positive")
        lo, hi = self.trace_length
        if lo < 1 or hi < lo:
            raise InvalidSpec(f"{self.label}: bad trace length range {self.trace_length}")
        if not 0.0 <= self.noise_ratio < 1.0:
            raise InvalidSpec(f"{self.label}: noise_ratio must be in [0, 1)")


@dataclass(frozen=True)
class CorpusSpec:
    profiles: tuple[ClassProfile, ...]
    samples_per_class: dict[ClassLabel, int]
    seed: int

    def __post_init__(self) -> None:
        covered = {p.label for p in self.profiles}
        if covered != set(ALL_LABELS):
            raise InvalidSpec("profiles must cover all 8 classes exactly")
        if len(self.profiles) != len(covered):
            raise InvalidSpec("duplicate class profiles")
        for label in ALL_LABELS:
            if self.samples_per_class.get(label, 0) < 2:
                raise InvalidSpec(f"{label}: needs at least 2 samples")


# ---------------------------------------------------------------------------
# Shared background
# ---------------------------------------------------------------------------

# Present in every trace (when noise is enabled): document frequency N.
PROLOGUE = (
    ApiTemplate("NtQuerySystemInformation", "system", ()),
    ApiTemplate("GetSystemTimeAsFileTime", "system", ()),
)

# Class-independent mid-frequency calls; clean arguments, so these reach
# the ranking stage and lose there.
BACKGROUND_MID = (
    ApiTemplate("GetTickCount", "system", ()),
    ApiTemplate("CloseHandle", "system", ()),
    ApiTemplate("LdrUnloadDll", "system", ("urlmon",)),
    ApiTemplate("LdrUnloadDll", "system", ("comdlg",)),
    ApiTemplate("GetCursorPos", "windows", ()),
    ApiTemplate("FindWindowW", "windows", ("progman",)),
    ApiTemplate("RegCloseKey", "registry", ()),
    ApiTemplate("GetSystemMetrics", "windows", ()),
    ApiTemplate("OpenMutexW", "synchronisation", ("local.session",)),
    ApiTemplate("GetFileAttributesW", "filesystem", ("system.ini",)),
    ApiTemplate("QueryPerformanceCounter", "system", ()),
    ApiTemplate("GetModuleHandleW", "system", ("kernelbase",)),
    ApiTemplate("SetErrorMode", "system", ()),
    ApiTemplate("GetKeyboardLayout", "windows", ()),
    ApiTemplate("DuplicateHandle", "process", ()),
    ApiTemplate("GetUserNameW", "misc", ()),
    ApiTemplate("GetComputerNameW", "misc", ()),
    ApiTemplate("IsDebuggerPresent", "system", ()),
    ApiTemplate("GetAdaptersInfo", "network", ()),
    ApiTemplate("TlsGetValue", "system", ()),
)

# Address/size arguments make these tokens numeric, so the lexical rules
# remove them; their large value space inflates the raw vocabulary.
VOLATILE_APIS = (
    ("NtAllocateVirtualMemory", "process"),
    ("VirtualProtectEx", "process"),
    ("NtMapViewOfSection", "process"),
)


def _volatile_call(rng: random.Random) -> dict:
    name, category = VOLATILE_APIS[rng.randrange(len(VOLATILE_APIS))]
    address = f"0x{65536 + 4096 * rng.randrange(256):06x}"
    size = str(4096 * (1 + rng.randrange(64)))
    return {
        "category": category,
        "api": name,
        "arguments": {"base_address": address, "region_size": size},
        "return": 0,
    }


def _template_call(rng: random.Random, template: ApiTemplate) -> dict:
    call: dict = {"category": template.category, "api": template.name, "return": 0}
    if template.arguments:
        call["arguments"] = list(template.arguments)
    elif rng.random() < 0.5:
        call["arguments"] = []
    if rng.random() < 0.1:
        call["status"] = "SUCCESS"
    return call


def _background_call(rng: random.Random) -> dict:
    if rng.random() < 0.6:
        return _volatile_call(rng)
    return _template_call(rng, BACKGROUND_MID[rng.randrange(len(BACKGROUND_MID))])


def _sample_calls(rng: random.Random, profile: ClassProfile) -> list[dict]:
    length = rng.randint(*profile.trace_length)
    pool = list(profile.api_pool)
    weights = [t.weight for t in pool]
    calls = []
    if profile.noise_ratio > 0.0:
        calls.extend(_template_call(rng, t) for t in PROLOGUE)
    while len(calls) < length:
        if profile.noise_ratio > 0.0 and rng.random() < profile.noise_ratio:
            calls.append(_background_call(rng))
        else:
            calls.append(_template_call(rng, rng.choices(pool, weights)[0]))
    return calls


def _report_document(sample_id: str, ordinal: int, calls: list[dict], rng: random.Random) -> dict:
    n_processes = 1 + rng.randrange(3)
    n_processes = min(n_processes, len(calls))
    cuts = sorted(rng.sample(range(1, len(calls)), n_processes - 1)) if n_processes > 1 else []
    bounds = [0] + cuts + [len(calls)]
    processes = [
        {
            "process_id": 1000 + 4 * (ordinal % 500) + p,
            "process_name": f"{sample_id}.exe" if p == 0 else "child.exe",
            "calls": calls[bounds[p]:bounds[p + 1]],
        }
        for p in range(n_processes)
    ]
    return {
        "info": {"version": "2.0", "id": ordinal},
        "target": {"file": {"name": f"{sample_id}.exe"}},
        "behavior": {"processes": processes},
    }


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, bytes, ClassLabel]]:
    """All samples in class-ordinal order, as (sample_id, bytes, label)."""
    by_label = {p.label: p for p in spec.profiles}
    corpus = []
    ordinal = 0
    for label in ALL_LABELS:
        profile = by_label[label]
        for k in range(spec.samples_per_class[label]):
            rng = random.Random(spec.seed ^ ordinal)
            sample_id = f"{label.value.lower()}-{k:04d}"
            calls = _sample_calls(rng, profile)
            document = _report_document(sample_id, ordinal, calls, rng)
            raw = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
            corpus.append((sample_id, raw, label))
            ordinal += 1
    return corpus


# ---------------------------------------------------------------------------
# Default profiles
# ---------------------------------------------------------------------------

_CARRIERS = (
    ("LdrLoadDll", "system"),
    ("LdrGetProcedureAddress", "system"),
    ("RegOpenKeyExW", "registry"),
    ("CreateFileW", "filesystem"),
    ("ConnectEx", "network"),
    ("WriteProcessMemory", "process"),
)

_CLASS_WORDS: dict[ClassLabel, tuple[str, ...]] = {
    ClassLabel.ADWARE: ("adpop", "bannerfeed", "clickbar", "promoview", "dealpane", "offerwall"),
    ClassLabel.BACKDOOR: ("remoteshell", "pivot", "implant", "beacon", "listener", "tunnelhost"),
    ClassLabel.DOWNLOADER: ("fetcher", "dropper", "payload", "mirrorlist", "stager", "grabber"),
    ClassLabel.SPYWARE: ("keytrap", "screengrab", "sniffer", "stealthlog", "harvest", "exfil"),
    ClassLabel.TROJAN: ("decoy", "masquerade", "injector", "hollowproc", "disguise", "lurebait"),
    ClassLabel.WORM: ("replicator", "spreader", "netcrawl", "infectshare", "propagate", "scanhost"),
    ClassLabel.VIRUS: ("patchcode", "prependstub", "cavityfill", "overwriter", "polymorph", "peinfect"),
    ClassLabel.BENIGN: ("updater", "installer", "settingsui", "docviewer", "readerlib", "printspool"),
}


def _class_pool(label: ClassLabel) -> tuple[ApiTemplate, ...]:
    """Twelve class-exclusive templates built over the shared carriers.

    Arguments stay letters-plus-dot so the lexical rules keep them.
    """
    words = _CLASS_WORDS[label]
    templates = []
    for k in range(12):
        name, category = _CARRIERS[k % 6]
        variant = k // 6
        extension = "dll" if variant == 0 else "sys"
        arg1 = f"{words[k % 6]}.{extension}"
        arg2 = words[(k % 6 + 1 + variant) % 6]
        templates.append(ApiTemplate(name, category, (arg1, arg2)))
    return tuple(templates)


def default_spec(scale: str, seed: int = 1337) -> CorpusSpec:
    if scale == "tiny":
        per_class = 20
    elif scale == "desk":
        per_class = 100
    else:
        raise InvalidSpec(f"unknown scale {scale!r}, expected 'tiny' or 'desk'")
    profiles = tuple(
        ClassProfile(
            label=label,
            api_pool=_class_pool(label),
            trace_length=(60, 100),
            noise_ratio=0.3,
        )
        for label in ALL_LABELS
    )
    return CorpusSpec(
        profiles=profiles,
        samples_per_class={label: per_class for label in ALL_LABELS},
        seed=seed,
    )


def write_corpus(
    corpus: list[tuple[str, bytes, ClassLabel]],
    out_dir: str | Path,
) -> Path:
    """Write one report file per sample plus the manifest; returns the
    manifest path."""
    out_dir = Path(out_dir)
    reports_dir = out_dir / "reports"
    rows = []
    try:
        reports_dir.mkdir(parents=True, exist_ok=True)
        for sample_id, raw, label in corpus:
            (reports_dir / f"{sample_id}.json").write_bytes(raw)
            rows.append((sample_id, label.value, f"reports/{sample_id}.json"))
    except OSError as exc:
        raise IoFailure(f"cannot write the reports under {reports_dir}: {exc}") from exc
    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_path, rows)
    return manifest_path
