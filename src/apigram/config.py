"""Pipeline configuration: one flat, dotted-key namespace.

Every stage reads its knobs from a single :class:`PipelineConfig`. The
same keys appear in three places with identical names: the config file
(``selection.target_ratio = 0.016`` per line), the command line
(``--selection-target-ratio 0.016``), and this schema. Model
hyperparameters pass through under the ``model.`` prefix (for example
``model.n_trees = 50``).

A :class:`PipelineConfig` is checked once, at construction, on the merged
values: it builds each stage's typed settings by that stage's own rule, so
a bad setting fails a command before anything is written.

Configs round-trip losslessly: ``read_config(write_config(cfg)) == cfg``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .evaluate import SplitSpec
from .models import HyperParams, ModelKind
from .select import ALL_LEXICAL_RULES, SelectionConfig

# key -> (type tag, default, help text). Type tags: int, float, bool,
# str, ints (comma list of int), strs (comma list of str).
SCHEMA: dict[str, tuple[str, object, str]] = {
    "seed": ("int", 0, "master seed; every random stream derives from it"),
    "io.workdir": ("str", "apigram-work", "directory holding all stage artifacts"),
    "io.manifest": ("str", "", "corpus manifest CSV; empty means <workdir>/manifest.csv"),
    "synth.scale": ("str", "desk", "built-in corpus size: tiny (8x20) or desk (8x100)"),
    "ngram.sizes": ("ints", (1,), "n-gram sizes to featurize, from {1,2,3}"),
    "ngram.active": ("str", "1", "feature set used downstream: one of sizes, or union"),
    "ngram.combine": ("bool", False, "also build the union of all sizes"),
    "ngram.max_args": ("int", 2, "arguments kept per call when forming tokens"),
    "ngram.reset_at_process": ("bool", False, "restart n-gram windows at process boundaries"),
    "vectorizer.l2": ("bool", True, "L2-normalize TF-IDF rows"),
    "selection.enabled": ("bool", True, "run the feature-selection stage"),
    "selection.lexical_rules": ("strs", tuple(sorted(ALL_LEXICAL_RULES)),
                                "lexical rules; empty disables the stage"),
    "selection.min_df": ("int", 2, "frequency filter: minimum document frequency"),
    "selection.max_df_ratio": ("float", 0.95, "frequency filter: maximum df as a corpus fraction"),
    "selection.mi_top_ratio": ("float", 0.05, "ranking stage keep ratio (of original vocabulary)"),
    "selection.corr_threshold": ("float", 0.95, "drop features correlated above this with a kept one"),
    "selection.target_ratio": ("float", 0.016, "final kept fraction; 1.0 skips ranking cuts"),
    "selection.on_all": ("bool", False, "fit selection on all rows instead of the training split"),
    "split.train_ratio": ("float", 0.8, "per-class training fraction"),
    "split.stratified": ("bool", True, "split each class separately"),
    "eval.average": ("str", "macro", "metric averaging: macro or weighted"),
    "model.kind": ("str", "random_forest", "learner: decision_tree, random_forest, "
                   "gbt, knn, naive_bayes, or svm"),
}

_MODEL_PREFIX = "model."


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def coerce(key: str, text: str) -> object:
    """Parse a raw string into the schema type for ``key``."""
    if key in SCHEMA:
        tag = SCHEMA[key][0]
    elif key.startswith(_MODEL_PREFIX):
        return _coerce_free(text)
    else:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "bool":
            return _parse_bool(text)
        if tag == "ints":
            return tuple(int(part) for part in text.split(",") if part.strip() != "")
        if tag == "strs":
            return tuple(part.strip() for part in text.split(",") if part.strip() != "")
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _coerce_free(text: str) -> object:
    """Best-effort typing for pass-through model hyperparameters."""
    stripped = text.strip()
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    try:
        return _parse_bool(stripped)
    except ValueError:
        return stripped


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return str(value)


@dataclass(frozen=True)
class PipelineConfig:
    """Immutable view over the full key space, defaults filled in, plus the
    stages' typed settings: ``selection``, ``split`` and ``model`` (kind, params)."""

    values: dict[str, object] = field(default_factory=dict)
    selection: SelectionConfig = field(init=False, repr=False, compare=False)
    split: SplitSpec = field(init=False, repr=False, compare=False)
    model: tuple[ModelKind, HyperParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        merged = {key: default for key, (_, default, _) in SCHEMA.items()}
        for key, value in self.values.items():
            if key not in SCHEMA and not key.startswith(_MODEL_PREFIX):
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
        object.__setattr__(self, "values", merged)
        self._validate()
        object.__setattr__(self, "selection", SelectionConfig(
            lexical_filters=frozenset(self["selection.lexical_rules"]),
            min_df=int(self["selection.min_df"]),
            max_df_ratio=float(self["selection.max_df_ratio"]),
            mi_top_ratio=float(self["selection.mi_top_ratio"]),
            corr_threshold=float(self["selection.corr_threshold"]),
            target_ratio=float(self["selection.target_ratio"])))
        object.__setattr__(self, "split", SplitSpec(
            train_ratio=float(self["split.train_ratio"]), seed=int(self["seed"]),
            stratified=bool(self["split.stratified"])))
        kind = ModelKind.from_name(str(self["model.kind"]))
        params = HyperParams(seed=int(self["seed"]), values={
            key[len(_MODEL_PREFIX):]: value for key, value in merged.items()
            if key.startswith(_MODEL_PREFIX) and key != "model.kind"})
        params.resolve(kind)
        object.__setattr__(self, "model", (kind, params))

    def _validate(self) -> None:
        if self["synth.scale"] not in ("tiny", "desk"):
            raise ConfigError("synth.scale must be tiny or desk")
        if self["eval.average"] not in ("macro", "weighted"):
            raise ConfigError("eval.average must be macro or weighted")
        sizes = self["ngram.sizes"]
        if not sizes or any(n not in (1, 2, 3) for n in sizes) or len(set(sizes)) != len(sizes):
            raise ConfigError("ngram.sizes must be a non-empty subset of 1,2,3")
        max_args = self["ngram.max_args"]
        if not isinstance(max_args, int) or isinstance(max_args, bool) or max_args < 0:
            raise ConfigError(f"ngram.max_args must be an integer >= 0, got {max_args!r}")
        valid_active = {str(n) for n in sizes} | ({"union"} if self["ngram.combine"] else set())
        if self["ngram.active"] not in valid_active:
            raise ConfigError(
                f"ngram.active must be one of {sorted(valid_active)}, "
                f"got {self['ngram.active']!r}"
            )

    def __getitem__(self, key: str) -> object:
        try:
            return self.values[key]
        except KeyError as exc:
            raise ConfigError(f"unknown config key {key!r}") from exc

    def with_overrides(self, overrides: dict[str, object]) -> "PipelineConfig":
        merged = dict(self.values)
        merged.update(overrides)
        return PipelineConfig(merged)

    @property
    def workdir(self) -> Path:
        return Path(str(self["io.workdir"]))

    @property
    def manifest_path(self) -> Path:
        explicit = str(self["io.manifest"])
        return Path(explicit) if explicit else self.workdir / "manifest.csv"


def read_config_values(path: str | Path) -> dict[str, object]:
    """Parse a ``key = value`` per-line config file ('#' starts a comment)
    into typed values, unchecked against each other: a later layer may
    still complete them."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = coerce(key.strip(), value.strip())
    return values


def read_config(path: str | Path) -> PipelineConfig:
    """Read a config file as one complete config, checked on its own."""
    return PipelineConfig(read_config_values(path))


def write_config(config: PipelineConfig, path: str | Path) -> None:
    lines = [
        f"{key} = {_format_value(config.values[key])}"
        for key in sorted(config.values)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
