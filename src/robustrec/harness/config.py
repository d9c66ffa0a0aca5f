"""One JSON config document with sections, plus dot-path CLI overrides.

Every run is parameterized by a single nested dict. Files and overrides may
only touch keys that exist in the defaults; unknown paths are rejected with
the offending dotted path so typos cannot silently change an experiment.
Every default is declared once, where its value is taken: on a dataclass
(`EFMConfig`, `CERConfig`, `TrainingConfig`, `DefenseConfig`, `SplitConfig`,
`EvalReport`) or in the signature of `ingest_reviews`, `build_bed` or `attack_weights`.
"""
from __future__ import annotations

import copy
import hashlib
import inspect
import json
from dataclasses import asdict
from pathlib import Path

from ..dataset import SplitConfig, ingest_reviews
from ..evalkit import EvalReport, build_bed
from ..models import CERConfig, EFMConfig
from ..robustness import DefenseConfig, TrainingConfig, attack_weights


class ConfigError(ValueError):
    pass


def _default(fn, name: str):
    """The default value of `fn`'s parameter `name`."""
    return inspect.signature(fn).parameters[name].default


DEFAULTS: dict = {
    "dataset": {
        "path": "",
        "name": "default",
        "min_reviews_per_user": _default(ingest_reviews, "min_reviews_per_user"),
        "max_rating": _default(ingest_reviews, "max_rating"),
        "seed": SplitConfig.seed,
    },
    "model": {
        "algo": "efm",
        "efm": asdict(EFMConfig()),
        "cer": {**asdict(CERConfig()), "hidden": list(CERConfig.hidden)},
    },
    "training": {**asdict(TrainingConfig()), "seed": 0},
    "defense": {
        "lambda": DefenseConfig.lam,
        "eps_d": DefenseConfig.eps_d,
    },
    "attack": {
        "eps_a_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "batch_size": _default(attack_weights, "batch_size"),
        "seed": 0,
    },
    "eval": {
        "k_ndcg": EvalReport.k_ndcg,
        "k_rec": _default(build_bed, "k_rec"),
        "top_n": EvalReport.top_n,
    },
    "sweep": {
        "algos": ["efm", "cer"],
        "lambdas": [0.0, 0.5],
        "eps_ds": [0.25],
        "seeds": [0],
    },
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def _merge(base: dict, incoming: dict, prefix: str = "") -> None:
    for key, value in incoming.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted!r} "
                              f"(valid here: {sorted(base)})")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted!r} expects a section, got {value!r}")
            _merge(base[key], value, prefix=dotted + ".")
        else:
            base[key] = _coerce(dotted, base[key], value)


def _coerce(dotted: str, default, value):
    """`value` if it has the default's type (an int may stand for a float), a list's
    entries the type of the default's first."""
    if isinstance(default, list) and isinstance(value, list):
        return [_coerce(f"{dotted}[{i}]", default[0], v) for i, v in enumerate(value)]
    if type(default) is float and type(value) is int:
        return float(value)
    if type(value) is type(default):
        return value
    raise ConfigError(f"config key {dotted!r}: cannot assign {value!r} "
                      f"over default {default!r}")


def load_config(path: str | Path | None = None) -> dict:
    """Defaults, deep-merged with the JSON document at `path` if given."""
    cfg = default_config()
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"config file {path}: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        _merge(cfg, doc)
    return cfg


def apply_override(cfg: dict, dotted: str, raw: str) -> None:
    """Set one key by dotted path, checked as a file's keys are; `raw` parses as
    JSON, else is the raw text (so `--model.algo cer` works without quotes)."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(dotted.split(".")):
        value = {part: value}
    _merge(cfg, value)


def config_hash(obj) -> str:
    """12-hex content hash of a canonical JSON rendering."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def training_config(cfg: dict) -> TrainingConfig:
    return TrainingConfig(**{k: v for k, v in cfg["training"].items() if k != "seed"})
