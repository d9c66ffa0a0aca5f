"""One JSON config document with sections, plus dot-path CLI overrides.

Every run is parameterized by a single nested dict. Files and overrides may
only touch keys that exist in the defaults; unknown paths are rejected with
the offending dotted path so typos cannot silently change an experiment.
The model, training and defense defaults are the fields of the dataclasses
that take them (`EFMConfig`, `CERConfig`, `TrainingConfig`, `DefenseConfig`).
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from ..dataset import SplitConfig
from ..models import CERConfig, EFMConfig
from ..robustness import DefenseConfig
from .training import TrainingConfig


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "dataset": {
        "path": "",
        "name": "default",
        "min_reviews_per_user": 1,
        "max_rating": 5,
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
        "batch_size": 32,
        "seed": 0,
    },
    "eval": {
        "k_ndcg": 100,
        "k_rec": 5,
        "top_n": 1,
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
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {dotted!r} expects a bool, got {value!r}")
        return value
    if isinstance(default, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(default, int) and isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(default, str) and isinstance(value, str):
        return value
    if isinstance(default, list) and isinstance(value, list):
        # elements are typed like the default's (every list default is non-empty)
        return [_coerce_element(f"{dotted}[{i}]", default[0], v) for i, v in enumerate(value)]
    # empty-string defaults act as untyped placeholders (e.g. dataset.path)
    if isinstance(default, str):
        return str(value)
    raise ConfigError(f"config key {dotted!r}: cannot assign {value!r} "
                      f"over default {default!r}")


def _coerce_element(dotted: str, default, value):
    # a list element has no untyped placeholder: a string default wants a string
    if isinstance(default, str) and not isinstance(value, str):
        raise ConfigError(f"config key {dotted!r}: cannot assign {value!r} "
                          f"over default {default!r}")
    return _coerce(dotted, default, value)


def load_config(path: str | Path | None = None) -> dict:
    """Defaults, deep-merged with the JSON document at `path` if given."""
    cfg = default_config()
    if path is not None:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        _merge(cfg, doc)
    return cfg


def apply_override(cfg: dict, dotted: str, raw: str) -> None:
    """Set one key by dotted path; the value is parsed as JSON, falling back
    to a bare string (so `--model.algo cer` works without quotes)."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = dotted.split(".")
    node = cfg
    schema = DEFAULTS
    for part in parts[:-1]:
        if not isinstance(schema, dict) or part not in schema:
            raise ConfigError(f"unknown config key: {dotted!r}")
        node = node[part]
        schema = schema[part]
    leaf = parts[-1]
    if not isinstance(schema, dict) or leaf not in schema or isinstance(schema[leaf], dict):
        raise ConfigError(f"unknown config key: {dotted!r}")
    node[leaf] = _coerce(dotted, schema[leaf], value)


def apply_overrides(cfg: dict, pairs: list[tuple[str, str]]) -> None:
    for dotted, raw in pairs:
        apply_override(cfg, dotted, raw)


def config_hash(obj) -> str:
    """12-hex content hash of a canonical JSON rendering."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def training_config(cfg: dict) -> TrainingConfig:
    return TrainingConfig(**{k: v for k, v in cfg["training"].items() if k != "seed"})
