"""One JSON config document with sections, plus dot-path CLI overrides.

Every run is parameterized by a single nested dict, and this module owns each
setting's default, type and range. Files, overrides and configs built in code
may only hold keys that exist in the defaults; unknown paths are rejected with
the offending dotted path so typos cannot silently change an experiment. Every default is
declared once, where its value is taken: on a dataclass (`EFMConfig`,
`CERConfig`, `TrainingConfig`, `DefenseConfig`, `SplitConfig`, `EvalReport`) or
in the signature of `ingest_reviews`, `build_bed` or `attack_weights`; every
range once, as a row of `RULES`. `SETTINGS` joins the two, one entry per
setting, and `check_settings` applies it, storing every value in its default's
type, so a config built in code names the same runs as one loaded from a file.
"""
from __future__ import annotations

import copy
import hashlib
import inspect
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from ..dataset import SplitConfig, ingest_reviews
from ..evalkit import EvalReport, build_bed
from ..models import MODELS, CERConfig, EFMConfig, model_config
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


# each numeric setting's range, one row per rule, each entry of a list key
# checked; any integer is a seed, and the model configs check the model widths
RULES: dict[str, tuple[Callable[[float], bool], tuple[str, ...]]] = {
    ">= 1": (lambda v: v >= 1, (
        "training.batch_size", "training.val_k", "training.max_epochs", "training.patience",
        "attack.batch_size", "eval.k_ndcg", "eval.k_rec", "eval.top_n",
        "dataset.min_reviews_per_user", "dataset.max_rating", "model.cer.top_k")),
    ">= 0": (lambda v: v >= 0, ("training.retries", "model.cer.cf_steps")),
    "in [0, 1]": (lambda v: 0 <= v <= 1, ("defense.lambda", "sweep.lambdas", "model.efm.alpha")),
    "finite and >= 0": (lambda v: math.isfinite(v) and v >= 0.0, (
        "defense.eps_d", "sweep.eps_ds", "attack.eps_a_grid", "training.weight_decay",
        "training.min_delta", "model.efm.lam_x", "model.efm.lam_y", "model.efm.lam_a",
        "model.efm.lam_reg", "model.efm.lam_nn", "model.cer.lam_reg", "model.cer.cf_gamma",
        "model.cer.cf_margin_frac")),
    "finite and > 0": (lambda v: math.isfinite(v) and v > 0.0, ("training.lr", "model.cer.cf_lr")),
}


def leaves(section: dict, prefix: str = "") -> Iterator[tuple[str, object]]:
    """(dotted key, value) of each setting under `section`, in order."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


class Setting(NamedTuple):
    path: tuple[str, ...]  # of the section holding it
    key: str
    default: object
    rule: str | None  # the name of its row of RULES, if any


# every setting by dotted key, in DEFAULTS order: what `check_settings`, the
# CLI's options and its unknown-key scan read
SETTINGS: dict[str, Setting] = {
    dotted: Setting(tuple(dotted.split(".")[:-1]), dotted.rpartition(".")[2], default,
                    next((rule for rule, (_, keys) in RULES.items() if dotted in keys), None))
    for dotted, default in leaves(DEFAULTS)}


def check_settings(cfg: dict) -> None:
    """Before any artifact: a key `DEFAULTS` lacks, a key of it missing, a
    value of another type than its default (the rules of `load_config` and
    `apply_override`, which a config built in code skips), a value its key's
    row of `RULES` forbids, or an algo `models.MODELS` lacks or with settings
    its model cannot use, raises ConfigError naming the key, or the model
    section for a model's setting. A value the type rule converts (an int for
    a float) is stored back, so a config built in code hashes as one loaded
    from a file."""
    _merge(DEFAULTS, cfg, store=False)
    for dotted, (path, key, default, rule) in SETTINGS.items():
        section = cfg
        for part in path:
            section = section[part]
        value = section[key]
        if type(value) is not type(default) or type(value) is list and any(
                type(v) is not type(default[0]) for v in value):
            section[key] = value = _coerce(dotted, default, value)
        if rule is not None:
            ok = RULES[rule][0]
            for v in value if type(value) is list else (value,):
                if not ok(v):
                    raise ConfigError(f"{dotted} must be {rule}, got {v!r}")
    algos = {"model.algo": [cfg["model"]["algo"]], "sweep.algos": cfg["sweep"]["algos"]}
    for key, names in algos.items():
        for algo in names:
            if algo not in MODELS:
                raise ConfigError(f"{key}: unknown algo {algo!r}, expected one of {sorted(MODELS)}")
            try:
                model_config(algo, cfg["model"])
            except ValueError as e:
                raise ConfigError(f"model.{algo}: {e}") from None


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def _merge(base: dict, incoming: dict, prefix: str = "", store: bool = True) -> None:
    """Set `incoming`'s settings in `base`, which must hold each key; `store`
    false only checks, and also that `incoming` holds every key of `base`."""
    if not store and (missing := [key for key in base if key not in incoming]):
        raise ConfigError(f"missing config key: {prefix + missing[0]!r}")
    for key, value in incoming.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted!r} "
                              f"(valid here: {sorted(base)})")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted!r} expects a section, got {value!r}")
            _merge(base[key], value, dotted + ".", store)
        elif store:
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
