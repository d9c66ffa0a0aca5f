"""Recommender models sharing the loss/scores/explain contract. `MODELS` maps
each model name to its class, whose `config_class` is its config dataclass."""
from __future__ import annotations

from ..dataset import DatasetSplit
from .base import Explanation, PairBatch, Recommender, rank_items
from .cer import CER, CERConfig, NotRecommendedError, counterfactual_deltas
from .checkpoint import load_checkpoint, save_checkpoint
from .efm import EFM, EFMConfig

__all__ = [
    "CER", "CERConfig", "EFM", "EFMConfig", "Explanation", "NotRecommendedError",
    "PairBatch", "Recommender", "build_model", "counterfactual_deltas",
    "load_checkpoint", "model_config", "rank_items", "save_checkpoint",
]
MODELS = {"efm": EFM, "cer": CER}


def model_config(kind: str, model_cfg: dict) -> EFMConfig | CERConfig:
    """The EFM or CER config from a config section dict; a setting the model
    cannot use raises ValueError."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r} (expected 'efm' or 'cer')")
    return MODELS[kind].config_class(**model_cfg.get(kind, {}))


def build_model(kind: str, split: DatasetSplit, model_cfg: dict) -> Recommender:
    """Construct an EFM or CER sized for `split` from a config section dict."""
    config = model_config(kind, model_cfg)
    return MODELS[kind](split.n_users, split.n_items, split.n_features, config=config)
