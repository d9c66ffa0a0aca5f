"""Recommender models sharing the loss/scores/explain contract."""
from __future__ import annotations

from ..dataset import DatasetSplit
from .base import Explanation, PairBatch, Recommender, rank_items
from .cer import CER, CERConfig, NotRecommendedError, counterfactual_deltas
from .checkpoint import load_checkpoint, save_checkpoint
from .efm import EFM, EFMConfig

__all__ = [
    "CER", "CERConfig", "EFM", "EFMConfig", "Explanation", "NotRecommendedError",
    "PairBatch", "Recommender", "build_model", "counterfactual_deltas",
    "load_checkpoint", "rank_items", "save_checkpoint",
]


def build_model(kind: str, split: DatasetSplit, model_cfg: dict) -> Recommender:
    """Construct an EFM or CER sized for `split` from a config section dict."""
    dims = (split.n_users, split.n_items, split.n_features)
    if kind == "efm":
        return EFM(*dims, config=EFMConfig(**model_cfg.get("efm", {})))
    if kind == "cer":
        return CER(*dims, config=CERConfig(**model_cfg.get("cer", {})))
    raise ValueError(f"unknown model kind {kind!r} (expected 'efm' or 'cer')")
