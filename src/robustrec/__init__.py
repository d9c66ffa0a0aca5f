"""Adversarially robust, feature-aware explainable recommendation.

Sentiment-annotated reviews become user and item aspect matrices, factor or
neural recommenders train on them under an optional gradient-sign defense,
trained weights face norm-bounded attacks, and the evaluation layer reports
how ranking quality and explanation fidelity survive.
"""
from .aspects import build_matrices, build_x, build_y
from .dataset import (DatasetSplit, IngestError, SplitConfig, SplitError,
                      build_split, dataset_stats, ingest_reviews)
from .evalkit import EvalReport, evaluate, explanation_prf, ndcg_at
from .models import CER, EFM, CERConfig, EFMConfig, build_model
from .robustness import (AttackResult, DefenseConfig, TrainingConfig, TrainResult,
                         apply_attack, attack_weights, attacked_copy, clip_perturbed_y,
                         defense_loss, fgsm_delta_y, train_defended)

__version__ = "0.1.0"

# The version of the numbers this package computes, part of every cache key:
# the first 12 hex digits of the digest of a pinned mini pipeline (split,
# defended training, attack gradient, evaluation; see tests/test_arithmetic.py).
# A change that moves any bit of those numbers sets it to the new digest, which
# keys the whole cache afresh.
ARITHMETIC = "2fe7ea80dc67"

__all__ = [
    "ARITHMETIC", "AttackResult", "CER", "CERConfig", "DatasetSplit", "DefenseConfig",
    "EFM", "EFMConfig", "EvalReport", "IngestError", "SplitConfig", "SplitError",
    "TrainResult", "TrainingConfig", "apply_attack", "attack_weights", "attacked_copy",
    "build_matrices", "build_model", "build_split", "build_x", "build_y",
    "clip_perturbed_y", "dataset_stats", "defense_loss", "evaluate",
    "explanation_prf", "fgsm_delta_y", "ingest_reviews", "ndcg_at", "train_defended",
]
