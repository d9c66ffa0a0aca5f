"""User/item aspect matrices from sentiment mention counts.

With N the rating scale, t a mention count and w a mean sentiment in [-1, 1]:

    X[u,f] = 0 if t_uf = 0 else 1 + (N-1) * (2 / (1 + exp(-t_uf)) - 1)
    Y[v,f] = 0 if t_vf = 0 else 1 + (N-1) / (1 + exp(-t_vf * w_vf))

The two saturations differ on purpose: user attention only grows with count,
item quality is signed by sentiment. Entries are 0 (never mentioned) or fall
in (1, N); counts come from training reviews only, and a feature mentioned
twice in one review counts twice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TRAIN, DatasetSplit


@dataclass
class MentionStats:
    user_counts: np.ndarray     # |U| x |F|, float64 counts
    item_counts: np.ndarray     # |V| x |F|
    item_sentiment: np.ndarray  # |V| x |F|, mean sentiment where counted, else 0


def count_mentions(split: DatasetSplit) -> MentionStats:
    """Tally feature mentions and mean item sentiment over train interactions.
    Counts and sentiment sums are integers, so summation order cannot matter."""
    users, items, feats, sents = split.mention_table(TRAIN)
    user_counts = np.zeros((split.n_users, split.n_features))
    item_counts = np.zeros((split.n_items, split.n_features))
    sent_sum = np.zeros((split.n_items, split.n_features))
    np.add.at(user_counts, (users, feats), 1.0)
    np.add.at(item_counts, (items, feats), 1.0)
    np.add.at(sent_sum, (items, feats), sents.astype(np.float64))
    with np.errstate(invalid="ignore"):
        item_sentiment = np.where(item_counts > 0, sent_sum / np.maximum(item_counts, 1.0), 0.0)
    return MentionStats(user_counts, item_counts, item_sentiment)


def build_x(user_counts: np.ndarray, n_rating: int) -> np.ndarray:
    """User attention matrix; increasing in the mention count."""
    t = np.asarray(user_counts, dtype=np.float64)
    val = 1.0 + (n_rating - 1.0) * (2.0 / (1.0 + np.exp(-t)) - 1.0)
    return np.where(t > 0, val, 0.0)


def build_y(item_counts: np.ndarray, item_sentiment: np.ndarray, n_rating: int) -> np.ndarray:
    """Item quality matrix; increasing in count*mean_sentiment."""
    t = np.asarray(item_counts, dtype=np.float64)
    w = np.asarray(item_sentiment, dtype=np.float64)
    val = 1.0 + (n_rating - 1.0) / (1.0 + np.exp(-t * w))
    return np.where(t > 0, val, 0.0)


def build_matrices(split: DatasetSplit) -> tuple[np.ndarray, np.ndarray]:
    """Aspect matrices X, Y of a split, from its train interactions only."""
    stats = count_mentions(split)
    return (build_x(stats.user_counts, split.n_rating),
            build_y(stats.item_counts, stats.item_sentiment, split.n_rating))
