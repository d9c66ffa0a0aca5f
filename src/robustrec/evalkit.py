"""Ranking and explanation-quality evaluation.

Headline ranking metric: binary NDCG@100 per user over the joint candidate
list of 6 held-out positives and 100 sampled negatives. Explanation metrics
run over a fixed evaluation bed: the test positives a reference (vanilla)
model placed in each user's top 5. Per pair, the model's explanation is
truncated to top_n, masked to features the user mentioned in training, and
scored as precision/recall/F1 against the positive-sentiment features of
that pair's held-out review; pair scores are macro-averaged. All bed pairs
of one evaluation go to the model in a single `explain_pairs` call, and
counterfactual explanations whose solve missed its target are counted. Each
pass that ranks many users builds the model's `score_table` once and hands
it to every `scores` call, and `evaluate` hands the bed users' candidate
scores on to the explanations, so no user is scored twice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import TEST, TRAIN, VAL, DatasetSplit
from .models.base import Recommender, rank_items


def ndcg_at(ranked: Sequence[int], relevant: set[int], k: int) -> float:
    """Binary NDCG@k: gains 1/log2(rank+1) at 1-based ranks, ideal DCG over
    min(k, |relevant|) hits. Raises on an empty relevant set."""
    if not relevant:
        raise ValueError("ndcg_at: empty relevant set")
    dcg = 0.0
    for i, item in enumerate(ranked[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(i + 1.0)
    ideal = 0.0
    for i in range(1, min(k, len(relevant)) + 1):
        ideal += 1.0 / math.log2(i + 1.0)
    return dcg / ideal


def validation_ndcg(model: Recommender, split: DatasetSplit, k: int = 10) -> float:
    """Mean NDCG@k over each user's 1-positive + sampled-negatives list."""
    cands = np.column_stack([split.item[split.part == VAL], split.val_negatives])
    table = model.score_table()
    total = 0.0
    for u, row in zip(split.val_users.tolist(), cands):
        ranked = rank_items(model.scores(u, row, table), row)
        total += ndcg_at(ranked, {int(row[0])}, k)
    return total / len(cands) if len(cands) else 0.0


def build_bed(model: Recommender, split: DatasetSplit, k_rec: int = 5) -> dict[int, list[int]]:
    """Per user, the test positives the given model ranks in its top `k_rec`
    of the user's candidate list. Evaluate every condition on the same bed."""
    bed: dict[int, list[int]] = {}
    table = model.score_table()
    for u, positives, cands in split.test_lists():
        top = set(rank_items(model.scores(u, cands, table), cands)[:k_rec])
        hits = [v for v in positives.tolist() if v in top]
        if hits:
            bed[u] = hits
    return bed


def gold_explanations(split: DatasetSplit) -> dict[tuple[int, int], set[int]]:
    """Per test (u, v): features mentioned with positive sentiment in that
    pair's held-out review(s). Pairs with no positive mention are dropped."""
    users, items, feats, sents = split.mention_table(TEST)
    positive = sents == 1
    gold: dict[tuple[int, int], set[int]] = {}
    for u, v, f in zip(users[positive].tolist(), items[positive].tolist(),
                       feats[positive].tolist()):
        gold.setdefault((u, v), set()).add(f)
    return gold


def train_feature_sets(split: DatasetSplit) -> dict[int, set[int]]:
    """Features each user mentioned (any sentiment) in train interactions."""
    users, _, feats, _ = split.mention_table(TRAIN)
    out: dict[int, set[int]] = {}
    for u, f in zip(users.tolist(), feats.tolist()):
        out.setdefault(u, set()).add(f)
    return out


def mask_explanation(features: Sequence[int], user_features: set[int]) -> list[int]:
    """Keep only features the user has mentioned, preserving rank order."""
    return [f for f in features if f in user_features]


def explanation_prf(predicted: Sequence[int], gold: set[int]) -> tuple[float, float, float]:
    """Set precision/recall/F1 of a predicted feature list against gold.
    Empty predictions score P = 0; an empty gold set is a caller bug."""
    if not gold:
        raise ValueError("explanation_prf: empty gold set")
    pred = set(predicted)
    hit = len(pred & gold)
    p = hit / len(pred) if pred else 0.0
    r = hit / len(gold)
    f1 = 0.0 if (p + r) == 0.0 else 2.0 * p * r / (p + r)
    return p, r, f1


@dataclass
class EvalReport:
    ndcg: float
    expl_pr: float
    expl_re: float
    expl_f1: float
    n_users: int
    n_pairs: int
    n_skipped_users: int = 0
    k_ndcg: int = 100
    top_n: int = 1
    n_non_cf: int = 0  # explanations flagged non_counterfactual


def evaluate(model: Recommender, split: DatasetSplit, bed: dict[int, list[int]],
             gold: dict[tuple[int, int], set[int]],
             user_features: dict[int, set[int]],
             top_n: int = EvalReport.top_n, k_ndcg: int = EvalReport.k_ndcg) -> EvalReport:
    """Rank every test user's candidates (NDCG@k) and explain every bed pair
    with nonempty gold. Explanations never enforce the top-K precondition
    here: the bed is fixed by the reference model, not the one under test."""
    ndcg_total = 0.0
    n_users = len(split.test_users)
    table = model.score_table()
    bed_scores: dict[int, np.ndarray] = {}  # each bed user's candidate scores
    for u, positives, cands in split.test_lists():
        scores = model.scores(u, cands, table)
        if u in bed:
            bed_scores[u] = scores
        ndcg_total += ndcg_at(rank_items(scores, cands), set(positives.tolist()), k_ndcg)

    pairs = [(u, v) for u in sorted(bed) for v in bed[u] if gold.get((u, v))]
    explanations = model.explain_pairs(pairs, top_n=top_n, require_recommended=False,
                                       candidate_scores=bed_scores)
    p_total = r_total = f_total = 0.0
    for (u, v), expl in zip(pairs, explanations, strict=True):
        masked = mask_explanation(expl.features, user_features.get(u, set()))
        p, r, f1 = explanation_prf(masked, gold[(u, v)])
        p_total += p
        r_total += r
        f_total += f1
    n_pairs = len(pairs)

    return EvalReport(
        ndcg=ndcg_total / n_users if n_users else 0.0,
        expl_pr=p_total / n_pairs if n_pairs else 0.0,
        expl_re=r_total / n_pairs if n_pairs else 0.0,
        expl_f1=f_total / n_pairs if n_pairs else 0.0,
        n_users=n_users,
        n_pairs=n_pairs,
        k_ndcg=k_ndcg,
        top_n=top_n,
        n_non_cf=sum(expl.non_counterfactual for expl in explanations),
    )
