"""Ranking and explanation-quality evaluation.

Headline ranking metric: binary NDCG@100 per user over the joint candidate
list of 6 held-out positives and 100 sampled negatives. Explanation metrics
run over a fixed evaluation bed: the test positives a reference (vanilla)
model placed in each user's top 5. Per pair, the model's explanation is
truncated to top_n, masked to features the user mentioned in training, and
scored as precision/recall/F1 against the positive-sentiment features of
that pair's held-out review; pair scores are macro-averaged. All bed pairs
of one evaluation go to the model in a single `explain_pairs` call, and
counterfactual explanations whose solve missed its target are counted.

Each pass ranks its users `CHUNK_USERS` at a time: a chunk's candidate lists
are a slice of rows of the split's `val_candidates` or `test_candidates`,
built once per split and padded with `PAD`, which the model scores in one
`score_matrix` call, `rank_rows` ranks and `ndcg_rows` scores. `evaluate`
hands copies of the bed users' candidate scores on to the explanations, so
no user is scored twice, and holds none of the pass's score matrices while
it explains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PAD, TEST, TRAIN, DatasetSplit
from .models.base import Recommender, rank_rows

# users a ranking pass scores and ranks at once: a chunk's matrices, and the
# [chunk, n_items] tables EFM builds for it, stay small whatever the number
# of users
CHUNK_USERS = 32


def ndcg_rows(hits: np.ndarray, n_relevant: np.ndarray, k: int) -> np.ndarray:
    """Binary NDCG@k of each row of `hits` [U, C], whose entry [i, j] says
    whether row i's item at 1-based rank j + 1 is relevant, of n_relevant[i]
    relevant items: gains 1/log2(rank+1), ideal DCG over min(k,
    n_relevant[i]) hits. Each sum runs in rank order, one add at a time, so a
    row's value has the same bits in any matrix. Raises on a row with no
    relevant item."""
    n_relevant = np.asarray(n_relevant, dtype=np.int64)
    if (n_relevant < 1).any():
        raise ValueError("ndcg: empty relevant set")
    hits = hits[:, :k]
    depth = max(hits.shape[1], min(k, int(n_relevant.max(initial=0))))
    gains = np.array([1.0 / math.log2(i + 1.0) for i in range(1, depth + 1)])
    dcg = np.cumsum(np.where(hits, gains[:hits.shape[1]], 0.0), axis=1)
    dcg = dcg[:, -1] if hits.shape[1] else np.zeros(len(hits))
    return dcg / np.cumsum(gains)[np.minimum(k, n_relevant) - 1]


def ndcg_at(ranked: Sequence[int], relevant: set[int], k: int) -> float:
    """The one-row case of `ndcg_rows`: binary NDCG@k of one ranking against
    a set of relevant items. Raises on an empty relevant set."""
    hits = np.array([item in relevant for item in ranked[:k]], dtype=bool)
    return float(ndcg_rows(hits[None], np.array([len(relevant)]), k)[0])


def _mean(parts: list[np.ndarray]) -> float:
    """The values of all parts summed in order, one add at a time, over their
    count; 0 if none."""
    values = np.concatenate(parts) if parts else np.zeros(0)
    return float(np.cumsum(values)[-1]) / len(values) if len(values) else 0.0


def _ranked_chunks(model: Recommender, users: np.ndarray, lists: np.ndarray):
    """Per chunk of at most `CHUNK_USERS` users, in order: the chunk's slice,
    the model's scores of its rows of `lists`, a split's `PAD`-padded
    candidate matrix, and each row's columns in rank order (`rank_rows`)."""
    for lo in range(0, len(users), CHUNK_USERS):
        part = slice(lo, lo + CHUNK_USERS)
        rows = lists[part]
        scores = model.score_matrix(users[part], rows)
        yield part, scores, rank_rows(scores, rows)


def validation_ndcg(model: Recommender, split: DatasetSplit, k: int = 10) -> float:
    """Mean NDCG@k over each user's 1-positive + sampled-negatives list."""
    ndcg = [ndcg_rows(order[:, :k] == 0, np.ones(len(order)), k)
            for _, _, order in _ranked_chunks(model, split.val_users, split.val_candidates)]
    return _mean(ndcg)


def build_bed(model: Recommender, split: DatasetSplit, k_rec: int = 5) -> dict[int, list[int]]:
    """Per user, the test positives the given model ranks in its top `k_rec`
    of the user's candidate list. Evaluate every condition on the same bed."""
    cands, n_pos = split.test_candidates
    bed: dict[int, list[int]] = {}
    for part, _, order in _ranked_chunks(model, split.test_users, cands):
        top = np.sort(order[:, :k_rec], axis=1)  # the list's order: positives chronological
        for u, row, cols, n in zip(split.test_users[part].tolist(), cands[part], top, n_pos[part]):
            if len(hits := cols[cols < n]):
                bed[u] = row[hits].tolist()
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


def _rank_test_users(model: Recommender, split: DatasetSplit, bed: dict[int, list[int]],
                     k_ndcg: int) -> tuple[float, dict[int, np.ndarray]]:
    """Mean NDCG@k_ndcg over the test users, and a copy of each bed user's
    candidate scores, in `candidate_items` order."""
    cands, n_pos = split.test_candidates
    ndcg, bed_scores = [], {}
    for part, scores, order in _ranked_chunks(model, split.test_users, cands):
        ndcg.append(ndcg_rows(order[:, :k_ndcg] < n_pos[part, None], n_pos[part], k_ndcg))
        for u, row, listed in zip(split.test_users[part].tolist(), scores, cands[part] != PAD):
            if u in bed:
                bed_scores[u] = row[listed]
    return _mean(ndcg), bed_scores


def evaluate(model: Recommender, split: DatasetSplit, bed: dict[int, list[int]],
             gold: dict[tuple[int, int], set[int]],
             user_features: dict[int, set[int]],
             top_n: int = EvalReport.top_n, k_ndcg: int = EvalReport.k_ndcg) -> EvalReport:
    """Rank every test user's candidates (NDCG@k) and explain every bed pair
    with nonempty gold. Explanations never enforce the top-K precondition
    here: the bed is fixed by the reference model, not the one under test."""
    ndcg, bed_scores = _rank_test_users(model, split, bed, k_ndcg)
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
        ndcg=ndcg,
        expl_pr=p_total / n_pairs if n_pairs else 0.0,
        expl_re=r_total / n_pairs if n_pairs else 0.0,
        expl_f1=f_total / n_pairs if n_pairs else 0.0,
        n_users=len(split.test_users),
        n_pairs=n_pairs,
        k_ndcg=k_ndcg,
        top_n=top_n,
        n_non_cf=sum(expl.non_counterfactual for expl in explanations),
    )
