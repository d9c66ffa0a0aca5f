"""Metric oracles and evaluation plumbing: NDCG, explanation P/R/F1, beds."""
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustrec import evalkit
from robustrec.dataset import TEST, TRAIN, VAL
from robustrec.evalkit import (build_bed, evaluate, explanation_prf, gold_explanations,
                               mask_explanation, ndcg_at, ndcg_rows, train_feature_sets,
                               validation_ndcg)
from robustrec.models.base import PAD, Recommender, rank_items, rank_rows
from splits import interactions, split_of


def _brute_ndcg(ranked, relevant, k):
    # direct from the definition: binary gains, log2 position discount,
    # ideal list packs all hits at the top
    dcg = 0.0
    for pos, item in enumerate(ranked, start=1):
        if pos > k:
            break
        if item in relevant:
            dcg += 1.0 / math.log2(pos + 1.0)
    ideal = 0.0
    for pos in range(1, min(k, len(relevant)) + 1):
        ideal += 1.0 / math.log2(pos + 1.0)
    return dcg / ideal


def test_ndcg_exhaustive_small_rankings():
    checked = 0
    for n in range(1, 6):
        items = list(range(n))
        for r in range(1, min(3, n) + 1):
            for relevant in itertools.combinations(items, r):
                rel = set(relevant)
                for perm in itertools.permutations(items):
                    for k in (1, 2, n):
                        assert ndcg_at(perm, rel, k) == _brute_ndcg(perm, rel, k)
                        checked += 1
    assert checked > 1000


def test_ndcg_frozen_values():
    assert ndcg_at([7, 3], {3}, 2) == 0.6309297535714575  # 1/log2(3)
    assert ndcg_at([1, 2, 3], {3}, 3) == 0.5              # 1/log2(4)
    assert ndcg_at([1, 2], {1}, 2) == 1.0
    assert ndcg_at([2, 1], {1, 2}, 2) == 1.0              # both hits, any order


def test_ndcg_truncates_at_k():
    assert ndcg_at([5, 6, 7], {7}, 2) == 0.0
    assert ndcg_at([5, 6, 7], {5}, 1) == 1.0


def test_ndcg_rejects_empty_relevant():
    with pytest.raises(ValueError, match="empty relevant"):
        ndcg_at([1, 2], set(), 2)


# a few exact values (ties, both zeros) among arbitrary finite ones
_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                    st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _ragged_scores(draw):
    """Rows of distinct item ids with their scores, 1 to 8 items each, and
    the padded matrices of both; pad scores are arbitrary, NaN included."""
    rows = draw(st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
                         min_size=1, max_size=6))
    width = max(map(len, rows))
    items = np.full((len(rows), width), PAD, dtype=np.int64)
    scores = np.array(draw(st.lists(st.one_of(_SCORES, st.just(math.nan)),
                                    min_size=items.size, max_size=items.size)))
    scores = scores.reshape(items.shape)
    lists = []
    for i, row in enumerate(rows):
        items[i, :len(row)] = row
        scores[i, :len(row)] = draw(st.lists(_SCORES, min_size=len(row), max_size=len(row)))
        lists.append((scores[i, :len(row)].copy(), np.array(row)))
    return lists, scores, items


@settings(max_examples=200, deadline=None)
@given(_ragged_scores())
def test_rank_rows_equals_rank_items_row_by_row(case):
    lists, scores, items = case
    ranked = np.take_along_axis(items, rank_rows(scores, items), axis=1)
    for row, (row_scores, row_items) in zip(ranked, lists):
        score_of = dict(zip(row_items.tolist(), row_scores.tolist()))
        want = sorted(score_of, key=lambda v: (-score_of[v], v))  # the tie rule, spelled out
        assert rank_items(row_scores, row_items) == want
        assert row[:len(row_items)].tolist() == want
        assert (row[len(row_items):] == PAD).all()  # pads rank last


@settings(max_examples=100, deadline=None)
@given(_ragged_scores(), st.data())
def test_rank_rows_names_the_first_non_finite_score_as_rank_items_does(case, data):
    lists, scores, items = case
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    i = data.draw(st.integers(0, len(lists) - 1))
    j = data.draw(st.integers(0, len(lists[i][1]) - 1))
    scores[i, j] = lists[i][0][j] = bad
    with pytest.raises(FloatingPointError) as matrix:
        rank_rows(scores, items)
    for row_scores, row_items in lists:
        try:
            rank_items(row_scores, row_items)
        except FloatingPointError as e:
            assert str(matrix.value) == str(e)
            return
    pytest.fail("rank_items accepted a non-finite score")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.booleans(), min_size=1, max_size=12),
                          st.integers(0, 4)), min_size=1, max_size=6),
       st.integers(1, 15))
def test_ndcg_rows_equal_ndcg_at_bit_for_bit(rows, k):
    # row i ranks items 0..n-1; its relevant items are its hits plus `extra`
    # items outside the list, and k may pass the list's end
    width = max(len(hits) for hits, _ in rows)
    hits = np.zeros((len(rows), width), dtype=bool)
    n_relevant, want = [], []
    for i, (row_hits, extra) in enumerate(rows):
        hits[i, :len(row_hits)] = row_hits
        relevant = {j for j, hit in enumerate(row_hits) if hit} | {100 + e for e in range(extra)}
        if not relevant:
            relevant = {100}
        n_relevant.append(len(relevant))
        want.append(ndcg_at(range(len(row_hits)), relevant, k))
        assert want[-1] == _brute_ndcg(range(len(row_hits)), relevant, k)
    assert ndcg_rows(hits, np.array(n_relevant), k).tolist() == want


def test_prf_hand_fixtures():
    third = 1.0 / 3.0
    fixtures = [
        ([1], {1}, 1.0, 1.0, 1.0),
        ([1], {2}, 0.0, 0.0, 0.0),
        ([1, 2], {1}, 0.5, 1.0, 2.0 * 0.5 * 1.0 / 1.5),
        ([1], {1, 2}, 1.0, 0.5, 2.0 * 1.0 * 0.5 / 1.5),
        ([1, 2, 3], {1, 2, 3}, 1.0, 1.0, 1.0),
        ([], {1}, 0.0, 0.0, 0.0),
        ([1, 2, 3, 4], {1, 2}, 0.5, 1.0, 2.0 * 0.5 * 1.0 / 1.5),
        ([1, 2], {2, 3, 4}, 0.5, third, 2.0 * 0.5 * third / (0.5 + third)),
        ([5, 6], {1, 2, 3}, 0.0, 0.0, 0.0),
        ([1, 1, 2], {1, 2}, 1.0, 1.0, 1.0),  # duplicates collapse to a set
    ]
    assert len(fixtures) == 10
    for pred, gold, p_want, r_want, f_want in fixtures:
        p, r, f1 = explanation_prf(pred, gold)
        assert (p, r, f1) == (p_want, r_want, f_want)


def test_prf_singleton_prediction_singleton_gold_identity():
    # one predicted feature against one gold feature: precision and recall
    # are the same number, hit or miss
    for pred in range(6):
        for gold in range(6):
            p, r, _ = explanation_prf([pred], {gold})
            assert p == r


def test_prf_rejects_empty_gold():
    with pytest.raises(ValueError, match="empty gold"):
        explanation_prf([1], set())


def test_mask_keeps_rank_order():
    assert mask_explanation([4, 2, 9, 1], {1, 2, 4}) == [4, 2, 1]
    assert mask_explanation([4, 2], set()) == []


def test_gold_explanations_positive_sentiment_only():
    split = split_of([(TEST, 7, 11, [(1, 1), (2, -1), (1, 1)]), (TEST, 7, 12, [(3, -1)]),
                      (TEST, 7, 13, []), (TRAIN, 7, 14, [(0, 1)]), (VAL, 7, 15, [(4, 1)])],
                     n_users=8, n_items=16, n_features=5)
    gold = gold_explanations(split)
    assert gold == {(7, 11): {1}}


def test_train_feature_sets_any_sentiment():
    split = split_of([(TRAIN, 0, 0, [(1, 1), (2, -1)]), (TRAIN, 0, 1, [(3, 1)]),
                      (TRAIN, 1, 0, []), (TRAIN, 2, 0, [(2, -1)]), (TEST, 1, 2, [(4, 1)])],
                     n_users=3, n_items=3, n_features=5)
    out = train_feature_sets(split)
    assert out == {0: {1, 2, 3}, 2: {2}}


class _ScriptedModel:
    """scores() follows a per-user script; explain_pairs() replays canned
    features, flagging the pairs in `unconverged` as non-counterfactual."""

    def __init__(self, score_fn, explanations=None, unconverged=()):
        self._score_fn = score_fn
        self._explanations = explanations or {}
        self._unconverged = set(unconverged)
        self.explain_calls = []
        self.batches = 0

    score_matrix = Recommender.score_matrix  # one scores() call per user

    def scores(self, u, items):
        return np.asarray([self._score_fn(u, int(v)) for v in items], dtype=np.float64)

    def explain_pairs(self, pairs, top_n=1, require_recommended=True, candidate_scores=None):
        self.batches += 1
        out = []
        for u, v in pairs:
            self.explain_calls.append((u, v, top_n, require_recommended))
            out.append(SimpleNamespace(features=tuple(self._explanations[(u, v)][:top_n]),
                                       non_counterfactual=(u, v) in self._unconverged))
        return out


def test_build_bed_keeps_only_top_ranked_positives(tiny_split):
    users = tiny_split.test_users.tolist()
    blocked = users[0]

    def score(u, v):
        positives = [it.item for it in interactions(tiny_split, TEST, u)]
        if u == blocked:
            return -1.0 if v in positives else 1.0 + v
        return 100.0 - v if v in positives else -float(v)

    bed = build_bed(_ScriptedModel(score), tiny_split, k_rec=5)
    assert blocked not in bed
    for u in users[1:]:
        want = [it.item for it in interactions(tiny_split, TEST, u)]
        assert bed[u] == want  # bed preserves the split's positive order


def test_validation_ndcg_scripted_ranks(tiny_split):
    def val_positive(u):
        [it] = interactions(tiny_split, VAL, u)
        return it.item

    def top(u, v):
        return 10.0 if v == val_positive(u) else -float(v)

    assert validation_ndcg(_ScriptedModel(top), tiny_split, k=10) == 1.0

    def second(u, v):
        if v == val_positive(u):
            return 5.0
        first_negative = tiny_split.val_negatives[tiny_split.val_users.tolist().index(u), 0]
        return 9.0 if v == first_negative else -float(v)

    want = 1.0 / math.log2(3.0)
    assert validation_ndcg(_ScriptedModel(second), tiny_split, k=10) == pytest.approx(want)


def test_evaluate_macro_averages_and_masks(tiny_split):
    users = tiny_split.test_users.tolist()
    u1, u2 = users[0], users[1]
    v1 = interactions(tiny_split, TEST, u1)[0].item
    v2a, v2b = (it.item for it in interactions(tiny_split, TEST, u2)[:2])
    bed = {u1: [v1], u2: [v2a, v2b]}
    gold = {(u1, v1): {3}, (u2, v2a): {1, 2}}  # (u2, v2b) has no gold: skipped
    expl = {(u1, v1): [3, 9], (u2, v2a): [1]}
    model = _ScriptedModel(lambda u, v: -float(v), explanations=expl,
                           unconverged={(u2, v2a)})

    report = evaluate(model, tiny_split, bed, gold,
                      user_features={u1: {3}, u2: {1, 2, 9}}, top_n=2)
    # pair 1: prediction [3, 9] masked to [3] -> P=1, R=1, F1=1
    # pair 2: prediction [1] -> P=1, R=1/2, F1=2/3
    assert report.n_pairs == 2
    assert report.expl_pr == 1.0
    assert report.expl_re == (1.0 + 0.5) / 2.0
    assert report.expl_f1 == (1.0 + (2.0 * 1.0 * 0.5 / 1.5)) / 2.0
    assert report.top_n == 2
    # the bed is fixed by the reference model, so explain never enforces top-K
    assert all(call[3] is False for call in model.explain_calls)
    # every gold-bearing bed pair goes out in one batch, in bed order
    assert model.batches == 1
    assert [call[:2] for call in model.explain_calls] == [(u1, v1), (u2, v2a)]
    assert report.n_non_cf == 1
    assert report.n_users == len(users)
    assert 0.0 <= report.ndcg <= 1.0


@pytest.mark.parametrize("chunk", [4, 32])
@pytest.mark.parametrize("k", [1, 3, 100])
def test_ranking_passes_equal_the_per_user_definitions(k, chunk, monkeypatch):
    # ragged candidate lists (1 to 4 positives), many exact score ties, k
    # past every list's end, and the 6 users in one chunk or in two
    monkeypatch.setattr(evalkit, "CHUNK_USERS", chunk)
    split = split_of([(TEST, u, 10 + 4 * u + j, []) for u in range(6) for j in range(u % 4 + 1)]
                     + [(VAL, u, 40 + u, []) for u in range(6)],
                     n_users=6, n_items=50, n_features=2, n_neg=6)
    model = _ScriptedModel(lambda u, v: float((7 * u + 3 * v) % 5) - 2.0)
    total = 0.0
    bed = {}
    for u in split.test_users.tolist():
        positives = [it.item for it in interactions(split, TEST, u)]
        cands = np.array(positives + list(range(6)))
        ranked = rank_items(model.scores(u, cands), cands)
        total += ndcg_at(ranked, set(positives), k)
        if hits := [v for v in positives if v in ranked[:k]]:
            bed[u] = hits
    assert evaluate(model, split, {}, {}, {}, k_ndcg=k).ndcg == total / len(split.test_users)
    assert build_bed(model, split, k_rec=k) == bed

    total = 0.0
    for it in interactions(split, VAL):
        row = np.array([it.item] + list(range(6)))
        total += ndcg_at(rank_items(model.scores(it.user, row), row), {it.item}, k)
    assert validation_ndcg(model, split, k=k) == total / len(split.val_users)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_stop_every_ranking(tiny_split, bad):
    u = int(tiny_split.test_users[0])
    v = int(tiny_split.test_negatives[0, 3])
    model = _ScriptedModel(lambda user, item: bad if (user, item) == (u, v) else -float(item))
    pattern = f"item {v} has non-finite score {bad}"
    with pytest.raises(FloatingPointError, match=pattern):
        build_bed(model, tiny_split)
    with pytest.raises(FloatingPointError, match=pattern):
        evaluate(model, tiny_split, {}, {}, {})
    w = int(tiny_split.val_users[0])
    y = int(tiny_split.val_negatives[0, 1])
    model = _ScriptedModel(lambda user, item: bad if (user, item) == (w, y) else 0.0)
    with pytest.raises(FloatingPointError, match=f"item {y} has non-finite"):
        validation_ndcg(model, tiny_split)
