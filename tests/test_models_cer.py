"""Neural recommender: loss gradients, counterfactual explanations, guards."""
import inspect
import math
import warnings

import numpy as np
import pytest

import robustrec.models.cer as cer_mod
from gradcheck import gradcheck
from robustrec.dataset import TEST
from robustrec.evalkit import evaluate
from robustrec.diffcore import Tensor, tsum
from robustrec.models import CER, CERConfig, build_model
from robustrec.models.base import Explanation
from robustrec.models.cer import NotRecommendedError, counterfactual_deltas
from robustrec.rng import SplitMix64
from splits import interactions


def _batch(model, seed=0, batch_size=6):
    return next(model.epoch_batches(SplitMix64(seed), batch_size))


def test_loss_gradients_wrt_params(cer_tiny):
    batch = _batch(cer_tiny)
    names = list(cer_tiny.params)
    arrays = [cer_tiny.params[n].data.copy() for n in names]

    def make_scalar(*leaves):
        cer_tiny.params = dict(zip(names, leaves))
        return cer_tiny.loss(batch)

    gradcheck(make_scalar, arrays)


def test_loss_gradients_wrt_item_aspects(cer_tiny):
    # the defense perturbs Y through this path; the aspect rows feed the
    # first layer only, so the chain runs through the whole net
    batch = _batch(cer_tiny, seed=1)
    gradcheck(lambda y: cer_tiny.loss(batch, Y=y), [cer_tiny.Y.copy()])


def test_loss_grad_matches_tape(cer_tiny):
    for seed in range(4):
        batch = _batch(cer_tiny, seed=seed)
        for p in cer_tiny.params.values():
            p.grad = None
        y_leaf = Tensor(cer_tiny.Y, requires_grad=True)
        taped = cer_tiny.loss(batch, Y=y_leaf)
        taped.backward()
        penalty = cer_tiny.penalty_grad()
        shared = {name: g.copy() for name, g in penalty.grads.items()}
        loss, grads, dy = cer_tiny.loss_grad(batch, penalty, want_dy=True)
        assert loss == pytest.approx(float(taped.data), rel=1e-12)
        assert list(grads) == list(cer_tiny.params)
        for name, p in cer_tiny.params.items():
            assert grads[name].shape == p.data.shape
            np.testing.assert_allclose(grads[name], p.grad, rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(dy, y_leaf.grad, rtol=1e-10, atol=1e-15)
        assert cer_tiny.loss_grad(batch, penalty)[2] is None
        for name, g in shared.items():  # the penalty is shared, never written
            np.testing.assert_array_equal(penalty.grads[name], g)


def test_loss_at_zero_params_is_log_two(cer_tiny):
    # zero weights give logit 0 for every pair: softplus(0) - 0*y = ln 2
    # for both labels, and the L2 term vanishes
    for p in cer_tiny.params.values():
        p.data[...] = 0.0
    batch = _batch(cer_tiny, seed=2)
    assert float(cer_tiny.loss(batch).data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_epoch_batches_binary_targets(cer_tiny):
    # ratings span 1..5 but this model learns from 0/1 labels
    for batch in cer_tiny.epoch_batches(SplitMix64(3), 8):
        assert set(np.unique(batch.targets)) <= {0.0, 1.0}
        half = len(batch) // 2
        assert np.all(batch.targets[:half] == 1.0)
        assert np.all(batch.targets[half:] == 0.0)


def test_candidate_items_are_positives_then_negatives(cer_tiny, tiny_split):
    for row, u in enumerate(tiny_split.test_users.tolist()):
        want = [it.item for it in interactions(tiny_split, TEST, u)]
        want += tiny_split.test_negatives[row].tolist()
        assert cer_tiny.candidate_items(u).tolist() == want
    with pytest.raises(KeyError, match=f"user {tiny_split.n_users} has no held-out"):
        cer_tiny.candidate_items(tiny_split.n_users)


def _bed_like_pairs(model, n_users=4, per_user=3):
    users = model._split.test_users.tolist()[:n_users]
    return [(u, int(v)) for u in users for v in model.candidate_items(u)[:per_user]]


def test_numpy_forward_matches_tape(cer_tiny):
    # scores() and the counterfactual objective share one numpy forward; both
    # entry points must agree with the taped forward the loss trains through
    pairs = _bed_like_pairs(cer_tiny)
    users = np.asarray([u for u, _ in pairs])
    items = np.asarray([v for _, v in pairs])
    delta = np.random.default_rng(0).normal(0.0, 0.5, (len(pairs), cer_tiny.n_features))
    taped = cer_tiny._forward(Tensor(cer_tiny.X[users]), Tensor(cer_tiny.Y[items] + delta),
                              cer_tiny.params)
    s, _ = cer_tiny._cf_score_grad(pairs)(delta)
    np.testing.assert_allclose(s, taped.data[:, 0], rtol=0.0, atol=1e-12)

    u = users[0]
    cands = cer_tiny.candidate_items(u)
    taped = cer_tiny._forward(Tensor(np.repeat(cer_tiny.X[u:u + 1], len(cands), axis=0)),
                              Tensor(cer_tiny.Y[cands]), cer_tiny.params)
    np.testing.assert_allclose(cer_tiny.scores(u, cands), taped.data[:, 0], rtol=0.0, atol=1e-12)

    # at delta = 0 the solve starts from the scores that set its thresholds.
    # Both use one layer-1 form, but scores() takes a user's half as a
    # matrix-vector product and the solve as a matrix product, whose sums may
    # run in another order
    s0, _ = cer_tiny._cf_score_grad(pairs)(np.zeros(delta.shape))
    want = {}
    for u in set(users.tolist()):
        cands = cer_tiny.candidate_items(u)
        want.update(zip([(u, v) for v in cands.tolist()], cer_tiny.scores(u, cands)))
    np.testing.assert_allclose(s0, [want[pair] for pair in pairs], rtol=0.0, atol=1e-12)


def test_hand_gradient_matches_tape(cer_tiny):
    pairs = _bed_like_pairs(cer_tiny)
    users = np.asarray([u for u, _ in pairs])
    items = np.asarray([v for _, v in pairs])
    delta = np.random.default_rng(1).normal(0.0, 0.5, (len(pairs), cer_tiny.n_features))
    const = {name: Tensor(p.data) for name, p in cer_tiny.params.items()}
    y_leaf = Tensor(cer_tiny.Y[items] + delta, requires_grad=True)
    # rows are independent, so the gradient of the summed scores holds each
    # row's own d score / d delta
    tsum(cer_tiny._forward(Tensor(cer_tiny.X[users]), y_leaf, const)).backward()
    _, grad = cer_tiny._cf_score_grad(pairs)(delta)
    assert grad.shape == (len(pairs), cer_tiny.n_features)
    np.testing.assert_allclose(grad, y_leaf.grad, rtol=1e-10, atol=1e-14)


# overflow both ways, signed zeros, infinities, the smallest subnormal and
# quiet NaNs of both signs with payloads
_SIGMOID_EDGES = np.concatenate([
    [800.0, -800.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324],
    np.array([0x7FF8_0000_0000_0ABC, 0xFFF8_0000_0000_0123], dtype=np.uint64).view(np.float64)])


@pytest.mark.parametrize("shape", [(64, 256), (95, 256), (1, 256)])
def test_sigmoid_in_place_keeps_the_bits(shape):
    z = np.random.default_rng(shape[0]).normal(0.0, 30.0, shape)
    z.flat[:len(_SIGMOID_EDGES)] = _SIGMOID_EDGES
    got = z.copy()
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        want = 1.0 / (1.0 + np.exp(-z))
        assert cer_mod._sigmoid_in_place(got) is got
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_in_place_passes_leave_their_inputs_alone(cer_tiny, tiny_split):
    # the forward and both backwards write only into buffers they allocate
    batch = _batch(cer_tiny, seed=3)
    penalty = cer_tiny.penalty_grad()
    X, Y = cer_tiny.X.copy(), cer_tiny.Y.copy()
    y_adv = Y + np.random.default_rng(2).normal(0.0, 0.5, Y.shape)
    y_adv_before = y_adv.copy()
    half = cer_tiny._user_half(cer_tiny.X[batch.users])
    reuse = {}
    clean = cer_tiny.loss_grad(batch, penalty, want_dy=True, reuse=reuse)
    cer_tiny.loss_grad(batch, penalty, Y=y_adv, want_dy=True, reuse=reuse)
    assert reuse["user_half"].tobytes() == half.tobytes()
    assert cer_tiny.X.tobytes() == X.tobytes() and cer_tiny.Y.tobytes() == Y.tobytes()
    assert y_adv.tobytes() == y_adv_before.tobytes()
    loss, grads, dy = cer_tiny.loss_grad(batch, penalty, want_dy=True, reuse=reuse)
    assert loss == clean[0] and dy.tobytes() == clean[2].tobytes()
    assert all(grads[name].tobytes() == g.tobytes() for name, g in clean[1].items())

    score_grad = cer_tiny._cf_score_grad(_bed_like_pairs(cer_tiny))
    captured = inspect.getclosurevars(score_grad).nonlocals
    before = {name: captured[name].copy() for name in ("user_half", "y_rows")}
    delta = np.random.default_rng(3).normal(0.0, 0.5, before["y_rows"].shape)
    delta_before = delta.copy()
    (s1, ds1), (s2, ds2) = score_grad(delta), score_grad(delta)
    assert s1.tobytes() == s2.tobytes() and ds1.tobytes() == ds2.tobytes()
    assert delta.tobytes() == delta_before.tobytes()
    for name, array in before.items():
        assert captured[name].tobytes() == array.tobytes(), name

    u = int(tiny_split.test_users[0])
    cands = cer_tiny.candidate_items(u)
    assert cer_tiny.scores(u, cands).tobytes() == cer_tiny.scores(u, cands).tobytes()
    assert cer_tiny.X.tobytes() == X.tobytes() and cer_tiny.Y.tobytes() == Y.tobytes()


def test_counterfactual_linear_closed_form():
    # score(delta) = 3*d0 + 1*d1 + 1; the cheapest way below the target
    # moves along -(3, 1), so feature 0 carries the largest weakening
    w = np.array([3.0, 1.0])

    def score_grad(delta):
        return delta @ w + 1.0, np.broadcast_to(w, delta.shape)

    deltas, converged, final = counterfactual_deltas(
        score_grad, [(0, 0)], 2, np.array([0.0]), np.array([0.1]),
        gamma=100.0, steps=300, lr=0.05)
    delta = deltas[0]
    assert converged[0]
    assert final[0] <= -0.1 + 1e-6
    assert delta[0] < 0.0 and delta[1] < 0.0
    assert abs(delta[0]) > 2.0 * abs(delta[1])


def test_counterfactual_gives_up_when_score_is_flat():
    # a constant score can never cross the threshold; the flag must say so
    def score_grad(delta):
        return np.full(len(delta), 5.0), np.zeros_like(delta)

    deltas, converged, final = counterfactual_deltas(
        score_grad, [(0, 0)], 4, np.array([0.0]), np.array([0.1]), steps=50)
    assert not converged[0]
    assert final[0] == pytest.approx(5.0)
    np.testing.assert_array_equal(deltas[0], np.zeros(4))


def test_counterfactual_rejects_non_finite_scores():
    # a NaN score must stop the solve and name the pair, not reach the metrics
    def score_grad(delta):
        s = delta.sum(axis=1) + 1.0
        s[1] = np.nan
        return s, np.ones_like(delta)

    with pytest.raises(FloatingPointError, match="counterfactual.*user 4, item 9"):
        counterfactual_deltas(score_grad, [(3, 7), (4, 9)], 2, np.zeros(2), np.full(2, 0.1),
                              steps=5)


def test_batched_solve_matches_pairs_solved_alone(cer_tiny, monkeypatch):
    pairs = _bed_like_pairs(cer_tiny)
    solves = []

    def record(*args, **kw):
        out = counterfactual_deltas(*args, **kw)
        solves.append(out)
        return out

    monkeypatch.setattr(cer_mod, "counterfactual_deltas", record)
    together = cer_tiny.explain_pairs(pairs, top_n=2, require_recommended=False)
    assert len(solves) == 1 and len(together) == len(pairs)
    deltas, converged, _ = solves[0]
    assert deltas.shape == (len(pairs), cer_tiny.n_features)
    for i, (u, v) in enumerate(pairs):
        alone = cer_tiny.explain(u, v, top_n=2, require_recommended=False)
        np.testing.assert_allclose(solves[-1][0][0], deltas[i], rtol=1e-9, atol=1e-12)
        assert solves[-1][1][0] == converged[i]
        assert alone == together[i]
    assert len(solves) == 1 + len(pairs)


def test_explain_threshold_is_next_candidate_score(cer_tiny, tiny_split, monkeypatch):
    u = int(tiny_split.test_users[0])
    cands = cer_tiny.candidate_items(u)
    scores = cer_tiny.scores(u, cands)
    from robustrec.models.base import rank_items
    ranked = rank_items(scores, cands)
    by_item = {int(i): float(s) for i, s in zip(cands, scores)}
    spread = float(scores.max() - scores.min())

    seen = {}

    def fake(score_grad, pairs, n_features, thresholds, margins, **kw):
        seen["threshold"] = thresholds[0]
        seen["margin"] = margins[0]
        return np.zeros((len(pairs), n_features)), np.ones(len(pairs), bool), thresholds - margins

    monkeypatch.setattr(cer_mod, "counterfactual_deltas", fake)
    cer_tiny.explain(u, ranked[0], top_n=1)
    assert seen["threshold"] == by_item[ranked[cer_tiny.config.top_k]]
    assert seen["margin"] == cer_tiny.config.cf_margin_frac * spread


def test_explain_orders_by_magnitude_negatives_first(cer_tiny, tiny_split, monkeypatch):
    u = int(tiny_split.test_users[0])
    v = int(cer_tiny.candidate_items(u)[0])
    delta = np.zeros(cer_tiny.n_features)
    delta[0], delta[1], delta[2], delta[6] = 0.5, -0.5, -0.2, 0.1

    monkeypatch.setattr(cer_mod, "counterfactual_deltas",
                        lambda *a, **k: (delta[None, :], np.array([True]), np.array([0.0])))
    # |d0| ties |d1| and the lower index wins the order, but only negative
    # entries may head an explanation
    expl = cer_tiny.explain(u, v, top_n=1, require_recommended=False)
    assert expl.features == (1,)
    assert not expl.non_counterfactual
    assert cer_tiny.explain(u, v, top_n=2, require_recommended=False).features == (1, 2)
    # only two negative entries exist; the list does not pad with positives
    assert cer_tiny.explain(u, v, top_n=3, require_recommended=False).features == (1, 2)


def test_explain_falls_back_to_magnitude_without_negatives(cer_tiny, tiny_split,
                                                           monkeypatch):
    u = int(tiny_split.test_users[0])
    v = int(cer_tiny.candidate_items(u)[0])
    delta = np.zeros(cer_tiny.n_features)
    delta[0], delta[1] = 0.3, 0.7

    monkeypatch.setattr(cer_mod, "counterfactual_deltas",
                        lambda *a, **k: (delta[None, :], np.array([False]), np.array([3.0])))
    expl = cer_tiny.explain(u, v, top_n=2, require_recommended=False)
    assert expl.features == (1, 0)
    assert expl.non_counterfactual


def test_explain_rejects_unknown_candidate(cer_tiny, tiny_split):
    u = int(tiny_split.test_users[0])
    outside = max(int(i) for i in cer_tiny.candidate_items(u)) + 1
    with pytest.raises(NotRecommendedError, match="not among"):
        cer_tiny.explain(u, outside)


def test_explain_pairs_checks_every_pair_before_solving(cer_tiny, tiny_split, monkeypatch):
    u = int(tiny_split.test_users[0])
    inside = int(cer_tiny.candidate_items(u)[0])
    outside = max(int(i) for i in cer_tiny.candidate_items(u)) + 1
    solves = []
    monkeypatch.setattr(cer_mod, "counterfactual_deltas", lambda *a, **k: solves.append(a))
    with pytest.raises(NotRecommendedError, match="not among"):
        cer_tiny.explain_pairs([(u, inside), (u, outside)], require_recommended=False)
    assert solves == []


def test_explain_requires_a_threshold_candidate(tiny_split, tiny_matrices):
    # with top_k >= the candidate count there is no (K+1)-th score to target
    X, Y = tiny_matrices
    model = CER(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                CERConfig(hidden=(8, 4), top_k=10, cf_steps=5))
    model.attach(tiny_split, X, Y)
    model.reinit(0)
    u = int(tiny_split.test_users[0])
    v = int(model.candidate_items(u)[0])
    with pytest.raises(NotRecommendedError, match="candidates"):
        model.explain(u, v, require_recommended=False)


def test_explain_top_k_gate_and_relaxation(tiny_split, tiny_matrices):
    X, Y = tiny_matrices
    model = CER(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                CERConfig(hidden=(8, 4), top_k=3, cf_steps=5))
    model.attach(tiny_split, X, Y)
    model.reinit(0)
    u = int(tiny_split.test_users[0])
    from robustrec.models.base import rank_items
    cands = model.candidate_items(u)
    worst = rank_items(model.scores(u, cands), cands)[-1]
    with pytest.raises(NotRecommendedError, match="top 3"):
        model.explain(u, worst)
    expl = model.explain(u, worst, require_recommended=False)
    assert isinstance(expl, Explanation)
    assert len(expl.features) == 1


@pytest.mark.parametrize("hidden", [[8], [8, 4, 2], [8, 0], [8.0, 4], [True, 4], []])
def test_build_model_rejects_malformed_hidden(tiny_split, hidden):
    # the widths come from JSON config; a bad one must fail here, not in reinit
    with pytest.raises(ValueError, match="hidden"):
        build_model("cer", tiny_split, {"cer": {"hidden": hidden}})


def test_evaluate_scores_each_test_user_once_and_explains_as_before(cer_tiny, tiny_split,
                                                                    monkeypatch):
    cands, n_pos = tiny_split.test_candidates
    bed = {u: row[:n].tolist() for u, row, n in zip(tiny_split.test_users.tolist(), cands, n_pos)
           if n}
    gold = {(u, v): {0} for u, items in bed.items() for v in items}
    scored, explained = [], []
    real_scores, real_explain = CER.scores, CER.explain_pairs

    def scores_spy(self, u, items):
        scored.append(u)
        return real_scores(self, u, items)

    def explain_spy(self, pairs, **kwargs):
        explained.append((pairs, real_explain(self, pairs, **kwargs)))
        return explained[-1][1]

    monkeypatch.setattr(CER, "scores", scores_spy)
    monkeypatch.setattr(CER, "explain_pairs", explain_spy)
    evaluate(cer_tiny, tiny_split, bed, gold, {u: set(range(10)) for u in bed})
    # ranking scores every test user once; the thresholds reuse those scores
    assert sorted(scored) == sorted(bed)
    [(pairs, got)] = explained
    monkeypatch.undo()
    assert len(pairs) == sum(map(len, bed.values()))
    assert got == cer_tiny.explain_pairs(pairs, require_recommended=False)  # scored afresh
