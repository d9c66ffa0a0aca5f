"""Factor model: loss gradients, score formula, explanation and tie rules."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gradcheck import gradcheck
from planted import seed_drawing
from robustrec import evalkit
from robustrec.dataset import TRAIN
from robustrec.diffcore import Adam, Tensor
from robustrec.evalkit import build_bed, evaluate, validation_ndcg
from robustrec.models import EFM, EFMConfig, rank_items
from robustrec.models.base import PAD, scatter_add_rows
from robustrec.rng import SplitMix64, derive_seed
from splits import interactions


def _batch(model, seed=0, batch_size=6):
    rng = SplitMix64(seed)
    return next(model.epoch_batches(rng, batch_size))


def test_loss_gradients_wrt_params(efm_tiny):
    batch = _batch(efm_tiny)
    names = list(efm_tiny.params)
    # keep entries away from the negativity-penalty kink at 0, where central
    # differences straddle the subgradient
    arrays = [np.maximum(efm_tiny.params[n].data.copy(), 1e-3) for n in names]

    def make_scalar(*leaves):
        efm_tiny.params = dict(zip(names, leaves))
        return efm_tiny.loss(batch)

    # the summed batch loss is O(100), so central differences carry ~1e-9 of
    # cancellation noise; hold near-zero gradient entries to that absolute
    # scale instead of a relative one
    gradcheck(make_scalar, arrays, floor=1e-4)
    # and on a point with genuinely negative entries, still off the kink
    shifted = [a - 0.4 for a in arrays]
    shifted = [np.where(np.abs(a) < 1e-3, 5e-3, a) for a in shifted]
    gradcheck(make_scalar, shifted, floor=1e-4)


def test_loss_gradients_wrt_item_aspects(efm_tiny):
    # the defense differentiates the loss against Y; check that path too
    batch = _batch(efm_tiny, seed=1)
    gradcheck(lambda y: efm_tiny.loss(batch, Y=y), [efm_tiny.Y.copy()])


def test_loss_grad_matches_tape(efm_tiny):
    # include negative entries so the non-negativity penalty is active
    efm_tiny.params["V"].data -= 0.3
    for seed in range(4):
        batch = _batch(efm_tiny, seed=seed)
        for p in efm_tiny.params.values():
            p.grad = None
        y_leaf = Tensor(efm_tiny.Y, requires_grad=True)
        taped = efm_tiny.loss(batch, Y=y_leaf)
        taped.backward()
        penalty = efm_tiny.penalty_grad()
        shared = {name: g.copy() for name, g in penalty.grads.items()}
        loss, grads, dy = efm_tiny.loss_grad(batch, penalty, want_dy=True)
        assert loss == float(taped.data)  # the residuals are formed as on the tape
        assert list(grads) == list(efm_tiny.params)
        for name, p in efm_tiny.params.items():
            np.testing.assert_allclose(grads[name], p.grad, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(dy, y_leaf.grad, rtol=1e-10, atol=0.0)
        assert efm_tiny.loss_grad(batch, penalty)[2] is None
        for name, g in shared.items():  # the penalty is shared, never written
            np.testing.assert_array_equal(penalty.grads[name], g)


def test_loss_decreases_under_training_steps(efm_tiny):
    from robustrec.diffcore import Adam
    opt = Adam([p.data for p in efm_tiny.params.values()], lr=0.01)
    batch = _batch(efm_tiny, seed=2)
    first = float(efm_tiny.loss(batch).data)
    for _ in range(30):
        _, grads, _ = efm_tiny.loss_grad(batch, efm_tiny.penalty_grad())
        opt.step([grads[name] for name in efm_tiny.params])
    assert float(efm_tiny.loss(batch).data) < first


def test_score_formula_matches_direct_restatement(efm_tiny):
    cfg = efm_tiny.config
    p = {k: t.data for k, t in efm_tiny.params.items()}

    def want(u, v):
        x_u = p["U1"][u] @ p["V"].T
        top = sorted(range(len(x_u)), key=lambda f: (-x_u[f], f))[:cfg.top_k_features]
        y_v = p["U2"][v] @ p["V"].T
        match = sum(x_u[f] * y_v[f] for f in top) / (cfg.top_k_features * efm_tiny.n_rating)
        a_hat = p["U1"][u] @ p["U2"][v] + p["H1"][u] @ p["H2"][v]
        return cfg.alpha * match + (1 - cfg.alpha) * a_hat

    u, items = 2, np.array([0, 3, 7, 11])
    got = efm_tiny.scores(u, items)
    for i, v in enumerate(items):
        assert got[i] == pytest.approx(want(u, v), rel=1e-12)
    # many users at once, a repeated one among them, over PAD-padded ragged lists
    users = np.array([2, 0, 5, 2, 7])
    lists = [[0, 3, 7, 11], [5], [32, 1, 2], [11, 0], [4, 8, 15, 16]]
    cands = np.array([row + [PAD] * (4 - len(row)) for row in lists])
    got = efm_tiny.score_matrix(users, cands)
    assert got.shape == cands.shape
    for u, row, scores in zip(users.tolist(), lists, got):
        for v, score in zip(row, scores):
            assert score == pytest.approx(want(u, v), rel=1e-12)


def test_ranking_passes_score_users_in_chunks(efm_tiny, tiny_split, monkeypatch):
    # no pass scores one user at a time; each chunk of users is one
    # score_matrix call, which builds its [chunk, n_items] products once
    chunks = []
    real = EFM.score_matrix

    def spy(self, users, candidates):
        chunks.append(len(users))
        return real(self, users, candidates)

    monkeypatch.setattr(evalkit, "CHUNK_USERS", 3)
    monkeypatch.setattr(EFM, "score_matrix", spy)
    monkeypatch.setattr(EFM, "scores", lambda *a: pytest.fail("a pass scored one user"))
    per_pass = [3, 3, 2]  # the split's 8 users
    assert len(tiny_split.val_users) == len(tiny_split.test_users) == 8
    validation_ndcg(efm_tiny, tiny_split)
    assert chunks == per_pass
    bed = build_bed(efm_tiny, tiny_split)
    assert chunks == per_pass * 2
    gold = {(u, v): {0} for u, items in bed.items() for v in items}
    evaluate(efm_tiny, tiny_split, bed, gold, {u: {0} for u in bed})
    assert chunks == per_pass * 3


def test_explain_picks_strongest_item_feature_in_user_pool(tiny_split, tiny_matrices):
    X, Y = tiny_matrices
    model = EFM(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                EFMConfig(n_factors=tiny_split.n_features, n_hidden=2, top_k_features=3))
    model.attach(tiny_split, X, Y)
    model.reinit(0)
    F = tiny_split.n_features
    # V = identity makes predicted aspect rows equal the factor rows
    model.params["V"].data = np.eye(F)
    u1 = np.zeros((tiny_split.n_users, F))
    u1[0, [4, 1, 7]] = [9.0, 8.0, 7.0]           # user 0 pool = {4, 1, 7}
    model.params["U1"].data = u1
    u2 = np.zeros((tiny_split.n_items, F))
    u2[5, [1, 4, 7]] = [3.0, 2.0, 1.0]           # item 5 strongest pooled: 1 then 4 then 7
    model.params["U2"].data = u2
    exp = model.explain(0, 5, top_n=2)
    assert exp.features == (1, 4)
    assert exp.non_counterfactual is False


def test_explain_ties_go_to_lower_feature_index(tiny_split, tiny_matrices):
    X, Y = tiny_matrices
    model = EFM(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                EFMConfig(n_factors=tiny_split.n_features, n_hidden=2, top_k_features=3))
    model.attach(tiny_split, X, Y)
    model.reinit(0)
    F = tiny_split.n_features
    model.params["V"].data = np.eye(F)
    u1 = np.zeros((tiny_split.n_users, F))
    u1[0, [2, 6, 8]] = 5.0                      # three-way attention tie: pool = {2, 6, 8}
    model.params["U1"].data = u1
    u2 = np.zeros((tiny_split.n_items, F))
    u2[3, [6, 8]] = 2.0                         # item tie between 6 and 8
    model.params["U2"].data = u2
    assert model.explain(0, 3, top_n=1).features == (6,)
    assert model.explain(0, 3, top_n=3).features == (6, 8, 2)


def test_explanations_read_the_ranking_table(efm_tiny, tiny_split):
    # explanations rank the pool on the same item-feature rows as scoring
    pairs = [(u, int(v)) for u in tiny_split.test_users.tolist()
             for v in efm_tiny.candidate_items(u)[:3]]
    k = efm_tiny.config.top_k_features
    U1, U2, V = (efm_tiny.params[name].data for name in ("U1", "U2", "V"))
    table = U2 @ V.T
    got = efm_tiny.explain_pairs(pairs, top_n=3)
    for (u, v), expl in zip(pairs, got, strict=True):
        pool = np.argsort(-(U1[u] @ V.T), kind="stable")[:k].tolist()
        assert expl.features == tuple(sorted(pool, key=lambda f: (-table[v, f], f))[:3])
        assert efm_tiny.explain(u, v, top_n=3) == expl  # the single-pair case


def test_rank_items_tie_rule():
    assert rank_items(np.array([1.0, 3.0, 3.0, 0.5]), np.array([9, 4, 2, 7])) == [2, 4, 9, 7]


def test_reinit_is_seed_deterministic(efm_tiny):
    efm_tiny.reinit(3)
    first = {k: t.data.copy() for k, t in efm_tiny.params.items()}
    efm_tiny.reinit(3)
    for k in first:
        np.testing.assert_array_equal(efm_tiny.params[k].data, first[k])
    efm_tiny.reinit(4)
    assert any(not np.array_equal(efm_tiny.params[k].data, first[k]) for k in first)


def test_reinit_requires_attach(tiny_split):
    model = EFM(3, 4, 5)
    with pytest.raises(RuntimeError):
        model.reinit(0)


def test_epoch_batches_pair_negatives_and_targets(efm_tiny, tiny_split):
    rng = SplitMix64(9)
    total_pos = 0
    for batch in efm_tiny.epoch_batches(rng, 4):
        n = len(batch) // 2
        total_pos += n
        # the first half are real interactions with rating targets
        assert all(t >= 1.0 for t in batch.targets[:n, 0])
        # the second half are sampled negatives with zero targets
        assert all(t == 0.0 for t in batch.targets[n:, 0])
        for u, v in zip(batch.users[n:], batch.items[n:]):
            assert int(v) not in {it.item for it in interactions(tiny_split, user=int(u))}
    assert total_pos == len(interactions(tiny_split, TRAIN))


# recorded from the per-interaction implementation this one replaced: per
# batch, the positives' users, all items (positives, then sampled negatives)
# and the positives' rating targets
GOLDEN_BATCHES = [
    ([2, 4, 5, 5, 7, 3, 1, 5, 5, 7, 5, 4, 4, 2, 7, 1],
     [15, 19, 24, 5, 11, 9, 11, 14, 29, 18, 13, 12, 10, 8, 22, 15,
      17, 6, 20, 11, 21, 3, 7, 16, 18, 24, 25, 22, 11, 32, 17, 22],
     [2, 4, 2, 2, 4, 2, 2, 5, 3, 3, 3, 2, 2, 1, 3, 2]),
    ([1, 2, 1, 3, 0, 7, 0, 6, 6, 5, 2, 0, 3, 4, 4, 7],
     [24, 25, 26, 11, 32, 0, 24, 25, 18, 23, 5, 1, 26, 3, 17, 20,
      30, 1, 21, 4, 20, 30, 30, 23, 4, 15, 4, 20, 5, 24, 16, 15],
     [4, 3, 2, 3, 3, 3, 5, 3, 4, 3, 4, 3, 3, 2, 3, 3]),
    ([1, 4, 5, 0, 4, 7, 2, 3, 6, 0, 3, 3, 0, 6, 2, 2],
     [27, 21, 6, 19, 7, 3, 14, 29, 6, 6, 31, 8, 28, 30, 12, 31,
      12, 2, 4, 10, 20, 19, 16, 28, 26, 29, 7, 15, 4, 14, 0, 26],
     [2, 5, 3, 3, 2, 3, 3, 4, 4, 3, 3, 3, 2, 3, 3, 4]),
    ([6, 0, 1, 6, 1, 3, 7, 6],
     [28, 7, 16, 24, 9, 13, 5, 1, 5, 8, 17, 9, 10, 10, 19, 32],
     [2, 4, 2, 4, 4, 2, 2, 4]),
]


@pytest.mark.parametrize("algo", ["efm", "cer"])
def test_epoch_batches_match_golden_stream(algo, efm_tiny, cer_tiny):
    # the shuffle and the rejection-sampled negatives draw from one SplitMix64
    # stream; any change to the draw order or the membership tests moves these
    model = efm_tiny if algo == "efm" else cer_tiny
    batches = list(model.epoch_batches(SplitMix64(2024), 16))
    assert len(batches) == len(GOLDEN_BATCHES)
    for batch, (users, items, ratings) in zip(batches, GOLDEN_BATCHES):
        positives = [1.0] * len(ratings) if algo == "cer" else [float(r) for r in ratings]
        assert batch.users.dtype == np.int64 and batch.items.dtype == np.int64
        assert batch.users.tolist() == users + users
        assert batch.items.tolist() == items
        assert batch.targets.shape == (len(items), 1)
        assert batch.targets[:, 0].tolist() == positives + [0.0] * len(ratings)


def _scalar_epoch_batches(model, rng, batch_size):
    """(users, positives then negatives) per batch, with one `randrange` per
    shuffle swap and per negative try: the draws the block path reproduces."""
    split = model._split
    n_items = model.Y.shape[0]
    train = np.flatnonzero(split.part == TRAIN)
    order = list(range(len(train)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    users, items = split.user[train[order]].tolist(), split.item[train[order]].tolist()
    batches = []
    for lo in range(0, len(users), batch_size):
        negatives = []
        for u in users[lo:lo + batch_size]:
            pos = {it.item for it in interactions(split, user=u)}
            while True:
                j = rng.randrange(n_items)
                if j not in pos:
                    break
            negatives.append(j)
        batches.append((users[lo:lo + batch_size], items[lo:lo + batch_size] + negatives))
    return batches


def test_block_epoch_batches_equal_the_scalar_draws(efm_tiny, tiny_split):
    n_train = len(interactions(tiny_split, TRAIN))
    # planted draws of 2^64 - 1, which randrange(n) rejects for every n but a
    # power of two: the shuffle's first draw (bound n_train) and its draw for
    # bound 5, and the fourth negative draw (bound 33, the item count)
    assert n_train & (n_train - 1) and tiny_split.n_items == 33
    planted = [seed_drawing(2**64 - 1, at) for at in (0, n_train - 5, n_train + 2)]
    seeds = [derive_seed(3, "epoch", i) for i in range(30)] + [0, 2**64 - 1] + planted
    for seed in seeds:
        for batch_size in (1, 7, 16, 1000):
            got = [(b.users[:len(b) // 2].tolist(), b.items.tolist())
                   for b in efm_tiny.epoch_batches(SplitMix64(seed), batch_size)]
            assert got == _scalar_epoch_batches(efm_tiny, SplitMix64(seed), batch_size)


def test_with_params_shares_attachment_with_fresh_tensors(efm_tiny):
    arrays = efm_tiny.param_arrays()
    clone = efm_tiny.with_params(arrays)
    assert clone.X is efm_tiny.X and clone._split is efm_tiny._split
    assert clone.params["V"] is not efm_tiny.params["V"]
    clone.params["V"].data += 1.0
    assert not np.array_equal(clone.params["V"].data, efm_tiny.params["V"].data)
    with pytest.raises(ValueError):
        efm_tiny.with_params({"V": arrays["V"]})


def test_set_param_arrays_validates_shapes(efm_tiny):
    good = efm_tiny.param_arrays()
    bad = dict(good)
    bad["V"] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        efm_tiny.set_param_arrays(bad)
    with pytest.raises(ValueError, match="names"):
        efm_tiny.set_param_arrays({"V": good["V"]})


def test_scatter_add_rows_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n_rows, n, m = (int(k) for k in rng.integers(1, [40, 9, 12]))
        # batch users repeat: each drawn row occurs 1 to 8 times, in any order
        rows = rng.permutation(np.repeat(rng.integers(0, n_rows, m), rng.integers(1, 9, m)))
        scale = 10.0 ** rng.uniform(-12.0, 12.0, (len(rows), n))
        values = rng.choice([-1.0, 1.0], (len(rows), n)) * scale
        target = rng.normal(size=(n_rows, n)) * 10.0 ** rng.uniform(-12.0, 12.0)
        want = target.copy()
        np.add.at(want, rows, values)
        scatter_add_rows(target, rows, values)
        assert target.tobytes() == want.tobytes(), trial


def test_scatter_add_rows_empty_rows_change_nothing():
    target = np.arange(12.0).reshape(4, 3)
    scatter_add_rows(target, np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
    assert target.tobytes() == np.arange(12.0).reshape(4, 3).tobytes()


def test_validation_ndcg_follows_an_adam_step(efm_tiny, tiny_split):
    # a ranking pass builds its item-feature table from the parameters of the
    # moment, so an update in place is seen by the next pass
    before = validation_ndcg(efm_tiny, tiny_split)
    table = efm_tiny.params["U2"].data @ efm_tiny.params["V"].data.T
    opt = Adam([p.data for p in efm_tiny.params.values()], lr=0.5)
    _, grads, _ = efm_tiny.loss_grad(_batch(efm_tiny), efm_tiny.penalty_grad())
    opt.step([grads[name] for name in efm_tiny.params])
    fresh = efm_tiny.with_params(efm_tiny.param_arrays())
    assert not np.array_equal(efm_tiny.params["U2"].data @ efm_tiny.params["V"].data.T, table)
    after = validation_ndcg(efm_tiny, tiny_split)
    assert after == validation_ndcg(fresh, tiny_split)
    assert after != before


def test_efm_training_never_imports_numpy_ma():
    # np.unique's first call imports numpy.ma (1.6 MB of RSS); a fresh
    # interpreter keeps other tests' imports from hiding its return
    tests = Path(__file__).resolve().parent
    code = textwrap.dedent("""\
        import sys
        from conftest import TINY_CORPUS, TINY_SPLIT
        from robustrec.aspects import build_matrices
        from robustrec.dataset import build_split, ingest_reviews
        from robustrec.evalkit import validation_ndcg
        from robustrec.models import EFM, EFMConfig
        from robustrec.robustness import DefenseConfig, TrainingConfig, train_defended
        from robustrec.synth import synth_jsonl
        split = build_split(ingest_reviews(synth_jsonl(TINY_CORPUS)), TINY_SPLIT)
        model = EFM(split.n_users, split.n_items, split.n_features,
                    EFMConfig(n_factors=6, n_hidden=3, top_k_features=4))
        model.attach(split, *build_matrices(split))
        train_defended(model, split, DefenseConfig(lam=0.5, eps_d=0.1),
                       TrainingConfig(max_epochs=1), seed=0)
        validation_ndcg(model, split)
        print("numpy.ma" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests), str(tests.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("name", ["n_factors", "n_hidden", "top_k_features"])
@pytest.mark.parametrize("width", [0, 2.0, True])
def test_config_rejects_widths_the_model_cannot_use(name, width):
    # the widths come from JSON config; a bad one must fail here, not in reinit
    with pytest.raises(ValueError, match=f"EFMConfig.{name} must be a positive integer"):
        EFMConfig(**{name: width})
