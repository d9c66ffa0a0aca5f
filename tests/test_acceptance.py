"""Acceptance suite: nine checks covering formula oracles, gradients, exact
reduction identities, budget invariants, attack effectiveness, metric oracles,
the qualitative robustness trend, counterfactual validity, and pipeline
determinism. Each check prints one PASS/FAIL line (bypassing capture so the
lines always reach the terminal) and asserts its stated tolerance."""
import itertools
import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf

import robustrec.models.cer as cer_mod
from gradcheck import gradcheck
from robustrec import diffcore
from robustrec.aspects import build_matrices, build_x, build_y
from robustrec.dataset import SplitConfig, build_split, ingest_reviews
from robustrec.diffcore import Tensor
from robustrec.evalkit import (build_bed, evaluate, explanation_prf,
                               gold_explanations, ndcg_at, train_feature_sets)
from robustrec.harness.config import default_config
from robustrec.harness.sweep import run_sweep
from robustrec.models import CER, CERConfig, EFM, EFMConfig
from robustrec.models.cer import counterfactual_deltas
from robustrec.rng import SplitMix64, derive_seed
from robustrec.robustness import (DefenseConfig, TrainingConfig, attack_weights, attacked_copy,
                                  defense_loss, train_defended)
from robustrec.synth import SynthConfig, synth_jsonl, write_reviews


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture so the
    verdicts always appear in the terminal output, then asserted."""
    def _report(number: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def _tiny_dataset(seed=5):
    cfg = SynthConfig(n_users=8, n_items=40, n_features=10,
                      reviews_per_user=10, n_item_features=3, seed=seed)
    records = ingest_reviews(synth_jsonl(cfg))
    return build_split(records, SplitConfig(seed=seed, n_test_pos=2,
                                            n_test_neg=8, n_val_neg=4))


def _attach(model, split, X, Y, seed=0):
    model.attach(split, X, Y)
    model.reinit(seed)
    return model


def _tiny_efm(split, X, Y, seed=0):
    return _attach(EFM(split.n_users, split.n_items, split.n_features,
                       EFMConfig(n_factors=6, n_hidden=3, top_k_features=4)),
                   split, X, Y, seed)


def _tiny_cer(split, X, Y, seed=0, cf_steps=80):
    return _attach(CER(split.n_users, split.n_items, split.n_features,
                       CERConfig(hidden=(8, 4), top_k=3, cf_steps=cf_steps)),
                   split, X, Y, seed)


# --------------------------------------------------------------------------
# 1. Formula oracles
# --------------------------------------------------------------------------

def _oracle_x(t, n):
    with mp.workdps(50):
        return float(1 + (n - 1) * (2 / (1 + mp.exp(-mpf(t))) - 1)) if t > 0 else 0.0


def _oracle_y(t, w, n):
    with mp.workdps(50):
        return float(1 + (n - 1) / (1 + mp.exp(-mpf(t) * mpf(w)))) if t > 0 else 0.0


def test_criterion_1_formula_oracles(report):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.0, 30.0))
        if rng.uniform() < 0.05:
            t = 0.0
        w = float(rng.uniform(-1.0, 1.0))
        n = int(rng.integers(2, 11))
        got_x = float(build_x(np.array([[t]]), n)[0, 0])
        got_y = float(build_y(np.array([[t]]), np.array([[w]]), n)[0, 0])
        worst = max(worst, abs(got_x - _oracle_x(t, n)), abs(got_y - _oracle_y(t, w, n)))
    ok = worst <= 1e-9

    worked = [
        (float(build_x(np.array([[1.0]]), 5)[0, 0]), 2.848469),
        (float(build_y(np.array([[1.0]]), np.array([[0.0]]), 5)[0, 0]), 3.0),
        (float(build_y(np.array([[2.0]]), np.array([[1.0]]), 5)[0, 0]), 4.523188),
    ]
    worked_err = max(abs(got - want) for got, want in worked)
    ok = ok and worked_err <= 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"aspect formulas vs 50-digit reference, worst |err| "
                   f"{worst:.2e} (<=1e-9), worked values off by {worked_err:.2e} "
                   f"(<=1e-6), {elapsed:.2f}s (<1s)")


# --------------------------------------------------------------------------
# 2. Gradient suite
# --------------------------------------------------------------------------

PRIMITIVES = ("add", "sub", "mul", "matmul", "transpose", "sigmoid", "relu",
              "exp", "log", "softplus", "square", "tsum", "tmean",
              "concat_cols", "gather_rows", "clip")


def _primitive_fixture(op_name, rng):
    """A random differentiable-point fixture: (scalar-maker, leaf arrays)."""
    def arr(m, n, lo=-2.0, hi=2.0):
        return np.array([[rng.uniform() * (hi - lo) + lo for _ in range(n)]
                         for _ in range(m)])

    m, n = 2 + rng.randrange(3), 2 + rng.randrange(3)
    if op_name in ("add", "sub", "mul"):
        op = getattr(diffcore, op_name)
        # exercise broadcasting: same shape, a row, or a 0-d scalar
        others = [arr(m, n), arr(1, n), np.array(rng.uniform() * 4.0 - 2.0)]
        b = others[rng.randrange(3)]
        return (lambda a, b: diffcore.tsum(op(a, b)), [arr(m, n), b])
    if op_name == "matmul":
        k = 2 + rng.randrange(2)
        return (lambda a, b: diffcore.tsum(diffcore.matmul(a, b)), [arr(m, k), arr(k, n)])
    if op_name == "transpose":
        w = arr(n, m)
        return (lambda a: diffcore.tsum(diffcore.mul(diffcore.transpose(a), w)),
                [arr(m, n)])
    if op_name == "sigmoid":
        return (lambda a: diffcore.tsum(diffcore.sigmoid(a)), [arr(m, n)])
    if op_name == "relu":
        a = arr(m, n)
        a = np.where(np.abs(a) < 0.05, a + 0.1, a)  # keep off the origin kink
        return (lambda a: diffcore.tsum(diffcore.relu(a)), [a])
    if op_name == "exp":
        return (lambda a: diffcore.tsum(diffcore.exp(a)), [arr(m, n)])
    if op_name == "log":
        return (lambda a: diffcore.tsum(diffcore.log(a)), [arr(m, n, lo=0.2, hi=3.0)])
    if op_name == "softplus":
        return (lambda a: diffcore.tsum(diffcore.softplus(a)), [arr(m, n, lo=-20.0, hi=20.0)])
    if op_name == "square":
        return (lambda a: diffcore.tsum(diffcore.square(a)), [arr(m, n)])
    if op_name == "tsum":
        return (lambda a: diffcore.tsum(a), [arr(m, n)])
    if op_name == "tmean":
        return (lambda a: diffcore.tmean(a), [arr(m, n)])
    if op_name == "concat_cols":
        return (lambda a, b: diffcore.tsum(diffcore.square(diffcore.concat_cols(a, b))),
                [arr(m, n), arr(m, n)])
    if op_name == "gather_rows":
        idx = np.array([rng.randrange(m) for _ in range(4)], dtype=np.int64)
        return (lambda a: diffcore.tsum(diffcore.square(diffcore.gather_rows(a, idx))),
                [arr(m, n)])
    if op_name == "clip":
        a = arr(m, n)
        a = np.where(np.abs(np.abs(a) - 1.0) < 0.05, a * 0.5, a)  # off the +-1 kinks
        return (lambda a: diffcore.tsum(diffcore.clip(a, -1.0, 1.0)), [a])
    raise AssertionError(op_name)


def test_criterion_2_gradient_suite(report):
    start = time.perf_counter()
    counts = {}
    worst = 0.0
    for op_name in PRIMITIVES:
        # softplus tails carry gradients ~ sigmoid(-20) ~ 2e-9, below what
        # central differences resolve; hold those entries to an absolute floor
        floor = 1e-4 if op_name == "softplus" else 1e-7
        for seed in range(50):
            rng = SplitMix64(derive_seed(seed, op_name))
            make, arrays = _primitive_fixture(op_name, rng)
            worst = max(worst, gradcheck(make, arrays, rel=1e-4, floor=floor))
            counts[op_name] = counts.get(op_name, 0) + 1

    cfg = SynthConfig(n_users=5, n_items=20, n_features=6,
                      reviews_per_user=8, n_item_features=3, seed=5)
    split = build_split(ingest_reviews(synth_jsonl(cfg)),
                        SplitConfig(seed=5, n_test_pos=2, n_test_neg=4, n_val_neg=2))
    X, Y = build_matrices(split)
    for kind in ("efm", "cer"):
        for seed in range(50):
            if kind == "efm":
                model = EFM(split.n_users, split.n_items, split.n_features,
                            EFMConfig(n_factors=4, n_hidden=2, top_k_features=3))
            else:
                model = CER(split.n_users, split.n_items, split.n_features,
                            CERConfig(hidden=(6, 3), top_k=3))
            _attach(model, split, X, Y, seed=seed)
            batch = next(model.epoch_batches(SplitMix64(seed), 4))
            names = list(model.params)
            arrays = [model.params[n].data.copy() for n in names]
            if kind == "efm":
                # keep entries off the negativity-penalty kink; the summed
                # loss is large, so near-zero grads get an absolute floor
                arrays = [np.maximum(a, 1e-3) for a in arrays]

            def make_scalar(*leaves, model=model, names=names, batch=batch):
                model.params = dict(zip(names, leaves))
                return model.loss(batch)

            floor = 1e-4 if kind == "efm" else 1e-7
            worst = max(worst, gradcheck(make_scalar, arrays, rel=1e-4, floor=floor))
            counts[kind] = counts.get(kind, 0) + 1

    elapsed = time.perf_counter() - start
    ok = all(v >= 50 for v in counts.values()) and worst <= 1e-4 and elapsed < 30.0
    report(2, ok, f"{len(PRIMITIVES)} primitives + 2 losses x 50 finite-difference "
                   f"fixtures, worst rel err {worst:.2e} (<=1e-4), {elapsed:.1f}s (<30s)")


# --------------------------------------------------------------------------
# 3. Reduction identities
# --------------------------------------------------------------------------

def test_criterion_3_reduction_identities(report):
    start = time.perf_counter()
    split = _tiny_dataset()
    X, Y = build_matrices(split)
    five = TrainingConfig(batch_size=8, lr=0.01, max_epochs=5, patience=99)

    # (a) lambda = 0 (or eps_d = 0) training is bit-identical to vanilla
    bit_identical = True
    for make in (_tiny_efm, _tiny_cer):
        ref = make(split, X, Y)
        train_defended(ref, split, DefenseConfig(), five, seed=0)
        for defense in (DefenseConfig(lam=0.0, eps_d=0.25),
                        DefenseConfig(lam=0.5, eps_d=0.0)):
            other = make(split, X, Y)
            result = train_defended(other, split, defense, five, seed=0)
            bit_identical &= result.epochs_run == 5
            for name, ref_arr in ref.param_arrays().items():
                bit_identical &= bool(np.array_equal(other.param_arrays()[name], ref_arr))

    # (b) eps_d = 0 makes the combined loss equal the clean loss per step
    per_step = True
    steps = 0
    model = _tiny_efm(split, X, Y)
    for batch in model.epoch_batches(SplitMix64(7), 8):
        clean = float(model.loss(batch).data)
        mixed = float(defense_loss(model, batch, DefenseConfig(lam=0.7, eps_d=0.0)).data)
        per_step &= mixed == clean
        steps += 1
    per_step &= steps > 0

    # (c) a zero-budget attack leaves every evaluation metric bit-identical
    metrics_equal = True
    gold = gold_explanations(split)
    feats = train_feature_sets(split)
    for make in (_tiny_efm, _tiny_cer):
        model = make(split, X, Y)
        train_defended(model, split, DefenseConfig(), TrainingConfig(
            batch_size=8, lr=0.01, max_epochs=2, patience=99), seed=0)
        bed = build_bed(model, split)
        null = attack_weights(model, DefenseConfig(), 0.0, seed=0)
        twin = attacked_copy(model, null.delta)
        a = evaluate(model, split, bed, gold, feats)
        b = evaluate(twin, split, bed, gold, feats)
        for field in ("ndcg", "expl_pr", "expl_re", "expl_f1",
                      "n_users", "n_pairs", "n_skipped_users"):
            metrics_equal &= getattr(a, field) == getattr(b, field)

    elapsed = time.perf_counter() - start
    ok = bit_identical and per_step and metrics_equal and elapsed < 60.0
    report(3, ok, f"lambda=0 training bit-identical {bit_identical}, eps_d=0 loss "
                   f"equal per step over {steps} steps {per_step}, eps_a=0 metrics "
                   f"bit-identical {metrics_equal}, {elapsed:.1f}s (<1min)")


# --------------------------------------------------------------------------
# 4. Budget invariants
# --------------------------------------------------------------------------

def test_criterion_4_budget_invariants(report):
    cfg = SynthConfig(n_users=40, n_items=160, n_features=12,
                      reviews_per_user=14, n_item_features=3, seed=11)
    split = build_split(ingest_reviews(synth_jsonl(cfg)),
                        SplitConfig(seed=11, n_test_pos=3, n_test_neg=40, n_val_neg=8))
    X, Y = build_matrices(split)
    eps_d = 0.25
    violations = 0
    steps = 0

    def watch(delta_y, y_adv):
        nonlocal violations, steps
        steps += 1
        if float(np.abs(delta_y).max()) > eps_d:
            violations += 1
        if y_adv.min() < 0.0 or y_adv.max() > float(split.n_rating):
            violations += 1

    model = EFM(split.n_users, split.n_items, split.n_features,
                EFMConfig(n_factors=8, n_hidden=4))
    model.attach(split, X, Y)
    train_defended(model, split, DefenseConfig(lam=0.5, eps_d=eps_d),
                   TrainingConfig(batch_size=16, lr=0.02, max_epochs=8, patience=8),
                   seed=0, on_perturbation=watch)

    tsplit = _tiny_dataset()
    tX, tY = build_matrices(tsplit)
    targets = [model, _tiny_cer(tsplit, tX, tY)]
    attack_checks = 0
    for target in targets:
        for eps_a in (0.25, 0.5, 1.0, 2.0):
            res = attack_weights(target, DefenseConfig(lam=0.5, eps_d=eps_d),
                                 eps_a, seed=3)
            attack_checks += 1
            if res.grad_norm > 1e-12:
                if not (eps_a - 1e-6 <= res.delta_norm <= eps_a):
                    violations += 1

    ok = violations == 0 and steps > 100 and attack_checks == 8
    report(4, ok, f"{steps} defense steps and {attack_checks} attacks checked, "
                   f"{violations} budget violations (must be 0)")


# --------------------------------------------------------------------------
# 5. Attack effectiveness
# --------------------------------------------------------------------------

def test_criterion_5_attack_is_ascent(report):
    start = time.perf_counter()
    ascents = 0
    total = 0
    for ds_seed in (5, 6, 7, 8):
        split = _tiny_dataset(seed=ds_seed)
        X, Y = build_matrices(split)
        for model_seed in range(25):
            model = _tiny_efm(split, X, Y)
            train_defended(model, split, DefenseConfig(), TrainingConfig(
                batch_size=8, lr=0.01, max_epochs=2, patience=99), seed=model_seed)
            cfg = DefenseConfig()
            res = attack_weights(model, cfg, 0.1, seed=model_seed)
            attacked = attacked_copy(model, res.delta)

            def mean_loss(m):
                vals = [float(defense_loss(m, b, cfg).data)
                        for b in m.epoch_batches(SplitMix64(1234), 16)]
                return sum(vals) / len(vals)

            total += 1
            if mean_loss(attacked) >= mean_loss(model):
                ascents += 1
    elapsed = time.perf_counter() - start
    ok = total == 100 and ascents >= 95
    report(5, ok, f"loss rose under the eps_a=0.1 attack in {ascents}/{total} "
                   f"fixtures (need >=95), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. Metric oracles
# --------------------------------------------------------------------------

def test_criterion_6_metric_oracles(report):
    def brute(ranked, relevant, k):
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

    exact = True
    compared = 0
    for n in range(1, 7):
        items = list(range(n))
        for r in range(1, min(3, n) + 1):
            for rel in itertools.combinations(items, r):
                rel = set(rel)
                for perm in itertools.permutations(items):
                    for k in (1, max(1, n // 2), n):
                        exact &= ndcg_at(perm, rel, k) == brute(perm, rel, k)
                        compared += 1

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
        ([1, 1, 2], {1, 2}, 1.0, 1.0, 1.0),
    ]
    prf_exact = all(explanation_prf(pred, gold) == (p, r, f)
                    for pred, gold, p, r, f in fixtures)

    identity = all(explanation_prf([a], {b})[0] == explanation_prf([a], {b})[1]
                   for a in range(8) for b in range(8))

    ok = exact and compared > 90000 and prf_exact and identity
    report(6, ok, f"NDCG exact on {compared} brute-forced rankings (<=6 candidates, "
                   f"<=3 relevant), 10 P/R/F1 fixtures exact: {prf_exact}, "
                   f"singleton P=R identity: {identity}")


# --------------------------------------------------------------------------
# 7. Qualitative robustness trend
# --------------------------------------------------------------------------

def _trend_counts(make_model, training):
    wins = oks = 0
    for s in range(5):
        data = SynthConfig(seed=s, n_item_features=3, p_good=0.75,
                           p_sentiment_flip=0.15)
        split = build_split(ingest_reviews(synth_jsonl(data)), SplitConfig(seed=s))
        X, Y = build_matrices(split)
        gold = gold_explanations(split)
        feats = train_feature_sets(split)
        bed = None
        f1 = {}
        for name, defense in (("vanilla", DefenseConfig()),
                              ("defended", DefenseConfig(lam=0.5, eps_d=0.25))):
            model = make_model(split)
            model.attach(split, X, Y)
            train_defended(model, split, defense, training, seed=s)
            if bed is None:
                bed = build_bed(model, split)  # the vanilla run fixes the bed
            clean = evaluate(model, split, bed, gold, feats)
            delta = attack_weights(model, defense, 1.0, seed=s).delta
            hit = evaluate(attacked_copy(model, delta), split, bed, gold, feats)
            f1[name] = (clean.expl_f1, hit.expl_f1)
        wins += int(f1["defended"][1] > f1["vanilla"][1])
        oks += int(f1["defended"][0] >= 0.7 * f1["vanilla"][0])
    return wins, oks


def test_criterion_7_robustness_trend(report):
    start = time.perf_counter()
    efm_wins, efm_oks = _trend_counts(
        lambda sp: EFM(sp.n_users, sp.n_items, sp.n_features, EFMConfig()),
        TrainingConfig(batch_size=64, lr=0.03, max_epochs=40, patience=10))
    cer_wins, cer_oks = _trend_counts(
        lambda sp: CER(sp.n_users, sp.n_items, sp.n_features, CERConfig()),
        TrainingConfig(batch_size=64, lr=0.003, max_epochs=20, patience=5))
    elapsed = time.perf_counter() - start
    ok = (efm_wins >= 4 and efm_oks >= 4 and cer_wins >= 4 and cer_oks >= 4
          and elapsed < 15 * 60.0)
    report(7, ok, f"defense keeps higher attacked Expl F1 in {efm_wins}/5 (EFM) and "
                   f"{cer_wins}/5 (CER) seeds, clean F1 within 70% in {efm_oks}/5 and "
                   f"{cer_oks}/5 (all need >=4), {elapsed / 60.0:.1f}min (<15min)")


# --------------------------------------------------------------------------
# 8. Counterfactual validity
# --------------------------------------------------------------------------

def test_criterion_8_counterfactual_validity(report, monkeypatch):
    split = _tiny_dataset()
    X, Y = build_matrices(split)
    model = _tiny_cer(split, X, Y, cf_steps=150)
    train_defended(model, split, DefenseConfig(), TrainingConfig(
        batch_size=8, lr=0.01, max_epochs=3, patience=99), seed=0)

    calls = []
    real = counterfactual_deltas

    def spy(score_grad, pairs, n_features, thresholds, margins, **kw):
        deltas, converged, finals = real(score_grad, pairs, n_features, thresholds,
                                         margins, **kw)
        # re-score every returned delta independently of the optimizer's
        # record, through the taped forward the model trains with
        for (u, v), delta, t, m, c in zip(pairs, deltas, thresholds, margins, converged):
            final = float(model._forward(Tensor(model.X[u:u + 1]),
                                         Tensor(model.Y[v:v + 1] + delta[None, :]),
                                         model.params).item())
            calls.append((float(t), float(m), bool(c), final))
        return deltas, converged, finals

    monkeypatch.setattr(cer_mod, "counterfactual_deltas", spy)
    model.explain_pairs([(u, int(v)) for u in split.test_users.tolist()
                         for v in model.candidate_items(u)[:3]], require_recommended=False)

    converged = [(t, m, f) for t, m, c, f in calls if c]
    bound_ok = all(f <= t - m + 1e-6 for t, m, f in converged)

    w = np.array([3.0, 1.0])
    deltas, conv, _ = real(lambda d: (d @ w + 1.0, np.broadcast_to(w, d.shape)), [(0, 0)],
                           2, np.array([0.0]), np.array([0.1]), steps=300, lr=0.05)
    delta, conv = deltas[0], bool(conv[0])
    head = min(range(2), key=lambda f: (-abs(delta[f]), f))
    linear_ok = conv and head == 0 and delta[0] < 0.0

    ok = bound_ok and len(calls) > 0 and len(converged) > 0 and linear_ok
    report(8, ok, f"{len(converged)}/{len(calls)} counterfactuals converged, all "
                   f"final scores <= threshold - margin + 1e-6: {bound_ok}; linear "
                   f"2-feature fixture heads with the heaviest-gradient feature: "
                   f"{linear_ok}")


# --------------------------------------------------------------------------
# 9. Pipeline determinism
# --------------------------------------------------------------------------

def test_criterion_9_sweep_determinism(report, tmp_path):
    start = time.perf_counter()
    corpus = tmp_path / "reviews.jsonl"
    write_reviews(corpus, SynthConfig(n_users=20, n_items=200, n_features=10,
                                      reviews_per_user=20, seed=3))
    cfg = default_config()
    cfg["dataset"]["path"] = str(corpus)
    cfg["model"]["efm"].update(n_factors=6, n_hidden=3)
    cfg["model"]["cer"].update(hidden=[8, 4], cf_steps=30)
    cfg["training"].update(max_epochs=2, lr=0.01, batch_size=16)
    cfg["attack"]["eps_a_grid"] = [0.0, 0.5]
    cfg["sweep"].update(algos=["efm", "cer"], lambdas=[0.0, 0.5],
                        eps_ds=[0.25], seeds=[0])

    first = run_sweep(cfg, tmp_path / "cache_a").read_bytes()
    second = run_sweep(cfg, tmp_path / "cache_b").read_bytes()
    elapsed = time.perf_counter() - start
    ok = first == second and len(first) > 0
    report(9, ok, f"two from-scratch sweep runs wrote byte-identical results.csv "
                   f"({len(first)} bytes), {elapsed:.1f}s")
