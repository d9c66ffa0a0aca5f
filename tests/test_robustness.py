"""Defense objective, weight attack, and their exact reduction identities."""
import hashlib

import numpy as np
import pytest

import robustrec.harness.sweep as sweep
import robustrec.robustness as rob
from robustrec.diffcore import Tensor
from robustrec.harness.config import default_config
from robustrec.models import EFM, EFMConfig
from robustrec.aspects import build_matrices
from robustrec.dataset import SplitConfig, build_split, ingest_reviews
from robustrec.models import build_model
from robustrec.robustness import (DefenseConfig, DivergenceError, TrainingConfig,
                                  apply_attack, attack_gradient, attack_weights,
                                  attacked_copy, clip_perturbed_y, defended_loss_grad,
                                  defense_loss, fgsm_delta_y, scale_attack, train_defended)
from robustrec.rng import SplitMix64, derive_seed
from robustrec.synth import SynthConfig, synth_jsonl


def _batch(model, seed=0, batch_size=6):
    return next(model.epoch_batches(SplitMix64(seed), batch_size))


def test_fgsm_matches_y_gradient_sign(efm_tiny):
    batch = _batch(efm_tiny)
    eps = 0.25
    delta = fgsm_delta_y(efm_tiny, batch, eps)
    y_leaf = Tensor(efm_tiny.Y, requires_grad=True)
    efm_tiny.loss(batch, Y=y_leaf).backward()
    np.testing.assert_array_equal(delta, eps * np.sign(y_leaf.grad))
    assert set(np.unique(delta)) <= {-eps, 0.0, eps}
    assert np.abs(delta).max() <= eps


def test_fgsm_leaves_parameter_grads_alone(efm_tiny):
    batch = _batch(efm_tiny)
    sentinels = {}
    for name, p in efm_tiny.params.items():
        p.grad = np.full_like(p.data, 7.25)
        sentinels[name] = p.grad
    fgsm_delta_y(efm_tiny, batch, 0.1)
    for name, p in efm_tiny.params.items():
        assert p.grad is sentinels[name]
        assert np.all(p.grad == 7.25)


def test_clip_keeps_aspects_in_range():
    rng = np.random.default_rng(0)
    Y = rng.uniform(0.0, 5.0, (6, 4))
    delta = rng.uniform(-10.0, 10.0, (6, 4))
    out = clip_perturbed_y(Y, delta, 5)
    assert out.min() >= 0.0 and out.max() <= 5.0
    np.testing.assert_array_equal(out, np.clip(Y + delta, 0.0, 5.0))


def test_defense_loss_short_circuits_bit_exact(efm_tiny):
    batch = _batch(efm_tiny, seed=2)
    clean = float(efm_tiny.loss(batch).data)
    calls = []
    for cfg in (DefenseConfig(), DefenseConfig(lam=0.0, eps_d=0.25),
                DefenseConfig(lam=0.5, eps_d=0.0)):
        val = float(defense_loss(efm_tiny, batch, cfg,
                                 on_perturbation=lambda *a: calls.append(a)).data)
        assert val == clean
    assert calls == []  # the adversarial branch never ran


def test_defense_loss_mixes_clean_and_adversarial(efm_tiny):
    batch = _batch(efm_tiny, seed=3)
    cfg = DefenseConfig(lam=0.5, eps_d=0.25)
    seen = []
    total = float(defense_loss(efm_tiny, batch, cfg,
                               on_perturbation=lambda d, y: seen.append((d, y))).data)
    assert len(seen) == 1
    delta_y, y_adv = seen[0]
    assert np.abs(delta_y).max() <= cfg.eps_d
    assert y_adv.min() >= 0.0 and y_adv.max() <= float(efm_tiny.n_rating)
    clean = float(efm_tiny.loss(batch).data)
    adv = float(efm_tiny.loss(batch, Y=y_adv).data)
    assert total == pytest.approx((1.0 - cfg.lam) * clean + cfg.lam * adv, rel=1e-15)
    assert total != clean


def _taped_defense_grad(model, batch, cfg):
    for p in model.params.values():
        p.grad = None
    loss = defense_loss(model, batch, cfg)
    loss.backward()
    return float(loss.data), {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("algo", ["efm", "cer"])
def test_penalty_grad_is_the_textbook_penalty(algo, efm_tiny, cer_tiny):
    model = efm_tiny if algo == "efm" else cer_tiny
    cfg = model.config
    for p in model.params.values():
        p.data -= 0.1  # negative entries put EFM's non-negativity term to work
    arrays = {name: p.data for name, p in model.params.items()}
    assert all((P < 0).any() for P in arrays.values())
    penalty = model.penalty_grad()
    assert list(penalty.grads) == list(arrays)
    reg = neg = 0.0
    for name, P in arrays.items():
        below = np.minimum(P, 0.0)
        reg, neg = reg + (P * P).sum(), neg + (below * below).sum()
        if algo == "efm":
            want = 2.0 * (cfg.lam_reg * P + cfg.lam_nn * below)
        else:
            want = 2 * cfg.lam_reg * P
        assert penalty.grads[name].tobytes() == want.tobytes(), name
    want_terms = (reg, neg) if algo == "efm" else (reg,)
    np.testing.assert_allclose(penalty.terms, want_terms, rtol=1e-14, atol=0)


@pytest.mark.parametrize("algo", ["efm", "cer"])
@pytest.mark.parametrize("lam, eps_d", [(0.0, 0.0), (0.0, 0.25), (0.5, 0.0), (0.5, 0.25)])
def test_defended_loss_grad_matches_tape(algo, lam, eps_d, efm_tiny, cer_tiny):
    model = efm_tiny if algo == "efm" else cer_tiny
    cfg = DefenseConfig(lam=lam, eps_d=eps_d)
    for seed in range(3):
        batch = _batch(model, seed=seed)
        seen = []
        penalty = model.penalty_grad()
        loss, grads = defended_loss_grad(model, batch, cfg, penalty,
                                         on_perturbation=lambda d, y: seen.append((d, y)))
        want_loss, want = _taped_defense_grad(model, batch, cfg)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert list(grads) == list(model.params)
        for name, g in want.items():
            np.testing.assert_allclose(grads[name], g, rtol=1e-10, atol=1e-15)
        if lam == 0.0 or eps_d == 0.0:
            assert seen == []  # the clean pass alone
            clean_loss, clean, _ = model.loss_grad(batch, penalty)
            assert loss == clean_loss
            for name, g in clean.items():
                np.testing.assert_array_equal(grads[name], g)
        else:
            assert len(seen) == 1
            delta_y, y_adv = seen[0]
            np.testing.assert_array_equal(delta_y, fgsm_delta_y(model, batch, eps_d))
            np.testing.assert_array_equal(y_adv, clip_perturbed_y(model.Y, delta_y,
                                                                  model.n_rating))


@pytest.mark.parametrize("algo", ["efm", "cer"])
def test_fgsm_sign_matches_tape_over_a_full_epoch(algo):
    # a sign flip at a near-zero dL/dY is how the hand path could part from
    # the tape; check every batch of one epoch on the default synthetic corpus
    split = build_split(ingest_reviews(synth_jsonl(SynthConfig())), SplitConfig(seed=0))
    X, Y = build_matrices(split)
    model = build_model(algo, split, {})
    model.attach(split, X, Y)
    model.reinit(0)
    eps_d, batches = 0.25, 0
    for batch in model.epoch_batches(SplitMix64(derive_seed(0, "epoch", 1)), 32):
        _, _, dy = model.loss_grad(batch, model.penalty_grad(), want_dy=True)
        want = fgsm_delta_y(model, batch, eps_d)
        assert np.array_equal(eps_d * np.sign(dy), want), f"sign differs in batch {batches}"
        batches += 1
    assert batches == 119


@pytest.mark.parametrize("algo", ["efm", "cer"])
@pytest.mark.parametrize("lam, eps_d", [(0.0, 0.0), (0.5, 0.25)])
def test_attack_gradient_matches_tape_accumulation(algo, lam, eps_d, efm_tiny, cer_tiny):
    model = efm_tiny if algo == "efm" else cer_tiny
    cfg = DefenseConfig(lam=lam, eps_d=eps_d)
    for p in model.params.values():
        p.grad = None
    for batch in model.epoch_batches(SplitMix64(derive_seed(4, "attack")), 8):
        defense_loss(model, batch, cfg).backward()  # accumulates into .grad
    want = {name: p.grad for name, p in model.params.items()}
    xi, grad_norm = attack_gradient(model, cfg, seed=4, batch_size=8)
    assert list(xi) == list(model.params)
    for name, g in want.items():
        np.testing.assert_allclose(xi[name], g, rtol=1e-10, atol=1e-15)
    want_norm = np.sqrt(sum(float((g * g).sum()) for g in want.values()))
    assert grad_norm == pytest.approx(want_norm, rel=1e-12)


@pytest.mark.parametrize("algo", ["efm", "cer"])
def test_penalty_is_computed_once_per_parameter_set(algo, efm_tiny, cer_tiny, tiny_split,
                                                    monkeypatch):
    # Theta moves every training step and stays fixed over an attack pass
    model = efm_tiny if algo == "efm" else cer_tiny
    defense = DefenseConfig(lam=0.5, eps_d=0.25)
    penalties, passes = [], []
    real_penalty, real_pass = model.penalty_grad, rob.defended_loss_grad

    def penalty_spy():
        penalties.append(real_penalty())
        return penalties[-1]

    def pass_spy(model, batch, cfg, penalty, on_perturbation=None):
        passes.append(penalty)
        return real_pass(model, batch, cfg, penalty, on_perturbation)

    monkeypatch.setattr(model, "penalty_grad", penalty_spy)
    monkeypatch.setattr(rob, "defended_loss_grad", pass_spy)
    train_defended(model, tiny_split, defense, TrainingConfig(batch_size=8, max_epochs=2),
                   seed=0)
    assert len(passes) == len(penalties) > 2
    assert all(used is made for used, made in zip(passes, penalties))
    penalties.clear()
    passes.clear()
    attack_gradient(model, defense, seed=0, batch_size=8)
    assert len(penalties) == 1 and len(passes) > 2
    assert all(used is penalties[0] for used in passes)


def test_training_records_mean_loss_per_epoch(efm_tiny, tiny_split):
    result = train_defended(efm_tiny, tiny_split, DefenseConfig(lam=0.5, eps_d=0.25),
                            _small_training(), seed=0)
    assert len(result.train_loss) == result.epochs_run == 5
    assert all(np.isfinite(result.train_loss))


def test_attack_norm_meets_budget(efm_tiny):
    for eps in (0.1, 1.0, 3.0):
        res = attack_weights(efm_tiny, DefenseConfig(), eps, seed=0)
        assert res.grad_norm > 1e-12
        concat = np.sqrt(sum(float((d * d).sum()) for d in res.delta.values()))
        assert eps - 1e-6 <= concat <= eps
        assert res.delta_norm == pytest.approx(concat, rel=0.0, abs=0.0)
        assert set(res.delta) == set(efm_tiny.params)
        for name, d in res.delta.items():
            assert d.shape == efm_tiny.params[name].data.shape


def test_scaled_attack_never_exceeds_budget_by_rounding():
    rng = np.random.default_rng(0)
    xi = {"a": rng.normal(size=(7, 5)), "b": rng.normal(size=11)}
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in xi.values())))
    overshoots = 0
    for eps in rng.uniform(0.01, 10.0, 300):
        scale = eps / norm
        naive = np.sqrt(sum(float(((scale * g) ** 2).sum()) for g in xi.values()))
        overshoots += naive > eps
        res = scale_attack(rob.AttackGradient(xi, norm), eps)
        concat = np.sqrt(sum(float((d * d).sum()) for d in res.delta.values()))
        assert res.delta_norm == concat
        assert eps - 1e-12 <= concat <= eps
    assert overshoots > 0  # the plain scaling would have broken the budget


def test_scaled_attack_stops_on_a_gradient_with_a_wrong_norm():
    rng = np.random.default_rng(0)
    xi = {"a": rng.normal(size=(7, 5)), "b": rng.normal(size=11)}
    with pytest.raises(FloatingPointError, match="attack: .* ulp steps"):
        scale_attack(rob.AttackGradient(xi, rob.params_norm(xi) / 2.0), 1.0)


def test_attack_zero_budget_returns_exact_copies(efm_tiny):
    res = attack_weights(efm_tiny, DefenseConfig(), 0.0, seed=0)
    assert res.delta_norm == 0.0
    assert all(not d.any() for d in res.delta.values())
    before = efm_tiny.param_arrays()
    copy = attacked_copy(efm_tiny, res.delta)
    for name, arr in copy.param_arrays().items():
        assert arr is not before[name]
        np.testing.assert_array_equal(arr, before[name])
    u = next(iter(range(efm_tiny.n_users)))
    items = np.arange(5)
    np.testing.assert_array_equal(copy.scores(u, items), efm_tiny.scores(u, items))


def test_attack_is_ascent_to_first_order(efm_tiny):
    cfg = DefenseConfig()
    res = attack_weights(efm_tiny, cfg, 0.1, seed=0)
    attacked = attacked_copy(efm_tiny, res.delta)

    def full_loss(model):
        total, n = 0.0, 0
        for batch in model.epoch_batches(SplitMix64(99), 16):
            total += float(defense_loss(model, batch, cfg).data)
            n += 1
        return total / n

    assert full_loss(attacked) >= full_loss(efm_tiny)


def test_attack_restores_preexisting_grads(efm_tiny):
    marks = {}
    for name, p in efm_tiny.params.items():
        p.grad = np.full_like(p.data, -3.5)
        marks[name] = p.grad
    attack_weights(efm_tiny, DefenseConfig(), 0.5, seed=1)
    for name, p in efm_tiny.params.items():
        assert p.grad is marks[name]
        assert np.all(p.grad == -3.5)


def test_attacked_copy_shares_attachment_keeps_original(efm_tiny):
    res = attack_weights(efm_tiny, DefenseConfig(), 1.0, seed=0)
    before = {k: v.copy() for k, v in efm_tiny.param_arrays().items()}
    attacked = attacked_copy(efm_tiny, res.delta)
    assert attacked.X is efm_tiny.X and attacked.Y is efm_tiny.Y
    for name, arr in efm_tiny.param_arrays().items():
        np.testing.assert_array_equal(arr, before[name])
        assert not np.array_equal(attacked.param_arrays()[name], arr)
        assert not np.shares_memory(attacked.params[name].data, efm_tiny.params[name].data)


def test_apply_attack_validates_names_and_shapes(efm_tiny):
    params = efm_tiny.param_arrays()
    delta = {name: np.zeros_like(a) for name, a in params.items()}
    bad = dict(delta)
    bad.pop(next(iter(bad)))
    with pytest.raises(ValueError, match="names"):
        apply_attack(params, bad)
    first = next(iter(delta))
    bad = dict(delta)
    bad[first] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        apply_attack(params, bad)


def _small_training():
    return TrainingConfig(batch_size=8, lr=0.01, max_epochs=5, patience=5)


def test_lambda_zero_training_is_bit_identical_to_vanilla(tiny_split, tiny_matrices):
    X, Y = tiny_matrices

    def trained(defense):
        model = EFM(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                    EFMConfig(n_factors=6, n_hidden=3, top_k_features=4))
        model.attach(tiny_split, X, Y)
        train_defended(model, tiny_split, defense, _small_training(), seed=0)
        return model.param_arrays()

    vanilla = trained(DefenseConfig())
    for defense in (DefenseConfig(lam=0.0, eps_d=0.25), DefenseConfig(lam=0.5, eps_d=0.0)):
        other = trained(defense)
        for name in vanilla:
            np.testing.assert_array_equal(other[name], vanilla[name])
    defended = trained(DefenseConfig(lam=0.5, eps_d=0.25))
    assert any(not np.array_equal(defended[name], vanilla[name]) for name in vanilla)


def test_defense_budget_invariants_over_training(tiny_split, tiny_matrices):
    X, Y = tiny_matrices
    model = EFM(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                EFMConfig(n_factors=6, n_hidden=3, top_k_features=4))
    model.attach(tiny_split, X, Y)
    eps_d = 0.25
    worst_inf = 0.0
    lo, hi = np.inf, -np.inf
    steps = 0

    def watch(delta_y, y_adv):
        nonlocal worst_inf, lo, hi, steps
        worst_inf = max(worst_inf, float(np.abs(delta_y).max()))
        lo = min(lo, float(y_adv.min()))
        hi = max(hi, float(y_adv.max()))
        steps += 1

    train_defended(model, tiny_split, DefenseConfig(lam=0.5, eps_d=eps_d),
                   _small_training(), seed=0, on_perturbation=watch)
    assert steps > 0
    assert worst_inf <= eps_d
    assert lo >= 0.0 and hi <= float(tiny_split.n_rating)


@pytest.mark.parametrize("algo", ["efm", "cer"])
def test_nan_dl_dy_names_the_defense_perturbation(algo, efm_tiny, cer_tiny, tiny_split):
    model = {"efm": efm_tiny, "cer": cer_tiny}[algo]
    batch = _batch(model)
    model.Y = model.Y.copy()
    model.Y[batch.items[0], 0] = np.nan  # an entry the defended batch touches
    with pytest.raises(DivergenceError, match="defense perturbation: dL/dY is NaN"):
        defended_loss_grad(model, batch, DefenseConfig(lam=0.5, eps_d=0.25),
                           model.penalty_grad())
    # the clean pass alone has no perturbation to blame
    loss, _ = defended_loss_grad(model, batch, DefenseConfig(), model.penalty_grad())
    assert np.isnan(loss)
    # training retries it as any divergence
    with pytest.raises(DivergenceError, match="1 retries"):
        train_defended(model, tiny_split, DefenseConfig(lam=0.5, eps_d=0.25),
                       TrainingConfig(batch_size=8, max_epochs=1, patience=1, retries=1),
                       seed=0)


def test_train_defended_halves_lr_on_divergence(efm_tiny, tiny_split, monkeypatch):
    attempts = []
    real = rob._train_once

    def flaky(model, split, defense, training, lr, seed, on_perturbation=None):
        attempts.append(lr)
        if len(attempts) < 3:
            raise DivergenceError("boom")
        return real(model, split, defense, training, lr, seed, on_perturbation)

    monkeypatch.setattr(rob, "_train_once", flaky)
    result = train_defended(efm_tiny, tiny_split, DefenseConfig(),
                            TrainingConfig(batch_size=8, lr=0.04, max_epochs=1,
                                           patience=2, retries=2), seed=0)
    assert attempts == [0.04, 0.02, 0.01]
    assert result.lr_used == 0.01
    assert result.restarts == 2


def test_train_defended_gives_up_after_retries(efm_tiny, tiny_split, monkeypatch):
    def always(model, split, defense, training, lr, seed, on_perturbation=None):
        raise DivergenceError("boom")

    monkeypatch.setattr(rob, "_train_once", always)
    with pytest.raises(DivergenceError, match="2 retries"):
        train_defended(efm_tiny, tiny_split, DefenseConfig(),
                       TrainingConfig(retries=2), seed=0)


def _run(cfg, cell, model, tmp_path):
    """A sweep `Run` of `cell` whose model is `model`: the review file only
    names the run, and the dataset is never loaded."""
    reviews = tmp_path / "reviews.jsonl"
    reviews.write_text("")
    cfg["dataset"]["path"] = str(reviews)
    run = sweep.Run(sweep.Sweep(cfg, tmp_path / "cache"), cell)
    run.model = model
    return run


def test_attack_save_load_roundtrip(efm_tiny, tmp_path, monkeypatch):
    cfg = default_config()
    cfg["attack"]["seed"] = 3
    cell = sweep.SweepCell("efm", 0.5, 0.25, 0)
    res = attack_weights(efm_tiny, DefenseConfig(lam=0.5, eps_d=0.25), 1.5, seed=3)
    run = _run(cfg, cell, efm_tiny, tmp_path)
    built, path = scale_attack(run.gradient, 1.5), run.attack_path
    assert path.parent == run.dir and path.name.startswith("attack_")
    monkeypatch.setattr(sweep, "attack_gradient", lambda *a, **k: pytest.fail("attack rerun"))
    run = _run(cfg, cell, efm_tiny, tmp_path)
    loaded, again = scale_attack(run.gradient, 1.5), run.attack_path
    assert again == path
    for got in (built, loaded):
        assert got.grad_norm == res.grad_norm
        assert got.delta_norm == res.delta_norm
        assert set(got.delta) == set(res.delta)
        for name in res.delta:
            np.testing.assert_array_equal(got.delta[name], res.delta[name])


def test_attack_rejects_non_finite_gradient(cer_tiny):
    # a NaN weight poisons the full-data gradient; the attack must stop
    # instead of scaling it into a NaN delta
    cer_tiny.params["W2"].data[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="attack.*W2"):
        attack_weights(cer_tiny, DefenseConfig(), 0.5, seed=0)


@pytest.mark.parametrize("algo", ["efm", "cer"])
@pytest.mark.parametrize("lam, eps_d", [(0.0, 0.0), (0.5, 0.25)])
def test_scaled_gradient_matches_attack_weights_bit_for_bit(algo, lam, eps_d, efm_tiny,
                                                            cer_tiny, tmp_path):
    # the sweep builds Xi once (then loads it) and rescales it per budget;
    # every budget must give exactly the one-call attack
    model = efm_tiny if algo == "efm" else cer_tiny
    cfg = default_config()
    cell = sweep.SweepCell(algo, lam, eps_d, 0)
    defense = DefenseConfig(lam=lam, eps_d=eps_d)
    for eps in cfg["attack"]["eps_a_grid"]:
        run = _run(cfg, cell, model, tmp_path)
        got = scale_attack(run.gradient, eps)
        want = attack_weights(model, defense, eps, seed=0)
        assert got.grad_norm == want.grad_norm and got.delta_norm == want.delta_norm
        assert sorted(got.delta) == sorted(want.delta)
        for name, d in want.delta.items():
            assert got.delta[name].tobytes() == d.tobytes(), (eps, name)
    assert len(list(run.dir.glob("attack_*"))) == 1


@pytest.mark.parametrize("eps_a", [-0.5, -1e-300, float("nan"), float("inf")])
def test_attack_rejects_invalid_budget(efm_tiny, eps_a):
    gradient = attack_gradient(efm_tiny, DefenseConfig(), seed=0, batch_size=32)
    with pytest.raises(ValueError, match="eps_a"):
        scale_attack(gradient, eps_a)
    with pytest.raises(ValueError, match="eps_a"):
        attack_weights(efm_tiny, DefenseConfig(), eps_a, seed=0)


def _digest(arrays: dict, *extra: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in extra:
        h.update(arr.tobytes())
    for name, arr in arrays.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# sha256 of one 1-epoch lambda=0.5, eps_d=0.25 run on tiny_split: (the
# epoch's mean loss and the trained parameters, ||Xi|| and Xi). Any moved bit
# fails. Both entries were recorded from the Adam that folds its bias
# corrections into a step size and a scale.
GOLDEN_DEFENDED_RUN = {
    "efm": ("c43500d22395167c3a14856f36d4425ef27617ecce2244254b27e0d46c278ef7",
            "53a4c3a53d7bcf4f87b2abc7154f9f04488c41b39ec53fdfeb5ef61b2fb09064"),
    "cer": ("363e62c0f67b51ab706316bb2b3baf9063a62df44bfa704684156d8f31c36663",
            "dd58b1ca396f975ca90c6fc3b50d9b10727b63db6cda1a7a76e014c764e8a578"),
}


@pytest.mark.parametrize("algo", ["efm", "cer"])
def test_defended_run_and_attack_gradient_are_pinned(algo, efm_tiny, cer_tiny, tiny_split):
    model = efm_tiny if algo == "efm" else cer_tiny
    defense = DefenseConfig(lam=0.5, eps_d=0.25)
    result = train_defended(model, tiny_split, defense,
                            TrainingConfig(batch_size=8, lr=0.01, max_epochs=1), seed=0)
    assert result.best_epoch == 1  # the trained parameters, not the initial ones
    trained = _digest(model.param_arrays(), np.asarray(result.train_loss))
    xi, grad_norm = attack_gradient(model, defense, seed=0, batch_size=8)
    attack = _digest(xi, np.float64(grad_norm))
    assert (trained, attack) == GOLDEN_DEFENDED_RUN[algo]


def test_cer_adversarial_pass_from_reuse_equals_a_pass_from_scratch(cer_tiny):
    # the clean pass hands on layer 1's user half; Y reaches every gradient
    for seed in range(3):
        batch = _batch(cer_tiny, seed=seed)
        penalty = cer_tiny.penalty_grad()
        reuse = {}
        _, _, dy = cer_tiny.loss_grad(batch, penalty, want_dy=True, reuse=reuse)
        assert sorted(reuse) == ["user_half", "x_rows"]
        y_adv = clip_perturbed_y(cer_tiny.Y, 0.25 * np.sign(dy), cer_tiny.n_rating)
        adv, adv_grads, adv_dy = cer_tiny.loss_grad(batch, penalty, Y=y_adv, want_dy=True,
                                                    reuse=reuse)
        want_adv, want, want_dy = cer_tiny.loss_grad(batch, penalty, Y=y_adv, want_dy=True)
        assert adv == want_adv
        assert sorted(adv_grads) == sorted(want) == sorted(cer_tiny.params)
        for name, g in want.items():
            assert adv_grads[name].tobytes() == g.tobytes(), name
        assert adv_dy.tobytes() == want_dy.tobytes()


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
def test_adversarial_pass_reuses_the_clean_pass_bit_for_bit(lam, efm_tiny):
    cfg = DefenseConfig(lam=lam, eps_d=0.25)
    for seed in range(3):
        batch = _batch(efm_tiny, seed=seed)
        penalty = efm_tiny.penalty_grad()
        reuse = {}
        clean, grads, dy = efm_tiny.loss_grad(batch, penalty, want_dy=True, reuse=reuse)
        y_adv = clip_perturbed_y(efm_tiny.Y, cfg.eps_d * np.sign(dy), efm_tiny.n_rating)
        adv, adv_grads, _ = efm_tiny.loss_grad(batch, penalty, Y=y_adv, reuse=reuse)
        want_adv, want, _ = efm_tiny.loss_grad(batch, penalty, Y=y_adv)
        assert adv == want_adv
        assert sorted(adv_grads) == ["U2", "V"]  # the others are the clean pass's
        for name, g in want.items():
            assert adv_grads.get(name, grads[name]).tobytes() == g.tobytes(), name
        # the defended step equals the mix of two passes from scratch
        loss, mixed = defended_loss_grad(efm_tiny, batch, cfg, penalty)
        assert loss == (1.0 - lam) * clean + lam * want_adv
        _, scratch, _ = efm_tiny.loss_grad(batch, penalty)
        for name, g in want.items():
            assert mixed[name].tobytes() == (scratch[name] * (1.0 - lam) + g * lam).tobytes()
