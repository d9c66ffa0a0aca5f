"""Defense objective, weight attack, and their exact reduction identities."""
import numpy as np
import pytest

import robustrec.harness.sweep as sweep
import robustrec.robustness as rob
from robustrec.diffcore import Tensor
from robustrec.harness.config import default_config
from robustrec.harness.training import TrainingConfig
from robustrec.models import EFM, EFMConfig
from robustrec.robustness import (AttackResult, DefenseConfig, DivergenceError,
                                  apply_attack, attack_weights, attacked_copy,
                                  clip_perturbed_y, defense_loss, fgsm_delta_y,
                                  train_defended)
from robustrec.rng import SplitMix64


def _batch(model, seed=0, batch_size=6):
    return next(model.epoch_batches(SplitMix64(seed), batch_size))


def test_fgsm_matches_y_gradient_sign(efm_tiny):
    batch = _batch(efm_tiny)
    eps = 0.25
    delta = fgsm_delta_y(efm_tiny, batch, efm_tiny.X, efm_tiny.Y, eps)
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
    fgsm_delta_y(efm_tiny, batch, efm_tiny.X, efm_tiny.Y, 0.1)
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


def test_attack_save_load_roundtrip(efm_tiny, tmp_path, monkeypatch):
    cfg = default_config()
    cfg["attack"]["seed"] = 3
    cell = sweep.SweepCell("efm", 0.5, 0.25, 0)
    res = attack_weights(efm_tiny, DefenseConfig(lam=0.5, eps_d=0.25), 1.5, seed=3)
    built, path = sweep.ensure_attack(cfg, cell, efm_tiny, tmp_path, "run", 1.5)
    assert path.parent == tmp_path and path.name.startswith("attack_")
    monkeypatch.setattr(sweep, "attack_weights", lambda *a, **k: pytest.fail("attack rerun"))
    loaded, again = sweep.ensure_attack(cfg, cell, efm_tiny, tmp_path, "run", 1.5)
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
