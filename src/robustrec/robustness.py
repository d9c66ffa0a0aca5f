"""Defense training against aspect perturbations and norm-bounded weight attacks.

Defense objective per minibatch:

    L_total = (1 - lambda) * L(X, Y | Theta) + lambda * L(X, Y_adv | Theta)
    Y_adv   = clamp(Y + eps_d * sign(dL(X, Y | Theta)/dY), 0, N)

The perturbation direction comes from the clean loss and is recomputed every
minibatch as a stop-gradient constant. lambda = 0 or eps_d = 0 short-circuit
to the clean loss object itself, so those reductions are exact to the bit.

Attack: a single-shot perturbation of the trained weights,
Delta* = eps_a * Xi / ||Xi||_2, with Xi the full-training-set gradient of the
model's own training objective (its trained lambda/eps_d) and the norm taken
over the concatenation of every parameter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetSplit
from .diffcore import Adam, Tensor
from .evalkit import validation_ndcg
from .harness.training import EarlyStopper, TrainingConfig
from .models.base import PairBatch, Recommender
from .rng import SplitMix64, derive_seed

ZERO_GRAD_NORM = 1e-12


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class DefenseConfig:
    lam: float = 0.0    # mixing weight on the adversarial branch ("lambda" in configs)
    eps_d: float = 0.0  # per-entry perturbation budget on Y


@dataclass
class TrainResult:
    history: list[float]  # validation NDCG per epoch; index 0 is the untrained model
    best_epoch: int
    epochs_run: int
    lr_used: float
    restarts: int


@dataclass
class AttackResult:
    delta: dict[str, np.ndarray]
    grad_norm: float   # ||Xi||_2 before scaling
    delta_norm: float  # achieved ||Delta*||_2


def fgsm_delta_y(model: Recommender, batch: PairBatch, X, Y, eps_d: float) -> np.ndarray:
    """eps_d * sign(dL/dY) for the clean loss on this batch; full Y shape,
    zero outside entries the batch touches. sign(0) = 0."""
    y_leaf = Tensor(Y, requires_grad=True)
    saved = {name: p.grad for name, p in model.params.items()}
    for p in model.params.values():
        # backward() accumulates into existing grad arrays in place; detach
        # them so the probe cannot pollute grads accumulated elsewhere
        p.grad = None
    loss = model.loss(batch, X=X, Y=y_leaf)
    loss.backward()
    psi = y_leaf.grad
    for name, p in model.params.items():
        p.grad = saved[name]
    return eps_d * np.sign(psi)


def clip_perturbed_y(Y: np.ndarray, delta_y: np.ndarray, n_rating: int) -> np.ndarray:
    """Perturbed item aspects stay inside the representable range [0, N]."""
    return np.clip(Y + delta_y, 0.0, float(n_rating))


def defense_loss(model: Recommender, batch: PairBatch, cfg: DefenseConfig,
                 X=None, Y=None, on_perturbation=None):
    """The mixed clean/adversarial objective for one batch.

    Returns the clean loss object unchanged when lambda or eps_d is 0. The
    adversarial Y enters as a constant: gradients flow only through Theta.
    """
    X = model.X if X is None else X
    Y = model.Y if Y is None else Y
    if cfg.lam == 0.0 or cfg.eps_d == 0.0:
        return model.loss(batch, X=X, Y=Y)
    delta_y = fgsm_delta_y(model, batch, X, Y, cfg.eps_d)
    y_adv = clip_perturbed_y(Y, delta_y, model.n_rating)
    if on_perturbation is not None:
        on_perturbation(delta_y, y_adv)
    clean = model.loss(batch, X=X, Y=Y)
    adv = model.loss(batch, X=X, Y=y_adv)
    return (1.0 - cfg.lam) * clean + cfg.lam * adv


def _train_once(model: Recommender, split: DatasetSplit, defense: DefenseConfig,
                training: TrainingConfig, lr: float, seed: int,
                on_perturbation=None) -> TrainResult:
    opt = Adam(model.params, lr=lr, weight_decay=training.weight_decay)
    stopper = EarlyStopper(training.patience, training.min_delta)
    baseline = validation_ndcg(model, split, k=training.val_k)
    stopper.observe(baseline)
    history = [baseline]
    best_params = model.param_arrays()
    best_epoch = 0
    epoch = 0
    for epoch in range(1, training.max_epochs + 1):
        rng = SplitMix64(derive_seed(seed, "epoch", epoch))
        for batch in model.epoch_batches(rng, training.batch_size):
            loss = defense_loss(model, batch, defense, on_perturbation=on_perturbation)
            if not np.isfinite(loss.data):
                raise DivergenceError(f"non-finite loss at epoch {epoch} (lr={lr:g})")
            opt.zero_grad()
            loss.backward()
            opt.step()
        metric = validation_ndcg(model, split, k=training.val_k)
        history.append(metric)
        if stopper.observe(metric):
            best_params = model.param_arrays()
            best_epoch = epoch
        if stopper.should_stop:
            break
    model.set_param_arrays(best_params)
    return TrainResult(history=history, best_epoch=best_epoch, epochs_run=epoch,
                       lr_used=lr, restarts=0)


def train_defended(model: Recommender, split: DatasetSplit, defense: DefenseConfig,
                   training: TrainingConfig, seed: int,
                   on_perturbation=None) -> TrainResult:
    """Minibatch Adam on the defense objective with early stopping on
    validation NDCG; restores the best epoch's parameters. On divergence the
    run restarts from the same init at half the learning rate, up to
    `training.retries` times. Vanilla training is the lambda = 0 case of the
    same loop (the adversarial machinery is skipped entirely)."""
    attempt = 0
    while True:
        lr = training.lr * (0.5 ** attempt)
        model.reinit(seed)
        try:
            result = _train_once(model, split, defense, training, lr, seed, on_perturbation)
            result.restarts = attempt
            return result
        except DivergenceError:
            attempt += 1
            if attempt > training.retries:
                raise DivergenceError(
                    f"training diverged after {training.retries} retries "
                    f"(last lr {lr:g})") from None


def attack_weights(model: Recommender, defense: DefenseConfig, eps_a: float,
                   seed: int, batch_size: int = 32) -> AttackResult:
    """Single-shot weight perturbation along the normalized full-data gradient.

    Xi accumulates dL_total/dTheta over one pass of the training set with the
    model's own defense settings. Delta* = eps_a * Xi / ||Xi||_2; a gradient
    with norm below 1e-12 (or eps_a = 0) yields the zero perturbation, and a
    non-finite one raises FloatingPointError.
    """
    params = model.params
    saved = {name: p.grad for name, p in params.items()}
    for p in params.values():
        p.grad = None
    rng = SplitMix64(derive_seed(seed, "attack"))
    for batch in model.epoch_batches(rng, batch_size):
        loss = defense_loss(model, batch, defense)
        loss.backward()
    xi = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
          for name, p in params.items()}
    for name, p in params.items():
        p.grad = saved[name]
    grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in xi.values())))
    if not np.isfinite(grad_norm):
        bad = sorted(name for name, g in xi.items() if not np.isfinite(g).all())
        raise FloatingPointError(f"attack: non-finite training gradient "
                                 f"(norm {grad_norm}) in parameters {bad}")
    if eps_a == 0.0 or grad_norm < ZERO_GRAD_NORM:
        delta = {name: np.zeros_like(g) for name, g in xi.items()}
        return AttackResult(delta=delta, grad_norm=grad_norm, delta_norm=0.0)
    scale = eps_a / grad_norm
    delta = {name: scale * g for name, g in xi.items()}
    delta_norm = float(np.sqrt(sum(float((d * d).sum()) for d in delta.values())))
    return AttackResult(delta=delta, grad_norm=grad_norm, delta_norm=delta_norm)


def apply_attack(params: dict[str, np.ndarray], delta: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Fresh attacked parameter set; the trained parameters are not modified.
    An all-zero delta returns exact copies (bit-identical)."""
    if set(params) != set(delta):
        raise ValueError(f"delta names {sorted(delta)} != parameter names {sorted(params)}")
    out = {}
    for name, arr in params.items():
        d = delta[name]
        if arr.shape != d.shape:
            raise ValueError(f"delta {name}: shape {d.shape} != parameter shape {arr.shape}")
        out[name] = arr + d if d.any() else arr.copy()
    return out


def attacked_copy(model: Recommender, delta: dict[str, np.ndarray]) -> Recommender:
    """A model sharing the attachment but carrying attacked parameters."""
    return model.with_params(apply_attack(model.param_arrays(), delta))


def fmt_eps(eps: float) -> str:
    """A budget as it appears in CSV cells and report file names."""
    return f"{eps:g}"
