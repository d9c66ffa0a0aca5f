"""Defense training against aspect perturbations and norm-bounded weight attacks.

Defense objective per minibatch:

    L_total = (1 - lambda) * L(X, Y | Theta) + lambda * L(X, Y_adv | Theta)
    Y_adv   = clamp(Y + eps_d * sign(dL(X, Y | Theta)/dY), 0, N)

The perturbation direction comes from the clean loss and is recomputed every
minibatch as a stop-gradient constant. Training and the attack both take
this objective and its gradient from `defended_loss_grad`: one clean
`Recommender.loss_grad` pass gives dL/dTheta and dL/dY, one adversarial pass
on Y_adv follows, and the gradients mix with the same weights. The clean pass
hands the adversarial one its work that does not depend on Y (`reuse`), so
for EFM the second pass redoes only the Y term, and a parameter it leaves
out keeps the clean gradient, which a pass from scratch would equal bit for
bit; for CER it skips layer 1's user half. lambda = 0 or eps_d = 0 run
the clean pass alone, so those reductions are exact to the bit.
The regularisation penalty depends on Theta alone, so `penalty_grad` runs
once per Theta and its result is shared by every pass on it: once per
training step, and once per attack pass over the whole training set.
`defense_loss` and `fgsm_delta_y` build the same objective on the tape over the
attached X and Y: the reference the hand-derived gradients are tested against.
`train_defended` runs minibatch Adam on it under a `TrainingConfig`, and an
`EarlyStopper` on validation NDCG decides when to stop.

Attack: a single-shot perturbation of the trained weights,
Delta* = eps_a * Xi / ||Xi||_2, with Xi the full-training-set gradient of the
model's own training objective (its trained lambda/eps_d) and the norm taken
over the concatenation of every parameter. Xi does not depend on eps_a, so it
is computed once per trained model (`attack_gradient`) and every budget is a
cheap rescaling of it (`scale_attack`); `attack_weights` is the two in a row.
Every such norm is `params_norm`, summed in parameter order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import DatasetSplit
from .diffcore import Adam, Tensor
from .evalkit import validation_ndcg
from .models.base import PairBatch, Penalty, Recommender
from .rng import SplitMix64, derive_seed

ZERO_GRAD_NORM = 1e-12
MAX_SCALE_STEPS = 16  # ulp steps of scale_attack's scale; a true norm needs a few


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class DefenseConfig:
    lam: float = 0.0    # mixing weight on the adversarial branch ("lambda" in configs)
    eps_d: float = 0.0  # per-entry perturbation budget on Y


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 32
    lr: float = 0.001
    weight_decay: float = 0.0
    max_epochs: int = 50
    patience: int = 5
    min_delta: float = 1e-4
    retries: int = 2
    val_k: int = 10  # NDCG cutoff on the validation candidate lists


class EarlyStopper:
    """Stop when the metric hasn't improved by more than min_delta for
    `patience` consecutive observations. The first observation (the untrained
    baseline) counts as the initial best, so a flat metric stops after
    exactly `patience` training epochs."""

    def __init__(self, patience: int, min_delta: float = 1e-4):
        self.patience = patience
        self.min_delta = min_delta
        self.best = float("-inf")
        self.stale = 0

    def observe(self, metric: float) -> bool:
        """Record one metric value; True when it is a new best."""
        if metric > self.best + self.min_delta:
            self.best = metric
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class TrainResult:
    history: list[float]  # validation NDCG per epoch; index 0 is the untrained model
    best_epoch: int
    epochs_run: int
    lr_used: float
    restarts: int
    train_loss: list[float] = field(default_factory=list)  # mean batch loss per epoch run


class AttackGradient(NamedTuple):
    xi: dict[str, np.ndarray]  # dL_total/dTheta summed over one training pass
    grad_norm: float           # ||Xi||_2 over every parameter


@dataclass
class AttackResult:
    delta: dict[str, np.ndarray]
    grad_norm: float   # ||Xi||_2 before scaling
    delta_norm: float  # achieved ||Delta*||_2


def fgsm_delta_y(model: Recommender, batch: PairBatch, eps_d: float) -> np.ndarray:
    """eps_d * sign(dL/dY) for the clean loss on this batch; full Y shape,
    zero outside entries the batch touches. sign(0) = 0."""
    y_leaf = Tensor(model.Y, requires_grad=True)
    saved = {name: p.grad for name, p in model.params.items()}
    for p in model.params.values():
        # backward() accumulates into existing grad arrays in place; detach
        # them so the probe cannot pollute grads accumulated elsewhere
        p.grad = None
    loss = model.loss(batch, Y=y_leaf)
    loss.backward()
    psi = y_leaf.grad
    for name, p in model.params.items():
        p.grad = saved[name]
    return eps_d * np.sign(psi)


def clip_perturbed_y(Y: np.ndarray, delta_y: np.ndarray, n_rating: int) -> np.ndarray:
    """Perturbed item aspects stay inside the representable range [0, N]."""
    return np.clip(Y + delta_y, 0.0, float(n_rating))


def defense_loss(model: Recommender, batch: PairBatch, cfg: DefenseConfig,
                 on_perturbation=None):
    """The mixed clean/adversarial objective for one batch on the tape.

    Returns the clean loss object unchanged when lambda or eps_d is 0. The
    adversarial Y enters as a constant: gradients flow only through Theta.
    """
    if cfg.lam == 0.0 or cfg.eps_d == 0.0:
        return model.loss(batch)
    delta_y = fgsm_delta_y(model, batch, cfg.eps_d)
    y_adv = clip_perturbed_y(model.Y, delta_y, model.n_rating)
    if on_perturbation is not None:
        on_perturbation(delta_y, y_adv)
    clean = model.loss(batch)
    adv = model.loss(batch, Y=y_adv)
    return (1.0 - cfg.lam) * clean + cfg.lam * adv


def defended_loss_grad(model: Recommender, batch: PairBatch, cfg: DefenseConfig,
                       penalty: Penalty, on_perturbation=None
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """`defense_loss` on one batch and its parameter gradients, from one
    clean and one adversarial `loss_grad` pass (the clean pass alone when
    lambda or eps_d is 0). Both passes take `penalty`, the model's
    `penalty_grad()` at its current parameters. A NaN in dL/dY makes Y_adv
    and so the loss NaN; a loss that is not finite is checked for it, and
    then raises DivergenceError naming the defense perturbation."""
    if cfg.lam == 0.0 or cfg.eps_d == 0.0:
        loss, grads, _ = model.loss_grad(batch, penalty)
        return loss, grads
    reuse: dict = {}  # the clean pass's Y-free work, for the adversarial pass
    clean, grads, dy = model.loss_grad(batch, penalty, want_dy=True, reuse=reuse)
    delta_y = cfg.eps_d * np.sign(dy)
    y_adv = clip_perturbed_y(model.Y, delta_y, model.n_rating)
    if on_perturbation is not None:
        on_perturbation(delta_y, y_adv)
    adv, adv_grads, _ = model.loss_grad(batch, penalty, Y=y_adv, reuse=reuse)
    lam = cfg.lam
    # (1 - lam) * g + lam * g_adv, in place on the fresh gradient sets; a
    # parameter the adversarial pass left out has g_adv = g
    for name, g in grads.items():
        a = adv_grads.get(name)
        if a is None:
            a = lam * g
        else:
            a *= lam
        g *= 1.0 - lam
        g += a
    loss = (1.0 - lam) * clean + lam * adv
    if not math.isfinite(loss) and np.isnan(dy).any():
        raise DivergenceError(f"defense perturbation: dL/dY is NaN in {int(np.isnan(dy).sum())} "
                              f"entries of Y, so Y_adv is undefined (clean loss {clean})")
    return loss, grads


def _train_once(model: Recommender, split: DatasetSplit, defense: DefenseConfig,
                training: TrainingConfig, lr: float, seed: int,
                on_perturbation=None) -> TrainResult:
    opt = Adam([p.data for p in model.params.values()], lr, weight_decay=training.weight_decay)
    stopper = EarlyStopper(training.patience, training.min_delta)
    baseline = validation_ndcg(model, split, k=training.val_k)
    stopper.observe(baseline)
    history = [baseline]
    train_loss: list[float] = []
    best_params = model.param_arrays()
    best_epoch = 0
    epoch = 0
    for epoch in range(1, training.max_epochs + 1):
        rng = SplitMix64(derive_seed(seed, "epoch", epoch))
        total, n_batches = 0.0, 0
        for batch in model.epoch_batches(rng, training.batch_size):
            loss, grads = defended_loss_grad(model, batch, defense, model.penalty_grad(),
                                             on_perturbation)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch} (lr={lr:g})")
            opt.step([grads[name] for name in model.params])
            total += loss
            n_batches += 1
        train_loss.append(total / n_batches)
        metric = validation_ndcg(model, split, k=training.val_k)
        history.append(metric)
        if stopper.observe(metric):
            best_params = model.param_arrays()
            best_epoch = epoch
        if stopper.should_stop:
            break
    model.set_param_arrays(best_params)
    return TrainResult(history=history, best_epoch=best_epoch, epochs_run=epoch,
                       lr_used=lr, restarts=0, train_loss=train_loss)


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


def attack_gradient(model: Recommender, defense: DefenseConfig, seed: int,
                    batch_size: int) -> AttackGradient:
    """Xi: dL_total/dTheta of `defended_loss_grad` summed over one pass of
    the training set with the model's own defense settings, and its norm.
    The model's parameters and their .grad are left alone; a non-finite Xi
    raises FloatingPointError naming the parameters it came from."""
    xi = {name: np.zeros_like(p.data) for name, p in model.params.items()}
    penalty = model.penalty_grad()  # Theta is fixed over the pass
    rng = SplitMix64(derive_seed(seed, "attack"))
    for batch in model.epoch_batches(rng, batch_size):
        _, grads = defended_loss_grad(model, batch, defense, penalty)
        for name, g in grads.items():
            xi[name] += g
    grad_norm = params_norm(xi)
    if not np.isfinite(grad_norm):
        bad = sorted(name for name, g in xi.items() if not np.isfinite(g).all())
        raise FloatingPointError(f"attack: non-finite training gradient "
                                 f"(norm {grad_norm}) in parameters {bad}")
    return AttackGradient(xi, grad_norm)


def params_norm(arrays: dict[str, np.ndarray]) -> float:
    """The 2-norm of the concatenated arrays, summed in the dict's order."""
    return float(np.sqrt(sum(float((g * g).sum()) for g in arrays.values())))


def check_budget(eps_a: float) -> float:
    """`eps_a` when it is an attack budget, finite and >= 0; ValueError otherwise."""
    if not (np.isfinite(eps_a) and eps_a >= 0.0):
        raise ValueError(f"attack budget eps_a must be finite and >= 0, got {eps_a!r}")
    return eps_a


def scale_attack(gradient: AttackGradient, eps_a: float) -> AttackResult:
    """Delta* = (eps_a / ||Xi||_2) * Xi. Where rounding puts ||Delta*||_2 above
    eps_a, the scale steps down an ulp at a time until it does not; a
    gradient whose `grad_norm` is not Xi's norm would need more than
    MAX_SCALE_STEPS steps and raises FloatingPointError. A gradient with norm
    below 1e-12 (or eps_a = 0) yields the zero perturbation; a negative or
    non-finite eps_a raises ValueError (see `check_budget`)."""
    check_budget(eps_a)
    xi, grad_norm = gradient
    if eps_a == 0.0 or grad_norm < ZERO_GRAD_NORM:
        delta = {name: np.zeros_like(g) for name, g in xi.items()}
        return AttackResult(delta=delta, grad_norm=grad_norm, delta_norm=0.0)
    scale = eps_a / grad_norm
    for _ in range(MAX_SCALE_STEPS + 1):
        delta = {name: scale * g for name, g in xi.items()}
        delta_norm = params_norm(delta)
        if delta_norm <= eps_a:
            return AttackResult(delta=delta, grad_norm=grad_norm, delta_norm=delta_norm)
        scale = float(np.nextafter(scale, 0.0))
    raise FloatingPointError(f"attack: ||Delta*|| = {delta_norm} still exceeds eps_a = {eps_a} "
                             f"after {MAX_SCALE_STEPS} ulp steps; grad_norm {grad_norm} "
                             f"is not the norm of Xi")


def attack_weights(model: Recommender, defense: DefenseConfig, eps_a: float,
                   seed: int, batch_size: int = 32) -> AttackResult:
    """Single-shot weight perturbation along the normalized full-data
    gradient: `attack_gradient` then `scale_attack`."""
    return scale_attack(attack_gradient(model, defense, seed, batch_size), eps_a)


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
    """A model sharing the attachment but carrying fresh attacked parameters."""
    return model.with_params(apply_attack({n: p.data for n, p in model.params.items()}, delta))


def fmt_eps(eps: float) -> str:
    """A budget as it appears in CSV cells and report file names."""
    return f"{eps:g}"
