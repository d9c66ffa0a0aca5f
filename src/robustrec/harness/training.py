"""Training-loop policy: convergence rule and learning-rate/decay search."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

# ascending; the tie rule of the search relies on this order
HYPER_GRID: tuple[float, ...] = (1e-5, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.5)


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


def hyperparameter_search(make_model: Callable, split, defense, training: TrainingConfig,
                          seed: int, grid: tuple[float, ...] = HYPER_GRID,
                          search_epochs: int | None = None):
    """Full grid over learning rate x weight decay, judged by the best
    validation NDCG each short run reaches. Ties go to the smaller learning
    rate, then the smaller decay (the grid is ascending and replacement is
    strict). Returns (lr, wd, table of (lr, wd, score))."""
    from ..robustness import train_defended  # deferred: robustness imports this module

    best: tuple[float, float, float] | None = None
    table: list[tuple[float, float, float]] = []
    epochs = training.max_epochs if search_epochs is None else search_epochs
    for lr in grid:
        for wd in grid:
            cfg = replace(training, lr=lr, weight_decay=wd, max_epochs=epochs)
            model = make_model()
            result = train_defended(model, split, defense, cfg, seed)
            score = max(result.history)
            table.append((lr, wd, score))
            if best is None or score > best[2]:
                best = (lr, wd, score)
    return best[0], best[1], table
