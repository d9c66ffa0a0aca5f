"""Shared recommender contract: construction, batching, ranking, parameter plumbing.

Both recommenders expose the same surface: `loss_grad`, the batch loss with
its hand-derived parameter gradients (and optionally dL/dY, which the defense
perturbs item aspect values along) in plain numpy, which training and the
weight attack run on; `penalty_grad`, the part of that objective that depends
on the parameters alone, computed once per parameter set and shared by every
`loss_grad` pass on it; `loss`, the same objective on the autodiff tape over
the attached X and Y, whose Y may be replaced by a gradient-tracked Tensor, the
gradient reference; fast numpy `scores` for one user and `score_matrix` for
a chunk of users, each over its own candidate list; and `explain_pairs`, the
one explanation method, which explains many pairs in one call. `explain` is
its single-pair case.

A clean `loss_grad` pass may share its Y-free work with the adversarial pass
after it; that work is not kept on the model, where a parameter update would
make it stale. `rank_rows` ranks the candidate lists of many users at once,
each list a row padded with `PAD` (defined with the split, which lays the
lists out); `rank_items` is its one-row case.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ..dataset import MAX_RATING, PAD, TRAIN, DatasetSplit
from ..diffcore import Tensor
from ..rng import SplitMix64


@dataclass(frozen=True)
class Explanation:
    """Ranked feature ids, best first; length <= the requested top_n.

    `non_counterfactual` marks counterfactual explanations whose inner
    optimization did not push the item below the recommendation threshold.
    """
    features: tuple[int, ...]
    non_counterfactual: bool = False


@dataclass(frozen=True)
class PairBatch:
    users: np.ndarray    # int64 [B]
    items: np.ndarray    # int64 [B]
    targets: np.ndarray  # float64 [B, 1]; ratings or 0/1 labels

    def __len__(self) -> int:
        return len(self.users)


class Penalty(NamedTuple):
    """The parameter-only part of a model's training objective."""
    terms: tuple[float, ...]      # its sums, in the order the model's loss adds them
    grads: dict[str, np.ndarray]  # its gradient by parameter name


def sum_squares(a: np.ndarray) -> np.float64:
    """The sum of a's squared entries: one BLAS dot of its flat view with
    itself, a single pass with no temporary array. OpenBLAS splits a dot of
    over 10,000 elements across its threads, so the last bits of such a sum
    can depend on the thread count. The penalty sums reach only the loss
    value, never a gradient or a parameter."""
    flat = a.ravel()
    return flat @ flat


def scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(target, rows, values)` for a C-contiguous 2-D target and
    values [len(rows), n], through the flat view of target: each element
    receives its additions in the same order, so the result has the same
    bits, and the 1-D scatter is several times faster than the 2-D one."""
    n = target.shape[1]
    flat = np.reshape(target, -1, copy=False)
    np.add.at(flat, (rows[:, None] * n + np.arange(n)).ravel(), values.ravel())


def rank_rows(scores: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The columns of each row of `items` [U, C], ordered by descending score
    of `scores` [U, C]; exact ties go to the lower item id. `PAD` slots, which
    end a row shorter than C, rank last whatever their score. A NaN or
    infinite score of a listed item raises FloatingPointError naming the
    first, in row order."""
    scores = np.asarray(scores, dtype=np.float64)
    items = np.asarray(items, dtype=np.int64)
    listed = items != PAD
    bad = listed & ~np.isfinite(scores)
    if bad.any():
        first = int(np.argmax(bad))
        raise FloatingPointError(f"ranking: item {int(items.flat[first])} has "
                                 f"non-finite score {scores.flat[first]}")
    return np.lexsort((items, np.where(listed, -scores, np.inf)), axis=-1)


def rank_items(scores: np.ndarray, item_ids: np.ndarray) -> list[int]:
    """The one-row case of `rank_rows`: item ids by descending score."""
    item_ids = np.asarray(item_ids, dtype=np.int64)
    return item_ids[rank_rows([scores], [item_ids])[0]].tolist()


class Recommender(ABC):
    """Base class; construct from the sizes and a config (`config_class()` if
    None), `attach` a split and its aspect matrices, `reinit`."""

    kind: str = ""
    binary_targets: bool = False
    config_class: type  # the model's frozen config dataclass

    def __init__(self, n_users: int, n_items: int, n_features: int, config=None) -> None:
        self.config = self.config_class() if config is None else config
        self.n_users, self.n_items, self.n_features = n_users, n_items, n_features
        self.params: dict[str, Tensor] = {}
        self.X: np.ndarray | None = None  # user aspect matrix, set by attach
        self.Y: np.ndarray | None = None  # item aspect matrix, set by attach
        self._split: DatasetSplit | None = None
        self.n_rating: int = MAX_RATING

    def attach(self, split: DatasetSplit, X: np.ndarray, Y: np.ndarray) -> None:
        """Bind the training data this model learns from and is scored on."""
        self.X = np.asarray(X, dtype=np.float64)
        self.Y = np.asarray(Y, dtype=np.float64)
        self._split = split
        self.n_rating = split.n_rating

    def candidate_items(self, u: int) -> np.ndarray:
        """Test user u's row of `DatasetSplit.test_candidates` without its
        `PAD` slots: its positives, then its negatives. A user without one
        raises KeyError."""
        users = self._split.test_users
        row = int(np.searchsorted(users, u))
        if row == len(users) or users[row] != u:
            raise KeyError(f"user {u} has no held-out candidate list")
        cands = self._split.test_candidates[0][row]
        return cands[cands != PAD]

    def epoch_batches(self, rng: SplitMix64, batch_size: int) -> Iterator[PairBatch]:
        """Shuffled minibatches of train interactions plus 1:1 sampled negatives.

        `batch_size` counts positives; each batch carries as many zero-target
        negatives drawn from items the user never interacted with. The draws
        are those of one `randrange` per shuffle swap and per negative try,
        but `rng` is left ahead of them and must serve this pass alone.
        """
        split = self._split
        if split is None:
            raise RuntimeError("epoch_batches() before attach()")
        n_items = self.Y.shape[0]
        train = np.flatnonzero(split.part == TRAIN)
        order = list(range(len(train)))
        rng.shuffle(order)
        rows = train[order]
        users, items = split.user[rows], split.item[rows]
        targets = np.ones(len(rows)) if self.binary_targets else split.rating[rows]
        user_list = users.tolist()
        positive_items = split.positive_items
        draws = rng.randranges(n_items)
        for lo in range(0, len(rows), batch_size):
            hi = lo + batch_size
            negatives = []
            for u in user_list[lo:hi]:
                pos = positive_items[u]
                if len(pos) >= n_items:
                    raise RuntimeError(f"user {u} interacted with every item; "
                                       "cannot sample a negative")
                for j in draws:
                    if j not in pos:
                        break
                negatives.append(j)
            batch_targets = np.concatenate([targets[lo:hi], np.zeros(len(negatives))])
            yield PairBatch(np.concatenate([users[lo:hi], users[lo:hi]]),
                            np.concatenate([items[lo:hi], np.array(negatives, dtype=np.int64)]),
                            batch_targets.reshape(-1, 1))

    @abstractmethod
    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's name and shape, in the model's parameter order."""

    @abstractmethod
    def reinit(self, seed: int) -> None:
        """(Re)draw initial parameters; requires attach() first."""

    @abstractmethod
    def loss(self, batch: PairBatch, Y=None) -> Tensor:
        """Training loss on one batch on the tape, the reference `loss_grad`
        is checked against. X is the attached matrix; Y defaults to it and
        may be a Tensor to obtain gradients w.r.t. item aspect values."""

    @abstractmethod
    def penalty_grad(self) -> Penalty:
        """The regularisation terms of `loss` and their gradient at the
        current parameters. They do not depend on the batch or on Y, so one
        `Penalty` serves every `loss_grad` pass until the parameters change."""

    @abstractmethod
    def loss_grad(self, batch: PairBatch, penalty: Penalty, Y: np.ndarray | None = None,
                  want_dy: bool = False, reuse: dict | None = None
                  ) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
        """(loss, dL/dTheta by parameter name, dL/dY or None) of `loss` on one
        batch, in plain numpy: the training path. `penalty` is
        `penalty_grad()` at the current parameters and is not modified; the
        gradients returned are fresh arrays. Y defaults to the attached
        matrix; dL/dY has Y's full shape and is computed only if `want_dy`.

        `reuse` is a dict the caller owns for one batch, penalty and set of
        parameters. A pass that finds it empty may fill it with the part of
        its work that does not depend on Y; a later pass with another Y that
        finds it filled redoes only the Y term and returns the gradients of
        the parameters Y reaches, bit for bit those of a pass from scratch.
        The parameters it leaves out have the filling pass's gradients.
        A model that shares nothing ignores it."""

    @abstractmethod
    def scores(self, u: int, items: np.ndarray) -> np.ndarray:
        """Recommendation scores for one user over the given item ids."""

    def score_matrix(self, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Scores [U, C] of each users[i] over the item ids candidates[i],
        whose `PAD` slots end a list shorter than C and get scores that
        `rank_rows` ignores. This form scores one user at a time."""
        out = np.zeros(candidates.shape)
        for i, (u, row) in enumerate(zip(users.tolist(), candidates)):
            items = row[row != PAD]
            out[i, :len(items)] = self.scores(u, items)
        return out

    @abstractmethod
    def explain_pairs(self, pairs: Sequence[tuple[int, int]], top_n: int = 1,
                      require_recommended: bool = True,
                      candidate_scores: dict[int, np.ndarray] | None = None
                      ) -> list[Explanation]:
        """Ranked feature ids explaining why each v of `pairs` is recommended
        to its u, in order. A caller that has scored users' `candidate_items`
        on the current parameters may pass those scores by user as
        `candidate_scores`; models that rank the candidates use them instead
        of scoring again."""

    def explain(self, u: int, v: int, top_n: int = 1,
                require_recommended: bool = True) -> Explanation:
        """The single-pair case of `explain_pairs`."""
        return self.explain_pairs([(u, v)], top_n, require_recommended)[0]

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def with_params(self, arrays: dict[str, np.ndarray]) -> "Recommender":
        """A shallow copy carrying the given parameters; attachment is shared
        (all of it is read-only during scoring and explanation)."""
        import copy
        clone = copy.copy(self)
        clone.set_param_arrays(arrays)
        return clone

    def set_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt `arrays` as the parameters, in `param_shapes` order, without
        copying float64 arrays: the caller hands over fresh arrays it no longer
        uses. A missing, extra or misshapen array raises ValueError."""
        shapes = self.param_shapes()
        if set(arrays) != set(shapes):
            raise ValueError(f"parameter names {sorted(arrays)} != expected {sorted(shapes)}")
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(f"parameter {name}: shape {arrays[name].shape} != expected {shape}")
        self.params = {name: Tensor(np.asarray(arrays[name], dtype=np.float64), requires_grad=True)
                       for name in shapes}
