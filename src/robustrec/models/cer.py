"""Neural recommender with counterfactual aspect explanations.

A feed-forward net scores (user, item) pairs from the concatenated aspect
rows [X_u | Y_v]. Explanations answer "which aspects of v, weakened as
little as possible, would push v out of u's top K" (Tan et al., CIKM 2021):
a delta over Y_v is optimized to drop the score below the (K+1)-th
candidate's, and the most negatively perturbed features form the
explanation. Training, scoring and the counterfactual solve (every pair at
once, as one [B, F] problem) run in plain numpy on hand-derived gradients
through one forward, `_activations` over layer 1's user half `_user_half`;
only W1's gradient concatenates [X_u | Y_v]. The forward and both backwards
work in place, but only in buffers they allocate themselves (GEMM outputs
and the activations): they never write into their arguments, so a user
half or Y rows shared between passes stay as they were. The taped `loss`
and `_forward` are the reference they are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..diffcore import (Adam, Tensor, add, concat_cols, gather_rows, matmul, mul, sigmoid,
                        softplus, square, sub, tmean, tsum)
from ..rng import derive_seed
from .base import (Explanation, PairBatch, Penalty, Recommender, rank_items, scatter_add_rows,
                   sum_squares)


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """z = 1/(1+exp(-z)) in z's own buffer, the bits of the allocating form;
    exp may overflow, so callers hold np.errstate(over="ignore")."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


class NotRecommendedError(ValueError):
    """explain() was asked about an item outside the user's current top K."""


@dataclass(frozen=True)
class CERConfig:
    hidden: tuple[int, int] = (256, 64)
    lam_reg: float = 1e-4
    top_k: int = 5             # the "recommended" cutoff the counterfactual targets
    cf_gamma: float = 100.0
    cf_steps: int = 200
    cf_lr: float = 0.01
    cf_margin_frac: float = 0.01  # margin = frac * spread of candidate scores

    def __post_init__(self):
        hidden = tuple(self.hidden) if isinstance(self.hidden, (list, tuple)) else ()
        if len(hidden) != 2 or not all(type(w) is int and w > 0 for w in hidden):
            raise ValueError(f"CERConfig.hidden must be two positive integer widths, "
                             f"got {self.hidden!r}")
        object.__setattr__(self, "hidden", hidden)  # a JSON config gives a list


def counterfactual_deltas(score_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                          pairs: Sequence[tuple[int, int]], n_features: int,
                          thresholds: np.ndarray, margins: np.ndarray,
                          gamma: float = CERConfig.cf_gamma, steps: int = CERConfig.cf_steps,
                          lr: float = CERConfig.cf_lr
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ||delta_i||^2 + gamma * max(0, margin_i + score_i(delta_i) - threshold_i)
    for every row i of a [B, n_features] delta at once.

    `score_grad` maps the deltas to each row's score [B] and its gradient
    d score_i / d delta_i [B, n_features]; rows never interact, so one Adam
    run over the batch equals B separate runs. `pairs` names the (user,
    item) of each row in errors. Returns (deltas, converged, final scores);
    converged means a final score at or below threshold - margin.
    """
    delta = np.zeros((len(pairs), n_features))
    opt = Adam([delta], lr=lr)
    target = thresholds - margins
    for _ in range(steps):
        s, ds = score_grad(delta)
        # relu's subgradient is 0 at the kink, so the hinge pulls only above target
        opt.step([2.0 * delta + (gamma * (s > target))[:, None] * ds])
    final, _ = score_grad(delta)
    bad = ~(np.isfinite(final) & np.isfinite(delta).all(axis=1))
    if bad.any():
        u, v = pairs[int(np.argmax(bad))]
        raise FloatingPointError(f"counterfactual solve: non-finite delta or score for "
                                 f"user {u}, item {v} ({int(bad.sum())} of {len(pairs)} pairs)")
    return delta, final <= target, final


class CER(Recommender):
    kind = "cer"
    binary_targets = True
    config_class = CERConfig

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        h1, h2 = self.config.hidden
        d_in = 2 * self.n_features
        return {"W1": (d_in, h1), "b1": (h1,), "W2": (h1, h2), "b2": (h2,),
                "W3": (h2, 1), "b3": (1,)}

    def reinit(self, seed: int) -> None:
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "cer-init")))
        # weights drawn in parameter order, scaled by their fan-in; biases start at 0
        self.params = {
            name: Tensor(np.zeros(shape) if name.startswith("b")
                         else rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape), requires_grad=True)
            for name, shape in self.param_shapes().items()}

    def _forward(self, x_rows, y_rows, params: dict) -> Tensor:
        z = concat_cols(x_rows, y_rows)
        h = sigmoid(add(matmul(z, params["W1"]), params["b1"]))
        h = sigmoid(add(matmul(h, params["W2"]), params["b2"]))
        return add(matmul(h, params["W3"]), params["b3"])

    def loss(self, batch: PairBatch, Y=None) -> Tensor:
        """Mean binary cross-entropy on pair logits plus L2 on the weights."""
        Y = self.Y if Y is None else Y
        x_rows = Tensor(self.X[batch.users])
        y_rows = gather_rows(Y, batch.items) if isinstance(Y, Tensor) else Tensor(Y[batch.items])
        logits = self._forward(x_rows, y_rows, self.params)
        # softplus(s) - s*y == -log sigmoid(s) for y=1, -log(1-sigmoid(s)) for y=0
        bce = tmean(sub(softplus(logits), mul(logits, batch.targets)))
        reg = None
        for p in self.params.values():
            term = tsum(square(p))
            reg = term if reg is None else reg + term
        return bce + self.config.lam_reg * reg

    def _user_half(self, x_rows: np.ndarray) -> np.ndarray:
        """Layer 1's user half, x_rows·W1[:F] + b1, which a solve holds fixed."""
        half = x_rows @ self.params["W1"].data[:self.n_features]
        half += self.params["b1"].data
        return half

    def _activations(self, user_half: np.ndarray, y_rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer 1 as its user half plus y_rows·W1[F:], then both sigmoid
        layers: the two hidden activations and the scores [B]. Each layer
        runs in place in its own GEMM output; `user_half` and `y_rows` are
        only read, and the activations returned are the caller's to reuse."""
        p = self.params
        with np.errstate(over="ignore"):
            h1 = y_rows @ p["W1"].data[self.n_features:]
            _sigmoid_in_place(np.add(user_half, h1, out=h1))
            h2 = h1 @ p["W2"].data
            h2 += p["b2"].data
            _sigmoid_in_place(h2)
        return h1, h2, (h2 @ p["W3"].data + p["b3"].data)[:, 0]

    def penalty_grad(self) -> Penalty:
        """The L2 sum `reg` over every parameter and the gradient of lam_reg * reg."""
        reg = 0.0
        grads = {}
        for name, P in self.params.items():
            P = P.data
            reg = reg + sum_squares(P)
            grads[name] = (2.0 * self.config.lam_reg) * P
        return Penalty((reg,), grads)

    def loss_grad(self, batch: PairBatch, penalty: Penalty, Y: np.ndarray | None = None,
                  want_dy: bool = False, reuse: dict | None = None
                  ) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
        """`loss` and its gradients, with the BCE backpropagated by hand
        through the two sigmoid layers of one `_activations` forward. Layer
        1's user half does not depend on Y: a filled `reuse` holds the clean
        pass's, and every gradient is recomputed from it."""
        Y = self.Y if Y is None else Y
        p = {name: t.data for name, t in self.params.items()}
        shared = {} if reuse is None else reuse
        if not shared:
            x_rows = self.X[batch.users]
            shared.update(x_rows=x_rows, user_half=self._user_half(x_rows))
        x_rows, y_rows = shared["x_rows"], Y[batch.items]
        h1, h2, s = self._activations(shared["user_half"], y_rows)
        logits, targets = s[:, None], batch.targets
        softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
        (reg,) = penalty.terms
        loss = (softplus - logits * targets).mean() + self.config.lam_reg * reg

        with np.errstate(over="ignore"):
            g3 = (1.0 / (1.0 + np.exp(-logits)) - targets) / len(batch)
        # each (g @ W.T) * h * (1 - h) is built in the product's buffer, left
        # to right; a layer's gradients are taken before h's buffer takes 1 - h
        g_w3 = h2.T @ g3
        g2 = g3 @ p["W3"].T
        g2 *= h2
        g2 *= np.subtract(1.0, h2, out=h2)
        g_w2 = h1.T @ g2
        g1 = g2 @ p["W2"].T
        g1 *= h1
        g1 *= np.subtract(1.0, h1, out=h1)
        grads = {"W1": np.hstack([x_rows, y_rows]).T @ g1, "b1": g1.sum(axis=0),
                 "W2": g_w2, "b2": g2.sum(axis=0), "W3": g_w3, "b3": g3.sum(axis=0)}
        for name, g in grads.items():
            g += penalty.grads[name]

        dy = None
        if want_dy:
            dy = np.zeros(Y.shape)
            # the full product, as on the tape: the sign of dL/dY steers FGSM
            scatter_add_rows(dy, batch.items, (g1 @ p["W1"].T)[:, self.n_features:])
        return float(loss), grads, dy

    def scores(self, u: int, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        return self._activations(self._user_half(self.X[u]), self.Y[items])[2]

    def _cf_score_grad(self, pairs: Sequence[tuple[int, int]]
                       ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Scores of the pairs with Y_v weakened by a delta [B, F], and each
        score's gradient with respect to its delta, derived by hand through
        the sigmoid layers. The user half of layer 1 is fixed over a solve."""
        p = self.params
        users, items = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        user_half = self._user_half(self.X[users])
        y_rows = self.Y[items]

        def score_grad(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            h1, h2, s = self._activations(user_half, y_rows + delta)
            g2 = p["W3"].data[:, 0] * h2
            g2 *= np.subtract(1.0, h2, out=h2)
            g1 = g2 @ p["W2"].data.T
            g1 *= h1
            g1 *= np.subtract(1.0, h1, out=h1)
            return s, g1 @ p["W1"].data[self.n_features:].T

        return score_grad

    def explain_pairs(self, pairs: Sequence[tuple[int, int]], top_n: int = 1,
                      require_recommended: bool = True,
                      candidate_scores: dict[int, np.ndarray] | None = None
                      ) -> list[Explanation]:
        """Features whose minimal weakening un-recommends each v for its u,
        from one batched counterfactual solve over all pairs.

        Each v must drop below the (K+1)-th of u's candidate scores by a margin
        of a fraction of their spread. Raises NotRecommendedError, before any
        solve, when a v is outside u's current top K and `require_recommended`
        is set; evaluation over a fixed bed relaxes this.
        """
        cfg = self.config
        known = candidate_scores or {}
        targets: dict[int, tuple[list[int], np.ndarray, float]] = {}
        for u, v in pairs:
            if u not in targets:  # per user: ranking, scores best first, margin
                cands = self.candidate_items(u)
                scores = known[u] if u in known else self.scores(u, cands)
                spread = float(scores.max() - scores.min())
                targets[u] = (rank_items(scores, cands), np.sort(scores)[::-1],
                              cfg.cf_margin_frac * (spread if spread > 0.0 else 1.0))
            ranked = targets[u][0]
            if v not in ranked:
                raise NotRecommendedError(f"item {v} is not among user {u}'s candidates")
            if len(ranked) <= cfg.top_k:
                raise NotRecommendedError(f"user {u} has only {len(ranked)} candidates; "
                                          f"no top-{cfg.top_k} threshold exists")
            if require_recommended and v not in ranked[:cfg.top_k]:
                raise NotRecommendedError(f"item {v} is not in user {u}'s top {cfg.top_k}")
        deltas, converged, _ = counterfactual_deltas(
            self._cf_score_grad(pairs), pairs, self.n_features,
            np.asarray([targets[u][1][cfg.top_k] for u, _ in pairs], dtype=np.float64),
            np.asarray([targets[u][2] for u, _ in pairs], dtype=np.float64),
            gamma=cfg.cf_gamma, steps=cfg.cf_steps, lr=cfg.cf_lr)
        out = []
        for delta, ok in zip(deltas, converged):
            order = sorted(range(self.n_features), key=lambda f: (-abs(delta[f]), f))
            negative = [f for f in order if delta[f] < 0.0]
            chosen = negative[:top_n] if negative else order[:top_n]
            out.append(Explanation(tuple(chosen), non_counterfactual=not ok))
        return out
