"""Explicit factor model: joint factorization of X, Y and the rating matrix.

Users and items share a feature latent space (X ~ U1 V^T, Y ~ U2 V^T); the
rating matrix is fit by U1 U2^T plus a free low-rank part H1 H2^T. Scoring
blends the match on the user's k favourite features with the predicted
rating; explanations are the item's strongest features among that pool.
`score_matrix` scores many users from three products with every item, and
`scores` is its one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..diffcore import Tensor, gather_rows, matmul, mul, relu, square, sub, transpose, tsum
from ..rng import derive_seed
from .base import Explanation, PairBatch, Penalty, Recommender, scatter_add_rows, sum_squares


def _distinct(ids: np.ndarray, n: int) -> np.ndarray:
    """np.unique(ids) for ids in [0, n): the sorted distinct ids, as int64.
    A mask is used because np.unique's first call imports numpy.ma."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


@dataclass(frozen=True)
class EFMConfig:
    n_factors: int = 64        # r: shared feature-latent rank
    n_hidden: int = 32         # r': free rating-residual rank
    alpha: float = 0.85        # weight on the feature-match score component
    top_k_features: int = 10   # k: user features entering the score and explanations
    lam_x: float = 1.0
    lam_y: float = 1.0
    lam_a: float = 1.0
    lam_reg: float = 1e-3
    lam_nn: float = 1.0

    def __post_init__(self):
        for name in ("n_factors", "n_hidden", "top_k_features"):
            width = getattr(self, name)
            if type(width) is not int or width < 1:
                raise ValueError(f"EFMConfig.{name} must be a positive integer, got {width!r}")


class EFM(Recommender):
    kind = "efm"
    binary_targets = False
    config_class = EFMConfig

    def attach(self, split, X: np.ndarray, Y: np.ndarray) -> None:
        super().attach(split, X, Y)
        # observation masks are dataset structure; the adversarial branch
        # keeps the clean pattern even though it shifts the values
        self._Xmask = (self.X != 0.0).astype(np.float64)
        self._Ymask = (self.Y != 0.0).astype(np.float64)
        self._ones_r = np.ones((self.config.n_factors, 1))
        self._ones_h = np.ones((self.config.n_hidden, 1))

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        r, h = self.config.n_factors, self.config.n_hidden
        return {"U1": (self.n_users, r), "U2": (self.n_items, r), "V": (self.n_features, r),
                "H1": (self.n_users, h), "H2": (self.n_items, h)}

    def reinit(self, seed: int) -> None:
        if self.X is None:
            raise RuntimeError("reinit() before attach()")
        cfg = self.config
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "efm-init")))
        nz = np.concatenate([self.X[self.X > 0], self.Y[self.Y > 0]])
        mean_nz = float(nz.mean()) if nz.size else 1.0
        s = np.sqrt(mean_nz / cfg.n_factors)
        sh = 0.1 / np.sqrt(cfg.n_hidden)
        # drawn in parameter order; the free rating factors H1, H2 start small
        self.params = {
            name: Tensor(rng.uniform(0.0, 2.0 * (sh if name.startswith("H") else s), shape),
                         requires_grad=True)
            for name, shape in self.param_shapes().items()}

    def loss(self, batch: PairBatch, Y=None) -> Tensor:
        """Masked reconstruction of the batch rows of X and Y, squared error
        on the batch's rating/negative targets, L2 and negativity penalties."""
        cfg = self.config
        Y = self.Y if Y is None else Y
        p = self.params
        users = _distinct(batch.users, self.n_users)
        items = _distinct(batch.items, self.n_items)
        vt = transpose(p["V"])

        x_rows = self.X[users]
        x_hat = matmul(gather_rows(p["U1"], users), vt)
        x_res = mul(sub(x_rows, x_hat), self._Xmask[users])
        term_x = tsum(square(x_res))

        y_rows = gather_rows(Y, items) if isinstance(Y, Tensor) else Y[items]
        y_hat = matmul(gather_rows(p["U2"], items), vt)
        y_res = mul(sub(y_rows, y_hat), self._Ymask[items])
        term_y = tsum(square(y_res))

        u1b = gather_rows(p["U1"], batch.users)
        u2b = gather_rows(p["U2"], batch.items)
        h1b = gather_rows(p["H1"], batch.users)
        h2b = gather_rows(p["H2"], batch.items)
        a_hat = matmul(mul(u1b, u2b), self._ones_r) + matmul(mul(h1b, h2b), self._ones_h)
        term_a = tsum(square(sub(a_hat, batch.targets)))

        reg = tsum(square(p["U1"])) + tsum(square(p["U2"])) + tsum(square(p["V"])) \
            + tsum(square(p["H1"])) + tsum(square(p["H2"]))
        neg = tsum(square(relu(-p["U1"]))) + tsum(square(relu(-p["U2"]))) \
            + tsum(square(relu(-p["V"]))) + tsum(square(relu(-p["H1"]))) \
            + tsum(square(relu(-p["H2"])))

        return cfg.lam_x * term_x + cfg.lam_y * term_y + cfg.lam_a * term_a \
            + cfg.lam_reg * reg + cfg.lam_nn * neg

    def penalty_grad(self) -> Penalty:
        """The L2 sum `reg` and the negativity sum `neg` over every parameter,
        and the gradient of lam_reg * reg + lam_nn * neg."""
        cfg = self.config
        reg = neg = 0.0
        grads = {}
        for name, P in self.params.items():
            P = P.data
            below = np.minimum(P, 0.0)
            reg = reg + sum_squares(P)
            neg = neg + sum_squares(below)
            # d/dP of lam_reg * P^2 + lam_nn * relu(-P)^2; doubling is exact,
            # so these are the bits of 2*(lam_reg*P + lam_nn*below)
            g = P * (2.0 * cfg.lam_reg)
            g += (2.0 * cfg.lam_nn) * below
            grads[name] = g
        return Penalty((reg, neg), grads)

    def loss_grad(self, batch: PairBatch, penalty: Penalty, Y: np.ndarray | None = None,
                  want_dy: bool = False, reuse: dict | None = None
                  ) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
        """`loss` and its gradients by hand. The residuals are formed as on
        the tape, so the loss is the tape's to the last bit; the gradients
        differ from the tape's only in the order of summation. Only the y
        term depends on Y: a filled `reuse` skips the rest and returns the
        gradients of U2 and V alone, those of U1, H1 and H2 being the clean
        pass's."""
        if reuse:
            return self._y_pass(batch, penalty, Y, want_dy, **reuse)
        cfg = self.config
        U1, U2, V, H1, H2 = (self.params[n].data for n in ("U1", "U2", "V", "H1", "H2"))
        users = _distinct(batch.users, self.n_users)
        items = _distinct(batch.items, self.n_items)
        vt = V.T.copy()  # the tape's layout, so the residuals are its bits too
        x_res = (self.X[users] - U1[users] @ vt) * self._Xmask[users]
        u2_items = U2[items]
        y_fit = u2_items @ vt
        u1b, u2b = U1[batch.users], U2[batch.items]
        h1b, h2b = H1[batch.users], H2[batch.items]
        a_res = (u1b * u2b) @ self._ones_r + (h1b * h2b) @ self._ones_h - batch.targets
        gx = (2.0 * cfg.lam_x) * x_res
        ga = (2.0 * cfg.lam_a) * a_res
        shared = dict(items=items, u2_items=u2_items, y_fit=y_fit,
                      x_term=cfg.lam_x * (x_res * x_res).sum(),
                      a_term=cfg.lam_a * (a_res * a_res).sum(),
                      gx_u1=gx.T @ U1[users], ga_u1b=ga * u1b)
        if reuse is not None:
            reuse.update(shared)
        loss, grads, dy = self._y_pass(batch, penalty, Y, want_dy, **shared)

        grads.update((name, penalty.grads[name].copy()) for name in ("U1", "H1", "H2"))
        grads["U1"][users] -= gx @ V
        scatter_add_rows(grads["U1"], batch.users, ga * u2b)
        scatter_add_rows(grads["H1"], batch.users, ga * h2b)
        scatter_add_rows(grads["H2"], batch.items, ga * h1b)
        return loss, {name: grads[name] for name in self.params}, dy

    def _y_pass(self, batch: PairBatch, penalty: Penalty, Y: np.ndarray | None, want_dy: bool,
                items, u2_items, y_fit, x_term, a_term, gx_u1, ga_u1b
                ) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
        """The loss and the U2 and V gradients of `loss_grad` on the given
        Y, from the Y-free terms of a clean pass on the same batch."""
        cfg = self.config
        Y = self.Y if Y is None else Y
        y_res = (Y[items] - y_fit) * self._Ymask[items]
        reg, neg = penalty.terms
        loss = x_term + cfg.lam_y * (y_res * y_res).sum() + a_term \
            + cfg.lam_reg * reg + cfg.lam_nn * neg
        gy = (2.0 * cfg.lam_y) * y_res
        V = self.params["V"].data
        g_u2 = penalty.grads["U2"].copy()
        g_u2[items] -= gy @ V
        scatter_add_rows(g_u2, batch.items, ga_u1b)
        g_v = penalty.grads["V"].copy()
        g_v -= gx_u1 + gy.T @ u2_items
        dy = None
        if want_dy:
            dy = np.zeros_like(Y)
            dy[items] = gy
        return float(loss), {"U2": g_u2, "V": g_v}, dy

    def _pools(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The users' feature scores U1[users] V^T [U, F] and each one's k
        favourite features, best first: a stable argsort on the negated
        scores, so ties go to the lower index."""
        x = self.params["U1"].data[users] @ self.params["V"].data.T
        return x, np.argsort(-x, axis=1, kind="stable")[:, :self.config.top_k_features]

    def _item_features(self) -> np.ndarray:
        """Every item's feature scores, U2 V^T [n_items, F]."""
        return self.params["U2"].data @ self.params["V"].data.T

    def scores(self, u: int, items: np.ndarray) -> np.ndarray:
        return self.score_matrix(np.array([u]), np.asarray(items, dtype=np.int64)[None])[0]

    def score_matrix(self, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """alpha * match + (1 - alpha) * a_hat of each user over its row of
        candidates, with the match (the user's pooled feature scores times the
        item's, over k * n_rating) and a_hat (U1[u] U2[v] + H1[u] H2[v])
        gathered from three products of the users with every item, so a
        ranking pass hands it a chunk of users at a time. A `PAD` slot (-1)
        gathers the last item's."""
        cfg = self.config
        p = self.params
        rows = np.arange(len(users))[:, None]
        x, top = self._pools(users)
        pooled = np.zeros_like(x)
        pooled[rows, top] = x[rows, top]
        match = (pooled @ self._item_features().T)[rows, candidates] \
            / (cfg.top_k_features * self.n_rating)
        a_hat = (p["U1"].data[users] @ p["U2"].data.T)[rows, candidates] \
            + (p["H1"].data[users] @ p["H2"].data.T)[rows, candidates]
        return cfg.alpha * match + (1.0 - cfg.alpha) * a_hat

    def explain_pairs(self, pairs: Sequence[tuple[int, int]], top_n: int = 1,
                      require_recommended: bool = True,
                      candidate_scores: dict[int, np.ndarray] | None = None
                      ) -> list[Explanation]:
        """Each item's strongest features among its user's favourite pool, read
        from the item feature scores U2 V^T that scoring reads."""
        table = self._item_features()
        out = []
        for u, v in pairs:
            pool = self._pools(np.array([u]))[1][0]
            ranked = sorted(pool.tolist(), key=lambda f: (-table[v, f], f))
            out.append(Explanation(tuple(ranked[:top_n])))
        return out
