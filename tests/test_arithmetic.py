"""`robustrec.ARITHMETIC` names the numbers the package computes.

It enters every cache key, so a cache filled by other arithmetic is never
read back. Here it is held to the digest of a pinned mini pipeline: the
tiny split's arrays with X and Y, then per algo one lambda=0.5 defended run,
its attack gradient Xi, and one clean and one attacked evaluation report. A
change that moves any of those bits fails this test until ARITHMETIC is set
to the new digest's first 12 hex digits.
"""
import hashlib
import json
from dataclasses import asdict

import numpy as np

from robustrec import ARITHMETIC
from robustrec.dataset import split_arrays
from robustrec.evalkit import build_bed, evaluate, gold_explanations, train_feature_sets
from robustrec.robustness import (DefenseConfig, TrainingConfig, attack_gradient,
                                  attacked_copy, scale_attack, train_defended)


def _update(h, name: str, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
    h.update(arr.tobytes())


def pipeline_digest(split, X, Y, models) -> str:
    h = hashlib.sha256()
    for name, arr in sorted({**split_arrays(split)[1], "X": X, "Y": Y}.items()):
        _update(h, name, arr)
    defense = DefenseConfig(lam=0.5, eps_d=0.25)
    gold, user_features = gold_explanations(split), train_feature_sets(split)
    for model in models:
        result = train_defended(model, split, defense,
                                TrainingConfig(batch_size=8, lr=0.01, max_epochs=1), seed=0)
        _update(h, f"{model.kind}.train_loss", np.asarray(result.train_loss))
        for name, arr in model.param_arrays().items():
            _update(h, f"{model.kind}.{name}", arr)
        gradient = attack_gradient(model, defense, seed=0, batch_size=8)
        for name, arr in gradient.xi.items():
            _update(h, f"{model.kind}.xi.{name}", arr)
        _update(h, f"{model.kind}.grad_norm", np.float64(gradient.grad_norm))
        bed = build_bed(model, split, k_rec=5)
        attacked = attacked_copy(model, scale_attack(gradient, 0.5).delta)
        for target in (model, attacked):
            report = evaluate(target, split, bed, gold, user_features)
            assert report.n_pairs > 0  # the digest covers explanations too
            h.update(json.dumps(asdict(report), sort_keys=True).encode())
    return h.hexdigest()


def test_arithmetic_is_the_pinned_pipeline_digest(efm_tiny, cer_tiny, tiny_split, tiny_matrices):
    digest = pipeline_digest(tiny_split, *tiny_matrices, [efm_tiny, cer_tiny])
    assert digest[:12] == ARITHMETIC, (
        f"the pipeline's numbers moved: set robustrec.ARITHMETIC to {digest[:12]!r}, "
        "which keys the whole cache afresh")
