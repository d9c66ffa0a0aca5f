"""Shared fixtures: a small synthetic split and attached models."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from robustrec.aspects import build_matrices
from robustrec.dataset import SplitConfig, build_split, ingest_reviews
from robustrec.models import CER, EFM, CERConfig, EFMConfig
from robustrec.synth import SynthConfig, synth_jsonl


TINY_CORPUS = SynthConfig(n_users=8, n_items=40, n_features=10,
                          reviews_per_user=10, n_item_features=3, seed=5)
TINY_SPLIT = SplitConfig(seed=5, n_test_pos=2, n_test_neg=8, n_val_neg=4)


@pytest.fixture(scope="session")
def tiny_split():
    return build_split(ingest_reviews(synth_jsonl(TINY_CORPUS)), TINY_SPLIT)


@pytest.fixture(scope="session")
def tiny_matrices(tiny_split):
    return build_matrices(tiny_split)


@pytest.fixture()
def efm_tiny(tiny_split, tiny_matrices):
    X, Y = tiny_matrices
    model = EFM(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                EFMConfig(n_factors=6, n_hidden=3, top_k_features=4))
    model.attach(tiny_split, X, Y)
    model.reinit(0)
    return model


@pytest.fixture()
def cer_tiny(tiny_split, tiny_matrices):
    X, Y = tiny_matrices
    model = CER(tiny_split.n_users, tiny_split.n_items, tiny_split.n_features,
                CERConfig(hidden=(8, 4), top_k=3, cf_steps=80))
    model.attach(tiny_split, X, Y)
    model.reinit(0)
    return model
