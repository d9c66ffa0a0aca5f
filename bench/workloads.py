"""The benchmark's workloads: one pinned corpus, three sweep configurations.

Every workload runs on the same review corpus, `robustrec.synth` defaults at
corpus seed 0 (200 users, 500 items, 30 features, 5,200 reviews). The
workload seed permutes the order of the corpus lines. Ingestion sorts reviews
by (user, timestamp), so the permutation must not change any output; it
varies the input bytes while the amount of work stays fixed. Changing the
corpus content per seed is not an option here: the counterfactual work of a
CER sweep follows the size of the evaluation bed, which ranged over 52-71
pairs on synth seeds 0-4 (at 1 epoch), a spread wider than any bound the
benchmark could hold.

`max_epochs` equals `patience`, so early stopping cannot change the number
of epochs trained. The cold workloads train 3 epochs. The repo's own default
is 50 epochs with patience 5, which no run of this length can hold. At 3
epochs a traced efm-grid sweep spends 45% of its time in training and 52% in
the attack; at 1 epoch training falls to 20% and the attack rises to 77%, so
training-side changes would weigh half as much. `warm-rerun` trains 1 epoch: its
training is the untimed fill, and the read path it times loads checkpoints of
the same size whatever the epoch count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

CORPUS_SEED = 0
CORPUS_FILE = "reviews.jsonl"
COLD_EPOCHS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict           # merged over robustrec's config defaults
    warm: bool = False        # time reruns on a cache filled beforehand
    profile_algo: str = ""    # algo whose tape the op-level profile counts
    synth: dict = field(default_factory=dict)  # SynthConfig fields besides the seed

    @property
    def epochs(self) -> int:
        """Epochs every cell trains: max_epochs = patience."""
        return self.overrides["training"]["max_epochs"]


def _sweep(algos: list[str], eps_a_grid: list[float], epochs: int = COLD_EPOCHS,
           **model) -> dict:
    cfg = {
        "dataset": {"path": CORPUS_FILE},
        "training": {"max_epochs": epochs, "patience": epochs},
        "attack": {"eps_a_grid": eps_a_grid},
        "sweep": {"algos": algos, "lambdas": [0.0, 0.5], "eps_ds": [0.25], "seeds": [0]},
    }
    if model:
        cfg["model"] = model
    return cfg


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    # full-data attack gradients (one per eps_a) and training epochs on
    # large arrays dominate
    Workload(
        "efm-grid",
        _sweep(["efm"], [0.0, 0.25, 0.5, 0.75, 1.0]),
        profile_algo="efm"),
    # per-pair counterfactual solves, made of many tiny tape ops, dominate
    Workload(
        "cer-grid",
        _sweep(["cer"], [0.0, 0.5]),
        profile_algo="cer"),
    # a rerun on a cache filled with the same config: only the artifact
    # read path runs
    Workload(
        "warm-rerun",
        # the fill is untimed; fewer counterfactual steps only shorten it
        _sweep(["efm", "cer"], [0.0, 0.5], epochs=1, cer={"cf_steps": 20}),
        warm=True),
]}


def n_cells(overrides: dict) -> int:
    """Cells the sweep trains: lambda = 0 collapses the eps_d axis."""
    sw = overrides["sweep"]
    per_seed = sum(1 if lam == 0.0 else len(sw["eps_ds"]) for lam in sw["lambdas"])
    return len(sw["algos"]) * len(sw["seeds"]) * per_seed


def n_rows(overrides: dict) -> int:
    """results.csv rows: one per cell and eps_a point."""
    return n_cells(overrides) * len(overrides["attack"]["eps_a_grid"])
