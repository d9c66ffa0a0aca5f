"""Sweep orchestration: train/attack/evaluate grids over one artifact cache.

Every cached stage goes through `artifact`: its path is a hash of every input
the stage depends on, a complete artifact is reused, one that fails to load
is rebuilt, and a new one is published with a single rename. Re-running a
sweep is therefore idempotent, and two fresh runs of the same config produce
byte-identical results.csv. Vanilla cells run first: their rankings define
the per-(algo, seed) evaluation bed every condition is scored on.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from ..aspects import build_matrices, load_matrix, save_matrix
from ..dataset import (DatasetSplit, SplitConfig, build_split, dataset_stats, ingest_reviews,
                       load_split_manifest, save_split_manifest)
from ..evalkit import build_bed, evaluate, gold_explanations, train_feature_sets
from ..models import build_model, load_checkpoint, save_checkpoint
from ..models.base import Recommender
# attack_weights is not called here; it stays importable from this module
# because bench/tracing.py patches it by this name
from ..robustness import (AttackGradient, DefenseConfig, attack_gradient,  # noqa: F401
                          attack_weights, attacked_copy, fmt_eps, scale_attack,
                          train_defended)
from .config import config_hash, training_config

CACHE_ENV = "ROBUSTREC_CACHE"

# the EvalReport fields a results row carries, under the same names
REPORT_COLUMNS = ["ndcg", "expl_pr", "expl_re", "expl_f1", "n_users", "n_pairs", "n_non_cf"]
RESULT_COLUMNS = ["run_id", "algo", "dataset", "lambda", "eps_d", "eps_a", "condition",
                  *REPORT_COLUMNS, "grad_norm"]

log = logging.getLogger(__name__)
T = TypeVar("T")


def resolve_cache(explicit: str | Path | None = None) -> Path:
    """--cache flag > ROBUSTREC_CACHE env var > ./cache."""
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(CACHE_ENV, "") or "./cache")


def artifact(path: Path, build: Callable[[], T], save: Callable[[Path, T], None],
             load: Callable[[Path], T]) -> T:
    """The cache policy of every stage: `load(path)` when that succeeds,
    otherwise `build()`, saved through `publish`. An artifact that exists but
    fails to load (OSError, ValueError, KeyError) is logged, removed and
    rebuilt, so a damaged cache heals instead of wedging."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as err:
        if os.path.lexists(path):
            log.warning("rebuilding %s: %s", path, err)
            _remove(path)
    value = build()
    publish(path, lambda tmp: save(tmp, value))
    return value


def publish(path: Path, save: Callable[[Path], None]) -> None:
    """`save` writes a temporary sibling that one os.replace moves into
    place, so `path` is either absent or complete."""
    tmp = path.with_name(path.name + ".partial")
    if os.path.lexists(tmp):
        log.warning("removing unfinished %s", tmp)
        _remove(tmp)
    path.parent.mkdir(parents=True, exist_ok=True)
    save(tmp)
    os.replace(tmp, path)


def _remove(path: Path) -> None:
    shutil.rmtree(path) if path.is_dir() else path.unlink()


@dataclass(frozen=True)
class SweepCell:
    algo: str
    lam: float
    eps_d: float
    seed: int


def enumerate_cells(algos, lambdas, eps_ds, seeds) -> list[SweepCell]:
    """One training run per cell; lambda = 0 collapses the eps_d axis (the
    budget is unused) and sorts first, so beds exist before defended cells."""
    cells: list[SweepCell] = []
    for algo in sorted(algos):
        for seed in sorted(seeds):
            for lam in sorted(lambdas):
                if lam == 0.0:
                    cells.append(SweepCell(algo, 0.0, 0.0, seed))
                else:
                    for eps_d in sorted(eps_ds):
                        cells.append(SweepCell(algo, lam, eps_d, seed))
    return cells


class Dataset(NamedTuple):
    split: DatasetSplit
    X: np.ndarray
    Y: np.ndarray
    stats: dict  # corpus counts plus the sha256 of the review file's bytes


def _dataset_source(cfg: dict, sha256: str) -> dict:
    """What a dataset depends on: its settings bar the path, and the review bytes."""
    return {**{k: v for k, v in cfg["dataset"].items() if k != "path"}, "sha256": sha256}


def load_dataset(cfg: dict, cache: Path) -> Dataset:
    """Build (or reuse) the split and aspect matrices for cfg['dataset']."""
    dcfg = cfg["dataset"]
    if not dcfg["path"]:
        raise ValueError("dataset.path is required (a JSON-lines review file)")
    digest = hashlib.sha256()
    with open(dcfg["path"], "rb") as fh:  # in chunks: a cache hit never holds the file
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    sha256 = digest.hexdigest()

    def build() -> Dataset:
        raw = Path(dcfg["path"]).read_bytes()
        if hashlib.sha256(raw).hexdigest() != sha256:
            raise ValueError(f"{dcfg['path']} changed while it was being read")
        records = ingest_reviews(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),
                                 min_reviews_per_user=int(dcfg["min_reviews_per_user"]),
                                 max_rating=int(dcfg["max_rating"]))
        split = build_split(records, SplitConfig(seed=dcfg["seed"]),
                            max_rating=int(dcfg["max_rating"]))
        X, Y = build_matrices(split.train, split.n_users, split.n_items,
                              split.n_features, split.n_rating)
        return Dataset(split, X, Y, {**dataset_stats(records), "sha256": sha256})

    def save(path: Path, data: Dataset) -> None:
        path.mkdir()
        save_split_manifest(data.split, path / "split.json")
        save_matrix(path / "x.bin", data.X, data.split.n_rating)
        save_matrix(path / "y.bin", data.Y, data.split.n_rating)
        (path / "stats.json").write_text(json.dumps(data.stats, indent=2, sort_keys=True))

    def load(path: Path) -> Dataset:
        return Dataset(load_split_manifest(path / "split.json"), load_matrix(path / "x.bin")[0],
                       load_matrix(path / "y.bin")[0],
                       json.loads((path / "stats.json").read_text()))

    key = config_hash(_dataset_source(cfg, sha256))
    return artifact(cache / "datasets" / key, build, save, load)


def cell_run_config(cfg: dict, cell: SweepCell, data: Dataset) -> dict:
    """The exact configuration a run id is hashed from."""
    return {
        "dataset": _dataset_source(cfg, data.stats["sha256"]),
        "model": {"algo": cell.algo, cell.algo: cfg["model"][cell.algo]},
        "training": {**cfg["training"], "seed": cell.seed},
        "defense": {"lambda": cell.lam, "eps_d": cell.eps_d},
    }


def new_model(cfg: dict, cell: SweepCell, data: Dataset) -> Recommender:
    """An untrained model for the cell, attached to the dataset."""
    model = build_model(cell.algo, data.split, {cell.algo: cfg["model"][cell.algo]})
    model.attach(data.split, data.X, data.Y)
    return model


def train_cell(cfg: dict, cell: SweepCell, data: Dataset,
               cache: Path) -> tuple[Recommender, dict, Path]:
    """The cell's model with best-epoch parameters, attached to the split,
    its checkpoint manifest and its run directory (named by the run id).
    Trains unless the checkpoint is cached."""
    run_cfg = cell_run_config(cfg, cell, data)
    run_dir = cache / "runs" / config_hash(run_cfg)
    split, model = data.split, new_model(cfg, cell, data)

    def build() -> dict:
        result = train_defended(model, split, DefenseConfig(lam=cell.lam, eps_d=cell.eps_d),
                                training_config(cfg), cell.seed)
        return {"kind": cell.algo, "config": run_cfg, "seed": cell.seed,
                "dims": {"n_users": split.n_users, "n_items": split.n_items,
                         "n_features": split.n_features, "n_rating": split.n_rating},
                "epochs_trained": result.epochs_run, "best_epoch": result.best_epoch,
                "val_history": result.history, "lr_used": result.lr_used,
                "restarts": result.restarts}

    def load(path: Path) -> dict:
        manifest, params = load_checkpoint(path)
        model.reinit(cell.seed)
        model.set_param_arrays(params)
        return manifest

    manifest = artifact(run_dir / "checkpoint", build,
                        lambda path, m: save_checkpoint(path, m, model.param_arrays()), load)
    return model, manifest, run_dir


def ensure_trained(cfg: dict, cell: SweepCell, data: Dataset,
                   cache: Path) -> tuple[Recommender, Path, str]:
    """`train_cell` as (model, run_dir, run_id)."""
    model, _, run_dir = train_cell(cfg, cell, data, cache)
    return model, run_dir, run_dir.name


def _bed_key(cfg: dict, cell: SweepCell, data: Dataset) -> tuple[str, str]:
    """The vanilla run of (algo, seed), whose directory keeps the bed, and
    the bed's key: that run and k_rec."""
    vanilla = SweepCell(cell.algo, 0.0, 0.0, cell.seed)
    vanilla_id = config_hash(cell_run_config(cfg, vanilla, data))
    return vanilla_id, config_hash({"run": vanilla_id, "k_rec": int(cfg["eval"]["k_rec"])})


def ensure_bed(cfg: dict, cell: SweepCell, data: Dataset, cache: Path) -> dict[int, list[int]]:
    """The evaluation bed for (algo, seed): the vanilla model's top-k hits.
    Trains the vanilla cell on demand when the sweep doesn't include it."""
    def build() -> dict[int, list[int]]:
        vanilla = SweepCell(cell.algo, 0.0, 0.0, cell.seed)
        model, _, _ = ensure_trained(cfg, vanilla, data, cache)
        return build_bed(model, data.split, k_rec=int(cfg["eval"]["k_rec"]))

    def save(path: Path, bed: dict[int, list[int]]) -> None:
        path.write_text(json.dumps({str(u): vs for u, vs in sorted(bed.items())}, sort_keys=True))

    def load(path: Path) -> dict[int, list[int]]:
        doc = json.loads(path.read_text())
        return {int(u): [int(v) for v in items] for u, items in doc.items()}

    vanilla_id, key = _bed_key(cfg, cell, data)
    return artifact(cache / "runs" / vanilla_id / f"bed_{key}.json", build, save, load)


def _attack_key(cfg: dict, run_id: str) -> str:
    a = cfg["attack"]
    return config_hash({"run": run_id, "seed": int(a["seed"]),
                        "batch_size": int(a["batch_size"])})


def ensure_attack(cfg: dict, cell: SweepCell, model: Recommender, run_dir: Path,
                  run_id: str) -> tuple[AttackGradient, Path]:
    """The attack gradient Xi of a trained run, shared by every eps_a, and its
    path: a checkpoint-format directory holding Xi, with ||Xi||_2 in the
    manifest. `scale_attack` turns it into the delta for one budget."""
    def build() -> AttackGradient:
        return attack_gradient(model, DefenseConfig(lam=cell.lam, eps_d=cell.eps_d),
                               seed=int(cfg["attack"]["seed"]),
                               batch_size=int(cfg["attack"]["batch_size"]))

    def save(path: Path, gradient: AttackGradient) -> None:
        save_checkpoint(path, {"kind": "attack-gradient", "grad_norm": gradient.grad_norm},
                        gradient.xi)

    def load(path: Path) -> AttackGradient:
        manifest, xi = load_checkpoint(path)
        # in the model's parameter order, which the norms of a delta are summed in
        return AttackGradient({name: xi[name] for name in model.params}, manifest["grad_norm"])

    path = run_dir / f"attack_{_attack_key(cfg, run_id)}"
    return artifact(path, build, save, load), path


def ensure_eval(cfg: dict, cell: SweepCell, model: Recommender, run_dir: Path,
                run_id: str, eps_a: float, data: Dataset,
                bed: dict[int, list[int]], gold, user_features) -> dict:
    """One results row: clean when eps_a = 0, otherwise attack then evaluate.
    A cached row is reused without loading the attack gradient behind it."""
    top_n, k_ndcg = int(cfg["eval"]["top_n"]), int(cfg["eval"]["k_ndcg"])
    key = config_hash({"attack": _attack_key(cfg, run_id), "eps_a": eps_a,
                       "bed": _bed_key(cfg, cell, data)[1], "top_n": top_n,
                       "k_ndcg": k_ndcg, "dataset": cfg["dataset"]["name"]})

    def build() -> dict:
        target, grad_norm = model, None
        if eps_a != 0.0:
            gradient, _ = ensure_attack(cfg, cell, model, run_dir, run_id)
            target = attacked_copy(model, scale_attack(gradient, eps_a).delta)
            grad_norm = gradient.grad_norm
        report = evaluate(target, data.split, bed, gold, user_features,
                          top_n=top_n, k_ndcg=k_ndcg)
        return {"run_id": run_id, "algo": cell.algo, "dataset": cfg["dataset"]["name"],
                "lambda": cell.lam, "eps_d": cell.eps_d, "eps_a": eps_a,
                "condition": "clean" if eps_a == 0.0 else "attacked",
                **{c: getattr(report, c) for c in REPORT_COLUMNS}, "grad_norm": grad_norm}

    def load(path: Path) -> dict:
        row = json.loads(path.read_text())
        missing = [c for c in RESULT_COLUMNS if c not in row]
        if missing:
            raise KeyError(f"results row lacks {missing}")
        return row

    return artifact(run_dir / f"eval_{key}.json", build,
                    lambda path, row: path.write_text(json.dumps(row, indent=2, sort_keys=True)),
                    load)


def write_results(path: Path, rows: list[dict]) -> None:
    """Deterministic CSV: fixed column order, sorted rows, fixed float formats.
    grad_norm is empty on clean rows (and rows without one)."""
    def key(row):
        return (row["algo"], row["dataset"], row["lambda"], row["eps_d"],
                row["run_id"], row["eps_a"])

    def save(tmp: Path) -> None:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for row in sorted(rows, key=key):
                writer.writerow([
                    row["run_id"], row["algo"], row["dataset"],
                    fmt_eps(row["lambda"]), fmt_eps(row["eps_d"]), fmt_eps(row["eps_a"]),
                    row["condition"],
                    f"{row['ndcg']:.6f}", f"{row['expl_pr']:.6f}",
                    f"{row['expl_re']:.6f}", f"{row['expl_f1']:.6f}",
                    row["n_users"], row["n_pairs"], row["n_non_cf"],
                    "" if row.get("grad_norm") is None else f"{row['grad_norm']:.6e}",
                ])

    publish(path, save)


def run_sweep(cfg: dict, cache: Path | None = None) -> Path:
    """Execute the whole grid; returns the path of results.csv."""
    cache = resolve_cache(cache)
    data = load_dataset(cfg, cache)
    gold = gold_explanations(data.split)
    user_features = train_feature_sets(data.split)
    sw = cfg["sweep"]
    cells = enumerate_cells(sw["algos"], sw["lambdas"], sw["eps_ds"], sw["seeds"])
    rows: list[dict] = []
    for cell in cells:
        model, run_dir, run_id = ensure_trained(cfg, cell, data, cache)
        bed = ensure_bed(cfg, cell, data, cache)
        for eps_a in cfg["attack"]["eps_a_grid"]:
            rows.append(ensure_eval(cfg, cell, model, run_dir, run_id, float(eps_a),
                                    data, bed, gold, user_features))
    out = cache / "results.csv"
    write_results(out, rows)
    return out
