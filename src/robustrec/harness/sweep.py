"""Sweep orchestration: train/attack/evaluate grids with content-addressed caching.

Every cell (algo, lambda, eps_d, seed) maps to a run id hashed from the
exact configuration that produced it; finished work is reused, so re-running
a sweep is idempotent and two fresh runs of the same config produce
byte-identical results.csv. Vanilla cells run first: their rankings define
the per-(algo, seed) evaluation bed every condition is scored on.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..aspects import build_matrices, load_matrix, save_matrix
from ..dataset import (DatasetSplit, build_split, dataset_stats, ingest_reviews,
                       load_split_manifest, save_split_manifest)
from ..evalkit import build_bed, evaluate, gold_explanations, train_feature_sets
from ..models import build_model, load_checkpoint, save_checkpoint
from ..models.base import Recommender
from ..robustness import (DefenseConfig, attack_weights, attacked_copy, fmt_eps,
                          load_attack, save_attack, train_defended)
from .config import config_hash, defense_config, split_config, training_config

CACHE_ENV = "ROBUSTREC_CACHE"

RESULT_COLUMNS = ["run_id", "algo", "dataset", "lambda", "eps_d", "eps_a",
                  "condition", "ndcg", "expl_pr", "expl_re", "expl_f1",
                  "n_users", "n_pairs", "n_non_cf"]


def resolve_cache(explicit: str | Path | None = None) -> Path:
    """--cache flag > ROBUSTREC_CACHE env var > ./cache."""
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(CACHE_ENV, "") or "./cache")


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


def load_dataset(cfg: dict, cache: Path) -> tuple[DatasetSplit, np.ndarray, np.ndarray, dict]:
    """Build (or reuse) the split and aspect matrices for cfg['dataset']."""
    dcfg = cfg["dataset"]
    if not dcfg["path"]:
        raise ValueError("dataset.path is required (a JSON-lines review file)")
    ddir = cache / "datasets" / config_hash(dcfg)
    split_path = ddir / "split.json"
    if split_path.exists():
        split = load_split_manifest(split_path)
        X, _ = load_matrix(ddir / "x.bin")
        Y, _ = load_matrix(ddir / "y.bin")
        stats = json.loads((ddir / "stats.json").read_text())
        return split, X, Y, stats
    records = ingest_reviews(dcfg["path"], min_reviews_per_user=int(dcfg["min_reviews_per_user"]),
                             max_rating=int(dcfg["max_rating"]))
    stats = dataset_stats(records)
    split = build_split(records, split_config(cfg), max_rating=int(dcfg["max_rating"]))
    X, Y = build_matrices(split.train, split.n_users, split.n_items,
                          split.n_features, split.n_rating)
    ddir.mkdir(parents=True, exist_ok=True)
    save_split_manifest(split, split_path)
    save_matrix(ddir / "x.bin", X, split.n_rating)
    save_matrix(ddir / "y.bin", Y, split.n_rating)
    (ddir / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
    return split, X, Y, stats


def cell_run_config(cfg: dict, cell: SweepCell) -> dict:
    """The exact configuration a run id is hashed from."""
    model_cfg = {"algo": cell.algo, cell.algo: cfg["model"][cell.algo]}
    training = dict(cfg["training"])
    training["seed"] = cell.seed
    return {
        "dataset": cfg["dataset"],
        "model": model_cfg,
        "training": training,
        "defense": {"lambda": cell.lam, "eps_d": cell.eps_d},
    }


def ensure_trained(cfg: dict, cell: SweepCell, split: DatasetSplit,
                   X: np.ndarray, Y: np.ndarray, cache: Path) -> tuple[Recommender, Path, str]:
    """Train the cell unless its checkpoint already exists; return the model
    with best-epoch parameters loaded and attached to the split."""
    run_cfg = cell_run_config(cfg, cell)
    run_id = config_hash(run_cfg)
    run_dir = cache / "runs" / run_id
    model = build_model(cell.algo, split, {cell.algo: cfg["model"][cell.algo]})
    model.attach(split, X, Y)
    ckpt = run_dir / "checkpoint"
    if (ckpt / "manifest.json").exists():
        manifest, params = load_checkpoint(ckpt)
        model.reinit(cell.seed)
        model.set_param_arrays(params)
        return model, run_dir, run_id
    defense = DefenseConfig(lam=cell.lam, eps_d=cell.eps_d)
    result = train_defended(model, split, defense, training_config(cfg), cell.seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "kind": cell.algo,
        "dims": {"n_users": split.n_users, "n_items": split.n_items,
                 "n_features": split.n_features, "n_rating": split.n_rating},
        "config": run_cfg,
        "seed": cell.seed,
        "epochs_trained": result.epochs_run,
        "best_epoch": result.best_epoch,
        "val_history": result.history,
    }
    save_checkpoint(ckpt, manifest, model.param_arrays())
    (run_dir / "config.json").write_text(json.dumps(run_cfg, indent=2, sort_keys=True))
    return model, run_dir, run_id


def ensure_bed(cfg: dict, cell: SweepCell, model: Recommender, run_dir: Path,
               split: DatasetSplit, X: np.ndarray, Y: np.ndarray, cache: Path) -> dict[int, list[int]]:
    """The evaluation bed for (algo, seed): the vanilla model's top-k hits.
    Trains the vanilla cell on demand when the sweep doesn't include it."""
    if cell.lam == 0.0:
        vanilla_model, vanilla_dir = model, run_dir
    else:
        vanilla_cell = SweepCell(cell.algo, 0.0, 0.0, cell.seed)
        vanilla_model, vanilla_dir, _ = ensure_trained(cfg, vanilla_cell, split, X, Y, cache)
    bed_path = vanilla_dir / "bed.json"
    if bed_path.exists():
        doc = json.loads(bed_path.read_text())
        return {int(u): [int(v) for v in items] for u, items in doc.items()}
    bed = build_bed(vanilla_model, split, k_rec=int(cfg["eval"]["k_rec"]))
    bed_path.parent.mkdir(parents=True, exist_ok=True)
    bed_path.write_text(json.dumps({str(u): vs for u, vs in sorted(bed.items())},
                                   sort_keys=True))
    return bed


def ensure_eval(cfg: dict, cell: SweepCell, model: Recommender, run_dir: Path,
                run_id: str, eps_a: float, split: DatasetSplit,
                bed: dict[int, list[int]], gold, user_features) -> dict:
    """One results row: clean when eps_a = 0, otherwise attack then evaluate."""
    eval_path = run_dir / f"eval_{fmt_eps(eps_a)}.json"
    if eval_path.exists():
        row = json.loads(eval_path.read_text())
        if set(RESULT_COLUMNS) <= set(row):  # rows from before a column existed are redone
            return row
    if eps_a == 0.0:
        target = model
    else:
        defense = DefenseConfig(lam=cell.lam, eps_d=cell.eps_d)
        if (run_dir / f"attack_{fmt_eps(eps_a)}.json").exists():
            attack = load_attack(run_dir, eps_a)
        else:
            attack = attack_weights(model, defense, eps_a,
                                    seed=int(cfg["attack"]["seed"]),
                                    batch_size=int(cfg["attack"]["batch_size"]))
            save_attack(run_dir, eps_a, attack)
        target = attacked_copy(model, attack.delta)
    report = evaluate(target, split, bed, gold, user_features,
                      top_n=int(cfg["eval"]["top_n"]), k_ndcg=int(cfg["eval"]["k_ndcg"]))
    row = {
        "run_id": run_id,
        "algo": cell.algo,
        "dataset": cfg["dataset"]["name"],
        "lambda": cell.lam,
        "eps_d": cell.eps_d,
        "eps_a": eps_a,
        "condition": "clean" if eps_a == 0.0 else "attacked",
        "ndcg": report.ndcg,
        "expl_pr": report.expl_pr,
        "expl_re": report.expl_re,
        "expl_f1": report.expl_f1,
        "n_users": report.n_users,
        "n_pairs": report.n_pairs,
        "n_non_cf": report.n_non_cf,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    eval_path.write_text(json.dumps(row, indent=2, sort_keys=True))
    return row


def write_results(path: Path, rows: list[dict]) -> None:
    """Deterministic CSV: fixed column order, sorted rows, fixed float formats."""
    def key(row):
        return (row["algo"], row["dataset"], row["lambda"], row["eps_d"],
                row["run_id"], row["eps_a"])

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
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
            ])


def run_sweep(cfg: dict, cache: Path | None = None) -> Path:
    """Execute the whole grid; returns the path of results.csv."""
    cache = resolve_cache(cache)
    split, X, Y, _ = load_dataset(cfg, cache)
    gold = gold_explanations(split)
    user_features = train_feature_sets(split)
    sw = cfg["sweep"]
    cells = enumerate_cells(sw["algos"], sw["lambdas"], sw["eps_ds"], sw["seeds"])
    rows: list[dict] = []
    for cell in cells:
        model, run_dir, run_id = ensure_trained(cfg, cell, split, X, Y, cache)
        bed = ensure_bed(cfg, cell, model, run_dir, split, X, Y, cache)
        for eps_a in cfg["attack"]["eps_a_grid"]:
            rows.append(ensure_eval(cfg, cell, model, run_dir, run_id, float(eps_a),
                                    split, bed, gold, user_features))
    out = cache / "results.csv"
    write_results(out, rows)
    return out
