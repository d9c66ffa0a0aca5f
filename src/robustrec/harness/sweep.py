"""Sweep orchestration: train/attack/evaluate grids over one artifact cache.

Every cached stage goes through `artifact`: its path is a hash of every input
the stage depends on, a complete artifact is reused, one that fails to load
is rebuilt, and a new one is published with a single rename. Re-running a
sweep is therefore idempotent, and two fresh runs of the same config produce
byte-identical results.csv. Processes may fill one cache at once: each
writes its own temporary, and one that loses the rename loads the winner's.
Vanilla cells run first: their rankings define the per-(algo, seed)
evaluation bed every condition is scored on.

Every key comes from the review file's sha256, hashed once per sweep; the
dataset, each cell's model and its attack gradient are callables that load or
build them on their first call, made when a results row has to be built, so
a rerun of a finished grid reads only the review file, each bed once per
(algo, seed) and each results row. Within a cell every eps_a shares one model
and one attack gradient, and the bed of a sweep's vanilla cell is built from
that cell's model; both are dropped when the cell ends. The evaluation inputs
(gold explanations and the users' training features) are likewise derived
once, on the first results row built.
"""
from __future__ import annotations

import csv
import errno
import functools
import hashlib
import io
import json
import logging
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from ..aspects import build_matrices
from ..dataset import (DatasetSplit, SplitConfig, build_split, dataset_stats, ingest_reviews,
                       split_arrays, split_from_arrays)
from ..evalkit import build_bed, evaluate, gold_explanations, train_feature_sets
from ..models import build_model, load_checkpoint, save_checkpoint
from ..models.base import Recommender
# attack_weights is not called here; it stays importable from this module
# because bench/tracing.py patches it by this name
from ..robustness import (AttackGradient, DefenseConfig, attack_gradient,  # noqa: F401
                          attack_weights, attacked_copy, fmt_eps, params_norm,
                          scale_attack, train_defended)
from .config import config_hash, training_config

CACHE_ENV = "ROBUSTREC_CACHE"

# the EvalReport fields a results row carries, under the same names
REPORT_COLUMNS = ["ndcg", "expl_pr", "expl_re", "expl_f1", "n_users", "n_pairs", "n_non_cf"]
RESULT_COLUMNS = ["run_id", "algo", "dataset", "lambda", "eps_d", "eps_a", "condition",
                  *REPORT_COLUMNS, "grad_norm"]
# the JSON types of the results row columns that are not int or float
COLUMN_TYPES = {**dict.fromkeys(["run_id", "algo", "dataset", "condition"], (str,)),
                **dict.fromkeys(["n_users", "n_pairs", "n_non_cf"], (int,)),
                "grad_norm": (int, float, type(None))}

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
    rebuilt, so a damaged cache heals instead of wedging. When another
    process publishes the same artifact first, its copy is loaded."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as err:
        if os.path.lexists(path):
            log.warning("rebuilding %s: %s", path, err)
            _remove(path)
    value = build()
    if not publish(path, lambda tmp: save(tmp, value)):
        return load(path)
    return value


def publish(path: Path, save: Callable[[Path], None]) -> bool:
    """`save` writes a temporary sibling named for this process,
    `<name>.<pid>.partial`, that one os.replace moves into place, so `path`
    is either absent or complete. Unfinished siblings left by processes that
    are gone are removed first. Returns False, after removing this process's
    temporary, when another process already published a directory at `path`."""
    _remove_stale_partials(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.partial")
    path.parent.mkdir(parents=True, exist_ok=True)
    save(tmp)
    try:
        os.replace(tmp, path)
    except OSError as err:
        if err.errno not in (errno.ENOTEMPTY, errno.EEXIST) or not os.path.isdir(path):
            raise
        _remove(tmp)
        return False
    return True


def _remove_stale_partials(path: Path) -> None:
    """Remove `path`'s temporaries whose writer is no longer running: this
    process (an earlier save that failed), a process that has exited, or no
    process named at all."""
    if not path.parent.is_dir():
        return
    pattern = re.compile(re.escape(path.name) + r"(?:\.(\d+))?\.partial")
    for sibling in path.parent.iterdir():
        match = pattern.fullmatch(sibling.name)
        if match and not _running_elsewhere(match.group(1)):
            log.warning("removing unfinished %s", sibling)
            _remove(sibling)


def _running_elsewhere(pid: str | None) -> bool:
    if pid is None or int(pid) == os.getpid():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


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


def review_sha256(cfg: dict) -> str:
    """The sha256 of the bytes of the review file cfg['dataset'] names."""
    path = cfg["dataset"]["path"]
    if not path:
        raise ValueError("dataset.path is required (a JSON-lines review file)")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # in chunks: a cache hit never holds the file
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_dataset(cfg: dict, cache: Path, sha256: str | None = None) -> Dataset:
    """Build (or reuse) the split and aspect matrices for cfg['dataset'];
    `sha256` is the review file's `review_sha256`, hashed here when not given."""
    dcfg = cfg["dataset"]
    sha256 = sha256 or review_sha256(cfg)

    def build() -> Dataset:
        raw = Path(dcfg["path"]).read_bytes()
        if hashlib.sha256(raw).hexdigest() != sha256:
            raise ValueError(f"{dcfg['path']} changed while it was being read")
        records = ingest_reviews(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),
                                 min_reviews_per_user=int(dcfg["min_reviews_per_user"]),
                                 max_rating=int(dcfg["max_rating"]))
        split = build_split(records, SplitConfig(seed=dcfg["seed"]),
                            max_rating=int(dcfg["max_rating"]))
        X, Y = build_matrices(split)
        return Dataset(split, X, Y, {**dataset_stats(records), "sha256": sha256})

    def save(path: Path, data: Dataset) -> None:
        split = data.split
        save_checkpoint(path, {"users": split.users, "items": split.items,
                               "features": split.features, "n_rating": split.n_rating,
                               "stats": data.stats},
                        {**split_arrays(split), "X": data.X, "Y": data.Y})

    def load(path: Path) -> Dataset:
        manifest, arrays = load_checkpoint(path)
        stats = manifest.get("stats")
        if not (isinstance(stats, dict) and stats.get("sha256") == sha256):
            raise ValueError(f"{path}: stats must be an object with the review file's sha256")
        return Dataset(split_from_arrays(manifest, arrays), arrays["X"], arrays["Y"], stats)

    key = config_hash(_dataset_source(cfg, sha256))
    return artifact(cache / "datasets" / key, build, save, load)


def lazy_dataset(cfg: dict, cache: Path) -> tuple[str, Callable[[], Dataset]]:
    """The review file's sha256, hashed now, and the dataset as a callable
    that loads (or builds) it on its first call and returns it after."""
    sha256 = review_sha256(cfg)
    return sha256, functools.cache(lambda: load_dataset(cfg, cache, sha256))


def cell_run_config(cfg: dict, cell: SweepCell, sha256: str) -> dict:
    """The exact configuration a run id is hashed from; `sha256` is the
    review file's."""
    return {
        "dataset": _dataset_source(cfg, sha256),
        "model": {"algo": cell.algo, cell.algo: cfg["model"][cell.algo]},
        "training": {**cfg["training"], "seed": cell.seed},
        "defense": {"lambda": cell.lam, "eps_d": cell.eps_d},
    }


def new_model(cfg: dict, cell: SweepCell, data: Dataset) -> Recommender:
    """An untrained model for the cell, attached to the dataset."""
    model = build_model(cell.algo, data.split, {cell.algo: cfg["model"][cell.algo]})
    model.attach(data.split, data.X, data.Y)
    return model


def ensure_trained(cfg: dict, cell: SweepCell, data: Dataset,
                   cache: Path) -> tuple[Recommender, Path, str, dict]:
    """(model, run_dir, run_id, manifest): the cell's model with best-epoch
    parameters, attached to the split, its run directory, named by the run
    id, and its checkpoint manifest. Trains unless the checkpoint is cached."""
    run_cfg = cell_run_config(cfg, cell, data.stats["sha256"])
    run_dir = cache / "runs" / config_hash(run_cfg)
    split, model = data.split, new_model(cfg, cell, data)

    def build() -> dict:
        result = train_defended(model, split, DefenseConfig(lam=cell.lam, eps_d=cell.eps_d),
                                training_config(cfg), cell.seed)
        return {"kind": cell.algo, "config": run_cfg, "seed": cell.seed,
                "dims": {"n_users": split.n_users, "n_items": split.n_items,
                         "n_features": split.n_features, "n_rating": split.n_rating},
                "epochs_trained": result.epochs_run, "best_epoch": result.best_epoch,
                "val_history": result.history, "train_loss": result.train_loss,
                "lr_used": result.lr_used, "restarts": result.restarts}

    def load(path: Path) -> dict:
        manifest, params = load_checkpoint(path)
        model.set_param_arrays(params)
        return manifest

    manifest = artifact(run_dir / "checkpoint", build,
                        lambda path, m: save_checkpoint(path, m, model.param_arrays()), load)
    return model, run_dir, run_dir.name, manifest


def trained(cfg: dict, cell: SweepCell, data: Callable[[], Dataset],
            cache: Path) -> Callable[[], Recommender]:
    """The cell's model from `ensure_trained`, as a callable that trains or
    loads it on its first call and returns it after."""
    return functools.cache(lambda: ensure_trained(cfg, cell, data(), cache)[0])


class CellKeys(NamedTuple):
    """The cache keys a trained cell's bed, attack and results rows are
    stored under, hashed once per cell."""
    vanilla_id: str  # the vanilla run of (algo, seed), whose directory keeps the bed
    bed: str         # that run and k_rec
    attack: str      # this cell's run and the attack settings


def cell_keys(cfg: dict, cell: SweepCell, sha256: str, run_id: str) -> CellKeys:
    """The keys of the cell whose run id is `run_id`, on the review file
    whose sha256 is `sha256`."""
    vanilla = SweepCell(cell.algo, 0.0, 0.0, cell.seed)
    vanilla_id = config_hash(cell_run_config(cfg, vanilla, sha256))
    a = cfg["attack"]
    return CellKeys(vanilla_id,
                    config_hash({"run": vanilla_id, "k_rec": int(cfg["eval"]["k_rec"])}),
                    config_hash({"run": run_id, "seed": int(a["seed"]),
                                 "batch_size": int(a["batch_size"])}))


def ensure_bed(cfg: dict, cell: SweepCell, data: Callable[[], Dataset], cache: Path,
               keys: CellKeys, vanilla: Callable[[], Recommender]) -> dict[int, list[int]]:
    """The evaluation bed for (algo, seed): the top-k hits of the vanilla
    model, which `vanilla` gives (see `trained`) when the bed is built."""
    def build() -> dict[int, list[int]]:
        return build_bed(vanilla(), data().split, k_rec=int(cfg["eval"]["k_rec"]))

    def save(path: Path, bed: dict[int, list[int]]) -> None:
        path.write_text(json.dumps({str(u): vs for u, vs in sorted(bed.items())}, sort_keys=True))

    def load(path: Path) -> dict[int, list[int]]:
        doc = json.loads(path.read_text())
        if not (isinstance(doc, dict) and all(
                isinstance(vs, list) and all(type(v) is int for v in vs) for vs in doc.values())):
            raise ValueError(f"{path}: a bed maps users to lists of item ids")
        return {int(u): items for u, items in doc.items()}

    return artifact(cache / "runs" / keys.vanilla_id / f"bed_{keys.bed}.json", build, save, load)


def ensure_attack(cfg: dict, cell: SweepCell, model: Recommender, run_dir: Path,
                  key: str) -> tuple[AttackGradient, Path]:
    """The attack gradient Xi of a trained run, shared by every eps_a, and its
    path: a checkpoint-format directory holding Xi, with ||Xi||_2 in the
    manifest, named by the cell's attack `key`. `scale_attack` turns it into
    the delta for one budget."""
    def build() -> AttackGradient:
        return attack_gradient(model, DefenseConfig(lam=cell.lam, eps_d=cell.eps_d),
                               seed=int(cfg["attack"]["seed"]),
                               batch_size=int(cfg["attack"]["batch_size"]))

    def save(path: Path, gradient: AttackGradient) -> None:
        save_checkpoint(path, {"kind": "attack-gradient", "grad_norm": gradient.grad_norm},
                        gradient.xi)

    def load(path: Path) -> AttackGradient:
        manifest, xi = load_checkpoint(path)
        shapes, grad_norm = model.param_shapes(), manifest.get("grad_norm")
        if not (set(xi) == set(shapes) and all(xi[n].shape == s and xi[n].dtype == np.float64
                                               for n, s in shapes.items())):
            raise ValueError(f"{path}: Xi must be float64 with the model's parameter shapes")
        # in the model's parameter order, which attack_gradient and the norms
        # of a delta are summed in
        xi = {name: xi[name] for name in shapes}
        if not (type(grad_norm) is float and np.isfinite(grad_norm)
                and grad_norm == params_norm(xi)):
            raise ValueError(f"{path}: grad_norm {grad_norm!r} is not the finite norm of Xi")
        return AttackGradient(xi, grad_norm)

    path = run_dir / f"attack_{key}"
    return artifact(path, build, save, load), path


EvalInputs = tuple[DatasetSplit, dict[tuple[int, int], set[int]], dict[int, set[int]]]


def eval_inputs(data: Callable[[], Dataset]) -> Callable[[], EvalInputs]:
    """The split, its gold explanations and its users' training feature
    sets, as a callable that derives them on its first call and returns them
    after."""
    def derive() -> EvalInputs:
        split = data().split
        return split, gold_explanations(split), train_feature_sets(split)
    return functools.cache(derive)


def ensure_eval(cfg: dict, cell: SweepCell, model: Callable[[], Recommender], run_dir: Path,
                run_id: str, eps_a: float, bed: dict[int, list[int]],
                inputs: Callable[[], EvalInputs], keys: CellKeys,
                gradient: Callable[[], AttackGradient]) -> dict:
    """One results row: clean when eps_a = 0, otherwise attack then evaluate.
    The trained model, the attack gradient (see `ensure_attack`) and the
    evaluation inputs (see `eval_inputs`) are callables, called only when
    the row is built, so a cached row is reused without any of them; a clean
    row's key leaves the attack settings out, as its value does."""
    top_n, k_ndcg = int(cfg["eval"]["top_n"]), int(cfg["eval"]["k_ndcg"])
    source = {"run": run_id} if eps_a == 0.0 else {"attack": keys.attack}
    key = config_hash({**source, "eps_a": eps_a, "bed": keys.bed,
                       "top_n": top_n, "k_ndcg": k_ndcg, "dataset": cfg["dataset"]["name"]})

    def build() -> dict:
        target, grad_norm = model(), None
        if eps_a != 0.0:
            xi = gradient()
            target = attacked_copy(target, scale_attack(xi, eps_a).delta)
            grad_norm = xi.grad_norm
        split, gold, user_features = inputs()
        report = evaluate(target, split, bed, gold, user_features,
                          top_n=top_n, k_ndcg=k_ndcg)
        return {"run_id": run_id, "algo": cell.algo, "dataset": cfg["dataset"]["name"],
                "lambda": cell.lam, "eps_d": cell.eps_d, "eps_a": eps_a,
                "condition": "clean" if eps_a == 0.0 else "attacked",
                **{c: getattr(report, c) for c in REPORT_COLUMNS}, "grad_norm": grad_norm}

    def load(path: Path) -> dict:
        row = json.loads(path.read_text())
        if not isinstance(row, dict):
            raise ValueError(f"{path}: a results row is a JSON object")
        missing = [c for c in RESULT_COLUMNS if c not in row]
        if missing:
            raise KeyError(f"results row lacks {missing}")
        bad = [c for c in RESULT_COLUMNS if type(row[c]) not in COLUMN_TYPES.get(c, (int, float))]
        if bad:
            raise ValueError(f"{path}: results row has wrong-typed {bad}")
        return row

    return artifact(run_dir / f"eval_{key}.json", build,
                    lambda path, row: path.write_text(json.dumps(row, indent=2, sort_keys=True)),
                    load)


def write_results(path: Path, rows: list[dict]) -> None:
    """Deterministic CSV: fixed column order, sorted rows, fixed float formats.
    grad_norm is empty on clean rows (and rows without one). A file that
    already holds these bytes is left as it is."""
    def key(row):
        return (row["algo"], row["dataset"], row["lambda"], row["eps_d"],
                row["run_id"], row["eps_a"])

    text = io.StringIO(newline="")
    writer = csv.writer(text)
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
    data = text.getvalue().encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass
    publish(path, lambda tmp: tmp.write_bytes(data))


def cell_rows(cfg: dict, cell: SweepCell, sha256: str, data: Callable[[], Dataset],
              cache: Path, eps_grid: list[float], inputs: Callable[[], EvalInputs],
              beds: dict[str, dict[int, list[int]]]) -> list[dict]:
    """The cell's results rows, one per eps_a of `eps_grid`. Its model and
    attack gradient are loaded or built on the first row that needs them and
    live as long as this call; the bed of its (algo, seed) is read or built
    once into `beds`, by bed key, from the cell's own model when the cell is
    the vanilla one, else from the vanilla cell's, trained on demand."""
    run_id = config_hash(cell_run_config(cfg, cell, sha256))
    run_dir = cache / "runs" / run_id
    keys = cell_keys(cfg, cell, sha256, run_id)
    model = trained(cfg, cell, data, cache)
    if keys.bed not in beds:
        vanilla = model if run_id == keys.vanilla_id else \
            trained(cfg, SweepCell(cell.algo, 0.0, 0.0, cell.seed), data, cache)
        beds[keys.bed] = ensure_bed(cfg, cell, data, cache, keys, vanilla)
    gradient = functools.cache(lambda: ensure_attack(cfg, cell, model(), run_dir, keys.attack)[0])
    return [ensure_eval(cfg, cell, model, run_dir, run_id, float(eps_a), beds[keys.bed],
                        inputs, keys, gradient) for eps_a in eps_grid]


def run_sweep(cfg: dict, cache: Path | None = None) -> Path:
    """Execute the whole grid; returns the path of results.csv."""
    cache = resolve_cache(cache)
    sha256, data = lazy_dataset(cfg, cache)
    inputs = eval_inputs(data)
    sw = cfg["sweep"]
    rows: list[dict] = []
    beds: dict[str, dict[int, list[int]]] = {}  # by bed key: read once per (algo, seed)
    for cell in enumerate_cells(sw["algos"], sw["lambdas"], sw["eps_ds"], sw["seeds"]):
        rows += cell_rows(cfg, cell, sha256, data, cache, cfg["attack"]["eps_a_grid"],
                          inputs, beds)
    out = cache / "results.csv"
    write_results(out, rows)
    return out
