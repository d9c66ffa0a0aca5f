"""Sweep orchestration: train/attack/evaluate grids over one artifact cache.

Every cached stage goes through `artifact`: its path is a hash of a dict of
every input the stage depends on, and its build reads its settings from that
dict alone (the review file is read by path; its sha256 is hashed). A complete
artifact is reused, one that fails to load is rebuilt, and a new one is
published with a single rename. Re-running a sweep is therefore idempotent,
and two fresh runs of the same config produce byte-identical results.csv.
Processes may fill one cache at once: each writes its own temporary, and one
that loses the rename loads the winner's. Vanilla cells run first: their
rankings define the per-(algo, seed) evaluation bed every condition is scored on.

A `Sweep` holds what the grid shares and first checks every setting
(`config.check_settings`), so a bad value builds no artifact. A `Run` holds
everything about one cell: its id and keys, hashed once, and its model and
attack gradient, loaded or built on first use, like the sweep's dataset and
evaluation inputs, when a results row has to be built. A rerun of a finished
grid therefore reads only the review file, each bed once per (algo, seed) and
each results row. Beds alone are read eagerly, before a cell's rows: a bed is
one small JSON file, and its lookup is where a traced rerun counts the pairs
every condition is scored on. Every eps_a of a cell shares one model and one
attack gradient, dropped when the cell ends.
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

from .. import ARITHMETIC
from ..aspects import build_matrices
from ..dataset import (DatasetSplit, SplitConfig, build_split, dataset_stats, ingest_reviews,
                       split_arrays, split_from_arrays)
from ..evalkit import build_bed, evaluate, gold_explanations, train_feature_sets
from ..models import build_model, load_checkpoint, save_checkpoint
from ..models.base import Recommender
# attack_weights is not called here; it stays importable from this module
# because bench/tracing.py patches it by this name
from ..robustness import (AttackGradient, DefenseConfig, attack_gradient,  # noqa: F401
                          attack_weights, attacked_copy, fmt_eps, params_norm, scale_attack,
                          train_defended)
from .config import ConfigError, check_settings, config_hash, training_config

CACHE_ENV = "ROBUSTREC_CACHE"

# the EvalReport fields a results row carries, under the same names: 4 scores, 3 counts
REPORT_COLUMNS = ["ndcg", "expl_pr", "expl_re", "expl_f1", "n_users", "n_pairs", "n_non_cf"]


class Column(NamedTuple):
    """A results.csv column: the JSON types a cached results row may hold in
    it, the last of them the type its cell reads back as, and a value's text."""
    types: tuple[type, ...]
    text: Callable[..., str] = str

    def parse(self, cell: str):
        """An empty cell reads as None where None is one of the types."""
        return None if not cell and type(None) in self.types else self.types[-1](cell)


# results.csv's columns in order: the one place that types, writes and reads them
RESULT_TABLE: dict[str, Column] = {
    **dict.fromkeys(["run_id", "algo", "dataset"], Column((str,))),
    **dict.fromkeys(["lambda", "eps_d", "eps_a"], Column((int, float), fmt_eps)),
    "condition": Column((str,)),
    **dict.fromkeys(REPORT_COLUMNS[:4], Column((int, float), "{:.6f}".format)),
    **dict.fromkeys(REPORT_COLUMNS[4:], Column((int,))),
    "grad_norm": Column((type(None), int, float), lambda v: "" if v is None else f"{v:.6e}"),
}
RESULT_COLUMNS = list(RESULT_TABLE)

log = logging.getLogger(__name__)
T = TypeVar("T")


def resolve_cache(explicit: str | Path | None = None) -> Path:
    """--cache flag > ROBUSTREC_CACHE env var > ./cache."""
    return Path(explicit or os.environ.get(CACHE_ENV, "") or "./cache")


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

    @property
    def vanilla(self) -> SweepCell:
        """The undefended cell of the same (algo, seed)."""
        return SweepCell(self.algo, 0.0, 0.0, self.seed)

    @property
    def defense(self) -> DefenseConfig:
        """The defense the cell trains with and is attacked under."""
        return DefenseConfig(lam=self.lam, eps_d=self.eps_d)


def sweep_cell(algo: str, lam: float, eps_d: float, seed: int) -> SweepCell:
    """The cell of one training run: lambda = 0 leaves the defense budget
    unused, so eps_d collapses to 0 there; -0 is read as 0, as in `budgets`."""
    if lam == 0.0:
        return SweepCell(algo, 0.0, 0.0, int(seed))
    return SweepCell(algo, float(lam), float(eps_d) or 0.0, int(seed))


def enumerate_cells(algos, lambdas, eps_ds, seeds) -> list[SweepCell]:
    """One training run per distinct cell; lambda = 0 collapses the eps_d axis
    (see `sweep_cell`) and sorts first, so beds exist before defended cells."""
    return list(dict.fromkeys(sweep_cell(algo, lam, eps_d, seed)
                              for algo in sorted(algos) for seed in sorted(seeds)
                              for lam in sorted(lambdas)
                              for eps_d in (sorted(eps_ds) if lam != 0.0 else [0.0])))


def budgets(values) -> list[float]:
    """The distinct attack budgets of `values` in first-seen order, -0 read as 0
    (the clean rows' key)."""
    return list(dict.fromkeys(float(e) or 0.0 for e in values))


class Dataset(NamedTuple):
    split: DatasetSplit
    X: np.ndarray
    Y: np.ndarray
    stats: dict  # corpus counts plus the sha256 of the review file's bytes


def _dataset_source(cfg: dict, sha256: str) -> dict:
    """What a dataset depends on: its settings bar the path, the review bytes
    and the package's `ARITHMETIC`, through which every later key does too."""
    return {**{k: v for k, v in cfg["dataset"].items() if k != "path"}, "sha256": sha256,
            "arithmetic": ARITHMETIC}


def review_sha256(cfg: dict) -> str:
    """The sha256 of the bytes of the review file cfg['dataset'] names."""
    path = cfg["dataset"]["path"]
    if not path:
        raise ConfigError("dataset.path is required (a JSON-lines review file)")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # in chunks: a cache hit never holds the file
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_dataset(cfg: dict, cache: Path, sha256: str | None = None) -> Dataset:
    """Build (or reuse) the split and aspect matrices for cfg['dataset'];
    `sha256` is the review file's `review_sha256`, hashed here when not given."""
    review, sha256 = cfg["dataset"]["path"], sha256 or review_sha256(cfg)
    source = _dataset_source(cfg, sha256)

    def build() -> Dataset:
        raw = Path(review).read_bytes()
        if hashlib.sha256(raw).hexdigest() != sha256:
            raise ValueError(f"{review} changed while it was being read")
        reviews = ingest_reviews(raw, min_reviews_per_user=source["min_reviews_per_user"],
                                 max_rating=source["max_rating"])
        split = build_split(reviews, SplitConfig(seed=source["seed"]),
                            max_rating=source["max_rating"])
        X, Y = build_matrices(split)
        return Dataset(split, X, Y, {**dataset_stats(reviews), "sha256": sha256})

    def save(path: Path, data: Dataset) -> None:
        fields, arrays = split_arrays(data.split)
        save_checkpoint(path, {**fields, "stats": data.stats}, {**arrays, "X": data.X, "Y": data.Y})

    def load(path: Path) -> Dataset:
        manifest, arrays = load_checkpoint(path)
        stats = manifest.get("stats")
        if not (isinstance(stats, dict) and stats.get("sha256") == sha256):
            raise ValueError(f"{path}: stats must be an object with the review file's sha256")
        return Dataset(split_from_arrays(manifest, arrays), arrays["X"], arrays["Y"], stats)

    return artifact(cache / "datasets" / config_hash(source), build, save, load)


def cell_run_config(cfg: dict, cell: SweepCell, sha256: str) -> dict:
    """The exact configuration a run id is hashed from; `sha256` is the
    review file's."""
    return {
        "dataset": _dataset_source(cfg, sha256),
        "model": {"algo": cell.algo, cell.algo: cfg["model"][cell.algo]},
        "training": {**cfg["training"], "seed": cell.seed},
        "defense": {"lambda": cell.lam, "eps_d": cell.eps_d},
    }


class Sweep:
    """One config over one cache: the review file's sha256, hashed once; the
    dataset and the evaluation inputs (gold explanations and the users'
    training features), loaded or derived on first use; and the beds read so
    far, by bed key."""

    def __init__(self, cfg: dict, cache: str | Path | None = None):
        check_settings(cfg)
        self.cfg, self.cache = cfg, resolve_cache(cache)
        self.sha256 = review_sha256(cfg)
        self.beds: dict[str, dict[int, list[int]]] = {}

    @functools.cached_property
    def data(self) -> Dataset:
        return load_dataset(self.cfg, self.cache, self.sha256)

    @functools.cached_property
    def gold(self) -> dict[tuple[int, int], set[int]]:
        return gold_explanations(self.data.split)

    @functools.cached_property
    def user_features(self) -> dict[int, set[int]]:
        return train_feature_sets(self.data.split)


class Run:
    """One cell of a sweep: its run id and directory, the keys of its bed and
    attack beside the dicts they hash and its attack artifact's path, set
    once, and its model and attack gradient, loaded or built on first use."""

    def __init__(self, sweep: Sweep, cell: SweepCell):
        cfg, attack = sweep.cfg, sweep.cfg["attack"]
        self.sweep, self.cell = sweep, cell
        self.config = cell_run_config(cfg, cell, sweep.sha256)
        self.run_id = config_hash(self.config)
        self.dir = sweep.cache / "runs" / self.run_id
        # the vanilla run of (algo, seed), whose directory keeps the bed
        self.vanilla_id = self.run_id if cell == cell.vanilla else \
            config_hash(cell_run_config(cfg, cell.vanilla, sweep.sha256))
        self.bed_config = {"run": self.vanilla_id, "k_rec": cfg["eval"]["k_rec"]}
        self.attack_config = {"run": self.run_id, **{k: attack[k] for k in ("seed", "batch_size")}}
        self.bed_key, self.attack_key = map(config_hash, (self.bed_config, self.attack_config))
        self.attack_path = self.dir / f"attack_{self.attack_key}"

    @functools.cached_property
    def model(self) -> Recommender:
        return ensure_trained(self.sweep, self.cell, self)[0]

    @functools.cached_property
    def gradient(self) -> AttackGradient:
        """The trained run's attack gradient Xi, shared by every eps_a and
        kept at `attack_path` in checkpoint format with ||Xi||_2 in the
        manifest. `scale_attack` turns it into the delta for one budget."""
        model, attack = self.model, self.attack_config

        def build() -> AttackGradient:
            return attack_gradient(model, self.cell.defense, seed=attack["seed"],
                                   batch_size=attack["batch_size"])

        def load(path: Path) -> AttackGradient:
            manifest, xi = load_checkpoint(path)
            shapes, grad_norm = model.param_shapes(), manifest.get("grad_norm")
            if not (set(xi) == set(shapes) and all(xi[n].shape == s and xi[n].dtype == np.float64
                                                   for n, s in shapes.items())):
                raise ValueError(f"{path}: Xi must be float64 with the model's parameter shapes")
            # in the model's parameter order, in which attack_gradient and delta norms sum
            xi = {name: xi[name] for name in shapes}
            if not (type(grad_norm) is float and np.isfinite(grad_norm)
                    and grad_norm == params_norm(xi)):
                raise ValueError(f"{path}: grad_norm {grad_norm!r} is not the finite norm of Xi")
            return AttackGradient(xi, grad_norm)

        return artifact(self.attack_path, build, lambda path, gradient: save_checkpoint(
            path, {"kind": "attack-gradient", "grad_norm": gradient.grad_norm}, gradient.xi), load)

    def rows(self, grid: list[float]) -> list[dict]:
        """The run's results rows, one per budget of `grid`, scored on the
        bed of its (algo, seed), read or built first, once per sweep."""
        sweep, cell = self.sweep, self.cell
        if self.bed_key not in sweep.beds:
            sweep.beds[self.bed_key] = ensure_bed(sweep, cell, self)
        return [ensure_eval(sweep, cell, self, sweep.beds[self.bed_key], self.run_id, eps_a)
                for eps_a in grid]


def new_model(cfg: dict, cell: SweepCell, data: Dataset) -> Recommender:
    """An untrained model for the cell, attached to the dataset."""
    model = build_model(cell.algo, data.split, {cell.algo: cfg["model"][cell.algo]})
    model.attach(data.split, data.X, data.Y)
    return model


# bench/tracing.py wraps the ensure_* stages by name and reads, by position,
# the sweep and the run's cell first, and ensure_eval's run id and eps_a fifth
# and sixth; what it does not read, such as the attack gradient, is on `Run`
def ensure_trained(sweep: Sweep, cell: SweepCell, run: Run) -> tuple[Recommender, Path, str, dict]:
    """(model, run_dir, run_id, manifest): the run's model with best-epoch
    parameters, attached to the split, its run directory, named by the run
    id, and its checkpoint manifest. Trains unless the checkpoint is cached."""
    data = sweep.data
    split, model = data.split, new_model(run.config, cell, data)

    def build() -> dict:
        result = train_defended(model, split, cell.defense, training_config(run.config), cell.seed)
        return {"kind": cell.algo, "config": run.config, "seed": cell.seed,
                "dims": {"n_users": split.n_users, "n_items": split.n_items,
                         "n_features": split.n_features, "n_rating": split.n_rating},
                "epochs_trained": result.epochs_run, "best_epoch": result.best_epoch,
                "val_history": result.history, "train_loss": result.train_loss,
                "lr_used": result.lr_used, "restarts": result.restarts}

    def load(path: Path) -> dict:
        manifest, params = load_checkpoint(path)
        model.set_param_arrays(params)
        return manifest

    manifest = artifact(run.dir / "checkpoint", build,
                        lambda path, m: save_checkpoint(path, m, model.param_arrays()), load)
    return model, run.dir, run.run_id, manifest


def ensure_bed(sweep: Sweep, cell: SweepCell, run: Run) -> dict[int, list[int]]:
    """The evaluation bed for (algo, seed): the top-k hits of the vanilla
    model, `run`'s own when it is the vanilla run."""
    def build() -> dict[int, list[int]]:
        vanilla = run if run.run_id == run.vanilla_id else Run(sweep, cell.vanilla)
        return build_bed(vanilla.model, sweep.data.split, k_rec=run.bed_config["k_rec"])

    def save(path: Path, bed: dict[int, list[int]]) -> None:
        path.write_text(json.dumps({str(u): vs for u, vs in sorted(bed.items())}, sort_keys=True))

    def load(path: Path) -> dict[int, list[int]]:
        doc = json.loads(path.read_text())
        if not (isinstance(doc, dict) and all(
                isinstance(vs, list) and all(type(v) is int for v in vs) for vs in doc.values())):
            raise ValueError(f"{path}: a bed maps users to lists of item ids")
        return {int(u): items for u, items in doc.items()}

    path = sweep.cache / "runs" / run.vanilla_id / f"bed_{run.bed_key}.json"
    return artifact(path, build, save, load)


def ensure_eval(sweep: Sweep, cell: SweepCell, run: Run, bed: dict[int, list[int]],
                run_id: str, eps_a: float) -> dict:
    """One results row of `run`, scored on `bed`: clean when eps_a = 0,
    otherwise attack then evaluate. The run's model and attack gradient and
    the sweep's dataset and evaluation inputs are used only when the row is
    built, so a cached row is reused without any of them; a clean row's key
    leaves the attack settings out, as its value does."""
    cfg = sweep.cfg
    source = {"run": run_id} if eps_a == 0.0 else {"attack": run.attack_key}
    row_config = {**source, "eps_a": eps_a, "bed": run.bed_key, "top_n": cfg["eval"]["top_n"],
                  "k_ndcg": cfg["eval"]["k_ndcg"], "dataset": cfg["dataset"]["name"]}

    def build() -> dict:
        target, grad_norm = run.model, None
        if eps_a != 0.0:
            target = attacked_copy(target, scale_attack(run.gradient, eps_a).delta)
            grad_norm = run.gradient.grad_norm
        report = evaluate(target, sweep.data.split, bed, sweep.gold, sweep.user_features,
                          top_n=row_config["top_n"], k_ndcg=row_config["k_ndcg"])
        return {"run_id": run_id, "algo": cell.algo, "dataset": row_config["dataset"],
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
        bad = [c for c, column in RESULT_TABLE.items() if type(row[c]) not in column.types]
        if bad:
            raise ValueError(f"{path}: results row has wrong-typed {bad}")
        return row

    return artifact(run.dir / f"eval_{config_hash(row_config)}.json", build,
                    lambda path, row: path.write_text(json.dumps(row, indent=2, sort_keys=True)),
                    load)


def write_results(path: Path, rows: list[dict]) -> None:
    """Deterministic CSV: `RESULT_TABLE`'s columns and cell texts, rows
    sorted. A file that already holds these bytes is left as it is."""
    def key(row):
        return (row["algo"], row["dataset"], row["lambda"], row["eps_d"],
                row["run_id"], row["eps_a"])

    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(RESULT_COLUMNS)
    for row in sorted(rows, key=key):
        writer.writerow([column.text(row[c]) for c, column in RESULT_TABLE.items()])
    data = text.getvalue().encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass
    publish(path, lambda tmp: tmp.write_bytes(data))


def run_sweep(cfg: dict, cache: Path | None = None) -> Path:
    """Execute the whole grid; returns the path of results.csv."""
    grid = budgets(cfg["attack"]["eps_a_grid"])
    sweep, sw = Sweep(cfg, cache), cfg["sweep"]
    rows: list[dict] = []
    for cell in enumerate_cells(sw["algos"], sw["lambdas"], sw["eps_ds"], sw["seeds"]):
        rows += Run(sweep, cell).rows(grid)
    out = sweep.cache / "results.csv"
    write_results(out, rows)
    return out
