"""Spans around the public functions of each robustrec layer, from outside.

`Tracer.install()` replaces each traced function with a wrapper that records
a span, and puts the originals back when the `with` block ends. A name is
patched where the caller looks it up: `harness.sweep.attack_weights`, not
only `robustness.attack_weights`. Spans stay in memory; the caller writes
them out when the run ends.

A span is (id, name, start, end, parent id, run id, attrs). Spans open and
close on one thread, so they nest strictly: self time is a span's duration
minus the durations of its children.
"""
from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run", "attrs")

# the stage a span runs under is the nearest of these ancestors; it is how
# diffcore.backward time is charged to training, attack or explanation
STAGES = {"robustness.attack": "attack", "models.cer.explain": "explain",
          "robustness.train": "train"}
# lookups that hit an artifact are told from builds by these child spans
BUILDERS = {"harness.load_dataset": "dataset.ingest",
            "harness.ensure_trained": "robustness.train",
            "harness.ensure_bed": "evalkit.build_bed",
            "harness.ensure_eval": "evalkit.evaluate"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # SPAN_FIELDS, end filled on close
        self.run_id = ""
        self.missing: list[str] = []  # traced names this version of robustrec lacks
        self.hook_errors = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans ---
    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.run_id, attrs or {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, attrs)
        try:
            yield s
        finally:
            self.close(s)

    # ---------------------------------------------------------- patching ---
    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap owner.attr in a span. `before(args)` returns span attrs;
        `after(span, args, result)` may add attrs once the call returned."""
        original = getattr(owner, attr, None)
        if original is None:  # renamed or removed: its layer metrics read 0
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            s = tracer.open(name, tracer._hook(before, args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(s)
            tracer._hook(after, s, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _hook(self, fn, *args):
        """Run a span hook; one that no longer fits the program's signatures
        is counted rather than failing the traced run."""
        if fn is None:
            return None
        try:
            return fn(*args)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.hook_errors += 1
            return None

    def patch_generator(self, owner, attr: str, name: str) -> None:
        """One span per item a generator method yields."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            gen = original(*args, **kwargs)
            while True:
                s = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(s)
                yield item

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def install(self):
        """Trace every layer of robustrec until the block ends."""
        try:
            _patch_layers(self)
            yield self
        finally:
            self.restore()


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _patch_layers(t: Tracer) -> None:
    from robustrec import diffcore, robustness
    from robustrec.harness import sweep
    from robustrec.models import base, cer, efm

    def lam_of_cell(args):
        return {"lam": args[1].lam}

    def after_ingest(span, args, records):
        span[6]["reviews"] = len(records)

    def after_train(span, args, result):
        span[6].update(epochs=result.epochs_run, restarts=result.restarts)

    def after_cf(span, args, result):
        span[6]["converged"] = int(bool(result[1]))

    def after_save(span, args, result):
        span[6]["bytes"] = _dir_bytes(args[0])

    def before_load(args):
        return {"bytes": _dir_bytes(args[0])}

    def after_bed(span, args, bed):
        span[6].update(key=f"bed:{args[1].algo}:{args[1].seed}",
                       pairs=sum(len(items) for items in bed.values()))

    def keyed(key):
        # names the artifact a lookup is about, so reuse is told from builds
        def after(span, args, result):
            span[6]["key"] = key(args, result)
        return after

    t.patch(sweep, "load_dataset", "harness.load_dataset",
            after=keyed(lambda a, r: "dataset"))
    t.patch(sweep, "ingest_reviews", "dataset.ingest", after=after_ingest)
    t.patch(sweep, "build_split", "dataset.split")
    t.patch(sweep, "build_matrices", "aspects.build")
    t.patch(sweep, "save_matrix", "aspects.matrix_io")
    t.patch(sweep, "load_matrix", "aspects.matrix_io")
    t.patch(sweep, "ensure_trained", "harness.ensure_trained", lam_of_cell,
            keyed(lambda a, r: f"ckpt:{r[2]}"))
    t.patch(sweep, "ensure_bed", "harness.ensure_bed", lam_of_cell, after_bed)
    t.patch(sweep, "ensure_eval", "harness.ensure_eval", lam_of_cell,
            keyed(lambda a, r: f"eval:{a[4]}:{a[5]!r}"))
    t.patch(sweep, "write_results", "harness.write_results")
    t.patch(sweep, "train_defended", "robustness.train",
            lambda args: {"lam": args[2].lam}, after_train)
    t.patch(sweep, "attack_weights", "robustness.attack")
    for owner in (sweep, robustness):
        t.patch(owner, "save_checkpoint", "models.checkpoint.save", after=after_save)
        t.patch(owner, "load_checkpoint", "models.checkpoint.load", before_load)
    t.patch(robustness, "defense_loss", "robustness.defense_loss")
    t.patch(robustness, "fgsm_delta_y", "robustness.fgsm")
    t.patch(robustness, "validation_ndcg", "evalkit.validation_ndcg")
    t.patch(sweep, "build_bed", "evalkit.build_bed")
    t.patch(sweep, "evaluate", "evalkit.evaluate")
    t.patch(diffcore.Tensor, "backward", "diffcore.backward")
    t.patch(diffcore.Adam, "step", "diffcore.adam_step")
    t.patch(cer.CER, "explain", "models.cer.explain")
    t.patch(cer, "counterfactual_delta", "models.cer.cf_solve", after=after_cf)
    t.patch(efm.EFM, "explain", "models.efm.explain")
    t.patch(cer.CER, "scores", "models.scores")
    t.patch(efm.EFM, "scores", "models.scores")
    t.patch_generator(base.Recommender, "epoch_batches", "models.epoch_batches")


# ------------------------------------------------------------- analysis ---

def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the durations of its children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def self_time_table(spans: list, total: float, under: str) -> list[dict]:
    """Self time per span name within the spans named `under`, largest
    first, as a share of `total`. Spans below training, attack or
    explanation carry that stage in brackets, so `diffcore.backward[attack]`
    is the tape's share of the attack."""
    per_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    stages: dict[str, str | None] = {}
    own = self_times(spans)
    for s in spans:
        if s[1] != under and all(a[1] != under for a in _ancestors(spans, s)):
            continue
        stage = STAGES.get(s[1]) or _stage(spans, s)
        label = f"{s[1]}[{stage}]" if stage and s[1] not in STAGES else s[1]
        per_name[label] += own[s[0]]
        calls[label] += 1
        stages[label] = stage
    return [{"name": n, "stage": stages[n], "calls": calls[n], "self_s": v,
             "share": v / total if total else 0.0}
            for n, v in sorted(per_name.items(), key=lambda kv: -kv[1])]


def stage_shares(table: list[dict]) -> dict[str, float]:
    """Training, attack and explanation as shares of the total of a
    `self_time_table`: each stage's self time plus that of the spans below
    it, i.e. its inclusive time. `other` is the rest of the spans."""
    shares = dict.fromkeys([*STAGES.values(), "other"], 0.0)
    for row in table:
        shares[row["stage"] or "other"] += row["share"]
    return shares


def _ancestors(spans: list, span: list):
    while span[4] is not None:
        span = spans[span[4]]
        yield span


def _stage(spans: list, span: list) -> str | None:
    """The training, attack or explanation span this one runs under."""
    return next((STAGES[a[1]] for a in _ancestors(spans, span) if a[1] in STAGES), None)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list, n_sweeps: int) -> dict[str, float]:
    """Per-layer numbers from one child's spans, per timed sweep."""
    per = 1.0 / max(n_sweeps, 1)
    dur: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attr: dict[str, Counter] = defaultdict(Counter)
    for s in spans:
        dur[s[1]] += s[3] - s[2]
        calls[s[1]] += 1
        for k, v in s[6].items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                attr[s[1]][k] += v

    def lam_class(s):
        return "lam0" if s[6].get("lam") == 0.0 else "lam_pos"

    m: dict[str, float] = {}
    for name, span in (("dataset.ingest_s", "dataset.ingest"), ("dataset.split_s", "dataset.split"),
                       ("aspects.build_s", "aspects.build"),
                       ("aspects.matrix_io_s", "aspects.matrix_io"),
                       ("harness.load_dataset_s", "harness.load_dataset"),
                       ("models.checkpoint.save_s", "models.checkpoint.save"),
                       ("models.checkpoint.load_s", "models.checkpoint.load"),
                       ("robustness.defense_loss_s", "robustness.defense_loss"),
                       ("robustness.fgsm_s", "robustness.fgsm"),
                       ("robustness.attack_s", "robustness.attack"),
                       ("diffcore.adam_step_s", "diffcore.adam_step"),
                       ("evalkit.validation_ndcg_s", "evalkit.validation_ndcg"),
                       ("evalkit.build_bed_s", "evalkit.build_bed"),
                       ("evalkit.evaluate_s", "evalkit.evaluate"),
                       ("models.cer.explain_s", "models.cer.explain"),
                       ("models.efm.explain_s", "models.efm.explain"),
                       ("models.scores_s", "models.scores"),
                       ("models.epoch_batches_s", "models.epoch_batches")):
        m[name] = dur[span] * per
    for name, span in (("robustness.attack_calls", "robustness.attack"),
                       ("diffcore.backward_calls", "diffcore.backward"),
                       ("diffcore.adam_step_calls", "diffcore.adam_step"),
                       ("models.scores_calls", "models.scores")):
        m[name] = calls[span] * per
    for name, span, key in (("dataset.reviews", "dataset.ingest", "reviews"),
                            ("models.checkpoint.bytes_written", "models.checkpoint.save", "bytes"),
                            ("models.checkpoint.bytes_read", "models.checkpoint.load", "bytes"),
                            ("robustness.epochs_run", "robustness.train", "epochs"),
                            ("robustness.restarts", "robustness.train", "restarts")):
        m[name] = attr[span][key] * per

    # the bed of each (algo, seed) counts once per sweep, read or built
    beds = {(s[5], s[6].get("key")): s[6].get("pairs", 0)
            for s in spans if s[1] == "harness.ensure_bed"}
    m["evalkit.bed_pairs"] = sum(beds.values()) * per

    # harness: a cell is the ensure_* calls run_sweep makes for it. A lookup
    # counts as reused only when its artifact predates this process.
    cell_time = {"lam0": 0.0, "lam_pos": 0.0}
    cells: dict[str, set] = {"lam0": set(), "lam_pos": set()}
    built = reused = 0
    built_keys: set[str] = set()
    for s in spans:
        if s[1] not in BUILDERS:
            continue
        in_cell = s[1] != "harness.load_dataset"
        if in_cell and s[4] is not None and spans[s[4]][1] == "harness.run_sweep":
            cell_time[lam_class(s)] += s[3] - s[2]
            if s[1] == "harness.ensure_trained":
                cells[lam_class(s)].add((s[5], s[6].get("key")))
        in_sweep = any(a[1] == "harness.run_sweep" for a in _ancestors(spans, s))
        if _built(spans, s):
            built_keys.add(s[6].get("key"))
            built += in_sweep
        elif in_sweep and s[6].get("key") not in built_keys:
            reused += 1
    for cls in cell_time:
        m[f"harness.cell_s.{cls}"] = cell_time[cls] / len(cells[cls]) if cells[cls] else 0.0
    m["harness.artifacts_built"] = built * per
    m["harness.artifacts_reused"] = reused * per
    m["harness.cache_hit_ratio"] = reused / (built + reused) if built + reused else 0.0

    # robustness: an epoch is the train span minus its validation passes
    for cls in ("lam0", "lam_pos"):
        trains = {s[0]: s for s in spans if s[1] == "robustness.train" and lam_class(s) == cls}
        train_s = sum(s[3] - s[2] for s in trains.values())
        val_s = sum(c[3] - c[2] for c in spans
                    if c[1] == "evalkit.validation_ndcg" and c[4] in trains)
        epochs = sum(s[6].get("epochs", 0) for s in trains.values())
        m[f"robustness.train_s.{cls}"] = train_s * per
        m[f"robustness.epoch_s.{cls}"] = (train_s - val_s) / epochs if epochs else 0.0

    backward = {"train": 0.0, "attack": 0.0, "explain": 0.0}
    for s in spans:
        if s[1] == "diffcore.backward":
            stage = _stage(spans, s)
            if stage is not None:
                backward[stage] += s[3] - s[2]
    for stage, v in backward.items():
        m[f"diffcore.backward_s.{stage}"] = v * per

    # the ranking part of evaluate is everything but its explanation calls
    explain_in_eval = sum(c[3] - c[2] for c in spans
                          if c[1] in ("models.cer.explain", "models.efm.explain")
                          and c[4] is not None and spans[c[4]][1] == "evalkit.evaluate")
    m["evalkit.rank_s"] = (dur["evalkit.evaluate"] - explain_in_eval) * per

    pair_s = [s[3] - s[2] for s in spans if s[1] == "models.cer.explain"]
    m["models.cer.explain_pair_s.p50"] = _percentile(pair_s, 50)
    m["models.cer.explain_pair_s.p95"] = _percentile(pair_s, 95)
    solves = calls["models.cer.cf_solve"]
    m["models.cer.cf_converged_ratio"] = (attr["models.cer.cf_solve"]["converged"] / solves
                                          if solves else 0.0)
    return m


def _built(spans: list, lookup: list) -> bool:
    """A lookup built its artifact when its builder ran inside it. Spans are
    in start order on one thread, so those starting before the lookup ends
    are its descendants."""
    builder = BUILDERS[lookup[1]]
    inside = itertools.takewhile(lambda s: s[2] < lookup[3], spans[lookup[0] + 1:])
    return any(s[1] == builder for s in inside)
