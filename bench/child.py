"""One benchmark step in a process of its own.

    python3 bench/child.py <mode> <spec.json> <out.json>

Modes: `corpus` writes the review file, `setup` times import plus
`load_dataset`, `sweep` times `run_sweep` (optionally traced), `profile` runs
cProfile over one training epoch per lambda and one counterfactual solve.
The parent sets PYTHONPATH to the checkout's `src` and pins BLAS threads in
this process's environment. Nothing above the mode functions imports numpy
or robustrec, so `setup_s` starts before the first `import robustrec`.

`setup_s` and `sweep_s` are CPU seconds of this process scaled to the speed
of the host when the benchmark was defined (see `calibrate`); the raw CPU
and wall seconds go beside them as `*_cpu_s` and `*_wall_s`.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import SPAN_FIELDS, Tracer, layer_metrics, self_time_table, stage_shares

TOP_N = 15
CAL_REPEATS = 5
# `calibrate()` with BLAS on one thread, on the 2-CPU host that defined the
# benchmark. It only sets the scale of the scaled times, so it never changes.
REFERENCE_CAL_S = 0.020


def corpus(spec: dict) -> dict:
    import numpy as np
    from robustrec.synth import SynthConfig, synth_jsonl

    lines = synth_jsonl(SynthConfig(seed=spec["corpus_seed"], **spec["synth"]))
    content = ("\n".join(lines) + "\n").encode("utf-8")
    random.Random(spec["seed"]).shuffle(lines)
    shuffled = ("\n".join(lines) + "\n").encode("utf-8")
    Path(spec["path"]).write_bytes(shuffled)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"content_sha256": hashlib.sha256(content).hexdigest(),
            "file_sha256": hashlib.sha256(shuffled).hexdigest(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


class Clock:
    """CPU time (user + sys of this process) and wall time since start.
    BLAS runs on one thread, so CPU time is the work the program did; unlike
    wall time it leaves out the time the host gave to other guests."""

    def __init__(self) -> None:
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def read(self) -> tuple[float, float]:
        return time.process_time() - self.cpu, time.perf_counter() - self.wall


def calibrate() -> float:
    """CPU seconds of fixed work that is not robustrec's: an interpreter
    loop, small matrix products and memory-bound array passes, about a third
    each, the kinds of work a sweep does. The median of CAL_REPEATS.

    On a shared host the CPU time of the same work drifts by 10-30% over
    minutes, with the load of other guests. Measured next to a sweep, this
    work drifts with it: over 3 minutes of EFM training epochs the medians of
    10 epochs ranged over 0.70-0.85 s, and their ratio to this calibration
    over 0.96-1.04. Scaling by REFERENCE_CAL_S / calibrate() takes out the
    host's speed and leaves the program's."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    b = rng.standard_normal(200_000)
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.process_time()
        acc = 0
        for i in range(150_000):
            acc += i * i
        for _ in range(35):
            a @ a
        for _ in range(20):
            np.exp(b) * b + b
        times.append(time.process_time() - t0)
    return statistics.median(times)


def scaled(cpu_s: float, cal_s: float) -> float:
    return cpu_s * REFERENCE_CAL_S / cal_s


def setup(spec: dict) -> dict:
    clock = Clock()
    from robustrec.harness import sweep
    from robustrec.harness.config import load_config

    sweep.load_dataset(load_config(spec["config"]), Path(spec["cache"]))
    cpu, wall = clock.read()
    cal = calibrate()
    return {"setup_s": scaled(cpu, cal), "setup_cpu_s": cpu, "setup_wall_s": wall,
            "host_cal_s": cal}


def run(spec: dict) -> dict:
    """Setup, then `reruns` timed sweeps into one cache."""
    clock = Clock()
    from robustrec.harness import sweep
    from robustrec.harness.config import load_config

    cfg = load_config(spec["config"])
    cache = Path(spec["cache"])
    tracer = Tracer()
    out: dict = {"sweep_cpu_s": [], "sweep_wall_s": []}
    with tracer.install() if spec["trace"] else nullcontext():
        with tracer.span("bench.setup"):
            sweep.load_dataset(cfg, cache)
        out["setup_cpu_s"], out["setup_wall_s"] = clock.read()
        cal_before = calibrate()
        for i in range(spec["reruns"]):
            tracer.run_id = f"{spec['run_id']}.{i}"
            clock = Clock()
            with tracer.span("harness.run_sweep"):
                results = sweep.run_sweep(cfg, cache)
            cpu, wall = clock.read()
            out["sweep_cpu_s"].append(cpu)
            out["sweep_wall_s"].append(wall)
    cal = (cal_before + calibrate()) / 2
    out.update(setup_s=scaled(out["setup_cpu_s"], cal_before), host_cal_s=cal,
               sweep_s=[scaled(cpu, cal) for cpu in out["sweep_cpu_s"]])
    out["results_csv"] = results.read_text()
    manifests = [json.loads(p.read_text()) for p in sorted(cache.rglob("manifest.json"))]
    out["epochs_trained"] = [m["epochs_trained"] for m in manifests if "epochs_trained" in m]
    if spec["trace"]:
        table = self_time_table(tracer.spans, sum(out["sweep_wall_s"]), "harness.run_sweep")
        out["layers"] = layer_metrics(tracer.spans, spec["reruns"])
        out["self_time"] = table[:TOP_N]
        out["stage_share"] = stage_shares(table)
        out["trace_gaps"] = {"missing": tracer.missing, "hook_errors": tracer.hook_errors}
        with gzip.open(spec["spans"], "wt", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
    return out


def profile(spec: dict) -> dict:
    """Exact op counts on the tape: one training epoch per lambda, then one
    CER counterfactual solve. cProfile inflates time, so only counts and a
    self-time ranking come out of it."""
    import cProfile
    import inspect
    import pstats
    from dataclasses import replace

    from robustrec import diffcore
    from robustrec.evalkit import build_bed
    from robustrec.harness import sweep
    from robustrec.harness.config import load_config, training_config
    from robustrec.models import build_model
    from robustrec.robustness import DefenseConfig, train_defended

    cfg = load_config(spec["config"])
    split, X, Y, _ = sweep.load_dataset(cfg, Path(spec["cache"]))
    algo = spec["algo"]
    training = replace(training_config(cfg), max_epochs=1, patience=1)
    ops = {name for name, fn in vars(diffcore).items()
           if inspect.isfunction(fn) and fn.__module__ == diffcore.__name__
           and not name.startswith("_")}
    lam_pos = max(cfg["sweep"]["lambdas"])
    out: dict = {}
    vanilla = None
    for cls, defense in (("lam0", DefenseConfig()),
                         ("lam_pos", DefenseConfig(lam=lam_pos, eps_d=cfg["sweep"]["eps_ds"][0]))):
        model = build_model(algo, split, cfg["model"])
        model.attach(split, X, Y)
        prof = cProfile.Profile()
        prof.runcall(train_defended, model, split, defense, training, 0)
        out[cls] = _op_profile(pstats.Stats(prof), diffcore.__file__, ops)
        vanilla = vanilla or model
    bed = build_bed(vanilla, split, k_rec=int(cfg["eval"]["k_rec"])) if algo == "cer" else {}
    if bed:
        u = min(bed)
        prof = cProfile.Profile()
        prof.runcall(vanilla.explain, u, bed[u][0], require_recommended=False)
        out["cf_solve"] = _op_profile(pstats.Stats(prof), diffcore.__file__, ops)
    return out


def _op_profile(stats, diffcore_file: str, ops: set[str]) -> dict:
    op_calls: dict[str, int] = {}
    grad_allocs = 0
    rows = []
    total = sum(v[2] for v in stats.stats.values())
    for (file, line, name), (cc, nc, tt, ct, callers) in stats.stats.items():
        if file == diffcore_file and name in ops:
            op_calls[name] = op_calls.get(name, 0) + nc
        if name == "zeros_like":
            grad_allocs += sum(c[1] for (cf, _, cn), c in callers.items()
                               if cf == diffcore_file and cn == "backward")
        rows.append({"function": f"{Path(file).name}:{line}({name})", "calls": nc,
                     "self_s": tt, "share": tt / total if total else 0.0})
    rows.sort(key=lambda r: -r["self_s"])
    return {"op_calls": dict(sorted(op_calls.items())), "op_calls_total": sum(op_calls.values()),
            "grad_allocs": grad_allocs, "top": rows[:TOP_N]}


MODES = {"corpus": corpus, "setup": setup, "sweep": run, "profile": profile}


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv
    result = MODES[mode](json.loads(Path(spec_path).read_text()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
