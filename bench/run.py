"""robustrec benchmark: timed `run_sweep` grids on a pinned synthetic corpus.

    python3 bench/run.py --workload efm-grid --seed 1 --seconds 35 --trace 0
    python3 -m pytest bench/tests -q        # the benchmark's own tests

Closed loop, one client: each step runs in a fresh child process (see
`child.py`), one at a time, with BLAS threads pinned to 1 in the child's
environment only. Method: one untimed warm-up setup, then sweeps while the
next one is expected to end within `--seconds`, with setup probes between
them; every time is a median over the samples of the run. `sweep_s` and
`setup_s` are CPU seconds (user + sys) of the child, scaled by a calibration
measured next to them to the host speed at which the benchmark was defined
(`child.calibrate`): on a shared host both the wall and the CPU time of the
same work drift by 10-30% over minutes. The raw CPU and wall times and the
calibration are printed and kept beside them, not gated. Each cold sweep
gets a fresh, empty cache directory passed explicitly, so ROBUSTREC_CACHE
cannot redirect it. `warm-rerun` first fills one cache (untimed), then times
batches of reruns with that same config.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
and one traced sweep plus an op-level cProfile pass and prints the per-layer
metrics, which are per timed sweep. Every sweep's results.csv is checked
against `reference.json` (produced at the commit that defined the
benchmark), against the other sweeps of the invocation (byte-identical), for
finite metrics, the row count and the epochs in every checkpoint manifest; a
sweep that fails any check counts in `failed`. The last line of stdout is
one JSON object; a copy with metadata and samples goes to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CORPUS_FILE, CORPUS_SEED, WORKLOADS, Workload, n_cells, n_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 170.0           # every invocation ends well within 180 s
SETUP_PROBES = 2          # cold setup-only children before and after each sweep
WARM_BATCH = 16           # reruns timed together in one warm child
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# the raw CPU and wall times behind the scaled `sweep_s` and `setup_s`, and
# the host calibration they were scaled by (see child.py); kept, not gated
RAW_TIMES = ("sweep_cpu_s", "setup_cpu_s", "sweep_wall_s", "setup_wall_s", "host_cal_s")
SETUP_TIMES = ("setup_s", "setup_cpu_s", "setup_wall_s")
METRIC_COLUMNS = ("ndcg", "expl_pr", "expl_re", "expl_f1")
INT_COLUMNS = ("n_users", "n_pairs")
ROW_KEY = ("algo", "lambda", "eps_d", "eps_a", "condition")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed sweep)."""


class Runner:
    """Starts child steps in one work directory and enforces the time limit."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.n = 0
        env = {k: v for k, v in os.environ.items() if k != "ROBUSTREC_CACHE"}
        env.update(THREAD_ENV)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def step(self, mode: str, spec: dict) -> dict | None:
        """Run one child; None when it fails or runs out of time."""
        self.n += 1
        spec_path = self.work / f"step{self.n}.spec.json"
        out_path = self.work / f"step{self.n}.out.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return None
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode,
                                   str(spec_path), str(out_path)],
                                  cwd=self.work, env=self.env, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"bench: {mode} step timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not out_path.exists():
            print(f"bench: {mode} step failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        result = json.loads(out_path.read_text())
        result["wall_s"] = time.monotonic() - start
        return result


# ---------------------------------------------------------------- checks ---

def parse_results(text: str) -> dict[tuple, dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    out = {tuple(r[k] for k in ROW_KEY): r for r in rows}
    if len(out) != len(rows):
        raise ValueError("results.csv repeats a (algo, lambda, eps_d, eps_a, condition) row")
    return out


def check_results(text: str, reference: str, expected_rows: int, bounds: dict) -> list[str]:
    """Problems with one results.csv against the reference; [] when it passes.
    Integer columns must match exactly; metric columns within the bound of
    the end-to-end metric they feed. Columns the reference lacks are ignored."""
    problems = []
    try:
        got = parse_results(text)
    except (ValueError, KeyError) as e:
        return [f"unreadable results.csv: {e}"]
    ref = parse_results(reference)
    if len(got) != expected_rows:
        problems.append(f"{len(got)} rows, expected {expected_rows}")
    if set(got) != set(ref):
        problems.append(f"row keys differ from the reference: {sorted(set(got) ^ set(ref))}")
    for key in sorted(set(got) & set(ref)):
        g, r = got[key], ref[key]
        for col in INT_COLUMNS:
            if g.get(col) != r[col]:
                problems.append(f"{key} {col}: {g.get(col)} != reference {r[col]}")
        for col in METRIC_COLUMNS:
            try:
                value = float(g[col])
            except (KeyError, ValueError):
                problems.append(f"{key} {col}: unreadable {g.get(col)!r}")
                continue
            if not math.isfinite(value):
                problems.append(f"{key} {col}: non-finite {value}")
                continue
            bound = bounds["ndcg_clean"] if col == "ndcg" else bounds[f"expl_f1_{g['condition']}"]
            if abs(value - float(r[col])) > bound * abs(float(r[col])) + 1e-6:
                problems.append(f"{key} {col}: {value} vs reference {r[col]} (bound {bound})")
    return problems


def quality(text: str) -> dict[str, float]:
    rows = list(csv.DictReader(io.StringIO(text)))

    def mean(col, condition):
        vals = [float(r[col]) for r in rows if r["condition"] == condition]
        return sum(vals) / len(vals) if vals else 0.0  # such a run already failed its checks

    return {"ndcg_clean": mean("ndcg", "clean"),
            "expl_f1_clean": mean("expl_f1", "clean"),
            "expl_f1_attacked": mean("expl_f1", "attacked")}


# ------------------------------------------------------------- metadata ---

def metadata(root: Path, workload: Workload, seed: int, seconds: int, trace: int,
             corpus: dict) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        digest.update(p.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():  # a bare checkout has none; do not climb to a parent repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "corpus_seed": CORPUS_SEED, "corpus_sha256": corpus["content_sha256"],
        "corpus_file_sha256": corpus["file_sha256"], "epochs": workload.epochs,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": corpus["numpy"],
                    "blas": corpus["blas"], "thread_env": THREAD_ENV},
        "git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
        "method": ("closed loop, one child process at a time; 1 untimed warm-up setup, "
                   + ("then 1 untraced sweep, 1 traced sweep and 1 op-level profile"
                      if trace else
                      f"then sweeps while they fit in {seconds} s, each preceded and the "
                      f"last followed by {SETUP_PROBES} setup probes; medians over the samples; "
                      "times are CPU seconds scaled by a host calibration")),
    }


# ------------------------------------------------------------------- run ---

def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(root: Path, workload: Workload, seed: int, seconds: int, trace: int,
                 reference: dict | None = None, out_dir: Path | None = None) -> dict:
    if not (root / "src" / "robustrec" / "__init__.py").is_file():
        raise BenchError(f"no robustrec sources under {root / 'src'}")
    if not (root / "BENCHMARK.json").is_file():
        raise BenchError(f"no BENCHMARK.json at {root}")
    spec_doc = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec_doc["end_to_end"]}
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    t_start = time.monotonic()
    work = root / ".bench_work" / f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(Runner(root, work, t_start + LIMIT_S), workload, seed, seconds, trace,
                    reference, bounds, out_dir or root / ".bench_out")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(runner: Runner, workload: Workload, seed: int, seconds: int, trace: int,
         reference: dict, bounds: dict, out_dir: Path) -> dict:
    work = runner.work
    corpus = runner.step("corpus", {"corpus_seed": CORPUS_SEED, "synth": workload.synth,
                                    "seed": seed, "path": str(work / CORPUS_FILE)})
    if corpus is None:
        raise BenchError("could not generate the corpus")
    if corpus["content_sha256"] != reference["corpus_sha256"]:  # loud: no result at all
        raise BenchError(f"robustrec.synth output changed: corpus sha256 "
                         f"{corpus['content_sha256']} != reference {reference['corpus_sha256']}")
    ref_csv = reference["results"][workload.name]
    (work / "config.json").write_text(json.dumps(workload.overrides, sort_keys=True))
    expected_rows = n_rows(workload.overrides)
    caches = itertools.count()

    def fresh_cache() -> str:
        return str(work / f"cache{next(caches)}")

    def sweep_spec(cache: str, reruns: int, traced: bool) -> dict:
        return {"config": "config.json", "cache": cache, "reruns": reruns, "trace": traced,
                "run_id": f"{workload.name}-{seed}-{runner.n + 1}",
                "spans": str(work / "spans.jsonl.gz")}

    attempted = failed = 0
    problems: list[str] = []
    first_csv: str | None = None

    def checked_sweep(cache: str, reruns: int, traced: bool = False) -> dict | None:
        nonlocal attempted, failed, first_csv
        attempted += 1
        res = runner.step("sweep", sweep_spec(cache, reruns, traced))
        if res is None:
            failed += 1
            problems.append("sweep child failed")
            return None
        found = check_results(res["results_csv"], ref_csv, expected_rows, bounds)
        if first_csv is None:
            first_csv = res["results_csv"]
        elif res["results_csv"] != first_csv:
            found.append("results.csv differs from the first sweep of this run")
        cells = n_cells(workload.overrides)
        epochs = workload.epochs
        if len(res["epochs_trained"]) != cells or any(e != epochs for e in res["epochs_trained"]):
            found.append(f"epochs_trained {res['epochs_trained']}, expected {cells} x {epochs}")
        if traced and res["layers"]["robustness.restarts"] != 0:
            found.append(f"{res['layers']['robustness.restarts']} training restarts")
        if found:
            failed += 1
            problems.extend(found)
        return res

    # warm-up: one untimed setup; the warm workload also fills its cache here
    runner.step("setup", {"config": "config.json", "cache": fresh_cache()})
    warm_cache = None
    if workload.warm:
        # every child of this invocation reads the one config.json written
        # above, so the reruns time exactly the config that filled the cache
        warm_cache = fresh_cache()
        if checked_sweep(warm_cache, 1) is None:
            raise BenchError("could not fill the warm cache")

    def cache_for_sweep() -> str:
        return warm_cache or fresh_cache()

    reruns = WARM_BATCH if workload.warm else 1
    result: dict = {}
    samples: dict[str, list[float]] = {
        key: [] for key in ("sweep_s", "setup_s", "peak_rss_mb", *RAW_TIMES)}
    start = time.monotonic()
    if trace:
        plain = checked_sweep(cache_for_sweep(), reruns)
        traced = checked_sweep(cache_for_sweep(), reruns, traced=True)
        if plain is None or traced is None:
            raise BenchError("a sweep failed; no per-layer numbers")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = median(traced["sweep_s"]) - median(plain["sweep_s"])
        ops = {}
        if workload.profile_algo:
            ops = runner.step("profile", {"config": "config.json", "cache": fresh_cache(),
                                          "algo": workload.profile_algo})
            if ops is None:
                raise BenchError("the op-level profile failed")
        for cls in ("lam0", "lam_pos", "cf_solve"):
            layers[f"diffcore.op_calls.{cls}"] = ops.get(cls, {}).get("op_calls_total", 0)
        for cls in ("lam0", "lam_pos"):
            layers[f"diffcore.grad_allocs.{cls}"] = ops.get(cls, {}).get("grad_allocs", 0)
        result.update(layers=layers, self_time=traced["self_time"],
                      stage_share=traced["stage_share"], profile=ops,
                      trace_gaps=traced["trace_gaps"])
        shutil.copyfile(work / "spans.jsonl.gz", _out_path(out_dir, workload, seed, trace,
                                                           ".spans.jsonl.gz"))
    else:
        def probe_setup() -> None:
            # spread over the run, so the median sees the machine as the sweeps
            # do; warm children already give one setup sample per batch
            nonlocal attempted, failed
            for _ in range(0 if workload.warm else SETUP_PROBES):
                attempted += 1
                cache = fresh_cache()
                res = runner.step("setup", {"config": "config.json", "cache": cache})
                shutil.rmtree(cache, ignore_errors=True)
                if res is None:
                    failed += 1
                    problems.append("setup child failed")
                else:
                    for key in SETUP_TIMES:
                        samples[key].append(res[key])

        probe_setup()
        walls: list[float] = []
        while True:
            cache = cache_for_sweep()
            res = checked_sweep(cache, reruns)
            if res is None:
                break
            walls.append(res["wall_s"])
            for key in ("sweep_s", "setup_s", *RAW_TIMES):
                value = res[key]
                samples[key].append(sum(value) / len(value) if key.startswith("sweep") else value)
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
            if cache != warm_cache:
                shutil.rmtree(cache, ignore_errors=True)
            probe_setup()
            if time.monotonic() - start + median(walls) > seconds:
                break
        if not samples["sweep_s"]:
            raise BenchError("no sweep finished")
        metrics = {key: median(values) for key, values in samples.items()}
        metrics.update(quality(first_csv))
        result["metrics"] = metrics
    result.update(attempted=attempted, failed=failed, problems=problems, samples=samples,
                  meta=metadata(runner.root, workload, seed, seconds, trace, corpus))
    _out_path(out_dir, workload, seed, trace, ".json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    return result


def _out_path(out_dir: Path, workload: Workload, seed: int, trace: int, suffix: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{workload.name}-s{seed}-t{trace}{suffix}"


# ---------------------------------------------------------------- output ---

def report(result: dict, spec_doc: dict, trace: int) -> dict:
    """Print the human-readable table; return the final JSON line."""
    meta = result["meta"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  corpus sha256 "
          f"{meta['corpus_sha256'][:12]}  src {meta['src_lines']} lines")
    print(f"method: {meta['method']}")
    print(f"machine: {json.dumps(meta['machine'], sort_keys=True)}")
    declared = spec_doc["per_layer"] if trace else spec_doc["end_to_end"]
    source = result["layers"] if trace else result["metrics"]
    metrics = {}
    for m in declared:
        value = source[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples = result["samples"].get(m["name"])
        note = f"  median of {len(samples)}" if samples else ""
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6}{note}")
    for name in RAW_TIMES:
        if name in source:
            print(f"  {name:<34} {source[name]:>14.6g} s       median of "
                  f"{len(result['samples'][name])}, not scaled")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'failed_frac':<34} {frac:>14.6g} ratio   ({result['failed']} of "
          f"{result['attempted']} steps)")
    for p in result["problems"]:
        print(f"  problem: {p}")
    if trace:
        gaps = result["trace_gaps"]
        if gaps["missing"] or gaps["hook_errors"]:
            print(f"  not traced: {gaps['missing']}, {gaps['hook_errors']} span hooks failed")
        print("stage shares of the traced sweep (self time of the stage and all below it):")
        for name, share in result["stage_share"].items():
            print(f"  {name:<34} {share:>8.1%}")
        print("self time of the traced sweep, top spans:")
        for row in result["self_time"]:
            print(f"  {row['name']:<34} {row['self_s']:>10.4f} s {row['share']:>8.1%} "
                  f"{row['calls']:>8} calls")
        for cls in ("lam0", "lam_pos", "cf_solve"):
            prof = result["profile"].get(cls)
            if prof is None:
                continue
            print(f"op-level profile, {cls}: {prof['op_calls_total']} op calls, "
                  f"{prof['grad_allocs']} gradient allocations")
            for row in prof["top"][:8]:
                print(f"  {row['function']:<50} {row['calls']:>9} {row['share']:>7.1%}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(ROOT, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    line = report(result, spec_doc, args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
