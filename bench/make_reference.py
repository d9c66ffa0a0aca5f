"""Write reference.json: the corpus hash and one results.csv per workload.

    python3 bench/make_reference.py

Run once at the commit that defines the benchmark. Later commits are
checked against these outputs; regenerating the file would hide a change
in the program's results.
"""
from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from run import HERE, ROOT, Runner
from workloads import CORPUS_FILE, CORPUS_SEED, WORKLOADS, Workload


def build_reference(root: Path, workloads: list[Workload]) -> dict:
    """One untimed sweep per workload at seed 0; the corpus content does not
    depend on the seed, so its hash holds for every seed."""
    ref: dict = {"corpus_seed": CORPUS_SEED, "corpus_sha256": None, "results": {}}
    for w in workloads:
        work = root / ".bench_work" / f"reference-{w.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            runner = Runner(root, work, time.monotonic() + 3600)
            corpus = runner.step("corpus", {"corpus_seed": CORPUS_SEED, "synth": w.synth,
                                            "seed": 0, "path": str(work / CORPUS_FILE)})
            (work / "config.json").write_text(json.dumps(w.overrides, sort_keys=True))
            res = runner.step("sweep", {"config": "config.json", "cache": str(work / "cache"),
                                        "reruns": 1, "trace": False, "run_id": "reference"})
            if corpus is None or res is None:
                raise RuntimeError(f"reference run of {w.name} failed")
            ref["corpus_sha256"] = corpus["content_sha256"]
            ref["results"][w.name] = res["results_csv"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return ref


def main() -> int:
    ref = build_reference(ROOT, list(WORKLOADS.values()))
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
