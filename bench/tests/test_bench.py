"""The benchmark's own checks: a tiny-corpus smoke run, self time, patching.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import csv
import io
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from make_reference import build_reference  # noqa: E402
from run import Runner, check_results, report, run_workload  # noqa: E402
from tracing import Tracer, self_time_table, self_times, stage_shares  # noqa: E402
from workloads import Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

TINY_SYNTH = {"n_users": 20, "n_items": 150, "n_features": 8, "reviews_per_user": 12}
TINY_SWEEP = {
    "dataset": {"path": "reviews.jsonl"},
    "model": {"efm": {"n_factors": 6, "n_hidden": 3},
              "cer": {"hidden": [8, 4], "cf_steps": 10}},
    "training": {"max_epochs": 1, "patience": 1},
    "attack": {"eps_a_grid": [0.0, 0.5]},
    "sweep": {"algos": ["efm", "cer"], "lambdas": [0.0, 0.5], "eps_ds": [0.25], "seeds": [0]},
}
TINY = [Workload("tiny-cold", TINY_SWEEP, profile_algo="cer", synth=TINY_SYNTH),
        Workload("tiny-warm", TINY_SWEEP, warm=True, synth=TINY_SYNTH)]


@pytest.fixture(scope="module")
def tiny_reference():
    return build_reference(ROOT, TINY)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tiny_reference,
                                                     tmp_path, capsys):
    result = run_workload(ROOT, workload, seed=3, seconds=1, trace=trace,
                          reference=tiny_reference, out_dir=tmp_path)
    line = report(result, SPEC, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert line["correct"], result["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {n: v["unit"] for n, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    printed = capsys.readouterr().out
    for m in declared:
        assert m["name"] in printed
    assert "failed_frac" in printed
    meta = json.loads((tmp_path / f"{workload.name}-s3-t{trace}.json").read_text())["meta"]
    for key in ("machine", "git_commit", "seed", "method", "src_lines", "corpus_sha256"):
        assert key in meta
    if trace:
        hit = line["metrics"]["harness.cache_hit_ratio"]["value"]
        assert hit == (1.0 if workload.warm else 0.0)
        # each bed counts once per sweep, whether read or built: at least the
        # pairs it explains (those with a gold explanation), and less than
        # the pairs all results rows together evaluated
        rows = list(csv.DictReader(io.StringIO(tiny_reference["results"][workload.name])))
        explained = sum({r["algo"]: int(r["n_pairs"]) for r in rows}.values())
        evaluated = sum(int(r["n_pairs"]) for r in rows)
        assert 0 < explained <= line["metrics"]["evalkit.bed_pairs"]["value"] < evaluated


def test_corpus_change_fails_loudly(tiny_reference, tmp_path):
    changed = dict(tiny_reference, corpus_sha256="0" * 64)
    with pytest.raises(RuntimeError, match="robustrec.synth output changed"):
        run_workload(ROOT, TINY[0], seed=3, seconds=1, trace=0, reference=changed,
                     out_dir=tmp_path)


def test_children_run_pinned_and_ignore_the_cache_variable(monkeypatch, tmp_path):
    monkeypatch.setenv("ROBUSTREC_CACHE", str(tmp_path / "elsewhere"))
    env = Runner(ROOT, tmp_path, 0.0).env
    assert "ROBUSTREC_CACHE" not in env
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_output_checks_flag_changed_results(tiny_reference):
    ref = tiny_reference["results"]["tiny-cold"]
    assert check_results(ref, ref, 8, BOUNDS) == []
    header, first, *rest = ref.splitlines()
    cols = first.split(",")
    pairs = header.split(",").index("n_pairs")
    ndcg = header.split(",").index("ndcg")

    def with_first(col, value):
        row = list(cols)
        row[col] = value
        return "\n".join([header, ",".join(row), *rest]) + "\n"

    assert any("n_pairs" in p for p in check_results(with_first(pairs, "999"), ref, 8, BOUNDS))
    assert any("non-finite" in p for p in check_results(with_first(ndcg, "nan"), ref, 8, BOUNDS))
    far = f"{float(cols[ndcg]) * 2 + 0.1:.6f}"
    assert any("ndcg" in p for p in check_results(with_first(ndcg, far), ref, 8, BOUNDS))
    assert any("rows" in p for p in check_results("\n".join([header, *rest]) + "\n",
                                                   ref, 8, BOUNDS))


def _span(i, name, start, end, parent):
    return [i, name, start, end, parent, "r", {}]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, "harness.run_sweep", 0.0, 10.0, None),
        _span(1, "robustness.train", 1.0, 4.0, 0),
        _span(2, "diffcore.backward", 2.0, 3.0, 1),
        _span(3, "robustness.attack", 4.5, 8.0, 0),
        _span(4, "diffcore.backward", 5.0, 7.0, 3),
        _span(5, "bench.setup", 11.0, 12.0, None),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.0, 5: 1.0})
    table = self_time_table(spans, 10.0, "harness.run_sweep")
    rows = {r["name"]: r for r in table}
    assert "bench.setup" not in rows
    assert rows["diffcore.backward[train]"]["self_s"] == pytest.approx(1.0)
    assert rows["diffcore.backward[attack]"]["self_s"] == pytest.approx(2.0)
    assert rows["harness.run_sweep"]["share"] == pytest.approx(0.35)
    # a stage's share is its inclusive time: the stage span and all below it
    assert stage_shares(table) == pytest.approx(
        {"attack": 0.35, "explain": 0.0, "train": 0.3, "other": 0.35})


def test_a_renamed_function_is_reported_not_fatal():
    owner = types.SimpleNamespace(__name__="fake", f=lambda x: x)
    tracer = Tracer()
    tracer.patch(owner, "gone", "fake.gone")
    tracer.patch(owner, "f", "fake.f", after=lambda span, args, result: args[5])
    assert owner.f(3) == 3
    tracer.restore()
    assert tracer.missing == ["fake.gone"]
    assert tracer.hook_errors == 1 and len(tracer.spans) == 1


def test_wrappers_restore_the_original_functions():
    from robustrec import diffcore
    from robustrec.harness import sweep

    before = (sweep.attack_weights, sweep.load_dataset, diffcore.Tensor.backward)
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.install():
            assert sweep.attack_weights is not before[0]
            assert diffcore.Tensor.backward is not before[2]
            patched = list(tracer._saved)
            raise KeyError("leave the block early")
    assert (sweep.attack_weights, sweep.load_dataset, diffcore.Tensor.backward) == before
    assert patched and all(getattr(owner, attr) is original
                           for owner, attr, original in patched)
