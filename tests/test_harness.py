"""Config plumbing, convergence policy, sweep caching, reports, and the CLI."""
import csv
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import robustrec.harness.sweep as sweep
import robustrec.harness.training as training_mod
import robustrec.robustness as rob
from robustrec.harness.cli import main as cli_main
from robustrec.harness.cli import parse_override_tokens
from robustrec.harness.config import (ConfigError, DEFAULTS, apply_override,
                                      config_hash, default_config, load_config,
                                      training_config)
from robustrec.harness.report import write_report
from robustrec.harness.sweep import (CACHE_ENV, RESULT_COLUMNS, SweepCell,
                                     enumerate_cells, resolve_cache, run_sweep,
                                     write_results)
from robustrec.harness.training import (EarlyStopper, TrainingConfig,
                                        hyperparameter_search)
from robustrec.models import CERConfig, EFM, EFMConfig, build_model
from robustrec.models.checkpoint import load_checkpoint, save_checkpoint
from robustrec.robustness import DefenseConfig, TrainResult, train_defended
from robustrec.synth import SynthConfig, write_reviews


# ---------------------------------------------------------------- config ---

def test_default_config_is_a_fresh_copy():
    cfg = default_config()
    cfg["training"]["lr"] = 123.0
    cfg["model"]["efm"]["n_factors"] = 1
    assert DEFAULTS["training"]["lr"] != 123.0
    assert DEFAULTS["model"]["efm"]["n_factors"] != 1


def test_load_config_merges_and_rejects_unknown(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"training": {"lr": 0.01},
                               "model": {"algo": "cer"}}))
    cfg = load_config(doc)
    assert cfg["training"]["lr"] == 0.01
    assert cfg["model"]["algo"] == "cer"
    assert cfg["training"]["batch_size"] == DEFAULTS["training"]["batch_size"]

    doc.write_text(json.dumps({"training": {"nope": 1}}))
    with pytest.raises(ConfigError, match="training.nope"):
        load_config(doc)
    doc.write_text(json.dumps({"training": 5}))
    with pytest.raises(ConfigError, match="expects a section"):
        load_config(doc)


def test_apply_override_dotted_paths():
    cfg = default_config()
    apply_override(cfg, "defense.lambda", "0.5")
    assert cfg["defense"]["lambda"] == 0.5
    apply_override(cfg, "model.cer.hidden", "[16, 8]")
    assert cfg["model"]["cer"]["hidden"] == [16, 8]
    apply_override(cfg, "model.algo", "cer")  # bare string, no JSON quoting
    assert cfg["model"]["algo"] == "cer"
    apply_override(cfg, "training.batch_size", "64")
    assert cfg["training"]["batch_size"] == 64

    for bad in ("defense.nope", "nope.lr", "model.efm", "training.lr.extra"):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_override(cfg, bad, "1")
    with pytest.raises(ConfigError):
        apply_override(cfg, "training.batch_size", "0.5")  # float over int


@pytest.mark.parametrize("dotted, good, bad", [
    ("sweep.lambdas", [0, 0.5], ["a", None]),
    ("sweep.eps_ds", [0.25], [True]),
    ("attack.eps_a_grid", [0.0, 1], [0.5, False]),
    ("sweep.seeds", [0, 3], [1.5]),
    ("sweep.algos", ["cer"], [1]),
])
def test_list_keys_check_their_elements(dotted, good, bad, tmp_path):
    cfg = default_config()
    section, leaf = dotted.split(".")
    apply_override(cfg, dotted, json.dumps(good))
    assert cfg[section][leaf] == good
    assert [type(v) for v in cfg[section][leaf]] == \
        [type(DEFAULTS[section][leaf][0])] * len(good)
    with pytest.raises(ConfigError, match=dotted):
        apply_override(cfg, dotted, json.dumps(bad))
    assert cfg[section][leaf] == good  # a rejected value is not stored
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({section: {leaf: bad}}))
    with pytest.raises(ConfigError, match=dotted):
        load_config(doc)


def _non_default(value):
    if isinstance(value, list):
        return [w + 1 for w in value]
    return value + 1 if isinstance(value, int) else 2.0 * value + 0.5


@pytest.mark.parametrize("dotted, cls", [("training", TrainingConfig),
                                         ("model.efm", EFMConfig), ("model.cer", CERConfig)])
def test_every_setting_reaches_its_dataclass(tiny_split, dotted, cls):
    section = DEFAULTS
    for part in dotted.split("."):
        section = section[part]
    keys = set(section) - {"seed"} if dotted == "training" else set(section)
    assert keys == {f.name for f in fields(cls)}
    for key in sorted(keys):
        cfg = default_config()
        value = _non_default(section[key])
        apply_override(cfg, f"{dotted}.{key}", json.dumps(value))
        if dotted == "training":
            built = training_config(cfg)
        else:
            built = build_model(dotted.split(".")[1], tiny_split, cfg["model"]).config
        assert getattr(built, key) == (tuple(value) if isinstance(value, list) else value), key
        assert getattr(built, key) != getattr(cls(), key), key


def test_parse_override_tokens_forms():
    assert parse_override_tokens([]) == []
    assert parse_override_tokens(["--a.b", "1", "--c.d=2"]) == [("a.b", "1"), ("c.d", "2")]
    with pytest.raises(SystemExit):
        parse_override_tokens(["stray"])
    with pytest.raises(SystemExit):
        parse_override_tokens(["--a.b"])


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": {"z": [1, 2]}}
    b = {"y": {"z": [1, 2]}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash(a) != config_hash({"x": 2, "y": {"z": [1, 2]}})


# ----------------------------------------------------- convergence policy ---

def test_early_stopper_patience_trace():
    stop = EarlyStopper(patience=3, min_delta=1e-4)
    flags = [stop.observe(m) for m in (0.5, 0.6, 0.59, 0.59)]
    assert flags == [True, True, False, False]
    assert not stop.should_stop
    stop.observe(0.59)
    assert stop.should_stop


def test_early_stopper_flat_metric_stops_after_exactly_patience():
    stop = EarlyStopper(patience=4)
    stop.observe(0.5)
    for i in range(3):
        stop.observe(0.5)
        assert not stop.should_stop
    stop.observe(0.5)
    assert stop.should_stop


def test_early_stopper_min_delta_is_strict():
    stop = EarlyStopper(patience=2, min_delta=0.01)
    assert stop.observe(0.5)
    assert not stop.observe(0.51)          # equal to best + min_delta: no
    assert stop.observe(0.5 + 0.010001)    # past it: yes


def _tiny_efm(split, X, Y):
    model = EFM(split.n_users, split.n_items, split.n_features,
                EFMConfig(n_factors=6, n_hidden=3, top_k_features=4))
    model.attach(split, X, Y)
    return model


def test_training_restores_best_epoch_params(tiny_split, tiny_matrices, monkeypatch):
    X, Y = tiny_matrices
    trace = iter([0.5, 0.6, 0.59, 0.59, 0.59])
    monkeypatch.setattr(rob, "validation_ndcg", lambda *a, **k: next(trace))
    cfg = TrainingConfig(batch_size=8, lr=0.01, max_epochs=10, patience=3)
    model = _tiny_efm(tiny_split, X, Y)
    result = train_defended(model, tiny_split, DefenseConfig(), cfg, seed=0)
    assert result.history == [0.5, 0.6, 0.59, 0.59, 0.59]
    assert result.best_epoch == 1
    assert result.epochs_run == 4

    # an identical run stopped after epoch 1 holds exactly the params the
    # longer run must have restored
    short_trace = iter([0.0, 1.0])
    monkeypatch.setattr(rob, "validation_ndcg", lambda *a, **k: next(short_trace))
    short = _tiny_efm(tiny_split, X, Y)
    train_defended(short, tiny_split,
                   DefenseConfig(), TrainingConfig(batch_size=8, lr=0.01,
                                                   max_epochs=1, patience=99), seed=0)
    for name, arr in short.param_arrays().items():
        np.testing.assert_array_equal(model.param_arrays()[name], arr)


def test_hyperparameter_search_prefers_smaller_lr_then_decay(monkeypatch):
    calls = []

    def fake_train(model, split, defense, training, seed):
        calls.append((training.lr, training.weight_decay, training.max_epochs))
        score = {(0.001, 0.001): 0.9, (0.001, 0.01): 0.9,
                 (0.01, 0.001): 0.9, (0.01, 0.01): 0.7}[(training.lr, training.weight_decay)]
        return TrainResult(history=[0.1, score], best_epoch=1, epochs_run=1,
                           lr_used=training.lr, restarts=0)

    monkeypatch.setattr(rob, "train_defended", fake_train)
    lr, wd, table = hyperparameter_search(
        make_model=lambda: object(), split=None, defense=DefenseConfig(),
        training=TrainingConfig(), seed=0, grid=(0.001, 0.01), search_epochs=2)
    # three cells tie at 0.9; strict improvement keeps the first seen, which
    # the ascending grid makes the smallest lr, then the smallest decay
    assert (lr, wd) == (0.001, 0.001)
    assert [(c[0], c[1]) for c in calls] == [(0.001, 0.001), (0.001, 0.01),
                                             (0.01, 0.001), (0.01, 0.01)]
    assert all(c[2] == 2 for c in calls)  # search_epochs caps the short runs
    assert len(table) == 4


# ------------------------------------------------------------- sweep grid ---

def test_enumerate_cells_vanilla_first_and_collapsed():
    cells = enumerate_cells(["efm"], [0.5, 0.0], [0.5, 0.25], [0])
    assert cells == [SweepCell("efm", 0.0, 0.0, 0),
                     SweepCell("efm", 0.5, 0.25, 0),
                     SweepCell("efm", 0.5, 0.5, 0)]
    # two lambdas and one eps_d mean two training runs per (algo, seed)
    assert len(enumerate_cells(["efm"], [0.0, 0.5], [0.25], [0])) == 2
    two_algos = enumerate_cells(["efm", "cer"], [0.0], [0.25], [1, 0])
    assert [(c.algo, c.seed) for c in two_algos] == [("cer", 0), ("cer", 1),
                                                     ("efm", 0), ("efm", 1)]


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    params = {"A": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
    manifest = {"kind": "efm", "seed": 3}
    save_checkpoint(tmp_path / "ck", manifest, params)
    loaded_manifest, loaded = load_checkpoint(tmp_path / "ck")
    assert loaded_manifest == manifest
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64

    (tmp_path / "ck" / "b.f64").write_bytes(b"\x00" * 8)
    with pytest.raises(ValueError, match="expected 5"):
        load_checkpoint(tmp_path / "ck")


def test_resolve_cache_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert resolve_cache(None).name == "cache"
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "envcache"))
    assert resolve_cache(None) == tmp_path / "envcache"
    assert resolve_cache(tmp_path / "explicit") == tmp_path / "explicit"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "reviews.jsonl"
    write_reviews(path, SynthConfig(n_users=20, n_items=200, n_features=10,
                                    reviews_per_user=20, seed=3))
    return path


def _sweep_config(corpus):
    cfg = default_config()
    cfg["dataset"]["path"] = str(corpus)
    cfg["dataset"]["name"] = "smoke"
    cfg["model"]["efm"].update(n_factors=6, n_hidden=3)
    cfg["training"].update(max_epochs=2, lr=0.01, batch_size=16)
    cfg["attack"]["eps_a_grid"] = [0.0, 0.5]
    cfg["sweep"].update(algos=["efm"], lambdas=[0.0, 0.5], eps_ds=[0.25], seeds=[0])
    return cfg


def test_run_sweep_layout_and_idempotence(corpus, tmp_path):
    cache = tmp_path / "cache"
    out = run_sweep(_sweep_config(corpus), cache)
    assert out == cache / "results.csv"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RESULT_COLUMNS
    assert len(rows) == 1 + 4  # 2 training cells x 2 attack budgets
    conditions = {(r[3], r[5], r[6]) for r in rows[1:]}
    assert conditions == {("0", "0", "clean"), ("0", "0.5", "attacked"),
                          ("0.5", "0", "clean"), ("0.5", "0.5", "attacked")}

    datasets = list((cache / "datasets").iterdir())
    assert len(datasets) == 1
    for name in ("split.json", "x.bin", "y.bin", "stats.json"):
        assert (datasets[0] / name).exists()
    run_dirs = sorted((cache / "runs").iterdir())
    assert len(run_dirs) == 2
    vanilla = [d for d in run_dirs if list(d.glob("bed_*.json"))]
    assert len(vanilla) == 1  # the bed belongs to the vanilla run only
    for d in run_dirs:
        assert (d / "checkpoint" / "manifest.json").exists()
        assert len(list(d.glob("eval_*.json"))) == 2  # one per attack budget
        attacks = list(d.glob("attack_*"))
        assert len(attacks) == 1  # eps_a = 0 needs no attack artifact
        assert (attacks[0] / "manifest.json").exists()
    assert not list(cache.rglob("*.partial"))

    first = out.read_bytes()
    assert run_sweep(_sweep_config(corpus), cache) == out
    assert out.read_bytes() == first  # cached re-run: byte-identical

    # an eval row cached before the n_non_cf or grad_norm column existed is
    # redone, not written out short of a column
    for column in ("n_non_cf", "grad_norm"):
        for path in cache.glob("runs/*/eval_*.json"):
            row = json.loads(path.read_text())
            del row[column]
            path.write_text(json.dumps(row))
        run_sweep(_sweep_config(corpus), cache)
        assert out.read_bytes() == first

    fresh = tmp_path / "cache2"
    run_sweep(_sweep_config(corpus), fresh)
    assert (fresh / "results.csv").read_bytes() == first  # from scratch too


def test_sweep_computes_the_attack_gradient_once_per_run(corpus, tmp_path, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return rob.attack_gradient(*args, **kwargs)

    monkeypatch.setattr(sweep, "attack_gradient", spy)
    cfg = _sweep_config(corpus)
    cfg["attack"]["eps_a_grid"] = DEFAULTS["attack"]["eps_a_grid"]
    cache = tmp_path / "cache"
    out = run_sweep(cfg, cache)
    run_dirs = list((cache / "runs").iterdir())
    assert len(calls) == len(run_dirs) == 2  # once per trained run, not per eps_a
    for d in run_dirs:
        assert len(list(d.glob("attack_*"))) == 1
        assert len(list(d.glob("eval_*.json"))) == len(cfg["attack"]["eps_a_grid"])

    # attacked rows carry their run's ||Xi||; clean rows leave the cell empty
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    norms = {}
    for row in rows:
        if row["condition"] == "clean":
            assert row["grad_norm"] == ""
        else:
            norms.setdefault(row["run_id"], set()).add(row["grad_norm"])
    assert len(norms) == 2 and all(len(v) == 1 for v in norms.values())
    for d in run_dirs:
        manifest = json.loads(next(d.glob("attack_*/manifest.json")).read_text())
        assert norms[d.name] == {f"{manifest['grad_norm']:.6e}"}

    calls.clear()
    run_sweep(cfg, cache)  # every row cached
    assert calls == []
    cfg["attack"]["eps_a_grid"] = [0.0]
    run_sweep(cfg, tmp_path / "clean-only")
    assert calls == []
    assert not list((tmp_path / "clean-only").glob("runs/*/attack_*"))


@pytest.fixture(scope="module")
def warm_cache(corpus, tmp_path_factory):
    """A cache filled by one sweep of `_sweep_config(corpus)`."""
    cache = tmp_path_factory.mktemp("warm") / "cache"
    run_sweep(_sweep_config(corpus), cache)
    return cache


@pytest.mark.parametrize("change", ["eval.top_n=2", "eval.k_ndcg=10", "eval.k_rec=3",
                                    "attack.seed=1", "attack.batch_size=8", "reviews"])
def test_warm_rerun_after_an_input_change_matches_a_fresh_run(change, corpus, warm_cache,
                                                               tmp_path):
    cache = tmp_path / "cache"
    cfg = _sweep_config(corpus)
    if change == "reviews":  # the review file is rewritten in place
        cfg = _sweep_config(shutil.copy(corpus, tmp_path / "reviews.jsonl"))
        run_sweep(cfg, cache)
        write_reviews(cfg["dataset"]["path"], SynthConfig(
            n_users=20, n_items=200, n_features=10, reviews_per_user=20, seed=4))
    else:
        shutil.copytree(warm_cache, cache)
        apply_override(cfg, *change.split("="))
    warm = run_sweep(cfg, cache).read_bytes()
    fresh = run_sweep(cfg, tmp_path / "fresh").read_bytes()
    assert warm == fresh
    assert warm != (warm_cache / "results.csv").read_bytes()  # the change matters


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _unpublish(path):
    """What a write interrupted before its rename leaves behind."""
    path.rename(path.with_name(path.name + ".partial"))


def _first(cache, pattern):
    return sorted(cache.glob(pattern))[0]


@pytest.mark.parametrize("damage", [
    pytest.param(lambda c: _truncate(_first(c, "runs/*/checkpoint/*.f64")), id="param-blob"),
    pytest.param(lambda c: _first(c, "runs/*/checkpoint/index.json").unlink(), id="index-json"),
    pytest.param(lambda c: _truncate(_first(c, "datasets/*/split.json")), id="split-json"),
    pytest.param(lambda c: _truncate(_first(c, "datasets/*/x.bin")), id="x-bin"),
    pytest.param(lambda c: _unpublish(_first(c, "runs/*/checkpoint")), id="temp-sibling"),
])
def test_damaged_artifact_is_rebuilt(damage, corpus, warm_cache, tmp_path, caplog):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    damage(cache)
    with caplog.at_level("WARNING", logger="robustrec"):
        out = run_sweep(_sweep_config(corpus), cache)
    assert [r for r in caplog.records if r.name.startswith("robustrec.")]
    assert out.read_bytes() == (warm_cache / "results.csv").read_bytes()
    caplog.clear()
    run_sweep(_sweep_config(corpus), cache)  # healed: nothing left to rebuild
    assert not caplog.records


def test_write_report_aggregates_and_curves(tmp_path):
    def row(lam, eps_d, eps_a, f1, run):
        return {"run_id": run, "algo": "efm", "dataset": "d", "lambda": lam,
                "eps_d": eps_d, "eps_a": eps_a,
                "condition": "clean" if eps_a == 0.0 else "attacked",
                "ndcg": 0.5, "expl_pr": f1, "expl_re": f1, "expl_f1": f1,
                "n_users": 4, "n_pairs": 6, "n_non_cf": 0}

    rows = [row(0.0, 0.0, 0.0, 0.40, "a"), row(0.0, 0.0, 1.0, 0.10, "a"),
            row(0.0, 0.0, 0.0, 0.60, "b"), row(0.0, 0.0, 1.0, 0.30, "b"),
            row(0.5, 0.25, 0.0, 0.38, "c"), row(0.5, 0.25, 1.0, 0.30, "c"),
            row(0.5, 0.25, 0.0, 0.42, "d"), row(0.5, 0.25, 1.0, 0.40, "d")]
    results = tmp_path / "results.csv"
    write_results(results, rows)
    written = write_report(results, tmp_path / "rep", curve_lambda=0.5)
    names = {p.name for p in written}
    assert names == {"aggregate.csv", "curve_efm_d_vanilla.csv", "curve_efm_d_0.25.csv"}

    with open(tmp_path / "rep" / "aggregate.csv", newline="") as fh:
        agg = {(r["lambda"], r["eps_a"], r["condition"]): r
               for r in csv.DictReader(fh)}
    assert agg[("0", "0", "clean")]["expl_f1"] == "0.500000"    # mean(.40, .60)
    assert agg[("0", "1", "attacked")]["expl_f1"] == "0.200000"
    assert agg[("0.5", "1", "attacked")]["expl_f1"] == "0.350000"
    assert all(r["n_runs"] == "2" for r in agg.values())

    with open(tmp_path / "rep" / "curve_efm_d_0.25.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    assert [(r["eps_a"], r["expl_f1"]) for r in curve] == [("0", "0.400000"),
                                                           ("1", "0.350000")]


# -------------------------------------------------------------------- CLI ---

def test_cli_pipeline(corpus, tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "cache")
    base = ["--cache", cache, "--dataset.path", str(corpus),
            "--model.efm.n_factors", "6", "--model.efm.n_hidden", "3",
            "--training.max_epochs", "2", "--training.lr", "0.01"]

    assert cli_main(["--cache", cache, "ingest", "--dataset.path", str(corpus)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_users"] == 20 and stats["n_features"] == 10

    assert cli_main(base[:2] + ["train"] + base[2:]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert (tmp_path / "cache" / "runs" / trained["run_id"] / "checkpoint" /
            "manifest.json").exists()
    assert trained["lr_used"] == 0.01 and trained["restarts"] == 0

    assert cli_main(base[:2] + ["attack", "--eps-a", "0.5"] + base[2:]) == 0
    attacked = json.loads(capsys.readouterr().out)
    assert attacked["run_id"] == trained["run_id"]
    assert attacked["delta_norm"]["0.5"] == pytest.approx(0.5, abs=1e-6)
    assert attacked["grad_norm"] > 0.0
    assert (Path(attacked["artifact"]) / "manifest.json").exists()

    # evaluate finds the attack the attack command stored
    monkeypatch.setattr(sweep, "attack_gradient", lambda *a, **k: pytest.fail("attack rerun"))
    assert cli_main(base[:2] + ["evaluate", "--eps-a", "0.5"] + base[2:]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["condition"] == "attacked" and row["run_id"] == trained["run_id"]
    monkeypatch.undo()

    assert cli_main(base[:2] + ["evaluate"] + base[2:]) == 0
    clean = json.loads(capsys.readouterr().out)
    assert clean["condition"] == "clean" and clean["eps_a"] == 0.0

    sweep_args = base + ["--attack.eps_a_grid=[0.0,0.5]",
                         "--sweep.algos=[\"efm\"]", "--sweep.lambdas=[0.0,0.5]"]
    assert cli_main(sweep_args[:2] + ["sweep"] + sweep_args[2:]) == 0
    results = capsys.readouterr().out.strip()
    assert results.endswith("results.csv")

    assert cli_main(["--cache", cache, "report"]) == 0
    paths = capsys.readouterr().out.split()
    assert any(p.endswith("aggregate.csv") for p in paths)
    assert (tmp_path / "cache" / "report" / "aggregate.csv").exists()


def test_cli_rejects_unknown_key(corpus, tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli_main(["--cache", str(tmp_path), "ingest",
                  "--dataset.path", str(corpus), "--dataset.nope", "1"])
    assert "unknown config key" in capsys.readouterr().err
