"""Config plumbing, convergence policy, sweep caching, reports, and the CLI."""
import csv
import functools
import inspect
import json
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import robustrec.harness.cli as cli
import robustrec.harness.sweep as sweep
import robustrec.robustness as rob
from robustrec.dataset import DatasetSplit, build_split, ingest_reviews
from robustrec.evalkit import EvalReport, build_bed, evaluate
from robustrec.harness.cli import build_parser, hyperparameter_search
from robustrec.harness.cli import main as cli_main
from robustrec.harness.config import (RULES, SETTINGS, ConfigError, DEFAULTS, apply_override,
                                      check_settings, config_hash, default_config, leaves,
                                      load_config, training_config)
from robustrec.harness.report import read_results, write_report
from robustrec.harness.sweep import (CACHE_ENV, RESULT_COLUMNS, RESULT_TABLE, SweepCell,
                                     enumerate_cells, resolve_cache, run_sweep,
                                     write_results)
from robustrec.models import CERConfig, EFM, EFMConfig, build_model
from robustrec.models.base import Recommender
from robustrec.models.checkpoint import load_checkpoint, save_checkpoint
from robustrec.robustness import (DefenseConfig, EarlyStopper, TrainingConfig, TrainResult,
                                  attack_weights, train_defended)
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

    for bad, text in [("defense.nope", "unknown config key: 'defense.nope'"),
                      ("nope.lr", "unknown config key: 'nope'"),
                      ("model.efm", "config key 'model.efm' expects a section"),
                      ("training.lr.extra", "config key 'training.lr': cannot assign")]:
        with pytest.raises(ConfigError, match=re.escape(text)):
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


@pytest.mark.parametrize("dotted, value", [("training.max_epochs", 2.5), ("eval.k_rec", True),
                                           ("defense.lambda", "0.5"), ("training.lr", None),
                                           ("sweep.lambdas", [0.5, "1"])])
def test_check_settings_applies_the_type_rule(dotted, value):
    # a config built in code skips load_config and apply_override; the check
    # before any artifact still holds it to its defaults' types
    cfg = default_config()
    section, leaf = dotted.split(".")
    cfg[section][leaf] = value
    with pytest.raises(ConfigError, match=re.escape(f"config key '{dotted}")):
        check_settings(cfg)
    cfg[section][leaf] = [0, 1] if leaf == "lambdas" else 1  # an int may stand for a float
    check_settings(cfg)


@pytest.mark.parametrize("path, value, text", [
    (("eval", "topn"), 3, "unknown config key: 'eval.topn' (valid here: ['k_ndcg', 'k_rec', "
                          "'top_n'])"),
    (("defense", "lamda"), 0.5, "unknown config key: 'defense.lamda' (valid here: "
                                "['eps_d', 'lambda'])"),
    (("evals",), {"top_n": 3}, "unknown config key: 'evals' (valid here: ['attack', "
                               "'dataset', 'defense', 'eval', 'model', 'sweep', 'training'])"),
    (("eval",), 3, "config key 'eval' expects a section, got 3"),
], ids=["eval.topn", "defense.lamda", "evals", "eval-not-a-section"])
def test_check_settings_rejects_a_key_the_defaults_lack(path, value, text):
    # a misspelled key built in code would be ignored and its default used;
    # the check names it as load_config and apply_override do
    cfg = default_config()
    *sections, key = path
    functools.reduce(dict.__getitem__, sections, cfg)[key] = value
    with pytest.raises(ConfigError) as err:
        check_settings(cfg)
    assert str(err.value) == text


@pytest.mark.parametrize("path, text", [
    (("eval", "top_n"), "missing config key: 'eval.top_n'"),
    (("attack",), "missing config key: 'attack'"),
    (("model", "cer", "hidden"), "missing config key: 'model.cer.hidden'"),
], ids=["eval.top_n", "attack", "model.cer.hidden"])
def test_check_settings_names_a_missing_key(path, text):
    # a config built in code may lack a setting or a whole section; the check
    # names it by its dotted key, not as a bare KeyError of its last part
    cfg = default_config()
    *sections, key = path
    del functools.reduce(dict.__getitem__, sections, cfg)[key]
    with pytest.raises(ConfigError) as err:
        check_settings(cfg)
    assert str(err.value) == text


def test_a_config_built_in_code_names_the_runs_of_the_same_overrides(corpus, tmp_path):
    # ints for float settings are stored as the floats a file or an override
    # gives, so the run ids and keys hashed from either config are the same
    values = {"training.lr": 1, "model.efm.alpha": 1, "sweep.lambdas": [0, 1]}
    in_code, overridden = _sweep_config(corpus), _sweep_config(corpus)
    for dotted, value in values.items():
        *path, key = dotted.split(".")
        functools.reduce(dict.__getitem__, path, in_code)[key] = value
        apply_override(overridden, dotted, json.dumps(value))
    keys = []
    for cfg in (in_code, overridden):
        grid, sw = sweep.Sweep(cfg, tmp_path / "cache"), cfg["sweep"]
        runs = [sweep.Run(grid, cell) for cell in
                enumerate_cells(sw["algos"], sw["lambdas"], sw["eps_ds"], sw["seeds"])]
        keys.append([(run.run_id, run.bed_key, run.attack_key) for run in runs])
    assert len(keys[0]) == 2 and keys[0] == keys[1]
    assert json.dumps(in_code) == json.dumps(overridden)


def test_every_rule_names_a_setting():
    # the table takes each setting's rule from RULES: a key there that names
    # no setting would check nothing
    ruled = {key: rule for rule, (_, keys) in RULES.items() for key in keys}
    assert len(ruled) == 31 and {k: s.rule for k, s in SETTINGS.items() if s.rule} == ruled


def test_every_numeric_setting_has_a_rule():
    # any integer is a seed; every other numeric key rejects NaN (a float),
    # -1 (an integer) or either appended to a list, naming the key, or for a
    # model's setting checked by its dataclass, the model section
    tried, unchecked = [], []
    for key, default in leaves(DEFAULTS):
        entry = default[0] if isinstance(default, list) else default
        if key in ("dataset.seed", "training.seed", "attack.seed", "sweep.seeds") or \
                type(entry) not in (int, float):
            continue
        bad = float("nan") if type(entry) is float else -1
        cfg = default_config()
        apply_override(cfg, key, json.dumps([*default, bad] if isinstance(default, list) else bad))
        tried.append(key)
        try:
            check_settings(cfg)
        except ConfigError as e:
            if str(e).startswith((key, key.rpartition(".")[0] + ":")):
                continue
        unchecked.append(key)
    assert len(tried) == 35 and unchecked == []  # 31 with a rule, 4 model widths


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


# the settings the sweep passes straight to a call: (function, parameter)
CALL_SETTINGS = {
    "dataset.min_reviews_per_user": (ingest_reviews, "min_reviews_per_user"),
    "dataset.max_rating": (ingest_reviews, "max_rating"),
    "attack.batch_size": (attack_weights, "batch_size"),
    "eval.k_rec": (build_bed, "k_rec"),
    "eval.top_n": (evaluate, "top_n"),
    "eval.k_ndcg": (evaluate, "k_ndcg"),
}


@pytest.mark.parametrize("dotted", sorted(CALL_SETTINGS))
def test_every_call_setting_defaults_to_its_signature(dotted):
    fn, name = CALL_SETTINGS[dotted]
    section, key = dotted.split(".")
    assert DEFAULTS[section][key] == inspect.signature(fn).parameters[name].default
    if dotted == "dataset.max_rating":
        assert DEFAULTS[section][key] == inspect.signature(build_split).parameters[name].default
    if section == "eval" and key != "k_rec":
        assert DEFAULTS[section][key] == getattr(EvalReport, key)


def test_every_call_setting_reaches_its_call(corpus, tmp_path, monkeypatch):
    seen = {}

    def spy(fn, *names):
        def wrapper(*args, **kwargs):
            seen.update({f"{fn.__name__}.{n}": kwargs[n] for n in names})
            return fn(*args, **kwargs)
        return wrapper

    for fn, names in ((ingest_reviews, ("min_reviews_per_user", "max_rating")),
                      (build_split, ("max_rating",)), (build_bed, ("k_rec",)),
                      (evaluate, ("top_n", "k_ndcg")), (rob.attack_gradient, ("batch_size",))):
        monkeypatch.setattr(sweep, fn.__name__, spy(fn, *names))
    cfg = _sweep_config(corpus)
    cfg["sweep"]["lambdas"] = [0.0]
    for dotted in CALL_SETTINGS:
        section, key = dotted.split(".")
        apply_override(cfg, dotted, json.dumps(_non_default(DEFAULTS[section][key])))
    run_sweep(cfg, tmp_path / "cache")
    assert seen == {"ingest_reviews.min_reviews_per_user": 2, "ingest_reviews.max_rating": 6,
                    "build_split.max_rating": 6, "build_bed.k_rec": 6,
                    "evaluate.top_n": 2, "evaluate.k_ndcg": 101,
                    "attack_gradient.batch_size": 33}


# the settings no artifact key holds: the review file's bytes are hashed, not
# its path; each cell carries its own algo, seed, lambda and eps_d; each row
# hashes its own eps_a
UNKEYED = {"dataset.path", "model.algo", "training.seed", "defense.lambda", "defense.eps_d",
           "attack.eps_a_grid", "sweep.algos", "sweep.lambdas", "sweep.eps_ds", "sweep.seeds"}
KEY_WALK_CELLS = enumerate_cells(["cer", "efm"], [0.0, 0.5], [0.25], [0])
KEY_WALK_GRID = [0.0, 0.5]


def _keyed(dotted: str, kind: str, cell: SweepCell | None, eps_a: float | None) -> bool:
    """Whether changing setting `dotted` must move the key of artifact
    (kind, cell, eps_a); a setting with no rule here fails the walk."""
    section, _, rest = dotted.partition(".")
    if dotted in UNKEYED:
        return False
    if section == "dataset":
        return True
    if section in ("model", "training"):
        return kind != "dataset" and (section == "training" or cell.algo == rest.split(".")[0])
    if dotted in ("attack.seed", "attack.batch_size"):
        return kind == "attack" or kind == "row" and eps_a != 0.0
    if dotted == "eval.k_rec":
        return kind in ("bed", "row")
    if dotted in ("eval.top_n", "eval.k_ndcg"):
        return kind == "row"
    raise AssertionError(f"{dotted}: no artifact kind is known to hash it or not")


def _artifact_keys(cfg, cache, paths) -> dict[tuple, str]:
    """The key of every artifact of the walk's grid by (kind, cell, eps_a):
    the paths `load_dataset` and each cell's `Run.rows` ask `artifact` for
    (appended to `paths` by a stub that builds nothing), and each run's id and
    attack path."""
    grid = sweep.Sweep(cfg, cache)
    paths.clear()
    sweep.load_dataset(cfg, cache, grid.sha256)
    keys = {("dataset", None, None): str(paths.pop())}
    for cell in KEY_WALK_CELLS:
        grid.beds.clear()  # each cell asks for its bed
        run = sweep.Run(grid, cell)
        run.rows(KEY_WALK_GRID)
        [bed, *rows] = paths
        paths.clear()
        assert bed.name.startswith("bed_") and all(r.name.startswith("eval_") for r in rows)
        keys.update({("run", cell, None): run.run_id, ("attack", cell, None): str(run.attack_path),
                     ("bed", cell, None): str(bed)})
        keys.update({("row", cell, eps_a): str(r) for eps_a, r in zip(KEY_WALK_GRID, rows,
                                                                       strict=True)})
    return keys


def test_every_setting_moves_exactly_the_keys_it_must(corpus, tmp_path, monkeypatch):
    # a cache that hashes too few settings serves stale results; one that
    # hashes too many rebuilds for nothing: each setting of the table, set to
    # a valid non-default value, must move exactly the keys `_keyed` names
    paths = []
    monkeypatch.setattr(sweep, "artifact", lambda path, *_: paths.append(path) or {})
    same_bytes = tmp_path / "copy.jsonl"
    shutil.copyfile(corpus, same_bytes)
    values = {"dataset.path": str(same_bytes), "dataset.name": "other", "model.algo": "cer",
              "model.efm.alpha": 0.5, "sweep.algos": ["cer"], "sweep.lambdas": [0.0, 0.25]}

    def config():
        cfg = default_config()
        cfg["dataset"]["path"] = str(corpus)
        return cfg

    base = _artifact_keys(config(), tmp_path / "cache", paths)
    assert len(base) == 1 + len(KEY_WALK_CELLS) * (3 + len(KEY_WALK_GRID)) == 21
    for dotted, setting in SETTINGS.items():
        cfg = config()
        value = values[dotted] if dotted in values else _non_default(setting.default)
        apply_override(cfg, dotted, json.dumps(value))
        keys = _artifact_keys(cfg, tmp_path / "cache", paths)
        assert {label for label in base if keys[label] != base[label]} == \
            {label for label in base if _keyed(dotted, *label)}, dotted


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
    # a value given twice counts once, as do budgets
    assert enumerate_cells(["efm", "efm"], [0.5, 0, 0.0, 0.5], [0.25, 0.25], [0, 0]) == \
        [SweepCell("efm", 0.0, 0.0, 0), SweepCell("efm", 0.5, 0.25, 0)]
    assert sweep.budgets([0, 0.5, 0.5, 0.0, 0.25]) == [0.0, 0.5, 0.25]
    assert [str(e) for e in sweep.budgets([-0.0, 0.5])] == ["0.0", "0.5"]


def test_a_negative_zero_eps_d_names_the_run_of_zero(corpus, tmp_path):
    # equal cells must hash to one run id, or "eps_ds": [-0.0] trains twice
    grid = sweep.Sweep(_sweep_config(corpus), tmp_path / "cache")
    cells = [sweep.sweep_cell("efm", 0.5, eps_d, 0) for eps_d in (-0.0, 0.0)]
    assert str(cells[0].eps_d) == "0.0"
    assert len({sweep.Run(grid, cell).run_id for cell in cells}) == 1


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


def test_checkpoint_int_arrays_and_damage(tmp_path):
    arrays = {"ids": np.array([[-2**63, 0], [7, 2**63 - 1]], dtype=np.int64),
              "w": np.array([0.5, -0.0, np.inf])}
    save_checkpoint(tmp_path / "ck", {}, arrays)
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == \
        ["ids.i64", "index.json", "manifest.json", "w.f64"]
    _, loaded = load_checkpoint(tmp_path / "ck")
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].tobytes() == arr.tobytes()
    loaded["ids"][0, 0] = 1  # writable, like the arrays that were saved

    with pytest.raises(ValueError, match="neither float64 nor int64"):
        save_checkpoint(tmp_path / "f32", {}, {"a": np.ones(2, dtype=np.float32)})
    assert not (tmp_path / "f32").exists()
    for index, match in (({"ids": [2, "2"], "w": [3]}, "ids needs a shape"),
                         ({"ids": [2, 2], "w": [3], "gone": [1]}, "gone needs .* 0 blobs")):
        (tmp_path / "ck" / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(tmp_path / "ck")
    (tmp_path / "ck" / "index.json").write_text(json.dumps({"ids": [2, 2], "w": [3]}))
    (tmp_path / "ck" / "w.f64").rename(tmp_path / "ck" / "w.f32")
    with pytest.raises(ValueError, match="w needs .* 0 blobs"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_in_the_float64_only_layout_loads_bit_identically(tmp_path):
    # the layout written before int64 arrays existed: sorted index.json of
    # name -> shape, one raw <f8 blob per parameter
    rng = np.random.default_rng(2)
    params = {"W1": rng.standard_normal((4, 3)), "b1": rng.standard_normal(3)}
    root = tmp_path / "checkpoint"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"kind": "cer", "best_epoch": 2}))
    (root / "index.json").write_text(json.dumps({"W1": [4, 3], "b1": [3]}, indent=2))
    for name, arr in params.items():
        (root / f"{name}.f64").write_bytes(arr.astype("<f8").tobytes())
    manifest, loaded = load_checkpoint(root)
    assert manifest == {"kind": "cer", "best_epoch": 2}
    for name, arr in params.items():
        assert loaded[name].tobytes() == arr.tobytes() and loaded[name].shape == arr.shape


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
    assert sorted(p.name for p in datasets[0].iterdir()) == sorted([
        "manifest.json", "index.json", "X.f64", "Y.f64", "rating.f64", "part.i64",
        "user.i64", "item.i64", "timestamp.i64", "mention_offsets.i64", "mentions.i64",
        "val_users.i64", "val_negatives.i64", "test_users.i64", "test_negatives.i64"])
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


def test_cold_sweep_reads_back_nothing_it_built(corpus, tmp_path, monkeypatch):
    loads, norms = [], []

    def load_spy(path):
        result = load_checkpoint(path)  # a missing artifact raises before it is recorded
        loads.append(path)
        return result

    monkeypatch.setattr(sweep, "load_checkpoint", load_spy)
    monkeypatch.setattr(sweep, "params_norm", lambda xi: norms.append(xi) or rob.params_norm(xi))
    cfg = _sweep_config(corpus)
    cfg["attack"]["eps_a_grid"] = DEFAULTS["attack"]["eps_a_grid"]
    run_sweep(cfg, tmp_path / "cache")
    # the vanilla model the bed is built from, and each run's attack gradient
    # behind its attacked rows, are the ones this sweep just built
    assert loads == []
    assert norms == []


def test_every_ranking_pass_of_a_sweep_slices_the_split_matrices(corpus, tmp_path,
                                                                  monkeypatch):
    # the split builds its candidate matrices once; every pass of a sweep
    # (validation epochs, beds, results rows) scores slices of those objects
    scored = []
    for cls in (Recommender, EFM):
        def spy(self, users, candidates, real=cls.score_matrix):
            scored.append((self._split, candidates))
            return real(self, users, candidates)

        monkeypatch.setattr(cls, "score_matrix", spy)
    cfg = _sweep_config(corpus)
    cfg["sweep"]["algos"] = ["efm", "cer"]
    run_sweep(cfg, tmp_path / "cache")
    [split] = {id(split): split for split, _ in scored}.values()
    matrices = {id(split.val_candidates), id(split.test_candidates[0])}
    assert {id(candidates.base) for _, candidates in scored} == matrices


@pytest.fixture(scope="module")
def warm_cache(corpus, tmp_path_factory):
    """A cache filled by one sweep of `_sweep_config(corpus)`."""
    cache = tmp_path_factory.mktemp("warm") / "cache"
    run_sweep(_sweep_config(corpus), cache)
    return cache


def test_repeated_grid_values_write_each_row_once(corpus, warm_cache, tmp_path):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    cfg = _sweep_config(corpus)
    cfg["sweep"]["lambdas"] = [0, 0.0]
    cfg["attack"]["eps_a_grid"] = [0, 0.5, 0.5]
    out = run_sweep(cfg, cache)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(warm_cache / "results.csv", newline="") as fh:
        vanilla = [r for r in csv.DictReader(fh) if r["lambda"] == "0"]
    assert rows == vanilla and len(rows) == 2  # the vanilla run's clean and attacked rows
    write_report(out, tmp_path / "report")
    with open(tmp_path / "report" / "aggregate.csv", newline="") as fh:
        assert [r["n_runs"] for r in csv.DictReader(fh)] == ["1", "1"]


@pytest.mark.parametrize("command, grid", [
    (["evaluate", "--eps-a", "-1"], [0.0, 0.5]),
    (["evaluate", "--eps-a", "nan"], [0.0, 0.5]),
    (["attack", "--eps-a", "-1"], [0.0, 0.5]),
    (["attack"], [0.0, -0.5]),
    (["attack"], [0.0, float("nan")]),
    (["sweep"], [0.0, -0.5]),
    (["sweep"], [0.0, 0.5, float("inf")]),
])
def test_bad_budget_is_rejected_before_any_artifact(command, grid, corpus, tmp_path,
                                                   monkeypatch, capsys):
    cfg = _sweep_config(corpus)
    cfg["attack"]["eps_a_grid"] = grid
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    monkeypatch.setattr(sweep, "load_dataset", lambda *a: pytest.fail("dataset loaded"))
    monkeypatch.setattr(sweep, "review_sha256", lambda *a: pytest.fail("review file hashed"))
    cache = tmp_path / "cache"
    assert _status(["--config", str(config), "--cache", str(cache), *command]) == 2
    eps_a = "--eps-a" in command  # checked by argparse; a grid, by check_settings
    _assert_one_line_error(capsys, "argument --eps-a: must be finite and >= 0" if eps_a else
                           "attack.eps_a_grid must be finite and >= 0")
    assert _files(cache) == []
    cfg["attack"]["eps_a_grid"] = [-1.0] if eps_a else grid
    with pytest.raises(ConfigError, match="attack.eps_a_grid"):
        check_settings(cfg)


def _assert_one_line_error(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("robustrec: error: ") and err.count("\n") == 1, err
    assert text in err


def _status(argv):
    """cli_main's exit status, whether it returns it or argparse exits with it."""
    try:
        return cli_main(argv)
    except SystemExit as e:
        return e.code


def _files(root):
    return [p for p in root.rglob("*") if p.is_file()] if root.exists() else []


def _review_line(user, item, ts):
    return json.dumps({"user_id": user, "item_id": item, "rating": 4, "timestamp": ts,
                       "triples": []}) + "\n"


@pytest.mark.parametrize("case, text", [
    ("no dataset.path", "dataset.path is required"),
    ("missing review file", "No such file or directory"),
    ("IngestError", "line 2: missing key 'user_id'"),
    ("not a review object", "line 2: a review is a JSON object, got [1, 2]"),
    ("not UTF-8", "line 2: not UTF-8"),
    ("SplitError", "user u0: need 100 test negatives, only 0 never-interacted items"),
    ("train --model.algo xyz", "model.algo: unknown algo 'xyz', expected one of ['cer', 'efm']"),
    ('sweep --sweep.algos ["efm","xyz"]', "sweep.algos: unknown algo 'xyz'"),
    ("train --training.batch_size 0", "training.batch_size must be >= 1, got 0"),
    ("attack --attack.batch_size 0", "attack.batch_size must be >= 1, got 0"),
    ("train --training.val_k 0", "training.val_k must be >= 1, got 0"),
    ("evaluate --eval.k_ndcg 0", "eval.k_ndcg must be >= 1, got 0"),
    ("sweep --eval.k_rec -1", "eval.k_rec must be >= 1, got -1"),
    ("evaluate --eval.top_n 0", "eval.top_n must be >= 1, got 0"),
    ("train --search --search-epochs 0", "argument --search-epochs: must be >= 1, got 0"),
    ("train --search --search-epochs -1", "argument --search-epochs: must be >= 1, got -1"),
    ("train --search-epochs 0", "argument --search-epochs: must be >= 1, got 0"),
    ("sweep --sweep.lambdas [0,1.5]", "sweep.lambdas must be in [0, 1], got 1.5"),
    ("train --defense.lambda -2", "defense.lambda must be in [0, 1], got -2.0"),
    ("sweep --sweep.eps_ds [-0.25,NaN]", "sweep.eps_ds must be finite and >= 0, got -0.25"),
    ("sweep --sweep.eps_ds [0.25,NaN]", "sweep.eps_ds must be finite and >= 0, got nan"),
    ("train --defense.eps_d Infinity", "defense.eps_d must be finite and >= 0, got inf"),
    ("train --training.lr -0.1", "training.lr must be finite and > 0, got -0.1"),
    ("evaluate --training.lr NaN", "training.lr must be finite and > 0, got nan"),
    ("train --training.weight_decay -1", "training.weight_decay must be finite and >= 0, got -1.0"),
    ("evaluate --model.efm.n_factors 0",
     "model.efm: EFMConfig.n_factors must be a positive integer, got 0"),
    ("train --model.efm.n_hidden 0",
     "model.efm: EFMConfig.n_hidden must be a positive integer, got 0"),
    ("train --training.max_epochs 0", "training.max_epochs must be >= 1, got 0"),
    ("train --training.min_delta NaN", "training.min_delta must be finite and >= 0, got nan"),
    ("train --training.retries -3", "training.retries must be >= 0, got -3"),
    ("sweep --model.efm.alpha 2", "model.efm.alpha must be in [0, 1], got 2.0"),
    ("evaluate --model.cer.cf_lr -1", "model.cer.cf_lr must be finite and > 0, got -1.0"),
    ("ingest --dataset.max_rating 0", "dataset.max_rating must be >= 1, got 0"),
    ("sweep --attack.eps_a_grid [0,-0.5]", "attack.eps_a_grid must be finite and >= 0, got -0.5"),
])
def test_cli_input_errors_end_in_one_line_with_status_2(case, text, tmp_path, capsys):
    reviews = tmp_path / "reviews.jsonl"
    if case == "IngestError":
        reviews.write_text(_review_line("u0", "i0", 1) + '{"rating": 3}\n')
    elif case == "not a review object":
        reviews.write_text(_review_line("u0", "i0", 1) + "[1, 2]\n")
    elif case == "not UTF-8":
        reviews.write_bytes(_review_line("u0", "i0", 1).encode() + b'{"user_id": "\xff"}\n')
    elif case == "SplitError":  # 8 interactions, no never-interacted item
        reviews.write_text("".join(_review_line("u0", f"i{t}", t) for t in range(8)))
    path = [] if case == "no dataset.path" else ["--dataset.path", str(reviews)]
    cache = tmp_path / "cache"
    # a bad setting's case is its command line; the review file it names does
    # not exist, so its own error shows the check comes before the file is read
    commands = [case.split()] if " --" in case else [["ingest"], ["sweep"], ["evaluate"]]
    for command in commands:
        assert _status(["--cache", str(cache), *command, *path]) == 2
        _assert_one_line_error(capsys, text)
        assert _files(cache) == []


@pytest.mark.parametrize("case", ["review file is a directory", "results file is a directory",
                                  "report out is a file", "cache is a file"])
def test_cli_path_it_cannot_read_or_write_ends_in_one_line(case, corpus, tmp_path, capsys):
    results, path = tmp_path / "results.csv", tmp_path / "path"
    write_results(results, [])
    path.mkdir() if "directory" in case else path.write_text("")
    cache = path if case == "cache is a file" else tmp_path / "cache"
    argv = {"review file is a directory": ["ingest", "--dataset.path", str(path)],
            "results file is a directory": ["report", "--results", str(path)],
            "report out is a file": ["report", "--results", str(results), "--out", str(path)],
            "cache is a file": ["ingest", "--dataset.path", str(corpus)]}[case]
    assert _status(["--cache", str(cache), *argv]) == 2
    _assert_one_line_error(capsys, f"'{path}")  # the message names the path


@pytest.mark.parametrize("case, argv, text", [
    ("override without a value", ["ingest", "--dataset.path"],
     "argument --dataset.path: expected one argument"),
    ("stray argument", ["ingest", "stray"], "unrecognized arguments: stray"),
    ("missing config file", ["--config", "{tmp}/nope.json", "ingest"], "No such file"),
    ("malformed config file", ["--config", "{tmp}/bad.json", "ingest"], "Expecting"),
    ("abbreviated key", ["ingest", "--dataset.pat", "x"], "unknown config key: 'dataset.pat'"),
    ("abbreviated key first", ["--dataset.pat=x", "ingest"], "unknown config key: 'dataset.pat'"),
    ("search epochs not an integer", ["train", "--search-epochs", "two"],
     "argument --search-epochs: invalid int value: 'two'"),
    ("abbreviated key with a value first", ["--dataset.pat", "x", "ingest"],
     "unknown config key: 'dataset.pat'"),
])
def test_cli_usage_errors_exit_2_without_a_traceback(case, argv, text, tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"dataset": ')
    with pytest.raises(SystemExit) as exit_:
        cli_main(["--cache", str(tmp_path / "cache"),
                  *(a.format(tmp=tmp_path) for a in argv)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("robustrec: error: ") and text in err, err
    assert _files(tmp_path / "cache") == []


def test_sweep_without_the_vanilla_cell_scores_on_its_bed(corpus, warm_cache, tmp_path):
    cfg = _sweep_config(corpus)
    cfg["sweep"]["lambdas"] = [0.5]
    cache = tmp_path / "cache"
    out = run_sweep(cfg, cache)
    # the bed's vanilla run is trained on demand, with its bed alone
    vanilla = [d for d in (cache / "runs").iterdir() if list(d.glob("bed_*.json"))]
    assert len(vanilla) == 1 and (vanilla[0] / "checkpoint" / "manifest.json").exists()
    assert not list(vanilla[0].glob("eval_*.json"))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(warm_cache / "results.csv", newline="") as fh:
        full = [r for r in csv.DictReader(fh) if r["lambda"] == "0.5"]
    assert rows == full


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


def test_another_arithmetic_reuses_nothing_of_a_warm_cache(corpus, warm_cache, tmp_path,
                                                           monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    cfg = _sweep_config(corpus)
    old_dirs = [*(cache / "datasets").iterdir(), *(cache / "runs").iterdir()]
    with open(warm_cache / "results.csv", newline="") as fh:
        old_ids = {r["run_id"] for r in csv.DictReader(fh)}
    opened = []
    real_load = sweep.load_checkpoint
    monkeypatch.setattr(sweep, "load_checkpoint", lambda path: opened.append(path) or
                        real_load(path))
    monkeypatch.setattr(sweep, "ARITHMETIC", "0123456789ab")
    with open(run_sweep(cfg, cache), newline="") as fh:
        new_ids = {r["run_id"] for r in csv.DictReader(fh)}
    assert len(new_ids) == len(old_ids) == 2 and not new_ids & old_ids
    assert opened and not [p for p in opened if any(p.is_relative_to(d) for d in old_dirs)]
    assert len(list((cache / "datasets").iterdir())) == 2
    for old in _files(warm_cache):  # every old artifact is left as it was
        if old.name != "results.csv":
            assert (cache / old.relative_to(warm_cache)).read_bytes() == old.read_bytes()

    monkeypatch.undo()  # the package's own value reuses the old cache whole
    monkeypatch.setattr(sweep, "train_defended", lambda *a: pytest.fail("retrained"))
    monkeypatch.setattr(sweep, "evaluate", lambda *a, **k: pytest.fail("row evaluated"))
    assert run_sweep(cfg, cache).read_bytes() == (warm_cache / "results.csv").read_bytes()


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _unpublish(path):
    """What a write interrupted before its rename leaves behind."""
    path.rename(path.with_name(path.name + ".partial"))


def _first(cache, pattern):
    return sorted(cache.glob(pattern))[0]


def _write_json(pattern, doc):
    """A JSON artifact that parses but holds a document of the wrong type."""
    return lambda cache: _first(cache, pattern).write_text(json.dumps(doc))


def _row_column(column, value):
    """A cached results row whose `column` holds a value of the wrong type."""
    def damage(cache):
        path = _first(cache, "runs/*/eval_*.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), column: value}))
    return damage


def _attack_gradient(change):
    """An attack gradient rewritten by `change(manifest, xi)`, in a cache
    without results rows, so that the attacked rows load it again."""
    def damage(cache):
        path = _first(cache, "runs/*/attack_*")
        manifest, xi = load_checkpoint(path)
        change(manifest, xi)
        shutil.rmtree(path)
        save_checkpoint(path, manifest, xi)
        for row in cache.glob("runs/*/eval_*.json"):
            row.unlink()
    return damage


def _attack_blob_as_int(cache):
    """An attack gradient whose V blob is renamed to .i64, so its float bits
    read as int64, in a cache without results rows."""
    blob = _first(cache, "runs/*/attack_*/V.f64")
    blob.rename(blob.with_suffix(".i64"))
    for row in cache.glob("runs/*/eval_*.json"):
        row.unlink()


def _drop_run_rows(run_dir):
    """Delete the results rows of one run, the rows that need its checkpoint."""
    for row in run_dir.glob("eval_*.json"):
        row.unlink()


def _checkpoint(damage, pattern):
    """`damage` applied to the first path matching `pattern` in a run's
    checkpoint, in a cache without that run's results rows, so that they
    load it again."""
    def apply(cache):
        path = _first(cache, pattern)
        damage(path)
        _drop_run_rows(cache / "runs" / path.relative_to(cache / "runs").parts[0])
    return apply


def _dataset(damage):
    """`damage(cache)` to the dataset artifact, in a cache without results
    rows, every one of which needs the dataset to be built again."""
    def apply(cache):
        damage(cache)
        for run_dir in cache.glob("runs/*"):
            _drop_run_rows(run_dir)
    return apply


def _dataset_stats(stats):
    """A dataset artifact whose manifest holds `stats` in place of its own."""
    def damage(cache):
        path = _first(cache, "datasets/*/manifest.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "stats": stats}))
    return _dataset(damage)


@pytest.mark.parametrize("damage", [
    pytest.param(_checkpoint(_truncate, "runs/*/checkpoint/*.f64"), id="param-blob"),
    pytest.param(_checkpoint(Path.unlink, "runs/*/checkpoint/index.json"), id="index-json"),
    pytest.param(_dataset(lambda c: _truncate(_first(c, "datasets/*/*.i64"))),
                 id="dataset-blob"),
    pytest.param(_dataset(lambda c: _first(c, "datasets/*/index.json").unlink()),
                 id="dataset-index"),
    pytest.param(_checkpoint(_unpublish, "runs/*/checkpoint"), id="temp-sibling"),
    pytest.param(_write_json("runs/*/bed_*.json", []), id="bed-list"),
    pytest.param(_write_json("runs/*/bed_*.json", {"3": 5}), id="bed-int-items"),
    pytest.param(_write_json("runs/*/eval_*.json", 5), id="eval-row-int"),
    pytest.param(_checkpoint(lambda p: p.write_text(json.dumps([])),
                             "runs/*/checkpoint/index.json"), id="index-list"),
    pytest.param(_row_column("ndcg", "x"), id="eval-row-str-metric"),
    pytest.param(_attack_gradient(lambda m, xi: xi.update(H1=xi["H1"][:1])),
                 id="attack-xi-shape"),
    pytest.param(_attack_gradient(lambda m, xi: m.update(grad_norm="x")),
                 id="attack-grad-norm-str"),
    pytest.param(_attack_blob_as_int, id="attack-blob-int"),
    pytest.param(_attack_gradient(lambda m, xi: xi.update(V=2.0 * xi["V"])),
                 id="attack-xi-not-its-norm"),
    pytest.param(_dataset_stats([]), id="dataset-stats-list"),
    pytest.param(_dataset_stats({"n_users": 20, "sha256": "0" * 64}), id="dataset-stats-sha"),
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


def test_legacy_dataset_layout_is_rebuilt_once(corpus, warm_cache, tmp_path, caplog):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    dataset = _first(cache, "datasets/*")
    shutil.rmtree(dataset)
    dataset.mkdir()  # the layout of the JSON split and the RRAM matrix files
    (dataset / "split.json").write_text(json.dumps({"users": [], "train": []}))
    (dataset / "x.bin").write_bytes(b"RRAM" + bytes(28))
    (dataset / "y.bin").write_bytes(b"RRAM" + bytes(28))
    (dataset / "stats.json").write_text(json.dumps({"n_users": 0}))
    for run_dir in cache.glob("runs/*"):  # rows that need the dataset built again
        _drop_run_rows(run_dir)
    with caplog.at_level("WARNING", logger="robustrec"):
        out = run_sweep(_sweep_config(corpus), cache)
    assert [r for r in caplog.records if str(dataset) in r.getMessage()]
    assert out.read_bytes() == (warm_cache / "results.csv").read_bytes()
    assert (dataset / "manifest.json").exists() and not (dataset / "split.json").exists()
    caplog.clear()
    run_sweep(_sweep_config(corpus), cache)
    assert not caplog.records


def test_attack_settings_leave_clean_rows_cached(corpus, warm_cache, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    evaluated, attacked = [], []

    def spy(model, *args, **kwargs):
        evaluated.append(model)
        return evaluate(model, *args, **kwargs)

    def tag(*args, **kwargs):
        attacked.append(rob.attacked_copy(*args, **kwargs))
        return attacked[-1]

    monkeypatch.setattr(sweep, "evaluate", spy)
    monkeypatch.setattr(sweep, "attacked_copy", tag)
    cfg = _sweep_config(corpus)
    apply_override(cfg, "attack.seed", "1")
    run_sweep(cfg, cache)
    # only the attacked row of each trained run is evaluated again
    assert len(evaluated) == len(list((cache / "runs").iterdir())) == 2
    assert all(a is b for a, b in zip(evaluated, attacked, strict=True))
    with open(cache / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(warm_cache / "results.csv", newline="") as fh:
        before = list(csv.DictReader(fh))
    assert [r for r in rows if r["condition"] == "clean"] == \
        [r for r in before if r["condition"] == "clean"]


def test_checkpoint_manifest_records_training_loss(warm_cache):
    manifests = [json.loads(p.read_text())
                 for p in sorted(warm_cache.glob("runs/*/checkpoint/manifest.json"))]
    assert len(manifests) == 2
    for manifest in manifests:
        losses = manifest["train_loss"]
        assert len(losses) == manifest["epochs_trained"] > 0
        assert all(isinstance(x, float) and np.isfinite(x) for x in losses)


def test_warm_sweep_loads_checkpoints_without_drawing_and_hashes_once(
        corpus, warm_cache, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    hashes, real_reinit = [], EFM.reinit

    def hash_spy(obj):
        hashes.append(obj)
        return config_hash(obj)

    monkeypatch.setattr(EFM, "reinit", lambda *a: pytest.fail("warm load drew parameters"))
    monkeypatch.setattr(sweep, "config_hash", hash_spy)
    cfg = _sweep_config(corpus)
    out = run_sweep(cfg, cache)
    assert out.read_bytes() == (warm_cache / "results.csv").read_bytes()
    # per cell its run id, vanilla run id, bed and attack keys, bar the vanilla
    # cell's vanilla run id, which is its own; one key per results row; no
    # dataset key, as no row needs the dataset
    n_cells, n_vanilla, n_rows = 2, 1, 4
    assert len(hashes) == 4 * n_cells - n_vanilla + n_rows

    # a checkpoint whose parameters do not fit the model is rebuilt
    monkeypatch.undo()
    ckpt = _first(cache, "runs/*/checkpoint")
    manifest, params = load_checkpoint(ckpt)
    shutil.rmtree(ckpt)
    save_checkpoint(ckpt, manifest, {**params, "V": params["V"][:, :2]})
    _drop_run_rows(ckpt.parent)  # the rows that need it
    draws = []

    def reinit_spy(self, seed):
        draws.append(seed)
        real_reinit(self, seed)

    monkeypatch.setattr(EFM, "reinit", reinit_spy)
    assert run_sweep(cfg, cache).read_bytes() == (warm_cache / "results.csv").read_bytes()
    assert draws == [0]  # that run alone was trained again


def _fail_on_eval_inputs(monkeypatch):
    for name in ("gold_explanations", "train_feature_sets"):
        monkeypatch.setattr(sweep, name, lambda *a, name=name: pytest.fail(f"{name} derived"))
    # what both read, whoever calls them
    monkeypatch.setattr(DatasetSplit, "mention_table",
                        lambda *a: pytest.fail("mention table read"))


def test_warm_sweep_derives_no_eval_inputs_and_reads_each_bed_once(
        corpus, warm_cache, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    _fail_on_eval_inputs(monkeypatch)
    reads, real_read_text = [], Path.read_text

    def read_spy(self, *args, **kwargs):
        reads.append(self)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_spy)
    out = run_sweep(_sweep_config(corpus), cache)
    assert out.read_bytes() == (warm_cache / "results.csv").read_bytes()
    beds = [p for p in reads if p.name.startswith("bed_")]
    # one (algo, seed), whose vanilla and defended cells share the bed
    assert beds == sorted(cache.glob("runs/*/bed_*.json"))


def test_ensure_trained_returns_the_checkpoint_manifest_cold_and_warm(corpus, tmp_path):
    cfg, cache = _sweep_config(corpus), tmp_path / "cache"
    cell = SweepCell("efm", 0.0, 0.0, 0)
    runs = [sweep.Run(sweep.Sweep(cfg, cache), cell) for _ in ("cold", "warm")]
    cold, warm = (sweep.ensure_trained(run.sweep, cell, run) for run in runs)
    for model, run_dir, run_id, manifest in (cold, warm):
        assert run_dir == cache / "runs" / run_id  # bench/tracing.py reads the id as result[2]
        assert manifest == json.loads((run_dir / "checkpoint" / "manifest.json").read_text())
        assert manifest["config"] == sweep.cell_run_config(cfg, cell, runs[0].sweep.sha256)
    assert cold[3] == warm[3] and cold[1] == warm[1]
    for name, p in cold[0].params.items():
        np.testing.assert_array_equal(p.data, warm[0].params[name].data)


def test_warm_load_adopts_the_loaded_arrays(corpus, warm_cache, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    cfg = _sweep_config(corpus)
    run = sweep.Run(sweep.Sweep(cfg, cache), SweepCell("efm", 0.5, 0.25, 0))
    run.sweep.data  # loads through load_checkpoint too
    loaded = []
    monkeypatch.setattr(sweep, "load_checkpoint",
                        lambda path: loaded.append(load_checkpoint(path)) or loaded[-1])
    monkeypatch.setattr(sweep, "train_defended", lambda *a: pytest.fail("retrained"))
    model = run.model
    [(_, params)] = loaded
    assert model.params.keys() == params.keys()
    for name, p in model.params.items():
        assert p.data is params[name]  # the loaded array itself, not a copy
        assert p.data.flags.writeable


@pytest.mark.parametrize("n_deleted", [1, 4])
def test_rebuilt_rows_derive_the_eval_inputs_once(n_deleted, corpus, warm_cache, tmp_path,
                                                  monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    rows = sorted(cache.glob("runs/*/eval_*.json"))
    assert len(rows) == 4
    for path in rows[:n_deleted]:
        path.unlink()
    calls = []
    for name in ("gold_explanations", "train_feature_sets"):
        real = getattr(sweep, name)
        monkeypatch.setattr(sweep, name, lambda split, name=name, real=real:
                            calls.append(name) or real(split))
    out = run_sweep(_sweep_config(corpus), cache)
    assert out.read_bytes() == (warm_cache / "results.csv").read_bytes()
    assert sorted(calls) == ["gold_explanations", "train_feature_sets"]
    assert sorted(cache.glob("runs/*/eval_*.json")) == rows


def test_cli_evaluate_of_a_cached_row_derives_no_eval_inputs(corpus, warm_cache, tmp_path,
                                                             capsys, monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    cfg = _sweep_config(corpus)
    cfg["defense"].update({"lambda": 0.5, "eps_d": 0.25})  # the defended cell of the sweep
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    _fail_on_eval_inputs(monkeypatch)
    monkeypatch.setattr(sweep, "evaluate", lambda *a, **k: pytest.fail("row evaluated"))
    assert cli_main(["--config", str(config), "--cache", str(cache),
                     "evaluate", "--eps-a", "0.5"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["condition"] == "attacked" and row["lambda"] == 0.5
    cached = [json.loads(p.read_text()) for p in cache.glob("runs/*/eval_*.json")]
    assert row in cached


def _fail_on_artifact_reads(monkeypatch):
    monkeypatch.setattr(sweep, "load_dataset", lambda *a: pytest.fail("dataset loaded"))
    monkeypatch.setattr(sweep, "load_checkpoint", lambda path: pytest.fail(f"{path} opened"))


def test_cached_rows_open_no_dataset_or_checkpoint(corpus, warm_cache, tmp_path, monkeypatch,
                                                   caplog):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    damaged = [_first(cache, "runs/*/checkpoint/*.f64"), _first(cache, "datasets/*/*.i64")]
    for path in damaged:
        _truncate(path)
    truncated = [path.read_bytes() for path in damaged]
    results = cache / "results.csv"
    inode = results.stat().st_ino
    _fail_on_artifact_reads(monkeypatch)
    with caplog.at_level("WARNING", logger="robustrec"):
        assert run_sweep(_sweep_config(corpus), cache) == results
    assert not caplog.records  # nothing found damaged: nothing was opened
    assert [path.read_bytes() for path in damaged] == truncated
    assert results.read_bytes() == (warm_cache / "results.csv").read_bytes()
    assert results.stat().st_ino == inode  # the same bytes are not written again


def test_cli_evaluate_of_a_cached_row_opens_no_dataset_or_checkpoint(
        corpus, warm_cache, tmp_path, capsys, monkeypatch):
    cfg = _sweep_config(corpus)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    _fail_on_artifact_reads(monkeypatch)
    cached = [json.loads(p.read_text()) for p in warm_cache.glob("runs/*/eval_*.json")]
    for eps_a in ("0", "0.5"):  # the vanilla cell's clean and attacked rows
        assert cli_main(["--config", str(config), "--cache", str(warm_cache),
                         "evaluate", "--eps-a", eps_a]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["lambda"] == 0.0 and row["eps_a"] == float(eps_a)
        assert row in cached


# the names bench/tracing.py patches that no longer exist
STALE_TRACED = {"robustrec.harness.sweep.save_matrix", "robustrec.harness.sweep.load_matrix",
                "robustrec.robustness.save_checkpoint", "robustrec.robustness.load_checkpoint",
                "robustrec.models.cer.counterfactual_delta"}


def test_bench_tracer_reads_the_sweep_signatures(corpus, tmp_path, monkeypatch):
    # the tracer reads ensure_trained's, ensure_bed's and ensure_eval's
    # arguments and results by position; a hook that no longer fits counts
    # as an error instead of failing the traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    cfg, cache = _sweep_config(corpus), tmp_path / "cache"
    keys = {}
    for rerun in ("cold", "warm"):
        tracer = Tracer()
        with tracer.install():
            run_sweep(cfg, cache)
        assert tracer.hook_errors == 0
        assert set(tracer.missing) == STALE_TRACED and len(tracer.missing) == 5
        keys[rerun] = {}
        for span in tracer.spans:
            if "key" in span[6]:
                keys[rerun].setdefault(span[1], set()).add(span[6]["key"])
        assert [s[6]["lam"] for s in tracer.spans if s[1] == "harness.ensure_eval"] == \
            [0.0, 0.0, 0.5, 0.5]
        assert [s[6]["pairs"] > 0 for s in tracer.spans if s[1] == "harness.ensure_bed"] == \
            [True]
    run_ids = [d.name for d in (cache / "runs").iterdir()]
    assert keys["cold"]["harness.ensure_trained"] == {f"ckpt:{r}" for r in run_ids}
    for rerun in ("cold", "warm"):
        assert keys[rerun]["harness.ensure_eval"] == \
            {f"eval:{r}:{e!r}" for r in run_ids for e in (0.0, 0.5)}
    assert "harness.ensure_trained" not in keys["warm"]  # no row needed a model


def test_write_results_rewrites_only_changed_bytes(corpus, warm_cache, tmp_path):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    results = cache / "results.csv"
    before = results.stat()
    cfg = _sweep_config(corpus)
    run_sweep(cfg, cache)
    assert results.stat().st_ino == before.st_ino
    assert results.stat().st_mtime_ns == before.st_mtime_ns

    cfg["attack"]["eps_a_grid"] = [0.0]  # a changed grid: fewer rows
    run_sweep(cfg, cache)
    assert results.stat().st_ino != before.st_ino
    assert results.read_bytes() == run_sweep(cfg, tmp_path / "fresh").read_bytes()
    assert results.read_bytes() != (warm_cache / "results.csv").read_bytes()
    results.unlink()  # a missing file is written
    run_sweep(cfg, cache)
    assert results.read_bytes() == (tmp_path / "fresh" / "results.csv").read_bytes()


def test_publish_removes_only_partials_of_gone_writers(tmp_path, caplog):
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()
    path = tmp_path / "eval_x.json"
    stale = [tmp_path / "eval_x.json.partial",  # written before names carried a pid
             tmp_path / f"eval_x.json.{gone.pid}.partial",
             tmp_path / f"eval_x.json.{os.getpid()}.partial"]  # an earlier failed save
    live = tmp_path / f"eval_x.json.{os.getppid()}.partial"
    other = tmp_path / "eval_xy.json.partial"  # another artifact's temporary
    for p in [*stale, live, other]:
        p.write_text("unfinished")
    with caplog.at_level("WARNING", logger="robustrec"):
        assert sweep.publish(path, lambda tmp: tmp.write_text("done"))
    assert path.read_text() == "done"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, live.name,
                                                                 other.name])
    assert sorted(r.getMessage() for r in caplog.records) == \
        sorted(f"removing unfinished {p}" for p in stale)


def _fill_artifact(path, barrier, results):
    def save(tmp, value):
        tmp.mkdir()
        (tmp / "value.json").write_text(json.dumps(value))
        barrier.wait(timeout=60)  # both temporaries exist before either is published

    try:
        results.put(sweep.artifact(path, lambda: {"writer": os.getpid()}, save,
                                   lambda p: json.loads((p / "value.json").read_text())))
    except Exception as err:  # reported to the test instead of hanging it
        results.put(repr(err))


def _sweep_into(cfg, cache, barrier, results):
    try:
        barrier.wait(timeout=60)
        results.put(run_sweep(cfg, cache).read_bytes())
    except Exception as err:
        results.put(repr(err))


def _two_processes(target, *args):
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=target, args=(*args, barrier, results)) for _ in range(2)]
    for proc in procs:
        proc.start()
    got = [results.get(timeout=300) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    return got, {proc.pid for proc in procs}


def test_two_processes_filling_one_artifact_both_get_the_winner(tmp_path):
    path = tmp_path / "runs" / "x" / "checkpoint"
    got, pids = _two_processes(_fill_artifact, path)
    winner = json.loads((path / "value.json").read_text())
    assert winner["writer"] in pids
    assert got == [winner, winner]  # the loser loaded the published copy
    assert [p.name for p in path.parent.iterdir()] == ["checkpoint"]


def test_two_sweeps_fill_one_cache_at_once(corpus, warm_cache, tmp_path):
    cache = tmp_path / "cache"
    got, _ = _two_processes(_sweep_into, _sweep_config(corpus), cache)
    expected = (warm_cache / "results.csv").read_bytes()
    assert got == [expected, expected]
    assert (cache / "results.csv").read_bytes() == expected
    assert not list(cache.rglob("*.partial"))


def test_read_results_returns_every_column_as_written(tmp_path):
    run = {"run_id": "0123456789ab", "algo": "cer", "dataset": "d", "lambda": 0.5,
           "eps_d": 0.25, "ndcg": 0.123456789, "expl_pr": 1 / 3, "expl_re": 0.5,
           "expl_f1": 2 / 7, "n_users": 200, "n_pairs": 95, "n_non_cf": 45}
    rows = [{**run, "eps_a": 0.0, "condition": "clean", "grad_norm": None},
            {**run, "eps_a": 0.75, "condition": "attacked", "grad_norm": 10.649138179843689}]
    results = tmp_path / "results.csv"
    write_results(results, rows)
    printed = {"ndcg": 0.123457, "expl_pr": 0.333333, "expl_f1": 0.285714}
    want = [{**row, **printed} for row in rows]
    want[1]["grad_norm"] = 10.64914  # 1.064914e+01
    got = read_results(results)
    assert got == want
    for got_row, want_row in zip(got, want):
        assert list(got_row) == RESULT_COLUMNS
        for column, value in got_row.items():
            assert type(value) is type(want_row[column]), column
            assert type(value) in RESULT_TABLE[column].types, column


def test_write_report_aggregates_and_curves(tmp_path):
    def row(lam, eps_d, eps_a, f1, run, n_pairs=6, n_non_cf=0):
        return {"run_id": run, "algo": "efm", "dataset": "d", "lambda": lam,
                "eps_d": eps_d, "eps_a": eps_a,
                "condition": "clean" if eps_a == 0.0 else "attacked",
                "ndcg": 0.5, "expl_pr": f1, "expl_re": f1, "expl_f1": f1,
                "n_users": 4, "n_pairs": n_pairs, "n_non_cf": n_non_cf,
                "grad_norm": None if eps_a == 0.0 else 2.5}

    rows = [row(0.0, 0.0, 0.0, 0.40, "a", n_non_cf=1), row(0.0, 0.0, 1.0, 0.10, "a"),
            row(0.0, 0.0, 0.0, 0.60, "b", n_pairs=2, n_non_cf=2),
            row(0.0, 0.0, 1.0, 0.30, "b", n_pairs=0),
            row(0.5, 0.25, 0.0, 0.38, "c"), row(0.5, 0.25, 1.0, 0.30, "c", n_pairs=0),
            row(0.5, 0.25, 0.0, 0.42, "d"), row(0.5, 0.25, 1.0, 0.40, "d", n_pairs=0)]
    results = tmp_path / "results.csv"
    write_results(results, rows)
    parsed = read_results(results)
    assert sorted((r["run_id"], r["eps_a"], r["n_non_cf"], r["grad_norm"]) for r in parsed) == \
        sorted((r["run_id"], r["eps_a"], r["n_non_cf"], r["grad_norm"]) for r in rows)
    assert all(type(r["n_non_cf"]) is int for r in parsed)
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
    # pooled over runs, not a mean of per-run rates: (1 + 2) / (6 + 2)
    assert agg[("0", "0", "clean")]["non_cf_rate"] == "0.375000"
    assert agg[("0", "1", "attacked")]["non_cf_rate"] == "0.000000"    # 0 / (6 + 0)
    assert agg[("0.5", "1", "attacked")]["non_cf_rate"] == ""    # no pair explained

    with open(tmp_path / "rep" / "curve_efm_d_0.25.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    assert [(r["eps_a"], r["expl_f1"]) for r in curve] == [("0", "0.400000"),
                                                           ("1", "0.350000")]


# each edit takes one row of a results CSV, the header first, to a new row
RESULTS_EDITS = {
    "extra column": lambda row: row + ["foo" if row[0] == "run_id" else "1"],
    "missing column": lambda row: row[:3] + row[4:],
    "columns reordered": lambda row: [row[1], row[0], *row[2:]],
    "short row": lambda row: row if row[0] == "run_id" else row[:-1],
    "unparsable score": lambda row: row if row[0] == "run_id" else row[:7] + ["high"] + row[8:],
    "fractional count": lambda row: row if row[0] == "run_id" else row[:11] + ["4.5"] + row[12:],
}


@pytest.mark.parametrize("case, text", [
    ("extra column", "unknown column 'foo'"),
    ("missing column", "missing column 'lambda'"),
    ("columns reordered", "header must be ['run_id', 'algo',"),
    ("short row", "line 2: 14 cells, expected 15"),
    ("unparsable score", "line 2: column 'ndcg' cannot hold 'high'"),
    ("fractional count", "line 2: column 'n_users' cannot hold '4.5'"),
])
def test_report_rejects_a_results_file_that_is_not_results_csv(case, text, tmp_path, capsys):
    results = tmp_path / "results.csv"
    write_results(results, [{"run_id": "r", "algo": "efm", "dataset": "d", "lambda": 0.0,
                             "eps_d": 0.0, "eps_a": 0.0, "condition": "clean", "ndcg": 0.5,
                             "expl_pr": 0.5, "expl_re": 0.5, "expl_f1": 0.5, "n_users": 4,
                             "n_pairs": 6, "n_non_cf": 0, "grad_norm": None}])
    with open(results, newline="") as fh:
        rows = [RESULTS_EDITS[case](row) for row in csv.reader(fh)]
    with open(results, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "rep"
    assert cli_main(["--cache", str(tmp_path / "cache"), "report", "--results", str(results),
                     "--out", str(out)]) == 2
    _assert_one_line_error(capsys, f"{results}: {text}")
    assert _files(out) == []


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


@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("tokens", [["--config", "{tmp}/exp.json"], ["--cache", "{tmp}/c"],
                                    ["--training.lr", "0.01"], ["--training.lr=0.01"]],
                         ids=["config", "cache", "override", "override="])
def test_cli_options_work_on_either_side_of_the_command(tokens, side, tmp_path, monkeypatch):
    (tmp_path / "exp.json").write_text(json.dumps({"training": {"lr": 0.01}}))
    monkeypatch.delenv(CACHE_ENV, raising=False)
    seen = []
    monkeypatch.setattr(cli, "cmd_ingest", lambda cfg, cache, args: seen.append((cfg, cache)))
    tokens = [t.format(tmp=tmp_path) for t in tokens]
    assert cli_main([*tokens, "ingest"] if side == "before" else ["ingest", *tokens]) == 0
    expected = default_config()
    if tokens[0] != "--cache":
        expected["training"]["lr"] = 0.01
    cache = tmp_path / "c" if tokens[0] == "--cache" else Path("cache")
    assert seen == [(expected, cache)]


@pytest.mark.parametrize("value", [None, 3, {"a": 1}], ids=["null", "number", "object"])
def test_string_keys_in_a_config_file_take_strings_only(value, tmp_path, capsys):
    keys = [(section, key) for section, values in DEFAULTS.items()
            for key, default in values.items() if type(default) is str]
    assert keys == [("dataset", "path"), ("dataset", "name"), ("model", "algo")]
    config, cache = tmp_path / "exp.json", tmp_path / "cache"
    for section, key in keys:
        config.write_text(json.dumps({section: {key: value}}))
        assert _status(["--config", str(config), "--cache", str(cache), "ingest"]) == 2
        _assert_one_line_error(capsys, f"config key '{section}.{key}': cannot assign")
        assert _files(cache) == []


def _readme_commands() -> list[str]:
    """Each `robustrec ...` line of README.md's code blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("robustrec ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 7 and any("--config" in line for line in commands)
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])  # exits on a usage error
        assert args.command in line
