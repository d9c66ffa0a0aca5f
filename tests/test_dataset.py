"""Ingestion validation, the temporal split, negative sampling, the dataset artifact."""
import json
import logging

import numpy as np
import pytest

from robustrec.dataset import (IngestError, SplitConfig, SplitError, build_split,
                               dataset_stats, ingest_reviews, user_positive_items)
from robustrec.harness.config import default_config
from robustrec.harness.sweep import load_dataset


def _line(user, item, rating, ts, triples=()):
    return json.dumps({
        "user_id": user, "item_id": item, "rating": rating, "timestamp": ts,
        "triples": [{"feature": f, "opinion": o, "sentiment": s} for f, o, s in triples],
    })


def _filler_lines(n_items=120, per_user=12):
    """Filler users introducing enough items that negative pools can be drawn."""
    return [_line(f"zfill{j // per_user:02d}", f"x{j:03d}", 3, 1000 + j,
                  [("battery", "fine", 1)])
            for j in range(n_items)]


def test_ten_review_user_worked_split():
    # interactions at timestamps 1..10: test gets the 6 latest, validation the
    # next latest, train the remaining 3
    lines = [_line("alice", f"i{t:02d}", 5, t, [("screen", "sharp", 1)])
             for t in range(1, 11)]
    lines += _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=0))
    u = split.users.index("alice")
    test_items = [split.items[it.item] for it in split.test[u].positives]
    assert test_items == [f"i{t:02d}" for t in range(5, 11)]
    assert split.items[split.validation[u].positive.item] == "i04"
    train_items = sorted(split.items[it.item] for it in split.train if it.user == u)
    assert train_items == ["i01", "i02", "i03"]


def test_timestamp_ties_break_by_item_id():
    # 5 interactions, four sharing one timestamp: chronological order becomes
    # e (t=6) then a, b, c, d (t=7, tie broken by item id); the short-user rule
    # gives 3 test / 1 val / 1 train, carving from the end of that order
    lines = [_line("bob", item, 4, 7) for item in ("b", "a", "d", "c")]
    lines += [_line("bob", "e", 4, 6)] + _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=0))
    u = split.users.index("bob")
    assert [split.items[it.item] for it in split.test[u].positives] == ["b", "c", "d"]
    assert split.items[split.validation[u].positive.item] == "a"
    assert [split.items[it.item] for it in split.train if it.user == u] == ["e"]


def test_short_user_rules(caplog):
    lines = (_line("u3", "a", 3, 1) , _line("u3", "b", 3, 2), _line("u3", "c", 3, 3),
             _line("u2", "a", 3, 1), _line("u2", "b", 3, 2),
             _line("u1", "a", 3, 1))
    with caplog.at_level(logging.WARNING):
        split = build_split(ingest_reviews(list(lines) + _filler_lines()), SplitConfig(seed=0))
    assert "split reduced" in caplog.text
    u3 = split.users.index("u3")   # 3 interactions: 1 test, 1 val, 1 train
    assert len(split.test[u3].positives) == 1
    assert u3 in split.validation
    u2 = split.users.index("u2")   # 2 interactions: 0 test, 1 val, 1 train
    assert u2 not in split.test
    assert u2 in split.validation
    u1 = split.users.index("u1")   # 1 interaction: train only
    assert u1 not in split.test and u1 not in split.validation
    assert sum(1 for it in split.train if it.user == u1) == 1


def test_duplicate_pair_merges_latest_rating_all_mentions():
    lines = [_line("carol", "p", 2, 5, [("battery", "weak", -1)]),
             _line("carol", "p", 5, 9, [("screen", "bright", 1)]),
             _line("carol", "q", 3, 1), _line("carol", "r", 3, 2)]
    lines += _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=0))
    u = split.users.index("carol")
    merged = [it for it in split.test[u].positives if split.items[it.item] == "p"]
    assert len(merged) == 1
    it = merged[0]
    assert it.rating == 5.0 and it.timestamp == 9
    feats = {split.features[f] for f, _ in it.mentions}
    assert feats == {"battery", "screen"}
    sentiments = sorted(s for _, s in it.mentions)
    assert sentiments == [-1, 1]


def test_negative_sampling_contract():
    lines = [_line("dave", f"i{t}", 4, t) for t in range(1, 11)] + _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=3))
    u = split.users.index("dave")
    entry = split.test[u]
    assert len(entry.negatives) == 100 and len(set(entry.negatives)) == 100
    interacted = {it.item for it in split.train if it.user == u}
    interacted |= {it.item for it in entry.positives}
    interacted.add(split.validation[u].positive.item)
    assert not set(entry.negatives) & interacted
    assert len(split.validation[u].negatives) == 10
    # same seed reproduces, different seed changes the draw
    again = build_split(ingest_reviews(lines), SplitConfig(seed=3))
    assert again.test[u].negatives == entry.negatives
    other = build_split(ingest_reviews(lines), SplitConfig(seed=4))
    assert other.test[u].negatives != entry.negatives


def test_insufficient_negative_pool_names_user():
    lines = [_line("erin", f"i{t}", 4, t) for t in range(1, 11)]
    with pytest.raises(SplitError, match="erin"):
        build_split(ingest_reviews(lines), SplitConfig(seed=0))


def test_ingest_validation_errors_carry_line_numbers():
    with pytest.raises(IngestError, match="line 2"):
        ingest_reviews([_line("a", "b", 3, 1), "{broken"])
    with pytest.raises(IngestError, match="line 1.*rating"):
        ingest_reviews([_line("a", "b", 9, 1)])
    with pytest.raises(IngestError, match="line 1.*rating"):
        ingest_reviews([json.dumps({"user_id": "a", "item_id": "b", "rating": 3.5,
                                    "timestamp": 1, "triples": []})])
    with pytest.raises(IngestError, match="line 1.*timestamp"):
        ingest_reviews([json.dumps({"user_id": "a", "item_id": "b", "rating": 3,
                                    "timestamp": "noon", "triples": []})])
    with pytest.raises(IngestError, match="line 1.*sentiment"):
        ingest_reviews([_line("a", "b", 3, 1, [("f", "o", 0)])])
    with pytest.raises(IngestError, match="missing key"):
        ingest_reviews([json.dumps({"user_id": "a"})])


def test_min_reviews_filter_is_single_pass():
    lines = [_line("u1", "a", 3, 1), _line("u1", "b", 3, 2),
             _line("u2", "a", 3, 1)]
    records = ingest_reviews(lines, min_reviews_per_user=2)
    assert {r.user_id for r in records} == {"u1"}
    # u2's removal does not re-lower u1's count below the threshold
    assert len(records) == 2


def test_records_sorted_by_user_then_time():
    lines = [_line("u2", "a", 3, 5), _line("u1", "b", 3, 9), _line("u1", "a", 3, 2)]
    records = ingest_reviews(lines)
    assert [(r.user_id, r.timestamp) for r in records] == [("u1", 2), ("u1", 9), ("u2", 5)]


def test_dataset_stats_sparsity_five_significant_digits():
    lines = [_line(f"u{i}", f"i{j}", 3, i * 10 + j) for i in range(3) for j in range(7)]
    stats = dataset_stats(ingest_reviews(lines[:13]))
    assert stats["n_reviews"] == 13
    expected = float(f"{100.0 * 13 / (stats['n_users'] * stats['n_items']):.5g}")
    assert stats["sparsity_pct"] == expected
    assert stats["sparsity_pct"] != 100.0 * 13 / (stats["n_users"] * stats["n_items"])


def test_timestamps_must_fit_int64():
    for ts in (-2**63, 2**63 - 1):
        assert ingest_reviews([_line("a", "b", 3, ts)])[0].timestamp == ts
    for ts in (-2**63 - 1, 2**63):
        with pytest.raises(IngestError, match="line 2: timestamp"):
            ingest_reviews([_line("a", "b", 3, 1), _line("a", "c", 3, ts)])


def test_dataset_artifact_round_trip(tmp_path, caplog):
    # alice has a full split, bob 2 interactions (no test), carol 1 (train only)
    lines = [_line("alice", f"i{t:02d}", (t % 5) + 1, t, [("screen", "ok", 1), ("fan", "loud", -1)])
             for t in range(1, 11)]
    lines += [_line("alice", "i11", 4, 2**62, [("screen", "great", 1)])]
    lines += [_line("bob", "i01", 2, 5), _line("bob", "i02", 5, 6, [("fan", "quiet", 1)])]
    lines += [_line("carol", "i03", 3, 7)] + _filler_lines()
    path = tmp_path / "reviews.jsonl"
    path.write_text("\n".join(lines) + "\n")
    cfg = default_config()
    cfg["dataset"]["path"] = str(path)

    with caplog.at_level(logging.WARNING):
        built = load_dataset(cfg, tmp_path / "cache")
    assert "split reduced" in caplog.text
    loaded = load_dataset(cfg, tmp_path / "cache")  # read back from the artifact
    split, again = built.split, loaded.split
    users = {name: split.users.index(name) for name in ("alice", "bob", "carol")}
    assert users["bob"] in split.validation and users["bob"] not in split.test
    assert users["carol"] not in split.validation and users["carol"] not in split.test
    assert max(it.timestamp for it in split.test[users["alice"]].positives) == 2**62

    assert again.users == split.users and again.items == split.items
    assert again.features == split.features and again.n_rating == split.n_rating
    assert again.train == split.train
    assert again.validation == split.validation and again.test == split.test
    assert user_positive_items(again) == user_positive_items(split)
    for name in ("X", "Y"):
        old, new = getattr(built, name), getattr(loaded, name)
        assert new.dtype == np.float64 and new.tobytes() == old.tobytes()
    assert loaded.stats == built.stats and "sha256" in loaded.stats
