"""Ingestion validation, the temporal split, negative sampling, the dataset artifact."""
import hashlib
import json
import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustrec.aspects import build_matrices, count_mentions
from robustrec.dataset import (PAD, SPLIT_ARRAYS, TEST, TRAIN, VAL, IngestError, SplitConfig,
                               SplitError, build_split, dataset_stats, ingest_reviews,
                               split_arrays, split_from_arrays)
from robustrec.evalkit import gold_explanations, train_feature_sets
from robustrec.harness.config import default_config
from robustrec.harness.sweep import load_dataset
from robustrec.models import build_model
from robustrec.rng import SplitMix64, derive_seed
from robustrec.synth import SynthConfig, synth_jsonl
from splits import interactions


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
    test_items = [split.items[it.item] for it in interactions(split, TEST, u)]
    assert test_items == [f"i{t:02d}" for t in range(5, 11)]
    assert [split.items[it.item] for it in interactions(split, VAL, u)] == ["i04"]
    train_items = sorted(split.items[it.item] for it in interactions(split, TRAIN, u))
    assert train_items == ["i01", "i02", "i03"]


def test_timestamp_ties_break_by_item_id():
    # 5 interactions, four sharing one timestamp: chronological order becomes
    # e (t=6) then a, b, c, d (t=7, tie broken by item id); the short-user rule
    # gives 3 test / 1 val / 1 train, carving from the end of that order
    lines = [_line("bob", item, 4, 7) for item in ("b", "a", "d", "c")]
    lines += [_line("bob", "e", 4, 6)] + _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=0))
    u = split.users.index("bob")
    assert [split.items[it.item] for it in interactions(split, TEST, u)] == ["b", "c", "d"]
    assert [split.items[it.item] for it in interactions(split, VAL, u)] == ["a"]
    assert [split.items[it.item] for it in interactions(split, TRAIN, u)] == ["e"]


def test_short_user_rules(caplog):
    lines = (_line("u3", "a", 3, 1) , _line("u3", "b", 3, 2), _line("u3", "c", 3, 3),
             _line("u2", "a", 3, 1), _line("u2", "b", 3, 2),
             _line("u1", "a", 3, 1))
    with caplog.at_level(logging.WARNING):
        split = build_split(ingest_reviews(list(lines) + _filler_lines()), SplitConfig(seed=0))
    assert "split reduced" in caplog.text
    u3 = split.users.index("u3")   # 3 interactions: 1 test, 1 val, 1 train
    assert len(interactions(split, TEST, u3)) == 1
    assert u3 in split.val_users
    u2 = split.users.index("u2")   # 2 interactions: 0 test, 1 val, 1 train
    assert u2 not in split.test_users
    assert u2 in split.val_users
    u1 = split.users.index("u1")   # 1 interaction: train only
    assert u1 not in split.test_users and u1 not in split.val_users
    assert len(interactions(split, TRAIN, u1)) == 1


def test_candidate_items_are_the_split_test_lists(tiny_split, efm_tiny, cer_tiny):
    cands, n_pos = tiny_split.test_candidates
    assert len(cands) == len(n_pos) == len(tiny_split.test_users)
    for model in (efm_tiny, cer_tiny):
        for u, row, n in zip(tiny_split.test_users.tolist(), cands, n_pos):
            got = model.candidate_items(u).tolist()
            assert got == row[row != PAD].tolist()
            assert got[:n] == [it.item for it in interactions(tiny_split, TEST, u)]
        with pytest.raises(KeyError, match=f"user {tiny_split.n_users} has no held-out"):
            model.candidate_items(tiny_split.n_users)
    # a user of the split with a validation but no test interaction
    lines = [_line("u2", "a", 3, 1), _line("u2", "b", 3, 2)] + _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=0))
    u2 = split.users.index("u2")
    assert u2 in split.val_users and u2 not in split.test_users
    for algo in ("efm", "cer"):
        model = build_model(algo, split, {})
        model.attach(split, *build_matrices(split))
        with pytest.raises(KeyError, match=f"user {u2} has no held-out"):
            model.candidate_items(u2)


def test_duplicate_pair_merges_latest_rating_all_mentions():
    lines = [_line("carol", "p", 2, 5, [("battery", "weak", -1)]),
             _line("carol", "p", 5, 9, [("screen", "bright", 1)]),
             _line("carol", "q", 3, 1), _line("carol", "r", 3, 2)]
    lines += _filler_lines()
    split = build_split(ingest_reviews(lines), SplitConfig(seed=0))
    u = split.users.index("carol")
    merged = [it for it in interactions(split, TEST, u) if split.items[it.item] == "p"]
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
    negatives = split.test_negatives[split.test_users.tolist().index(u)].tolist()
    assert len(negatives) == 100 and len(set(negatives)) == 100
    interacted = {it.item for it in interactions(split, user=u)}
    assert len(interacted) == 10
    assert not set(negatives) & interacted
    assert len(split.val_negatives[split.val_users.tolist().index(u)]) == 10
    # same seed reproduces, different seed changes the draw
    again = build_split(ingest_reviews(lines), SplitConfig(seed=3))
    assert again.test_negatives[again.test_users.tolist().index(u)].tolist() == negatives
    other = build_split(ingest_reviews(lines), SplitConfig(seed=4))
    assert other.test_negatives[other.test_users.tolist().index(u)].tolist() != negatives


def test_split_negatives_equal_the_scalar_draw_per_user_and_part():
    # users with 10 distinct items take the small-pool branch (3 * 10 >= 30);
    # users with a repeated item draw from the shared block
    records = ingest_reviews(synth_jsonl(SynthConfig(
        n_users=30, n_items=40, n_features=10, reviews_per_user=10, seed=8)))
    split = build_split(records, SplitConfig(seed=2, n_test_pos=2, n_test_neg=10, n_val_neg=4))
    pools = set()
    for name, n_neg in (("test", 10), ("val", 4)):
        for u, negatives in zip(getattr(split, f"{name}_users").tolist(),
                                getattr(split, f"{name}_negatives").tolist()):
            interacted = {it.item for it in interactions(split, user=u)}
            pools.add(3 * n_neg >= split.n_items - len(interacted))
            rng = SplitMix64(derive_seed(2, f"{name}-neg", split.users[u]))
            assert negatives == rng.sample_range_excluding(split.n_items, interacted, n_neg)
    assert pools == {True, False}


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
    for line in ("[1, 2]", "5"):
        with pytest.raises(IngestError, match="line 2: a review is a JSON object"):
            ingest_reviews([_line("a", "b", 3, 1), line])
    for triples in (None, 7):
        with pytest.raises(IngestError, match="line 1: triples must be a list"):
            ingest_reviews([json.dumps({"user_id": "a", "item_id": "b", "rating": 3,
                                        "timestamp": 1, "triples": triples})])
    # JSON types are not coerced: each field of this line is wrong on its own
    bad = {"user_id": None, "item_id": [1], "rating": True, "timestamp": False,
           "triples": [{"sentiment": True}]}
    with pytest.raises(IngestError, match="line 1: user_id must be a string"):
        ingest_reviews([json.dumps(bad)])
    for key, text in [("user_id", "user_id must be a string, got None"),
                      ("item_id", r"item_id must be a string, got \[1\]"),
                      ("rating", "rating must be an integer, got True"),
                      ("timestamp", "timestamp must be an integer, got False"),
                      ("triples", r"sentiment must be \+1 or -1, got True")]:
        review = {"user_id": "a", "item_id": "b", "rating": 3, "timestamp": 1, "triples": []}
        with pytest.raises(IngestError, match=f"line 2: {text}"):
            ingest_reviews([_line("a", "b", 3, 1), json.dumps({**review, key: bad[key]})])
    for feature in (None, 3, ["f"]):
        with pytest.raises(IngestError, match="line 1: feature must be a string"):
            ingest_reviews([json.dumps({"user_id": "a", "item_id": "b", "rating": 3, "timestamp": 1,
                                        "triples": [{"feature": feature, "sentiment": 1}]})])
    for rating in ("Infinity", "NaN"):  # json.loads reads both; neither is an integer
        with pytest.raises(IngestError, match="line 1: rating must be an integer"):
            ingest_reviews(['{"user_id": "a", "item_id": "b", "rating": %s, "timestamp": 1, '
                            '"triples": []}' % rating])


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_ingest_names_the_first_line_that_is_not_utf8(newline, tmp_path):
    # the bad line lies past the decoder's first chunk, and a later one is bad too
    good = [_line(f"u{k}", "i", 3, k).encode() for k in range(300)]
    raw = newline.join([*good[:250], b"", b'{"user_id": "\xff"}', *good[250:],
                        b'{"user_id": "\xc3"}', b""])
    path = tmp_path / "reviews.jsonl"
    path.write_bytes(raw)
    for source in (path, str(path), raw):
        with pytest.raises(IngestError, match="^line 252: not UTF-8$"):
            ingest_reviews(source)
    path.write_bytes(raw.replace(b"\xff", b"f").replace(b"\xc3", b"c"))
    with pytest.raises(IngestError, match="^line 252: missing key"):  # the same numbering
        ingest_reviews(path)


def test_ingest_keeps_feature_and_sentiment_in_file_order_whatever_the_opinion():
    triples = [{"feature": "screen", "opinion": "sharp", "sentiment": 1},
               {"feature": "battery", "sentiment": -1},
               {"feature": "screen", "opinion": None, "sentiment": -1},
               {"feature": "price", "opinion": {"not": "text"}, "sentiment": 1},
               {"feature": "battery", "opinion": 7, "sentiment": 1}]
    reviews = ingest_reviews([json.dumps({"user_id": "a", "item_id": "b", "rating": 3,
                                          "timestamp": 1, "triples": triples})])
    assert len(reviews) == 1 and reviews.mention_offsets.tolist() == [0, 5]
    assert [(reviews.features[f], s) for f, s in reviews.mentions.tolist()] == [
        ("screen", 1), ("battery", -1), ("screen", -1), ("price", 1), ("battery", 1)]


def test_min_reviews_filter_is_single_pass():
    lines = [_line("u1", "a", 3, 1), _line("u1", "b", 3, 2),
             _line("u2", "a", 3, 1)]
    reviews = ingest_reviews(lines, min_reviews_per_user=2)
    assert {reviews.users[u] for u in reviews.user.tolist()} == {"u1"}
    # u2's removal does not re-lower u1's count below the threshold
    assert len(reviews) == 2


def test_records_sorted_by_user_then_time():
    lines = [_line("u2", "a", 3, 5), _line("u1", "b", 3, 9), _line("u1", "a", 3, 2)]
    reviews = ingest_reviews(lines)
    assert [(reviews.users[u], t) for u, t in zip(reviews.user.tolist(),
                                                  reviews.timestamp.tolist())] == [
        ("u1", 2), ("u1", 9), ("u2", 5)]


_GOOD = _line("a", "b", 3, 1, [("screen", "ok", 1)])


@pytest.mark.parametrize("line", [
    _GOOD + " x", _GOOD + _GOOD, _GOOD + " " + _GOOD, _GOOD + "\n" + _GOOD,
    "\t" + _GOOD, _GOOD + "\t", "\r" + _GOOD, _GOOD + "\r\n", " \t\r" + _GOOD + " \n",
    "\f" + _GOOD, _GOOD + "\f", "\x0b" + _GOOD, "\xa0" + _GOOD, "\ufeff" + _GOOD,
    " \t\r\n", "\f", "", "{", "nul", _GOOD[:-1],
])
def test_ingest_accepts_and_rejects_what_json_loads_does(line):
    # the edge line follows a good one, so a rejection names line 2 and words
    # it as json.loads does; a blank line is skipped
    try:
        json.loads(line)
    except json.JSONDecodeError as e:
        if line.strip():
            with pytest.raises(IngestError) as err:
                ingest_reviews([_GOOD, line])
            assert str(err.value) == f"line 2: malformed JSON: {e.msg}"
            return
    reviews = ingest_reviews([_GOOD, line])
    assert len(reviews) == (2 if line.strip() else 1)
    assert reviews.mentions.tolist() == [[0, 1]] * len(reviews)


@pytest.mark.parametrize("seed", range(5))
def test_shuffled_corpus_file_reproduces_the_pinned_split(seed, tmp_path):
    # the benchmark shuffles the default corpus's lines and relies on this
    synth, config, digest = ARTIFACT_DIGESTS[1]
    lines = synth_jsonl(SynthConfig(**synth))
    random.Random(seed).shuffle(lines)
    path = tmp_path / "reviews.jsonl"
    path.write_text("\n".join(lines) + "\n")
    split = build_split(ingest_reviews(path), SplitConfig(**config))
    h = hashlib.sha256()
    for name, arr in sorted(split_arrays(split)[1].items()):
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_dataset_stats_sparsity_five_significant_digits():
    lines = [_line(f"u{i}", f"i{j}", 3, i * 10 + j) for i in range(3) for j in range(7)]
    stats = dataset_stats(ingest_reviews(lines[:13]))
    assert stats["n_reviews"] == 13
    expected = float(f"{100.0 * 13 / (stats['n_users'] * stats['n_items']):.5g}")
    assert stats["sparsity_pct"] == expected
    assert stats["sparsity_pct"] != 100.0 * 13 / (stats["n_users"] * stats["n_items"])


def test_timestamps_must_fit_int64():
    for ts in (-2**63, 2**63 - 1):
        assert ingest_reviews([_line("a", "b", 3, ts)]).timestamp.tolist() == [ts]
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
    assert users["bob"] in split.val_users and users["bob"] not in split.test_users
    assert users["carol"] not in split.val_users and users["carol"] not in split.test_users
    assert max(it.timestamp for it in interactions(split, TEST, users["alice"])) == 2**62

    assert again.users == split.users and again.items == split.items
    assert again.features == split.features and again.n_rating == split.n_rating
    for name in SPLIT_ARRAYS:
        old, new = getattr(split, name), getattr(again, name)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old), name
    assert interactions(again) == interactions(split)
    assert again.positive_items == split.positive_items
    for name in ("X", "Y"):
        old, new = getattr(built, name), getattr(loaded, name)
        assert new.dtype == np.float64 and new.tobytes() == old.tobytes()
    assert loaded.stats == built.stats and "sha256" in loaded.stats


# user, item, rating, timestamp, (feature, sentiment) mentions of one review
_REVIEW = st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(1, 5), st.integers(0, 9),
                    st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.lists(_REVIEW, min_size=1, max_size=24))
def test_array_readers_match_per_interaction_loops(reviews):
    # repeated (user, item) pairs, timestamp ties and short users all occur;
    # two filler users, each on 3 items nobody else touches, keep every
    # negative pool drawable
    lines = [_line(f"u{u}", f"i{v}", r, t, [(f"f{f}", "ok", s) for f, s in mentions])
             for u, v, r, t, mentions in reviews]
    lines += [_line(f"z{k}", f"x{k}{j}", 3, j) for k in range(2) for j in range(3)]
    split = build_split(ingest_reviews(lines),
                        SplitConfig(seed=0, n_test_pos=2, n_test_neg=2, n_val_neg=1))
    rows = interactions(split)

    user_counts = np.zeros((split.n_users, split.n_features))
    item_counts = np.zeros((split.n_items, split.n_features))
    sent_sum = np.zeros((split.n_items, split.n_features))
    features, gold = {}, {}
    positive_items = {u: set() for u in range(split.n_users)}
    for it in rows:
        positive_items[it.user].add(it.item)
        for f, s in it.mentions:
            if it.part == TRAIN:
                user_counts[it.user, f] += 1.0
                item_counts[it.item, f] += 1.0
                sent_sum[it.item, f] += s
                features.setdefault(it.user, set()).add(f)
            if it.part == TEST and s == 1:
                gold.setdefault((it.user, it.item), set()).add(f)
    stats = count_mentions(split)
    assert np.array_equal(stats.user_counts, user_counts)
    assert np.array_equal(stats.item_counts, item_counts)
    for v, f in np.ndindex(*item_counts.shape):
        want = sent_sum[v, f] / item_counts[v, f] if item_counts[v, f] else 0.0
        assert stats.item_sentiment[v, f] == want
    assert train_feature_sets(split) == features
    assert gold_explanations(split) == gold
    assert split.positive_items == positive_items

    assert split.val_users.tolist() == [it.user for it in rows if it.part == VAL]
    assert split.test_users.tolist() == sorted({it.user for it in rows if it.part == TEST})
    # the candidate matrices, row by row, are the per-user lists; `PAD` fills
    # a test row past the end of a list shorter than the longest
    cands, n_pos = split.test_candidates
    assert cands.shape == (len(split.test_users),
                           n_pos.max(initial=0) + split.test_negatives.shape[1])
    for row, u in enumerate(split.test_users.tolist()):
        want = [it.item for it in interactions(split, TEST, u)]
        assert n_pos[row] == len(want)
        assert cands[row].tolist() == want + split.test_negatives[row].tolist() + \
            [PAD] * (cands.shape[1] - len(want) - split.test_negatives.shape[1])
    assert split.val_candidates.shape == (len(split.val_users), 1 + split.val_negatives.shape[1])
    for row, it in enumerate(interactions(split, VAL)):
        assert split.val_candidates[row].tolist() == [it.item] + split.val_negatives[row].tolist()

    again = split_from_arrays(*split_arrays(split))
    assert interactions(again) == rows


def test_split_arrays_that_disagree_raise(tiny_split):
    fields, arrays = split_arrays(tiny_split)
    bad = {"rating": arrays["rating"][:-1],
           "mention_offsets": arrays["mention_offsets"][:-1],
           "mentions": arrays["mentions"][:-1],
           "part": arrays["part"][::-1],
           "val_users": arrays["val_users"][1:],
           "test_users": arrays["test_users"][::-1],
           "test_negatives": arrays["test_negatives"][1:],
           "val_negatives": arrays["val_negatives"][:, 0]}
    for name, value in bad.items():
        with pytest.raises(ValueError, match="split arrays disagree"):
            split_from_arrays(fields, {**arrays, name: value})


# sha256 of the split arrays (name, dtype, shape, bytes; names sorted), as the
# dataset artifact stores them, recorded when the split was still built from
# per-interaction objects: caches filled then load without a rebuild
ARTIFACT_DIGESTS = [
    ({"n_users": 8, "n_items": 40, "n_features": 10, "reviews_per_user": 10,
      "n_item_features": 3, "seed": 5},
     {"seed": 5, "n_test_pos": 2, "n_test_neg": 8, "n_val_neg": 4},
     "f6f15882db8c7b240072ea2b205fbc5c733509f4048f7850e5f243705d387592"),
    ({}, {"seed": 0}, "789cfd4f16eb598562b3df5bf025376bbe6b35544fe441f7a0b4bb76fda4cae4"),
]


@pytest.mark.parametrize("synth, config, digest", ARTIFACT_DIGESTS)
def test_split_arrays_are_pinned(synth, config, digest):
    split = build_split(ingest_reviews(synth_jsonl(SynthConfig(**synth))), SplitConfig(**config))
    h = hashlib.sha256()
    for name, arr in sorted(split_arrays(split)[1].items()):
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest
