"""Review ingestion and the temporal train/validation/test split.

Input is JSON lines, one review per line:

    {"user_id": ..., "item_id": ..., "rating": 1..N, "timestamp": int,
     "triples": [{"feature": ..., "opinion": ..., "sentiment": +1|-1}, ...]}

The split is per user, chronological: the 6 latest interactions become test
positives, the latest remaining one the validation positive, the rest train.
Test negatives (100) and validation negatives (10) are drawn independently
from items the user never interacted with; the two draws may overlap.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .rng import SplitMix64, derive_seed

log = logging.getLogger(__name__)

MAX_RATING = 5  # the default rating scale N
_COLUMNS = ("user", "item", "rating", "timestamp")  # Interaction fields as split arrays


class IngestError(ValueError):
    pass


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class SentimentTriple:
    feature: str
    opinion: str
    sentiment: int  # +1 or -1


@dataclass(frozen=True)
class ReviewRecord:
    user_id: str
    item_id: str
    rating: int
    timestamp: int
    triples: tuple[SentimentTriple, ...]


@dataclass(frozen=True)
class Interaction:
    """One (user, item) pair after id interning; mentions are (feature, sentiment)."""
    user: int
    item: int
    rating: float
    timestamp: int
    mentions: tuple[tuple[int, int], ...]


@dataclass
class ValidationEntry:
    positive: Interaction
    negatives: list[int]


@dataclass
class TestEntry:
    positives: list[Interaction]
    negatives: list[int]


@dataclass
class DatasetSplit:
    users: list[str]
    items: list[str]
    features: list[str]
    n_rating: int
    train: list[Interaction]
    validation: dict[int, ValidationEntry] = field(default_factory=dict)
    test: dict[int, TestEntry] = field(default_factory=dict)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_features(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class SplitConfig:
    seed: int = 0
    n_test_pos: int = 6
    n_test_neg: int = 100
    n_val_neg: int = 10


def _parse_record(obj: dict, line_no: int, max_rating: int) -> ReviewRecord:
    try:
        user_id = str(obj["user_id"])
        item_id = str(obj["item_id"])
        rating = obj["rating"]
        timestamp = obj["timestamp"]
        raw_triples = obj["triples"]
    except KeyError as e:
        raise IngestError(f"line {line_no}: missing key {e.args[0]!r}") from None
    if not isinstance(rating, (int, float)) or float(rating) != int(rating):
        raise IngestError(f"line {line_no}: rating must be an integer, got {rating!r}")
    rating = int(rating)
    if not (1 <= rating <= max_rating):
        raise IngestError(f"line {line_no}: rating {rating} outside [1, {max_rating}]")
    if not isinstance(timestamp, int):
        raise IngestError(f"line {line_no}: timestamp must be an integer, got {timestamp!r}")
    if not (-2**63 <= timestamp < 2**63):  # the dataset artifact stores int64
        raise IngestError(f"line {line_no}: timestamp {timestamp} does not fit "
                          "a signed 64-bit integer")
    triples = []
    for t in raw_triples:
        try:
            sentiment = t["sentiment"]
        except (KeyError, TypeError):
            raise IngestError(f"line {line_no}: triple missing 'sentiment'") from None
        if sentiment not in (1, -1):
            raise IngestError(f"line {line_no}: sentiment must be +1 or -1, got {sentiment!r}")
        triples.append(SentimentTriple(str(t.get("feature", "")), str(t.get("opinion", "")), int(sentiment)))
    return ReviewRecord(user_id, item_id, rating, timestamp, tuple(triples))


def ingest_reviews(source: str | Path | Iterable[str], min_reviews_per_user: int = 1,
                   max_rating: int = MAX_RATING) -> list[ReviewRecord]:
    """Parse JSON-lines reviews, drop sparse users, sort by (user_id, timestamp).

    Dropping a user never changes any other user's review count, so one
    filtering pass reaches the fixpoint.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    records: list[ReviewRecord] = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise IngestError(f"line {i}: malformed JSON: {e.msg}") from None
        records.append(_parse_record(obj, i, max_rating))
    counts: dict[str, int] = {}
    for r in records:
        counts[r.user_id] = counts.get(r.user_id, 0) + 1
    records = [r for r in records if counts[r.user_id] >= min_reviews_per_user]
    records.sort(key=lambda r: (r.user_id, r.timestamp))
    return records


def dataset_stats(records: list[ReviewRecord]) -> dict:
    """Corpus-level counts plus sparsity% = 100*reviews/(users*items), 5 significant digits."""
    users = {r.user_id for r in records}
    items = {r.item_id for r in records}
    features = {t.feature for r in records for t in r.triples}
    n_reviews = len(records)
    if users and items:
        sparsity = float(f"{100.0 * n_reviews / (len(users) * len(items)):.5g}")
    else:
        sparsity = 0.0
    return {
        "n_users": len(users),
        "n_items": len(items),
        "n_features": len(features),
        "n_reviews": n_reviews,
        "sparsity_pct": sparsity,
    }


def build_split(records: list[ReviewRecord], config: SplitConfig = SplitConfig(),
                max_rating: int = MAX_RATING) -> DatasetSplit:
    """Temporal per-user split with seeded negative sampling.

    Short users keep at least 1 train and 1 validation interaction and give
    up test (then validation) slots first, with a warning. Raises SplitError
    naming the user when the never-interacted pool cannot cover the negative
    sample sizes.
    """
    if not records:
        raise SplitError("no records to split")
    users = sorted({r.user_id for r in records})
    items = sorted({r.item_id for r in records})
    features = sorted({t.feature for r in records for t in r.triples})
    uidx = {u: i for i, u in enumerate(users)}
    iidx = {v: i for i, v in enumerate(items)}
    fidx = {f: i for i, f in enumerate(features)}

    # collapse multiple reviews of one (u, v): latest rating/timestamp wins,
    # sentiment mentions from all of them are kept
    merged: dict[tuple[str, str], dict] = {}
    for r in records:  # records come sorted by (user, time)
        key = (r.user_id, r.item_id)
        mentions = [(fidx[t.feature], t.sentiment) for t in r.triples]
        slot = merged.get(key)
        if slot is None:
            merged[key] = {"rating": r.rating, "ts": r.timestamp, "mentions": mentions}
        else:
            slot["rating"] = r.rating
            slot["ts"] = r.timestamp
            slot["mentions"].extend(mentions)

    by_user: dict[str, list[tuple[str, dict]]] = {}
    for (u, v), slot in merged.items():
        by_user.setdefault(u, []).append((v, slot))

    split = DatasetSplit(users=users, items=items, features=features,
                         n_rating=max_rating, train=[])
    n_items = len(items)
    for u in users:
        pairs = by_user.get(u, [])
        pairs.sort(key=lambda p: (p[1]["ts"], p[0]))  # time, then item id
        inters = [Interaction(uidx[u], iidx[v], float(s["rating"]), s["ts"], tuple(s["mentions"]))
                  for v, s in pairs]
        n = len(inters)
        n_test = min(config.n_test_pos, max(n - 2, 0))
        n_val = 1 if n - n_test >= 2 else 0
        if n_test < config.n_test_pos or n_val == 0:
            log.warning("user %s has only %d interactions; split reduced to "
                        "%d test / %d val", u, n, n_test, n_val)
        test_pos = inters[n - n_test:] if n_test else []
        rest = inters[:n - n_test] if n_test else inters
        val_pos = rest[-1] if n_val else None
        train_part = rest[:-1] if n_val else rest
        split.train.extend(train_part)

        interacted = {it.item for it in inters}
        pool_size = n_items - len(interacted)
        if test_pos:
            if pool_size < config.n_test_neg:
                raise SplitError(f"user {u}: need {config.n_test_neg} test negatives, "
                                 f"only {pool_size} never-interacted items available")
            rng = SplitMix64(derive_seed(config.seed, "test-neg", u))
            negs = rng.sample_range_excluding(n_items, interacted, config.n_test_neg)
            split.test[uidx[u]] = TestEntry(positives=test_pos, negatives=negs)
        if val_pos is not None:
            if pool_size < config.n_val_neg:
                raise SplitError(f"user {u}: need {config.n_val_neg} validation negatives, "
                                 f"only {pool_size} never-interacted items available")
            rng = SplitMix64(derive_seed(config.seed, "val-neg", u))
            negs = rng.sample_range_excluding(n_items, interacted, config.n_val_neg)
            split.validation[uidx[u]] = ValidationEntry(positive=val_pos, negatives=negs)
    return split


def user_positive_items(split: DatasetSplit) -> dict[int, set[int]]:
    """All items each user interacted with in any part of the split."""
    pos: dict[int, set[int]] = {u: set() for u in range(split.n_users)}
    for it in split.train:
        pos[it.user].add(it.item)
    for u, entry in split.validation.items():
        pos[u].add(entry.positive.item)
    for u, entry in split.test.items():
        for it in entry.positives:
            pos[u].add(it.item)
    return pos


def split_arrays(split: DatasetSplit) -> dict[str, np.ndarray]:
    """The split as int64/float64 arrays for `models.checkpoint`; its id lists
    and n_rating go in the manifest instead.

    One table holds every interaction, train in split order, then each
    validation positive, then each user's test positives (users ascending),
    told apart by `part` (0, 1, 2). Interaction i's (feature, sentiment) rows
    are mentions[mention_offsets[i]:mention_offsets[i + 1]]. Validation and
    test users come with their negatives as [users, n_neg] matrices.
    """
    val_users, test_users = sorted(split.validation), sorted(split.test)
    rows = ([(0, it) for it in split.train]
            + [(1, split.validation[u].positive) for u in val_users]
            + [(2, it) for u in test_users for it in split.test[u].positives])
    arrays = {name: np.array([getattr(it, name) for _, it in rows],
                             dtype=np.float64 if name == "rating" else np.int64)
              for name in _COLUMNS}
    arrays["part"] = np.array([part for part, _ in rows], dtype=np.int64)
    arrays["mention_offsets"] = np.cumsum([0] + [len(it.mentions) for _, it in rows],
                                          dtype=np.int64)
    arrays["mentions"] = np.array([m for _, it in rows for m in it.mentions],
                                  dtype=np.int64).reshape(-1, 2)
    for name, users, entries in (("val", val_users, split.validation),
                                 ("test", test_users, split.test)):
        arrays[f"{name}_users"] = np.array(users, dtype=np.int64)
        negatives = np.array([entries[u].negatives for u in users], dtype=np.int64)
        arrays[f"{name}_negatives"] = negatives.reshape(len(users), -1 if users else 0)
    return arrays


def split_from_arrays(manifest: dict, arrays: dict[str, np.ndarray]) -> DatasetSplit:
    """Inverse of `split_arrays`; `manifest` holds users, items, features and
    n_rating. Arrays of mismatched lengths raise ValueError."""
    offsets = arrays["mention_offsets"].tolist()
    mentions = list(map(tuple, arrays["mentions"].tolist()))
    parts: dict[int, list[Interaction]] = {0: [], 1: [], 2: []}
    columns = [arrays[name].tolist() for name in ("part", *_COLUMNS)]
    for part, u, v, rating, ts, lo, hi in zip(*columns, offsets[:-1], offsets[1:], strict=True):
        parts[part].append(Interaction(u, v, rating, ts, tuple(mentions[lo:hi])))
    test_pos: dict[int, list[Interaction]] = {u: [] for u in arrays["test_users"].tolist()}
    for it in parts[2]:
        test_pos[it.user].append(it)
    return DatasetSplit(
        users=list(manifest["users"]), items=list(manifest["items"]),
        features=list(manifest["features"]), n_rating=int(manifest["n_rating"]),
        train=parts[0],
        validation={u: ValidationEntry(it, negs) for u, it, negs in zip(
            arrays["val_users"].tolist(), parts[1], arrays["val_negatives"].tolist(), strict=True)},
        test={u: TestEntry(test_pos[u], negs) for u, negs in zip(
            test_pos, arrays["test_negatives"].tolist(), strict=True)},
    )
