"""Review ingestion and the temporal train/validation/test split.

Input is JSON lines, one review per line:

    {"user_id": ..., "item_id": ..., "rating": 1..N, "timestamp": int,
     "triples": [{"feature": ..., "opinion": ... (ignored), "sentiment": +1|-1}, ...]}

The split is per user, chronological: the 6 latest interactions become test
positives, the latest remaining one the validation positive, the rest train.
Test negatives (100) and validation negatives (10) are drawn independently
from items the user never interacted with; the two draws may overlap.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .rng import derive_seed, samples_excluding

log = logging.getLogger(__name__)

MAX_RATING = 5  # the default rating scale N
TRAIN, VAL, TEST = 0, 1, 2  # values of DatasetSplit.part
_COLUMNS = ("user", "item", "rating", "timestamp")  # per-interaction columns besides part
# the DatasetSplit fields the dataset artifact stores as arrays
SPLIT_ARRAYS = (*_COLUMNS, "part", "mention_offsets", "mentions",
                "val_users", "val_negatives", "test_users", "test_negatives")


class IngestError(ValueError):
    pass


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class ReviewRecord:
    user_id: str
    item_id: str
    rating: int
    timestamp: int
    mentions: tuple[tuple[str, int], ...]  # (feature, sentiment +1|-1), in file order


@dataclass(eq=False)
class DatasetSplit:
    """The split as the arrays the dataset artifact stores.

    One table holds every interaction: train in split order, then each
    validation positive (in `val_users` order), then each test user's
    positives, chronological (users in `test_users` order), told apart by
    `part`. Row i's (feature, sentiment) mentions are
    mentions[mention_offsets[i]:mention_offsets[i + 1]]. Validation and test
    users, ascending, come with their negatives as [users, n_neg] matrices.
    Arrays that disagree in length or order raise ValueError.
    """
    users: list[str]
    items: list[str]
    features: list[str]
    n_rating: int
    user: np.ndarray             # int64 [N]
    item: np.ndarray             # int64 [N]
    rating: np.ndarray           # float64 [N]
    timestamp: np.ndarray        # int64 [N]
    part: np.ndarray             # int64 [N]: TRAIN, VAL or TEST
    mention_offsets: np.ndarray  # int64 [N + 1]
    mentions: np.ndarray         # int64 [M, 2]: feature, sentiment
    val_users: np.ndarray        # int64 [U_val]
    val_negatives: np.ndarray    # int64 [U_val, n_val_neg]
    test_users: np.ndarray       # int64 [U_test]
    test_negatives: np.ndarray   # int64 [U_test, n_test_neg]

    def __post_init__(self) -> None:
        n, offsets, part = len(self.part), self.mention_offsets, self.part
        problems = [name for name in _COLUMNS if len(getattr(self, name)) != n]
        if (len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != len(self.mentions)
                or (np.diff(offsets) < 0).any() or self.mentions.shape[1:] != (2,)):
            problems.append("mention_offsets")
        if (np.diff(part) < 0).any() or ((part < TRAIN) | (part > TEST)).any():
            problems.append("part")
        if problems:
            raise ValueError(f"split arrays disagree: {', '.join(problems)}")
        # test rows come grouped by user, ascending: their users' first rows
        # spell out test_users (np.unique is avoided: its first call keeps ~1 MB)
        test_rows = self.user[part == TEST]
        steps = np.diff(test_rows, prepend=-1)
        if not (np.array_equal(self.user[part == VAL], self.val_users)
                and self.val_negatives.ndim == 2
                and len(self.val_negatives) == len(self.val_users)
                and (steps >= 0).all()
                and np.array_equal(test_rows[steps > 0], self.test_users)
                and self.test_negatives.ndim == 2
                and len(self.test_negatives) == len(self.test_users)):
            raise ValueError("split arrays disagree: validation or test users")

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def mention_table(self, part: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(user, item, feature, sentiment) of every mention of `part`'s
        interactions, in table order."""
        row = np.repeat(np.arange(len(self.part)), np.diff(self.mention_offsets))
        keep = self.part[row] == part
        row = row[keep]
        return self.user[row], self.item[row], self.mentions[keep, 0], self.mentions[keep, 1]

    @cached_property
    def positive_items(self) -> dict[int, set[int]]:
        """All items each user interacted with in any part of the split."""
        pos: dict[int, set[int]] = {u: set() for u in range(self.n_users)}
        for u, v in zip(self.user.tolist(), self.item.tolist()):
            pos[u].add(v)
        return pos

    @cached_property
    def test_candidates(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """(positives, candidates) by test user, ascending, built once: the
        positives are the user's test items, chronological, and the candidates
        those positives followed by the user's negatives."""
        test = self.part == TEST
        users, items = self.user[test], self.item[test]
        positives = np.split(items, np.flatnonzero(np.diff(users)) + 1)
        return {u: (pos, np.concatenate([pos, neg])) for u, pos, neg
                in zip(self.test_users.tolist(), positives, self.test_negatives)}

    def test_lists(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(user, positives, candidates) per test user, ascending."""
        return ((u, *lists) for u, lists in self.test_candidates.items())


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
    mentions = []
    for t in raw_triples:
        try:
            sentiment = t["sentiment"]
        except (KeyError, TypeError):
            raise IngestError(f"line {line_no}: triple missing 'sentiment'") from None
        if sentiment not in (1, -1):
            raise IngestError(f"line {line_no}: sentiment must be +1 or -1, got {sentiment!r}")
        mentions.append((str(t.get("feature", "")), int(sentiment)))
    return ReviewRecord(user_id, item_id, rating, timestamp, tuple(mentions))


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
    features = {f for r in records for f, _ in r.mentions}
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
    features = sorted({f for r in records for f, _ in r.mentions})
    uidx = {u: i for i, u in enumerate(users)}
    iidx = {v: i for i, v in enumerate(items)}
    fidx = {f: i for i, f in enumerate(features)}

    # collapse multiple reviews of one (u, v): latest rating/timestamp wins,
    # sentiment mentions from all of them are kept
    merged: dict[tuple[str, str], dict] = {}
    for r in records:  # records come sorted by (user, time)
        key = (r.user_id, r.item_id)
        mentions = [(fidx[f], sentiment) for f, sentiment in r.mentions]
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

    rows: dict[int, list[tuple[int, int, dict]]] = {TRAIN: [], VAL: [], TEST: []}
    held_out: dict[str, tuple[list, list]] = {"test": ([], []), "val": ([], [])}
    draws: list[tuple[str, tuple[int, set[int], int]]] = []  # (name, (seed, interacted, n_neg))
    n_items = len(items)
    for u in users:
        pairs = by_user.get(u, [])
        pairs.sort(key=lambda p: (p[1]["ts"], p[0]))  # time, then item id
        n = len(pairs)
        n_test = min(config.n_test_pos, max(n - 2, 0))
        n_val = 1 if n - n_test >= 2 else 0
        if n_test < config.n_test_pos or n_val == 0:
            log.warning("user %s has only %d interactions; split reduced to "
                        "%d test / %d val", u, n, n_test, n_val)
        inters = [(uidx[u], iidx[v], slot) for v, slot in pairs]
        n_train = n - n_test - n_val
        rows[TRAIN].extend(inters[:n_train])
        rows[VAL].extend(inters[n_train:n_train + n_val])
        rows[TEST].extend(inters[n_train + n_val:])

        interacted = {v for _, v, _ in inters}
        pool_size = n_items - len(interacted)
        for name, n_pos, n_neg in (("test", n_test, config.n_test_neg),
                                   ("val", n_val, config.n_val_neg)):
            if not n_pos:
                continue
            if pool_size < n_neg:
                what = "test" if name == "test" else "validation"
                raise SplitError(f"user {u}: need {n_neg} {what} negatives, "
                                 f"only {pool_size} never-interacted items available")
            held_out[name][0].append(uidx[u])
            draws.append((name, (derive_seed(config.seed, f"{name}-neg", u), interacted, n_neg)))
    # SplitMix64(seed).sample_range_excluding(n_items, interacted, n_neg) for
    # every (user, split), all drawn at once
    negatives = samples_excluding(n_items, [row for _, row in draws])
    for (name, _), picked in zip(draws, negatives):
        held_out[name][1].append(picked)

    table = rows[TRAIN] + rows[VAL] + rows[TEST]
    arrays = {"user": np.array([u for u, _, _ in table], dtype=np.int64),
              "item": np.array([v for _, v, _ in table], dtype=np.int64)}
    arrays["rating"] = np.array([float(s["rating"]) for _, _, s in table], dtype=np.float64)
    arrays["timestamp"] = np.array([s["ts"] for _, _, s in table], dtype=np.int64)
    arrays["part"] = np.repeat(np.array([TRAIN, VAL, TEST], dtype=np.int64),
                               [len(rows[TRAIN]), len(rows[VAL]), len(rows[TEST])])
    arrays["mention_offsets"] = np.cumsum([0] + [len(s["mentions"]) for _, _, s in table],
                                          dtype=np.int64)
    arrays["mentions"] = np.array([m for _, _, s in table for m in s["mentions"]],
                                  dtype=np.int64).reshape(-1, 2)
    for name, (part_users, negatives) in held_out.items():
        arrays[f"{name}_users"] = np.array(part_users, dtype=np.int64)
        arrays[f"{name}_negatives"] = np.array(negatives, dtype=np.int64).reshape(
            len(part_users), -1 if part_users else 0)
    return DatasetSplit(users=users, items=items, features=features, n_rating=max_rating,
                        **arrays)


def split_arrays(split: DatasetSplit) -> dict[str, np.ndarray]:
    """The split's arrays for `models.checkpoint`; its id lists and n_rating
    go in the manifest instead."""
    return {name: getattr(split, name) for name in SPLIT_ARRAYS}


def split_from_arrays(manifest: dict, arrays: dict[str, np.ndarray]) -> DatasetSplit:
    """Inverse of `split_arrays`; `manifest` holds users, items, features and
    n_rating. Arrays that disagree raise ValueError."""
    return DatasetSplit(users=list(manifest["users"]), items=list(manifest["items"]),
                        features=list(manifest["features"]),
                        n_rating=int(manifest["n_rating"]),
                        **{name: arrays[name] for name in SPLIT_ARRAYS})
