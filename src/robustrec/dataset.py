"""Review ingestion and the temporal train/validation/test split.

Input is JSON lines, one review per line:

    {"user_id": ..., "item_id": ..., "rating": 1..N, "timestamp": int,
     "triples": [{"feature": ..., "opinion": ... (ignored), "sentiment": +1|-1}, ...]}

Reviews stay columns from parse to split: `ingest_reviews` appends each
validated line to int64 columns and recodes their ids in sorted order
(`Reviews`); `build_split` merges and orders them with array operations.

The split is per user, chronological: the 6 latest interactions become test
positives, the latest remaining one the validation positive, the rest train.
Test negatives (100) and validation negatives (10) are drawn independently
from items the user never interacted with; the two draws may overlap.
"""
from __future__ import annotations

import io
import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .rng import derive_seed, samples_excluding

log = logging.getLogger(__name__)

MAX_RATING = 5  # the default rating scale N
PAD = -1  # fills a candidate row past the end of its list
TRAIN, VAL, TEST = 0, 1, 2  # values of DatasetSplit.part
_COLUMNS = ("user", "item", "rating", "timestamp")  # per-interaction columns besides part
# the DatasetSplit fields the dataset artifact stores in its manifest, and as arrays
SPLIT_FIELDS = ("users", "items", "features", "n_rating")
SPLIT_ARRAYS = (*_COLUMNS, "part", "mention_offsets", "mentions",
                "val_users", "val_negatives", "test_users", "test_negatives")


class IngestError(ValueError):
    pass


class SplitError(ValueError):
    pass


@dataclass(eq=False)
class Reviews:
    """Reviews as columns sorted by (user_id, timestamp), file order within
    ties; codes index the sorted ids. Row i's (feature, sentiment) mentions,
    in file order, are mentions[mention_offsets[i]:mention_offsets[i + 1]]."""
    users: list[str]
    items: list[str]
    features: list[str]
    user: np.ndarray             # int64 [N]
    item: np.ndarray             # int64 [N]
    rating: np.ndarray           # float64 [N]
    timestamp: np.ndarray        # int64 [N]
    mention_offsets: np.ndarray  # int64 [N + 1]
    mentions: np.ndarray         # int64 [M, 2]: feature, sentiment

    def __len__(self) -> int:
        return len(self.user)


@dataclass(eq=False)
class DatasetSplit:
    """The split as the arrays the dataset artifact stores.

    One table holds every interaction, one row per (user, item): train in
    split order, then each validation positive (in `val_users` order), then
    each test user's positives, chronological (users in `test_users` order),
    told apart by `part`. Validation and test users, ascending, come with
    their negatives as [users, n_neg] matrices, from which `val_candidates`
    and `test_candidates` lay out, once, the lists every ranking pass
    slices. Arrays that disagree in length or order raise ValueError.
    """
    users: list[str]
    items: list[str]
    features: list[str]
    user: np.ndarray             # int64 [N]
    item: np.ndarray             # int64 [N]
    rating: np.ndarray           # float64 [N]
    timestamp: np.ndarray        # int64 [N]
    mention_offsets: np.ndarray  # int64 [N + 1]: where row i's merged mentions start
    mentions: np.ndarray         # int64 [M, 2]: feature, sentiment
    n_rating: int
    part: np.ndarray             # int64 [N]: TRAIN, VAL or TEST
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
    def val_candidates(self) -> np.ndarray:
        """[U_val, 1 + n_val_neg]: each validation user's list, in `val_users`
        order, built once: its positive, then its negatives."""
        return np.column_stack([self.item[self.part == VAL], self.val_negatives])

    @cached_property
    def test_candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """[U_test, C]: each test user's list, in `test_users` order, built
        once: its positives, chronological, then its negatives, `PAD` after a
        list shorter than C; and [U_test]: how many positives lead each row.
        A split keeps one interaction per (user, item) and draws negatives the
        user never touched, so the positives are exactly those columns."""
        test = self.part == TEST
        users, n_neg = self.user[test], self.test_negatives.shape[1]
        row = np.searchsorted(self.test_users, users)
        n_pos = np.bincount(row, minlength=len(self.test_users))
        out = np.full((len(n_pos), n_pos.max(initial=0) + n_neg), PAD, dtype=np.int64)
        out[row, np.arange(len(row)) - (np.cumsum(n_pos) - n_pos)[row]] = self.item[test]
        out[np.arange(len(n_pos))[:, None], n_pos[:, None] + np.arange(n_neg)] = \
            self.test_negatives
        return out, n_pos


@dataclass(frozen=True)
class SplitConfig:
    seed: int = 0
    n_test_pos: int = 6
    n_test_neg: int = 100
    n_val_neg: int = 10


def _sorted_ids(ids: dict[str, int], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids `codes` (values of `ids`) use, sorted, and `codes` as indices into them."""
    names = list(ids)  # in code order
    used = sorted(set(codes.tolist()), key=names.__getitem__)
    index = np.zeros(len(names), dtype=np.int64)
    index[used] = np.arange(len(used))
    return [names[c] for c in used], index[codes]


def ingest_reviews(source: str | Path | bytes | Iterable[str], min_reviews_per_user: int = 1,
                   max_rating: int = MAX_RATING) -> Reviews:
    """Parse JSON-lines reviews, drop sparse users, sort by (user_id, timestamp).

    `source` is a file path, its bytes or its lines; IngestError names the
    first line that is not UTF-8. Dropping a user never changes any other
    user's review count, so one filtering pass reaches the fixpoint.
    """
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    if isinstance(source, bytes):
        try:
            return ingest_reviews(io.TextIOWrapper(io.BytesIO(source), encoding="utf-8"),
                                  min_reviews_per_user, max_rating)
        except UnicodeDecodeError:  # the line is looked for only once decoding failed
            # surrogateescape reads each byte that is not UTF-8 as U+DC80-U+DCFF
            lines = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", errors="surrogateescape")
            i = next(i for i, line in enumerate(lines, 1) if re.search("[\udc80-\udcff]", line))
            raise IngestError(f"line {i}: not UTF-8") from None
    users, items, features = {}, {}, {}  # id -> code, in order of first sight
    rows, mentions = [], []  # (user, item, rating, timestamp, n_mentions); feature, sentiment
    for i, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise IngestError(f"line {i}: malformed JSON: {e.msg}") from None
        if not isinstance(obj, dict):
            raise IngestError(f"line {i}: a review is a JSON object, got {obj!r}")
        try:
            user_id, item_id = obj["user_id"], obj["item_id"]
            rating, timestamp, triples = obj["rating"], obj["timestamp"], obj["triples"]
        except KeyError as e:
            raise IngestError(f"line {i}: missing key {e.args[0]!r}") from None
        if type(user_id) is not str or type(item_id) is not str:
            key = "item_id" if type(user_id) is str else "user_id"
            raise IngestError(f"line {i}: {key} must be a string, got {obj[key]!r}")
        if type(rating) not in (int, float) or rating % 1:  # not bool; NaN and inf fail
            raise IngestError(f"line {i}: rating must be an integer, got {rating!r}")
        rating = int(rating)
        if not (1 <= rating <= max_rating):
            raise IngestError(f"line {i}: rating {rating} outside [1, {max_rating}]")
        if type(timestamp) is not int:
            raise IngestError(f"line {i}: timestamp must be an integer, got {timestamp!r}")
        if not (-2**63 <= timestamp < 2**63):  # the dataset artifact stores int64
            raise IngestError(f"line {i}: timestamp {timestamp} does not fit "
                              "a signed 64-bit integer")
        if not isinstance(triples, list):
            raise IngestError(f"line {i}: triples must be a list, got {triples!r}")
        for t in triples:
            try:
                sentiment = t["sentiment"]
            except (KeyError, TypeError):
                raise IngestError(f"line {i}: triple missing 'sentiment'") from None
            if type(sentiment) is bool or sentiment not in (1, -1):
                raise IngestError(f"line {i}: sentiment must be +1 or -1, got {sentiment!r}")
            feature = t.get("feature", "")
            if type(feature) is not str:
                raise IngestError(f"line {i}: feature must be a string, got {feature!r}")
            mentions += (features.setdefault(feature, len(features)), int(sentiment))
        rows.append((users.setdefault(user_id, len(users)), items.setdefault(item_id, len(items)),
                     rating, timestamp, len(triples)))  # the loop passed every triple
    user, item, ratings, timestamps, n_mentions = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    keep = np.bincount(user)[user] >= min_reviews_per_user
    mentions = np.array(mentions, dtype=np.int64).reshape(-1, 2)[np.repeat(keep, n_mentions)]
    users, user = _sorted_ids(users, user[keep])
    items, item = _sorted_ids(items, item[keep])
    features, mentions[:, 0] = _sorted_ids(features, mentions[:, 0])
    order = np.lexsort((timestamps[keep], user))  # stable: file order within ties
    # each mention moves with its review, in file order among the review's own
    by_review = np.argsort(np.repeat(np.argsort(order), n_mentions[keep]), kind="stable")
    return Reviews(users, items, features, user[order], item[order],
                   ratings[keep][order].astype(np.float64), timestamps[keep][order],
                   np.concatenate([[0], np.cumsum(n_mentions[keep][order])]), mentions[by_review])


def dataset_stats(reviews: Reviews) -> dict:
    """Corpus-level counts plus sparsity% = 100*reviews/(users*items), 5 significant digits."""
    n_users, n_items = len(reviews.users), len(reviews.items)
    sparsity = 100.0 * len(reviews) / (n_users * n_items) if n_users and n_items else 0.0
    return {"n_users": n_users, "n_items": n_items, "n_features": len(reviews.features),
            "n_reviews": len(reviews), "sparsity_pct": float(f"{sparsity:.5g}")}


def build_split(reviews: Reviews, config: SplitConfig = SplitConfig(),
                max_rating: int = MAX_RATING) -> DatasetSplit:
    """Temporal per-user split with seeded negative sampling.

    Short users keep at least 1 train and 1 validation interaction and give
    up test (then validation) slots first, with a warning. Raises SplitError
    naming the user when the never-interacted pool cannot cover the negative
    sample sizes.
    """
    if not len(reviews):
        raise SplitError("no records to split")
    users, n_items = reviews.users, len(reviews.items)
    # one interaction per (user, item), with its last review's rating and timestamp
    _, last, pair = np.unique((reviews.user * n_items + reviews.item)[::-1],
                              return_index=True, return_inverse=True)
    last, pair = len(reviews) - 1 - last, pair[::-1]
    # each user's interactions by time, then item id
    order = np.lexsort((reviews.item[last], reviews.timestamp[last], reviews.user[last]))
    user = reviews.user[last[order]]
    n = np.bincount(user, minlength=len(users))
    n_test = np.minimum(config.n_test_pos, np.maximum(n - 2, 0))
    n_val = (n - n_test >= 2).astype(np.int64)
    rank = np.arange(len(user)) - np.repeat(np.cumsum(n) - n, n)  # within the user's own
    part = (rank >= (n - n_test - n_val)[user]).astype(np.int64) + (rank >= (n - n_test)[user])

    pool = n_items - n  # never-interacted items
    held_out = (("test", "test", n_test, config.n_test_neg),
                ("val", "validation", n_val, config.n_val_neg))
    odd = (n_test < config.n_test_pos) | (n_val == 0)  # each warned, then checked, in order
    for u in np.flatnonzero(odd | (pool < max(config.n_test_neg, config.n_val_neg))).tolist():
        if n_test[u] < config.n_test_pos or not n_val[u]:
            log.warning("user %s has only %d interactions; split reduced to "
                        "%d test / %d val", users[u], n[u], n_test[u], n_val[u])
        for _, what, n_pos, n_neg in held_out:
            if n_pos[u] and pool[u] < n_neg:
                raise SplitError(f"user {users[u]}: need {n_neg} {what} negatives, "
                                 f"only {pool[u]} never-interacted items available")
    interacted = np.split(reviews.item[last[order]], np.cumsum(n)[:-1])
    arrays = {}
    for name, _, n_pos, n_neg in held_out:
        held = arrays[f"{name}_users"] = np.flatnonzero(n_pos)
        # SplitMix64(seed).sample_range_excluding(n_items, interacted, n_neg) per user
        negatives = samples_excluding(n_items, [
            (derive_seed(config.seed, f"{name}-neg", users[u]), interacted[u].tolist(), n_neg)
            for u in held.tolist()])
        arrays[f"{name}_negatives"] = np.array(negatives or np.zeros((0, 0)), dtype=np.int64)

    # the table: train rows, then validation, then test, each in user order
    by_part = order[np.argsort(part, kind="stable")]
    row = np.argsort(by_part)  # of each interaction
    # each mention goes to its interaction's row, after those of earlier reviews
    mention_row = row[pair[np.repeat(np.arange(len(reviews)), np.diff(reviews.mention_offsets))]]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(mention_row, minlength=len(row)))])
    return DatasetSplit(users=users, items=reviews.items, features=reviews.features,
                        n_rating=max_rating, part=np.sort(part), mention_offsets=offsets,
                        mentions=reviews.mentions[np.argsort(mention_row, kind="stable")],
                        **{name: getattr(reviews, name)[last[by_part]] for name in _COLUMNS},
                        **arrays)


def split_arrays(split: DatasetSplit) -> tuple[dict, dict[str, np.ndarray]]:
    """The split as `models.checkpoint` stores it: its `SPLIT_FIELDS` for the
    manifest and its `SPLIT_ARRAYS`."""
    return ({name: getattr(split, name) for name in SPLIT_FIELDS},
            {name: getattr(split, name) for name in SPLIT_ARRAYS})


def split_from_arrays(manifest: dict, arrays: dict[str, np.ndarray]) -> DatasetSplit:
    """Inverse of `split_arrays`; `manifest` holds at least its fields.
    Arrays that disagree raise ValueError."""
    return DatasetSplit(**{name: manifest[name] for name in SPLIT_FIELDS},
                        **{name: arrays[name] for name in SPLIT_ARRAYS})
