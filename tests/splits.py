"""Small DatasetSplits from plain rows, and the split read back one interaction
at a time: the slow, obviously right reading the array readers are checked
against."""
from typing import NamedTuple

import numpy as np

from robustrec.dataset import TEST, TRAIN, VAL, DatasetSplit


class Row(NamedTuple):
    part: int
    user: int
    item: int
    rating: float
    timestamp: int
    mentions: list[tuple[int, int]]  # (feature, sentiment)


def interactions(split: DatasetSplit, part: int | None = None,
                 user: int | None = None) -> list[Row]:
    """The split's interactions in table order, optionally of one part and user."""
    offsets = split.mention_offsets.tolist()
    mentions = [tuple(m) for m in split.mentions.tolist()]
    rows = []
    for i, (p, u, v, r, t) in enumerate(zip(split.part.tolist(), split.user.tolist(),
                                            split.item.tolist(), split.rating.tolist(),
                                            split.timestamp.tolist())):
        if (part is None or p == part) and (user is None or u == user):
            rows.append(Row(p, u, v, r, t, mentions[offsets[i]:offsets[i + 1]]))
    return rows


def split_of(rows, n_users: int, n_items: int, n_features: int, n_neg: int = 0,
             n_rating: int = 5) -> DatasetSplit:
    """A DatasetSplit from (part, user, item, mentions) rows. Train rows keep
    their order, held-out rows are grouped by user, ascending; every held-out
    user gets n_neg negatives, items 0, 1, ... Ratings are 3.0 and timestamps
    count up in table order."""
    rows = sorted(rows, key=lambda r: (r[0], r[1] if r[0] != TRAIN else 0))
    arrays = {
        "user": np.array([r[1] for r in rows], dtype=np.int64),
        "item": np.array([r[2] for r in rows], dtype=np.int64),
        "rating": np.full(len(rows), 3.0),
        "timestamp": np.arange(len(rows), dtype=np.int64),
        "part": np.array([r[0] for r in rows], dtype=np.int64),
        "mention_offsets": np.cumsum([0] + [len(r[3]) for r in rows], dtype=np.int64),
        "mentions": np.array([m for r in rows for m in r[3]], dtype=np.int64).reshape(-1, 2),
    }
    for part, name in ((VAL, "val"), (TEST, "test")):
        users = np.unique(arrays["user"][arrays["part"] == part])
        arrays[f"{name}_users"] = users
        arrays[f"{name}_negatives"] = np.tile(np.arange(n_neg, dtype=np.int64), (len(users), 1))
    return DatasetSplit(users=[f"u{i}" for i in range(n_users)],
                        items=[f"i{i}" for i in range(n_items)],
                        features=[f"f{i}" for i in range(n_features)],
                        n_rating=n_rating, **arrays)
