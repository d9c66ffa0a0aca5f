"""Synthetic review corpus with planted user preferences.

Each user prefers a few features; each item carries a few features with a
per-feature quality sign. Ratings grow with the count of preferred features
the item is good at, mentions are biased toward preferred features, and
mention sentiment follows item quality with a small flip rate. A model that
recovers the planted structure should explain a recommendation with one of
the user's preferred features the item is actually good at.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 200
    n_items: int = 500
    n_features: int = 30
    reviews_per_user: int = 26
    n_pref: int = 3
    n_item_features: int = 4
    p_good: float = 0.8
    p_aligned: float = 0.7
    p_mention_pref: float = 0.9
    p_mention_other: float = 0.3
    p_sentiment_flip: float = 0.05
    max_rating: int = 5
    seed: int = 0


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(max(n - 1, 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def synth_records(cfg: SynthConfig = SynthConfig()) -> list[dict]:
    """Generate review dicts in ingestion order (one JSON object each)."""
    rng = SplitMix64(derive_seed(cfg.seed, "synth"))
    users = _ids("u", cfg.n_users)
    items = _ids("i", cfg.n_items)
    features = _ids("f", cfg.n_features)

    item_feats = [sorted(rng.sample(range(cfg.n_features), cfg.n_item_features))
                  for _ in range(cfg.n_items)]
    item_good = [{f: rng.uniform() < cfg.p_good for f in feats}
                 for feats in item_feats]
    good_by_feat: list[list[int]] = [[] for _ in range(cfg.n_features)]
    for v, feats in enumerate(item_feats):
        for f in feats:
            if item_good[v][f]:
                good_by_feat[f].append(v)
    prefs = [rng.sample(range(cfg.n_features), cfg.n_pref)
             for _ in range(cfg.n_users)]

    records: list[dict] = []
    for u in range(cfg.n_users):
        pref_set = set(prefs[u])
        interacted: set[int] = set()
        for j in range(cfg.reviews_per_user):
            v = None
            if rng.uniform() < cfg.p_aligned:
                for _ in range(64):
                    f = prefs[u][rng.randrange(cfg.n_pref)]
                    pool = good_by_feat[f]
                    if not pool:
                        continue
                    cand = pool[rng.randrange(len(pool))]
                    if cand not in interacted:
                        v = cand
                        break
            while v is None:
                cand = rng.randrange(cfg.n_items)
                if cand not in interacted:
                    v = cand
            interacted.add(v)

            affinity = sum(1 for f in item_feats[v]
                           if f in pref_set and item_good[v][f])
            roll = rng.uniform()
            noise = -1 if roll < 0.2 else (1 if roll > 0.8 else 0)
            rating = min(cfg.max_rating, max(1, 2 + affinity + noise))

            triples = []
            for f in item_feats[v]:
                p = cfg.p_mention_pref if f in pref_set else cfg.p_mention_other
                if rng.uniform() >= p:
                    continue
                sentiment = 1 if item_good[v][f] else -1
                if rng.uniform() < cfg.p_sentiment_flip:
                    sentiment = -sentiment
                triples.append({"feature": features[f],
                                "opinion": "good" if sentiment == 1 else "bad",
                                "sentiment": sentiment})
            records.append({"user_id": users[u], "item_id": items[v],
                            "rating": rating, "timestamp": j, "triples": triples})
    return records


def synth_jsonl(cfg: SynthConfig = SynthConfig()) -> list[str]:
    """The same corpus as JSON lines, ready for review ingestion."""
    return [json.dumps(rec, sort_keys=True) for rec in synth_records(cfg)]


def write_reviews(path: str | Path, cfg: SynthConfig = SynthConfig()) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(synth_jsonl(cfg)) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Write a synthetic review corpus.")
    parser.add_argument("out", help="output .jsonl path")
    parser.add_argument("--users", type=int, default=SynthConfig.n_users)
    parser.add_argument("--items", type=int, default=SynthConfig.n_items)
    parser.add_argument("--features", type=int, default=SynthConfig.n_features)
    parser.add_argument("--reviews-per-user", type=int, default=SynthConfig.reviews_per_user)
    parser.add_argument("--seed", type=int, default=SynthConfig.seed)
    args = parser.parse_args(argv)
    cfg = SynthConfig(n_users=args.users, n_items=args.items,
                      n_features=args.features,
                      reviews_per_user=args.reviews_per_user, seed=args.seed)
    path = write_reviews(args.out, cfg)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
