"""Deterministic pseudo-randomness for splits, sampling and batching.

Every sampling decision that must reproduce byte-for-byte (negative sampling,
epoch shuffles, synthetic corpora) draws from SplitMix64, a 64-bit-state
generator (Steele, Lea & Flood, OOPSLA 2014). The algorithm is pinned here:
rebuilding this codebase from the same seeds yields identical streams.
"""
from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, TypeVar

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


def derive_seed(root: int, *parts: object) -> int:
    """Derive a child seed from a root seed and a tuple of context tokens.

    Stable across runs: tokens are serialized to a canonical string and
    hashed with SHA-256; the first 8 bytes form the child seed.
    """
    tag = ":".join([str(int(root))] + [repr(p) for p in parts])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SplitMix64:
    """SplitMix64 generator; 64-bit state, full-period, trivially seedable."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias (rejection)."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, xs: Sequence[T], k: int) -> list[T]:
        """k distinct elements, order random (partial Fisher-Yates)."""
        if k > len(xs):
            raise ValueError(f"sample() of {k} from population of {len(xs)}")
        pool = list(xs)
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def sample_range_excluding(self, n: int, excluded: Iterable[int], k: int) -> list[int]:
        """k distinct integers from [0, n) avoiding `excluded`.

        Rejection sampling while the pool is comfortably larger than k,
        otherwise an explicit shuffle of the surviving pool. Raises
        ValueError when fewer than k candidates exist.
        """
        banned = set(excluded)
        pool_size = n - len(banned)
        if k > pool_size:
            raise ValueError(f"need {k} candidates, only {pool_size} available")
        if 3 * k >= pool_size:
            pool = [i for i in range(n) if i not in banned]
            return self.sample(pool, k)
        picked: list[int] = []
        seen = set(banned)
        while len(picked) < k:
            j = self.randrange(n)
            if j in seen:
                continue
            seen.add(j)
            picked.append(j)
        return picked
