"""Deterministic pseudo-randomness for splits, sampling and batching.

Every sampling decision that must reproduce byte-for-byte (negative sampling,
epoch shuffles, synthetic corpora) draws from SplitMix64, a 64-bit-state
generator (Steele, Lea & Flood, OOPSLA 2014). The algorithm is pinned here:
rebuilding this codebase from the same seeds yields identical streams.

SplitMix64 is counter-based: its k-th output is a fixed bit mix of
`seed + k * gamma`. So `outputs` and `SplitMix64.block` compute many outputs
in a few uint64 numpy operations, bit for bit the `next_u64` values, and the
bulk draws use them; `samples_excluding` sorts the row * n + value keys of
one [rows, 2k] block per sample size k. The block path is exact: `shuffle`,
`sample` and `samples_excluding` return what one `randrange` call per draw
would, taking that scalar path whenever a block holds a draw `randrange`
would reject. `randranges` also returns the scalar values, but over-draws:
its generator runs up to one block ahead of the values taken. That is safe
only because every epoch, every attack pass and every (user, split) negative
sample seeds a generator of its own and uses it for nothing else.
"""
from __future__ import annotations

import hashlib
from itertools import chain
from typing import Collection, Iterable, Iterator, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

T = TypeVar("T")


def derive_seed(root: int, *parts: object) -> int:
    """Derive a child seed from a root seed and a tuple of context tokens.

    Stable across runs: tokens are serialized to a canonical string and
    hashed with SHA-256; the first 8 bytes form the child seed.
    """
    tag = ":".join([str(int(root))] + [repr(p) for p in parts])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def limit(n: int) -> int:
    """`randrange(n)` accepts a draw u iff u < limit(n), the largest multiple
    of n not above 2^64, so that u % n is unbiased. ValueError unless
    1 <= n <= 2^64: above that no draw would ever be accepted."""
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"randrange() requires 1 <= n <= 2**64, got {n}")
    return (1 << 64) // n * n


def outputs(seeds: Sequence[int], width: int) -> np.ndarray:
    """uint64 [len(seeds), width]: row r holds the first `width` `next_u64`
    outputs of SplitMix64(seeds[r])."""
    steps = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(_GOLDEN)  # wraps mod 2^64
    z = np.array([s & _MASK64 for s in seeds], dtype=np.uint64).reshape(-1, 1) + steps
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """SplitMix64 generator; 64-bit state, full-period, trivially seedable."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def block(self, n: int) -> np.ndarray:
        """The next n `next_u64` outputs as uint64 [n], leaving the state
        where n `next_u64` calls would."""
        z = outputs([self._state], n)[0]
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias (rejection)."""
        lim = limit(n)
        while True:
            u = self.next_u64()
            if u < lim:
                return u % n

    def randranges(self, n: int) -> Iterator[int]:
        """The values of successive `randrange(n)` calls, drawn 256 outputs
        at a time. The generator runs up to 255 outputs ahead of the values
        taken, so it must serve nothing else afterwards."""
        last = np.uint64(limit(n) - 1)
        while True:
            u = self.block(256)
            u = u[u <= last]
            yield from (u % np.uint64(n) if n < 1 << 64 else u).tolist()

    def _randrange_each(self, bounds: np.ndarray) -> list[int]:
        """`randrange(b)` for each uint64 bound b >= 1, in order, from one
        block of outputs; if `randrange` would reject one of its draws, one
        call per bound instead, from the same state."""
        start = self._state
        u = self.block(len(bounds))
        # randrange(b) rejects u > 2^64 - 1 - (2^64 mod b), and 2^64 mod b = (0 - b) mod b
        if (u > ~((np.uint64(0) - bounds) % bounds)).any():
            self._state = start
            return [self.randrange(b) for b in bounds.tolist()]
        return (u % bounds).tolist()

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates."""
        js = self._randrange_each(np.arange(len(xs), 1, -1, dtype=np.uint64))
        for i, j in zip(range(len(xs) - 1, 0, -1), js):
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, xs: Sequence[T], k: int) -> list[T]:
        """k distinct elements, order random (partial Fisher-Yates)."""
        if k > len(xs):
            raise ValueError(f"sample() of {k} from population of {len(xs)}")
        pool = list(xs)
        js = self._randrange_each(np.arange(len(pool), len(pool) - k, -1, dtype=np.uint64))
        for i, j in enumerate(js):
            pool[i], pool[i + j] = pool[i + j], pool[i]
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
        return _distinct(iter(lambda: self.randrange(n), None), banned, k)


def _distinct(draws: Iterable[int], banned: Collection[int], k: int) -> list[int]:
    """The first k distinct values of `draws` outside `banned`."""
    picked: list[int] = []
    seen = set(banned)
    for j in draws if k else ():
        if j not in seen:
            seen.add(j)
            picked.append(j)
            if len(picked) == k:
                break
    return picked


def samples_excluding(n: int, rows: Sequence[tuple[int, Collection[int], int]]) -> list[list[int]]:
    """`SplitMix64(seed).sample_range_excluding(n, banned, k)` for each
    (seed, banned, k) of `rows`, in order; `banned` holds distinct values in
    [0, n). A row short of k in its block, or in a group whose keys would
    pass 64 bits, draws on from its state after it; one with a draw
    `randrange(n)` rejects, or on the small-pool branch, takes the scalar path."""
    last = np.uint64(limit(n) - 1)
    picked: dict[int, list[int]] = {}  # by row; a row left out takes the scalar path
    by_k: dict[int, list[int]] = {}
    for r, (_, banned, k) in enumerate(rows):
        if k and 3 * k < n - len(banned):
            by_k.setdefault(k, []).append(r)
    for k, group in by_k.items():
        seeds, bans, _ = zip(*(rows[r] for r in group))
        u = outputs(seeds, 2 * k)
        accepted = (u <= last).all(axis=1)
        u = u % np.uint64(n) if n < 1 << 64 else u
        sizes = [len(b) for b in bans]
        fresh = np.zeros(sum(sizes) + u.size, dtype=bool)
        shift = np.uint64(len(fresh).bit_length())
        if len(group) * n <= 1 << (64 - int(shift)):  # else keys overflow: all draw on
            # keys row * n + value, a row's banned ones first, each shifted over its
            # position: sorted, each key's first occurrence leads its run
            base = np.arange(len(group), dtype=np.uint64) * np.uint64(n)
            banned = np.fromiter(chain.from_iterable(bans), np.uint64, sum(sizes))
            keys = np.concatenate([np.repeat(base, sizes) + banned, (u + base[:, None]).ravel()])
            keys = np.sort(keys << shift | np.arange(len(fresh), dtype=np.uint64))
            run = keys >> shift
            first = keys[np.concatenate([[True], run[1:] != run[:-1]])]
            fresh[first & ((np.uint64(1) << shift) - np.uint64(1))] = True
        fresh = fresh[sum(sizes):].reshape(u.shape)
        taken = fresh & (np.cumsum(fresh, axis=1) <= k)
        full = accepted & (taken.sum(axis=1) == k)
        values = u[taken & full[:, None]].reshape(-1, k).tolist()
        picked.update(zip(np.array(group)[full].tolist(), values))
        for i in np.flatnonzero(accepted & ~full).tolist():  # on past the block
            seed, banned, _ = rows[group[i]]
            rest = SplitMix64(seed + 2 * k * _GOLDEN).randranges(n)
            picked[group[i]] = _distinct(chain(u[i].tolist(), rest), banned, k)
    return [picked[r] if r in picked else SplitMix64(seed).sample_range_excluding(n, banned, k)
            for r, (seed, banned, k) in enumerate(rows)]
