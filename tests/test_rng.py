"""Deterministic RNG: reference vectors, sampling contracts, seed derivation."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustrec.rng as rng_mod
from robustrec.dataset import SplitConfig, build_split, ingest_reviews
from robustrec.rng import SplitMix64, derive_seed, limit, outputs, samples_excluding
from robustrec.synth import SynthConfig, synth_jsonl
from planted import seed_drawing


def _reference_splitmix64(seed):
    """Independent restatement of the published algorithm."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def test_published_seed0_vector():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_matches_reference_stream():
    for seed in (0, 1, 42, 0x123456789ABCDEF, (1 << 64) - 1):
        r = SplitMix64(seed)
        ref = _reference_splitmix64(seed)
        assert [r.next_u64() for _ in range(200)] == [next(ref) for _ in range(200)]


def test_frozen_stream():
    r = SplitMix64(0x123456789ABCDEF)
    assert [r.next_u64() for _ in range(4)] == [
        1547611027431991965, 15380727978956804243,
        3427440727199435966, 11733030637320693740]


def test_uniform_bounds_and_values():
    r = SplitMix64(3)
    xs = [r.uniform() for _ in range(5000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02
    r = SplitMix64(3)
    assert r.uniform() == pytest.approx(0.11345034205715454, abs=0)


def test_randrange_bounds_and_coverage():
    r = SplitMix64(11)
    seen = set()
    for _ in range(500):
        v = r.randrange(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        r.randrange(0)


def test_shuffle_is_permutation_and_frozen():
    r = SplitMix64(42)
    xs = list(range(10))
    r.shuffle(xs)
    assert xs == [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]
    assert sorted(xs) == list(range(10))


def test_sample_distinct_and_frozen():
    r = SplitMix64(42)
    got = r.sample(list(range(20)), 5)
    assert got == [13, 16, 2, 8, 6]
    assert len(set(got)) == 5
    with pytest.raises(ValueError):
        SplitMix64(0).sample([1, 2], 3)


def test_sample_range_excluding_frozen_and_contract():
    r = SplitMix64(7)
    got = r.sample_range_excluding(50, {0, 1, 2, 3, 4}, 6)
    assert got == [37, 46, 24, 5, 48, 32]
    assert len(set(got)) == 6 and not set(got) & {0, 1, 2, 3, 4}


def test_sample_range_excluding_small_pool_path():
    # pool of exactly k forces the explicit-shuffle branch
    r = SplitMix64(9)
    got = r.sample_range_excluding(10, {1, 3, 5, 7, 9, 0}, 4)
    assert sorted(got) == [2, 4, 6, 8]
    with pytest.raises(ValueError):
        SplitMix64(0).sample_range_excluding(10, set(range(8)), 3)


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 10**6), min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_shuffle_preserves_multiset(seed, xs):
    r = SplitMix64(seed)
    ys = list(xs)
    r.shuffle(ys)
    assert sorted(ys) == sorted(xs)


@given(st.integers(0, 2**64 - 1), st.integers(1, 60), st.data())
@settings(max_examples=60, deadline=None)
def test_sample_range_excluding_property(seed, n, data):
    banned = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    pool = n - len(banned)
    k = data.draw(st.integers(0, pool))
    got = SplitMix64(seed).sample_range_excluding(n, banned, k)
    assert len(got) == k == len(set(got))
    assert all(0 <= v < n and v not in banned for v in got)


def test_derive_seed_is_sha256_based_and_frozen():
    assert derive_seed(0, "test-neg", "u01") == 10275031644648278846
    assert derive_seed(0) == 4066689987807800415
    assert derive_seed(1) == 16283948624427255403
    tag = ":".join(["0", repr("test-neg"), repr("u01")])
    expect = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
    assert derive_seed(0, "test-neg", "u01") == expect


def test_derive_seed_context_separation():
    seen = {derive_seed(0), derive_seed(1), derive_seed(0, "a"), derive_seed(0, "b"),
            derive_seed(0, "a", 1), derive_seed(0, "a", 2), derive_seed(0, 1, "a")}
    assert len(seen) == 7


def test_streams_are_independent_per_seed():
    a = SplitMix64(derive_seed(0, "epoch", 1))
    b = SplitMix64(derive_seed(0, "epoch", 2))
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


# ------------------------------------------- block draws vs the scalar path ---

SEEDS = [0, 1, 42, 2**63, 2**64 - 1] + [derive_seed(7, "block", i) for i in range(40)]
BOUNDS = [1, 2, 3, 4, 7, 8, 500, 2**32, 2**63 - 1, 2**63, 2**63 + 1, 2**64]
MAX_DRAW = 2**64 - 1  # rejected by randrange(n) for every n but a power of two


def _scalar_shuffle(r, xs):
    for i in range(len(xs) - 1, 0, -1):
        j = r.randrange(i + 1)
        xs[i], xs[j] = xs[j], xs[i]


def _scalar_sample(r, xs, k):
    pool = list(xs)
    for i in range(k):
        j = i + r.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def test_planted_draw_is_where_it_was_put():
    r = SplitMix64(seed_drawing(MAX_DRAW, 3))
    assert [r.next_u64() for _ in range(5)][3] == MAX_DRAW


def test_block_equals_next_u64_and_leaves_the_same_state():
    for seed in SEEDS:
        for n in (0, 1, 5, 300):
            a, b = SplitMix64(seed), SplitMix64(seed)
            got = a.block(n)
            assert got.dtype == np.uint64
            assert got.tolist() == [b.next_u64() for _ in range(n)]
            assert a.next_u64() == b.next_u64()


def test_outputs_rows_are_fresh_generators():
    block = outputs(SEEDS, 70)
    assert block.shape == (len(SEEDS), 70)
    for seed, row in zip(SEEDS, block.tolist()):
        r = SplitMix64(seed)
        assert row == [r.next_u64() for _ in range(70)]


def test_limit_covers_every_bound_up_to_two_to_the_64():
    assert limit(1) == limit(2**64) == 2**64
    assert limit(3) == 2**64 - 1 and limit(2**63 + 1) == 2**63 + 1
    for n in (0, -1, 2**64 + 1, 2**65):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            limit(n)


def test_randrange_above_two_to_the_64_raises_without_drawing(monkeypatch):
    # limit(n) would be 0 there: a draw loop would never accept
    monkeypatch.setattr(SplitMix64, "next_u64", lambda self: pytest.fail("drew"))
    for n in (2**64 + 1, 3 * 2**64):
        with pytest.raises(ValueError):
            SplitMix64(0).randrange(n)
        with pytest.raises(ValueError):
            next(SplitMix64(0).randranges(n))
        with pytest.raises(ValueError):
            samples_excluding(n, [(0, set(), 1)])


def test_randrange_at_two_to_the_64_is_the_draw_itself():
    a, b = SplitMix64(5), SplitMix64(5)
    assert [a.randrange(2**64) for _ in range(20)] == [b.next_u64() for _ in range(20)]


@pytest.mark.parametrize("n", BOUNDS)
def test_randranges_equal_successive_randrange_calls(n):
    # 600 values span several 256-draw blocks, more where half are rejected
    for seed in SEEDS[:12] + [seed_drawing(MAX_DRAW, at) for at in (2, 300)]:
        a, b = SplitMix64(seed), SplitMix64(seed)
        draws = a.randranges(n)
        assert [next(draws) for _ in range(600)] == [b.randrange(n) for _ in range(600)]


@pytest.mark.parametrize("length", [0, 1, 2, 3, 10, 64, 1000])
def test_block_shuffle_equals_scalar_fisher_yates(length):
    for seed in SEEDS:
        a, b = SplitMix64(seed), SplitMix64(seed)
        xs, ys = list(range(length)), list(range(length))
        a.shuffle(xs)
        _scalar_shuffle(b, ys)
        assert xs == ys
        assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("at", [0, 4, 7])
def test_block_shuffle_falls_back_on_a_rejected_draw(at):
    # draw `at` is for bound 10 - at (not a power of two here) and rejected,
    # so the shuffle takes one draw more than its 9 swaps
    seed = seed_drawing(MAX_DRAW, at)
    a, b = SplitMix64(seed), SplitMix64(seed)
    xs, ys = list(range(10)), list(range(10))
    a.shuffle(xs)
    _scalar_shuffle(b, ys)
    assert xs == ys
    assert a.next_u64() == b.next_u64() == SplitMix64(seed).block(11)[10]


@pytest.mark.parametrize("length", [1, 2, 10, 300])
def test_block_sample_equals_scalar_partial_fisher_yates(length):
    # planted rejections: the first draw (bounds 10 and 300) and the third (298)
    for seed in SEEDS + [seed_drawing(MAX_DRAW, at) for at in (0, 2)]:
        for k in sorted({0, 1, length // 2, length}):
            a, b = SplitMix64(seed), SplitMix64(seed)
            assert a.sample(range(length), k) == _scalar_sample(b, range(length), k)
            assert a.next_u64() == b.next_u64()


def _rows(n, shapes, seeds=SEEDS):
    """(seed, banned, k) rows over [0, n), cycling through (n_banned, k)
    shapes; the banned items lie in [0, min(n, 1000))."""
    rows = []
    for i, seed in enumerate(seeds):
        n_banned, k = shapes[i % len(shapes)]
        banned = set(SplitMix64(seed ^ 0x5555).sample(range(min(n, 1000)), n_banned))
        rows.append((seed, banned, k))
    return rows


def _scalar_samples(n, rows):
    return [SplitMix64(seed).sample_range_excluding(n, banned, k) for seed, banned, k in rows]


@pytest.mark.parametrize("n", [b for b in BOUNDS if b >= 40])
def test_samples_excluding_equal_the_scalar_rows(n):
    # k = 0, block rows, rows whose block holds rejected draws (n = 2^63 + 1
    # rejects about half) and small-pool rows (3k >= pool at n = 40)
    rows = _rows(n, [(0, 0), (0, 1), (5, 4), (30, 10), (2, 13)])
    assert samples_excluding(n, rows) == _scalar_samples(n, rows)


def test_samples_excluding_rows_past_the_block_continue(monkeypatch):
    # with 600 or 700 of 1000 items banned, 100 or 90 negatives take about
    # 290 or 360 draws, past the row's first 2k in the block
    continued = []
    randranges = SplitMix64.randranges
    monkeypatch.setattr(SplitMix64, "randranges",
                        lambda self, n: continued.append(n) or randranges(self, n))
    rows = _rows(1000, [(600, 100), (700, 90), (0, 3), (960, 20)])
    assert samples_excluding(1000, rows) == _scalar_samples(1000, rows)
    assert len(continued) >= len(SEEDS) // 2


def test_samples_excluding_keys_past_64_bits_draw_on(monkeypatch):
    # 4 rows at n = 2^62: their row * n + value keys, shifted over each draw's
    # position, would pass 64 bits, so every row reads its whole block and
    # draws on; at n = 2^40 the keys fit and no row needs a draw past its 2k
    continued = []
    randranges = SplitMix64.randranges
    monkeypatch.setattr(SplitMix64, "randranges",
                        lambda self, n: continued.append(n) or randranges(self, n))
    for n, drew_on in ((2**62, [2**62] * 4), (2**40, [])):
        rows = _rows(n, [(5, 4)], seeds=SEEDS[:4])
        continued.clear()
        assert samples_excluding(n, rows) == _scalar_samples(n, rows)
        assert continued == drew_on


def test_samples_excluding_under_a_tighter_limit(monkeypatch):
    # about half of all draws rejected, scalar and block alike
    monkeypatch.setattr(rng_mod, "limit", lambda n: max(n, (1 << 63) // n * n))
    rows = _rows(500, [(0, 1), (20, 10), (50, 100)])
    assert samples_excluding(500, rows) == _scalar_samples(500, rows)
    for n in (3, 500, 2**63 + 1):
        a, b = SplitMix64(11), SplitMix64(11)
        draws = a.randranges(n)
        assert [next(draws) for _ in range(300)] == [b.randrange(n) for _ in range(300)]


def test_samples_excluding_planted_rejection_takes_the_scalar_row():
    rows = [(seed_drawing(MAX_DRAW, 5), {1, 2}, 6), (SEEDS[3], set(), 6)]
    assert samples_excluding(500, rows) == _scalar_samples(500, rows)


def test_samples_excluding_mixed_k_in_one_call(monkeypatch):
    # k = 0, 1, 4, 10 and 100 side by side, with rows that run past their 2k
    # draws (600 or 650 of 1000 banned), planted rejections inside a row's
    # first 2k draws and small-pool rows (3k >= pool); the rows of one k share
    # one block 2k wide
    widths, continued = [], []
    block, randranges = rng_mod.outputs, SplitMix64.randranges
    monkeypatch.setattr(rng_mod, "outputs",
                        lambda seeds, width: widths.append((len(seeds), width))
                        or block(seeds, width))
    monkeypatch.setattr(SplitMix64, "randranges",
                        lambda self, n: continued.append(n) or randranges(self, n))
    shapes = [(0, 0), (3, 1), (20, 4), (100, 10), (0, 100), (600, 100), (650, 100),
              (900, 100), (990, 4)]
    rows = _rows(1000, shapes) + [(seed_drawing(MAX_DRAW, at), {1, 2}, k)
                                  for at, k in [(0, 1), (5, 4), (19, 10), (150, 100)]]
    got = samples_excluding(1000, rows)
    blocks = sorted(w for w in widths if w[0] > 1)  # a generator's own blocks have 1 row
    assert got == _scalar_samples(1000, rows)
    assert blocks == [(6, 2), (6, 8), (6, 20), (16, 200)]
    assert continued


def test_samples_excluding_short_pool_raises_like_the_scalar_call():
    with pytest.raises(ValueError, match="only 2 available"):
        samples_excluding(10, [(1, set(range(8)), 3)])


def test_block_paths_make_no_per_draw_calls(efm_tiny, monkeypatch):
    # one epoch pass and one tiny_split-sized split build draw only in blocks
    records = ingest_reviews(synth_jsonl(SynthConfig(
        n_users=8, n_items=40, n_features=10, reviews_per_user=10, n_item_features=3, seed=5)))
    calls = []
    next_u64 = SplitMix64.next_u64
    monkeypatch.setattr(SplitMix64, "next_u64", lambda self: calls.append(1) or next_u64(self))
    assert len(list(efm_tiny.epoch_batches(SplitMix64(1), 16))) > 1
    split = build_split(records, SplitConfig(seed=5, n_test_pos=2, n_test_neg=8, n_val_neg=4))
    assert split.test_negatives.size and split.val_negatives.size
    assert calls == []
    SplitMix64(0).randrange(3)  # the spy sees the scalar path
    assert calls == [1]
