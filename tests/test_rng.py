import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lsblab.embed import _coins
from lsblab.rng import _BLOCK, Rng, _apply_swaps, derive_seed


def test_equal_seeds_equal_streams():
    a = Rng(123456789)
    b = Rng(123456789)
    assert a.bits(1000).tolist() == b.bits(1000).tolist()
    assert a.bits(100).tolist() == b.bits(100).tolist()
    assert a.shuffle(97).tolist() == b.shuffle(97).tolist()


def test_different_seeds_differ():
    assert Rng(1).bits(64).tolist() != Rng(2).bits(64).tolist()


def test_coin_is_fair():
    # invariant: mean of 10^6 flips within 0.5 +/- 0.005
    rng = Rng(2024)
    n = 1_000_000
    mean = int(rng.bits(n).sum()) / n
    assert abs(mean - 0.5) <= 0.005


def test_sign_values():
    signs = set(_coins(7, 100).tolist())
    assert signs == {-1, 1}


def test_shuffle_is_seeded_permutation():
    order1 = Rng(99).shuffle(50).tolist()
    order2 = Rng(99).shuffle(50).tolist()
    assert order1 == order2
    assert sorted(order1) == list(range(50))
    assert order1 != list(range(50))


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert derive_seed(42, 1, 2) != derive_seed(42, 1)
    assert all(0 <= s < 2**64 for s in list(children)[:10])


# ---------------------------------------------------------------------------
# differential: the bulk engine against the stdlib generator it reproduces

MASK64 = (1 << 64) - 1
# powers of two and their neighbours, where the words at hand straddle a change of the
# bound's bit length k and are carried across it. A shuffle of n makes n - 1 draws and
# takes the last 1024 one by one, so 1025 is all tail and 1026 the first size with a
# window; its first span is 3 draws, then its words are carried into the tail's bounds.
# A window holds 16 << (k // 2) words, at most 4096: 512 for bounds below 2**11, 1024
# from 2**11, 2048 from 2**13 and 4096 from 2**15 on. The draws left would cap a window
# below that, but with this tail they never do: 16 << (k // 2) is below them for k >= 11
EDGE_SIZES = sorted({m for k in range(17) for m in (2**k - 1, 2**k, 2**k + 1) if m >= 1}
                    | {1026, 1027})
SEEDS = st.one_of(st.sampled_from([0, MASK64]), st.integers(0, 2**70))


def stdlib_order(seed, n):
    order = list(range(n))
    random.Random(seed & MASK64).shuffle(order)
    return order


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(0, 20_000), st.sampled_from(EDGE_SIZES)), seed=SEEDS)
def test_shuffle_matches_stdlib(n, seed):
    order = Rng(seed).shuffle(n)
    assert order.dtype == np.int32
    assert order.tolist() == stdlib_order(seed, n)


def test_shuffle_matches_stdlib_at_512_squared():
    for seed in (0, MASK64):
        assert Rng(seed).shuffle(512 * 512).tolist() == stdlib_order(seed, 512 * 512)


def check_draws(n):
    """_draws(n) is randrange(m) for m = n, ..., 2, and leaves the stdlib's state."""
    for seed in (0, 5, MASK64):
        rng, reference = Rng(seed), random.Random(seed)
        assert rng._draws(n).tolist() == [reference.randrange(m) for m in range(n, 1, -1)]
        assert rng._random.getstate() == reference.getstate()


@pytest.mark.parametrize("n", [2**k + d for k in range(9, 19) for d in (0, 1, 2, 3, 300)])
def test_draws_match_randrange_across_bit_lengths(n):
    # the first bound 2**k + d keeps its k + 1 bits for only d + 1 draws: the words read
    # for them are carried to the k-bit bounds, some of them past the tail's edge
    check_draws(n)


@pytest.mark.parametrize("tail", [0, 256])
def test_windows_capped_by_the_draws_left(monkeypatch, tail):
    # with a shorter tail the draws left cap some windows: a read at the bound 512 takes
    # 511 words, not 512, and without a tail so does every read below the bound 2**8
    monkeypatch.setattr("lsblab.rng._TAIL", tail)
    for n in (2, 3, 5, 17, 100, 257, 258, 511, 512, 513, 1026, 4097):
        check_draws(n)


class WordCounter(random.Random):
    """The stdlib generator, counting the 32-bit words getrandbits reads."""

    words = 0

    def getrandbits(self, k):
        self.words += (k + 31) // 32
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [0, 1, 2, 256, 257, 258, 259, 300, 1025, 1026, 1027, 1300, 2048,
                               2049, 4096, 4097, 4098, 4353, 4354, 8193, 10_000, 2**14 + 3,
                               2**15 + 300, 65_536])
def test_shuffle_reads_only_the_words_the_stdlib_reads(n):
    # no word is read past the last draw, so none has to be given back
    for seed in (0, 5, MASK64):
        rng = Rng(seed)
        rng._random = WordCounter(seed)
        rng.shuffle(n)
        reference = WordCounter(seed)
        reference.shuffle(list(range(n)))
        assert rng._random.words == reference.words, (n, seed)


# bits draws _BLOCK words at a time: sizes at and around the window edges
BLOCK_EDGES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 3000), seed=SEEDS)
@example(n=BLOCK_EDGES[0], seed=0)
@example(n=BLOCK_EDGES[1], seed=MASK64)
@example(n=BLOCK_EDGES[2], seed=3)
@example(n=BLOCK_EDGES[3], seed=2**70 - 1)
def test_bits_are_successive_getrandbits(n, seed):
    reference = random.Random(seed & MASK64)
    assert Rng(seed).bits(n).tolist() == [reference.getrandbits(1) for _ in range(n)]


CALLS = st.tuples(st.sampled_from(["bits", "shuffle"]),
                  st.one_of(st.integers(0, 1500), st.sampled_from(EDGE_SIZES)))


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(CALLS, min_size=1, max_size=5), seed=SEEDS)
@example(calls=[("bits", n) for n in BLOCK_EDGES], seed=7)
@example(calls=[("bits", BLOCK_EDGES[3]), ("shuffle", 1027), ("bits", BLOCK_EDGES[0]),
                ("shuffle", 300), ("bits", BLOCK_EDGES[2])], seed=MASK64)
def test_stream_continues_where_the_stdlib_would(calls, seed):
    # after every call the generator sits where the stdlib's does after the same calls
    rng, reference = Rng(seed), random.Random(seed & MASK64)
    for kind, n in calls:
        if kind == "bits":
            assert rng.bits(n).tolist() == [reference.getrandbits(1) for _ in range(n)]
        else:
            order = list(range(n))
            reference.shuffle(order)
            assert rng.shuffle(n).tolist() == order
    assert rng._random.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# differential: the swap applier against a plain swap loop, on any valid partners.
# Stdlib draws never build deep writer chains; these partners do.


def swapped(partner):
    x = list(range(len(partner)))
    for i in reversed(range(len(partner))):
        p = partner[i]
        x[i], x[p] = x[p], x[i]
    return x


def check_swaps(partner):
    out = _apply_swaps(np.array(partner, dtype="<i8"))
    assert out.dtype == np.int32
    assert out.tolist() == swapped(partner)


# a partner list is built from runs of one kind each: every step from some i on swaps
# with slot 0, with itself, with slot i - 1, or with a uniform slot of 0..i
RUNS = st.lists(st.tuples(st.sampled_from(["zero", "self", "chain", "uniform"]),
                          st.integers(1, 600), st.integers(0, 2**32)), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(runs=RUNS)
def test_apply_swaps_matches_swap_loop(runs):
    partner = []
    for kind, length, seed in runs:
        draw = random.Random(seed).randint
        for i in range(len(partner), min(len(partner) + length, 3000)):
            partner.append(draw(0, i) if kind == "uniform" else
                           {"zero": 0, "self": i, "chain": max(i - 1, 0)}[kind])
    check_swaps(partner)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 3000, 2 * _BLOCK + 3])
@pytest.mark.parametrize("kind", ["zero", "self", "chain"])
def test_apply_swaps_fixed_partners(kind, n):
    # chain: partner[i] = i - 1, whose pointer jumping takes about log2 n rounds;
    # past 2 * _BLOCK its links cross the blocks each jumping round reads
    partner = {"zero": [0] * n, "self": list(range(n)),
               "chain": [max(i - 1, 0) for i in range(n)]}[kind]
    check_swaps(partner)
