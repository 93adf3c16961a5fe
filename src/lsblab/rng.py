"""Seeded random source: equal seeds give equal streams on every platform.

Rng(seed) spends the 32-bit words of random.Random(seed), the stdlib
Mersenne Twister, in exactly the order and the way the stdlib would, but on
whole arrays of words at once:

- bits(n) gives what n successive getrandbits(1) calls return: the top bit
  of each word, drawn _BLOCK words at a time into one uint8 array;
- shuffle(n) gives the order random.Random(seed).shuffle leaves
  list(range(n)) in. Its randrange(m) draws take the top m.bit_length()
  bits of a word and draw again while those are >= m. Most words of a window
  accept or reject whichever draw they serve; only the few unsure ones are
  settled one by one.

The generator alone holds the stream's position, and after every call it sits
where the stdlib's would, so a receiver with only the stdlib rebuilds each stream.
"""

from __future__ import annotations

import random

import numpy as np

_MASK64 = (1 << 64) - 1

_WINDOW = 4096  # the most words the draws read at once
_TAIL = 1024  # the last, smallest draws of a shuffle are taken one by one
_BLOCK = 1 << 13  # the most words bits draws, or int32 indices a take casts to intp, at once


class Rng:
    """Fair bits and shuffles from one 64-bit seed.

    All consumers that must agree (embedder and extractor) rebuild their own
    Rng from the shared seed; nothing is cached between instances.
    """

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed & _MASK64)

    def _words(self, n: int) -> np.ndarray:
        """The next n 32-bit outputs of the generator."""
        # getrandbits(32 * n) packs n successive words, the first one least significant
        raw = self._random.getrandbits(32 * n).to_bytes(4 * n, "little")
        return np.frombuffer(raw, dtype="<u4").astype(np.uint32, copy=False)

    def bits(self, n: int) -> np.ndarray:
        """n fair bits (uint8): successive getrandbits(1) values."""
        bits = np.empty(n, dtype=np.uint8)
        for a in range(0, n, _BLOCK):  # words(a) then words(b) are words(a + b)
            bits[a : a + _BLOCK] = self._words(min(_BLOCK, n - a)) >> 31
        return bits

    def shuffle(self, n: int) -> np.ndarray:
        """Fisher-Yates order of range(n) as int32, equal to the stdlib's shuffle.

        Step i (for i = n-1 down to 1) swaps slots i and j_i = randrange(i+1).
        Slot i is final after its step, so out[i] is the value slot j_i holds
        just before step i; out[0] is what slot 0 holds at the end.
        """
        if n < 2:
            return np.arange(n, dtype=np.int32)
        partner = np.zeros(n, dtype="<i8")  # partner[i] = j_i; slot 0 reads itself
        partner[1:] = self._draws(n)[::-1]
        return _apply_swaps(partner)

    def _draws(self, n: int) -> np.ndarray:
        """randrange(m) for m = n, n-1, ..., 2, drawn from the stream in that order.

        Bound m of bit length k takes r = word >> (32 - k). Word q of the words at hand
        serves bound m - a, a <= q being the words accepted before it, so r >= m rejects
        and r < m - q accepts, whatever a is. The few unsure words in between are settled
        in order. These r hold while the bound keeps k bits; the words after that span's
        last draw are carried to the next bound, and a window is read only when none is
        left. A window has no more words than draws left and each draw spends at least
        one, so no word is read past the last draw: the generator ends where the stdlib's
        does.
        """
        draws = np.empty(max(n - 1, 0), dtype=np.int32)
        t = 0
        words = np.empty(0, dtype=np.uint32)  # read but not yet spent
        while len(words) or n - 1 - t > _TAIL:
            m = n - t
            k = m.bit_length()
            if not len(words):
                # W words hold about W**2 / 2**(k+1) unsure ones: W grows as 2**(k/2)
                words = self._words(min(_WINDOW, 16 << (k // 2), m - 1))
            span = m + 1 - (1 << (k - 1))  # the bounds m down to 2**(k-1) keep k bits
            r = words >> (32 - k)
            reject = r >= m
            accept = r + np.arange(len(r), dtype=np.uint32) < m  # r < m - q
            unsure = np.flatnonzero(accept == reject)  # neither: m - q <= r < m
            sure_rejects = np.searchsorted(np.flatnonzero(reject), unsure).tolist()
            rejected = 0  # unsure words rejected so far
            for q, before, rq in zip(unsure.tolist(), sure_rejects, r[unsure].tolist()):
                a = q - before - rejected  # words accepted before word q
                if a >= span:
                    break  # the span's draws are taken before word q
                if rq < m - a:
                    accept[q] = True
                else:
                    rejected += 1
            taken = np.flatnonzero(accept)[:span]
            draws[t : t + len(taken)] = r[taken]
            t += len(taken)
            words = words[taken[-1] + 1 :] if len(taken) == span else words[:0]
        # the last draws reject often and change bound every step: one by one, by randrange's rule
        getrandbits, tail = self._random.getrandbits, []
        for m in range(n - t, 1, -1):
            k = m.bit_length()
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            tail.append(r)
        draws[t:] = tail
        return draws


def _apply_swaps(partner: np.ndarray) -> np.ndarray:
    """Apply the swaps (i, partner[i]) for i = n-1 down to 0 to range(n).

    The value slot p holds just before step i comes from the last earlier
    step that wrote p: the smallest step i' > i with partner[i'] == p, which
    moved in what slot i' held just before step i'. Following those links
    from slot to slot ends at a slot no step wrote in time, which still
    holds its own index.

    One in-place sort of the packed keys partner << 32 | step groups the steps
    by partner slot, each group in ascending step order; the packing is exact
    because every step and partner is below n < 2**31. partner ("<i8") holds
    the keys, then their steps and after them their partner slots, in that
    group order: a step's link is the next step of its group.
    """
    n = len(partner)
    partner <<= 32
    partner |= np.arange(n, dtype=np.int32)
    partner.sort()
    halves = partner.view("<i4")  # each key's step, then its partner slot
    grouped = halves[1::2].copy()
    halves[:n] = halves[0::2]
    halves[n:] = grouped
    steps, grouped = halves[:n], halves[n:]
    head = np.ones(n, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
    # writer[p]: the last step before step p that wrote slot p (the head of p's group),
    # or p itself if none did. A step i' writing slot p has i' > p, unless p swaps with
    # itself; such a p is never looked up, since the lookups below follow writes.
    writer = np.arange(n, dtype=np.int32)
    first = np.flatnonzero(head)
    writer[grouped.take(first)] = steps.take(first)
    del first, head
    # pointer jumping: writer[p] becomes the slot whose own index slot p holds before step p.
    # Every index is in range, so "clip" changes none: it skips take's bounds check and
    # the buffered out= copy "raise" makes, and each block's intp index copy is small
    while True:
        jumped = np.empty(n, dtype=np.int32)
        for a in range(0, n, _BLOCK):
            writer.take(writer[a : a + _BLOCK], out=jumped[a : a + _BLOCK], mode="clip")
        if np.array_equal(jumped, writer):
            break
        writer = jumped
    del jumped
    # sorted place k reads the write of the next step in its group, if any; else its
    # slot was not written before its step and still holds its own index, grouped[k]
    np.copyto(grouped[:-1], writer[steps[1:]], where=grouped[1:] == grouped[:-1])
    del writer
    out = np.empty(n, dtype=np.int32)
    out[steps] = grouped
    return out


def derive_seed(seed: int, *indices: int) -> int:
    """Mix indices into a master seed (splitmix64-style rounds).

    Pure 64-bit integer arithmetic, so derived child seeds (per image,
    per experiment cell, ...) are identical on every platform.
    """
    z = seed & _MASK64
    for k in indices:
        z = (z + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z
