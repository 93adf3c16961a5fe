"""±1 embedding codes over grayscale covers, with one extractor.

Two code families share one config and framing contract:

- "lsbm": per-pixel ±1 matching. A pixel is left alone when its LSB already
  equals the message bit, otherwise it is stepped up or down.
- "lsbmr": pixel pairs carry two bits with at most one ±1 change per pair;
  the first bit is the first pixel's LSB, the second is the pair function
  f_pair of both values.

Every free up-or-down choice follows one rule: saturated pixels step
inward; otherwise the "_improved" variants take the README's 3x3 vote,
which steps the pixel toward its neighbors closer than T, and a step the
vote leaves open, like every baseline step, takes the next coin. Neighbors
are read from the live, partially embedded raster, so earlier-visited pixels
vote with their post-change values. The variants write the same code, so
extract decodes every method of a family.

The changes are settled in runs: maximal stretches of the visiting order
in which no free change neighbors an earlier change of its run other than
the change planned just before it. A run votes on arrays against the raster
as it stood before it, except that a chained change, one next to the change
just before it in its run (in raster order, its left neighbor), counts that
change's new value: a fixed one, or whichever of a free step's -1 and +1
one scan in visiting order finds taken. So a raster-order run is about one
image row. At T <= 1 every vote ties: the baselines (T = 0) are one run.

The raster has a one-pixel border of -1024, so the vote reads eight fixed
offsets with no bounds checks. T is capped at 256: real neighbors differ
by at most 255, so every T >= 256 admits all of them and no border pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import FRAME_BITS, CapacityError, FramingError, frame_bits, frame_length
from .image import GrayImage, traversal_order
from .rng import Rng

METHODS = ("lsbm", "lsbmr", "lsbm_improved", "lsbmr_improved")
TRAVERSALS = ("raster", "permuted")

DEFAULT_THRESHOLD = 4


@dataclass
class EmbedConfig:
    """Everything sender and receiver must share: method, seed, traversal.

    threshold is the neighbor-difference bound used only by the improved
    methods.
    """

    method: str
    threshold: int = DEFAULT_THRESHOLD
    seed: int = 0
    traversal: str = "raster"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")
        if self.traversal not in TRAVERSALS:
            raise ValueError(f"traversal must be one of {TRAVERSALS}, got {self.traversal!r}")


def f_pair(y1, y2):
    """Binary pair function: LSB(floor(y1 / 2) + y2); also works on uint8 arrays."""
    return ((y1 >> 1) + y2) & 1


_BORDER = -1024  # differs from every pixel value 0..255 by at least 1024


def _bordered(pixels: np.ndarray) -> np.ndarray:
    """The raster as a flat int16 array with a one-pixel border of _BORDER, row stride width + 2."""
    return np.pad(pixels.astype(np.int16), 1, constant_values=_BORDER).ravel()


def _coins(seed: int, n: int) -> np.ndarray:
    """The first n coin steps of a seed's coin stream: +1 for a 1 bit, -1 for a 0."""
    return Rng(seed).bits(n).astype(np.int8) * 2 - 1


_FREE = -1  # plan marker: the pixel takes a free ±1 step


def _read(values: np.ndarray, pairwise: bool) -> np.ndarray:
    """The bits visited values carry: each LSB, or per whole pair LSB(y1) then f_pair(y1, y2)."""
    bits = values[: 2 * (len(values) // 2) if pairwise else len(values)] & 1
    if pairwise:
        bits[1::2] = f_pair(values[0 : len(bits) : 2], values[1::2])
    return bits


def _plan(order: np.ndarray, values: np.ndarray, framed: np.ndarray,
          pairwise: bool) -> tuple[np.ndarray, np.ndarray]:
    """The pixels the code changes, in visiting order, and their new values.

    values are the cover values at order, a whole number of pairs if
    pairwise. A new value of _FREE marks a free ±1 step, which saturation,
    the vote or a coin decides.
    """
    moved = _read(values, pairwise) != framed  # lsbm: every wrong LSB takes a free step
    new = np.full(len(order), _FREE, dtype=np.int16)
    if pairwise:
        y1, y2 = values[0::2].astype(np.int16), values[1::2].astype(np.int16)
        s2, y1_steps = framed[1::2], moved[0::2]
        # s1 needs a y1 step: take the candidate whose pair function matches s2
        down = y1_steps & (y1 > 0) & (f_pair(y1 - 1, y2) == s2)
        up = y1_steps & ~down & (y1 < 255) & (f_pair(y1 + 1, y2) == s2)
        # saturated y1 whose required candidate is out of range: step inward
        # (flipping the pair function) and step y2 to flip it back
        fallback = y1_steps & ~down & ~up
        new[0::2] = y1 - down + up + fallback * np.where(y1 == 0, 1, -1)
        # the free branch: y1 already carries s1 and either y2 step re-encodes s2
        moved[1::2] = (~y1_steps & moved[1::2]) | fallback
    i = np.flatnonzero(moved)  # gathers by position beat two boolean-mask gathers
    return order[i], new[i]


def embed(cover: GrayImage, message: Sequence[int], config: EmbedConfig) -> GrayImage:
    """Embed message bits with the method named in the config.

    The changes are planned on whole arrays; only the free steps' directions
    are left open. Coins come from one draw of Rng(seed), one per coin-decided
    step in visiting order. The free steps are settled in runs (see the module
    docstring): one run at T <= 1, about one image row per run in raster
    order.
    """
    return _embed(cover, frame_bits(message), config,
                  traversal_order(cover, config.traversal, config.seed))


def _embed(cover: GrayImage, framed: np.ndarray, config: EmbedConfig,
           order: np.ndarray) -> GrayImage:
    """embed, given the framed bits and the config's full traversal order; writes neither."""
    pairwise = config.method.startswith("lsbmr")
    capacity = 2 * (cover.n_pixels // 2) if pairwise else cover.n_pixels
    if len(framed) > capacity:
        raise CapacityError(
            f"framed message of {len(framed)} bits exceeds capacity {capacity} "
            f"({cover.width}x{cover.height} cover)"
        )
    if pairwise and len(framed) & 1:
        framed = np.append(framed, np.uint8(0))  # pad to a whole pair; the frame length ignores it
    order = order[: len(framed)]
    pixels, new = _plan(order, cover.pixels.ravel()[order], framed, pairwise)
    t = min(config.threshold, 256) if config.method.endswith("_improved") else 0
    return _settle(cover, pixels, new, config.seed, t)


def _runs(at: np.ndarray, free: np.ndarray, around: np.ndarray, size: int) -> list[int]:
    """Where each run of the changes at `at` starts, then len(at).

    A free change starts a run when it neighbors a change of the current run
    other than the one planned just before it. around are the offsets a vote
    reads in a raster of `size` pixels.
    """
    n, fi = len(at), np.flatnonzero(free).astype(np.int32)
    dep = np.full(len(fi), -1, dtype=np.int32)  # latest earlier neighboring change but i - 1
    if len(around):
        visit = np.full(size, -1, dtype=np.int32)
        visit[at] = np.arange(n, dtype=np.int32)
        q = at[free]
        for offset in around.tolist():
            seen = visit[q + offset]
            np.maximum(dep, seen, out=dep, where=seen < fi - 1)
    reach = np.maximum.accumulate(dep)  # sorted: the first dep >= s reads the run at s
    starts = [0]
    while starts[-1] < n:
        j = int(reach.searchsorted(np.int32(starts[-1])))  # a Python int would copy reach
        starts.append(int(fi[j]) if j < len(fi) else n)
    return starts


def _pull(d: np.ndarray, t: int) -> np.ndarray:
    """sign(d) where |d| < t, for d = c - n: voter n's half of the README vote's up minus down sum.

    Voter n adds |d - 1| to the down sum and |d + 1| to the up sum, and
    |d - 1| - |d + 1| = -2 sign(d): a negative summed pull steps c up.
    """
    return np.sign(d) * ((d > -t) & (d < t))


def _settle(cover: GrayImage, pixels: np.ndarray, new: np.ndarray, seed: int, t: int) -> GrayImage:
    """The cover with the planned changes made; t (at most 256) is the vote threshold.

    Each free step follows the README rule: a saturated pixel steps inward,
    the vote (its neighbors' summed _pull) takes the step with the smaller
    sum, and a tie or an empty mask takes the next coin. A run (see _runs)
    votes with one gather; chained changes then vote on arrays, and by one
    scan where a free predecessor's step decides.
    """
    w, stride = cover.width, cover.width + 2
    out = _bordered(cover.pixels)
    # pixel y * w + x sits at (y + 1) * (w + 2) + x + 1 in the bordered raster
    at = (pixels + 2 * (pixels // w) + w + 3).astype(np.int32)
    free = new == _FREE
    coins = _coins(seed, int(np.count_nonzero(free)))
    around = np.array([-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1]
                      if t > 1 else [], dtype=np.int32)  # at T <= 1 every vote ties
    linked = np.zeros(len(at), dtype=bool)  # a free change next to the change before it
    if t > 1:  # neighbors sit 1, stride - 1, stride or stride + 1 apart
        gap = np.abs(np.diff(at))
        linked[1:] = free[1:] & ((gap == 1) | (np.abs(gap - stride) <= 1))
    starts = _runs(at, free, around, len(out))
    # each run votes on the raster as it stood before the run, then writes. A
    # chained change neighbors the change planned just before it, in its run:
    # its vote takes that change's new value, or both candidates if it is free
    linked[starts[:-1]] = False  # a run's first change reads its predecessor as written
    used = 0
    chains = np.logical_or.reduceat(linked, starts[:-1]).tolist()  # the runs with chained changes
    for a, b, chain in zip(starts, starts[1:], chains):
        q = at[a:b][free[a:b]]
        c = out[q]
        score = _pull(c[:, None] - out[q[:, None] + around], t).sum(axis=1)
        score[c == 0] = -9  # saturated pixels step inward: eight voters never outweigh 9
        score[c == 255] = 9
        step = -np.sign(score)
        tie = step == 0
        if chain:
            i = a + free[a:b].nonzero()[0]
            chained = linked[i].nonzero()[0]
            prev, cc = i[chained] - 1, c[chained]
            was = out[at[prev]]
            rest = score[chained] - _pull(cc - was, t)  # the predecessor as it stood
            known = new[prev][:, None]  # its new value: fixed, or after a -1 and after a +1 step
            after = np.where(known == _FREE, was[:, None] + [-1, 1], known)
            down, up = -np.sign(rest[:, None] + _pull(cc[:, None] - after, t)).T
            step[chained], tie[chained] = down, (down == 0) & (up == 0)
            scan = (down != up).nonzero()[0]  # the predecessor's step decides
            if len(scan):  # a tie takes the coin after all the run's earlier ties
                s, before = step.tolist(), (np.cumsum(tie) - tie).tolist()  # ties found above
                flips, extra = coins[used : used + len(q)].tolist(), 0  # extra: ties found here
                for j, d, u in zip(chained[scan].tolist(), down[scan].tolist(), up[scan].tolist()):
                    # free change j - 1 is settled, by now; a tie above takes its coin here
                    s[j] = u if (s[j - 1] or flips[before[j - 1] + extra]) > 0 else d
                    if not s[j]:
                        s[j], tie[j] = flips[before[j] + extra], True
                        extra += 1
                step = np.array(s)
        tie = tie.nonzero()[0]
        step[tie] = coins[used : used + len(tie)]
        used += len(tie)
        out[at[a:b]] = new[a:b]  # the free ones are overwritten next
        out[q] = c + step
    return GrayImage(out.reshape(-1, stride)[1:-1, 1:-1].astype(np.uint8))


def extract(stego: GrayImage, config: EmbedConfig) -> np.ndarray:
    """Read back the payload under the shared seed and traversal.

    _read gives the bits the visited pixels carry: lsbm reads each LSB,
    lsbmr reads LSB(y1) and f_pair(y1, y2) per pair. The 32-bit frame then
    says how many payload bits follow; they come back as a uint8 array.
    """
    order = traversal_order(stego, config.traversal, config.seed)
    bits = _read(stego.pixels.ravel()[order], config.method.startswith("lsbmr"))
    declared = frame_length(bits[:FRAME_BITS])
    if FRAME_BITS + declared > len(bits):
        raise FramingError(
            f"declared payload of {declared} bits exceeds the {len(bits) - FRAME_BITS} available"
        )
    return bits[FRAME_BITS : FRAME_BITS + declared]
