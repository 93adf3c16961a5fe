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
Plans of several covers (a benchmark cell's images) settle together, run r
of each in pass r, with each cover's own coins: the same bytes as one by one.
Each pixel is written once, by its own change, so only the neighbor gather
reads what earlier runs wrote; the rest of every vote is known up front.

Each raster has a one-pixel border of -1024, so the vote reads eight fixed
offsets with no bounds checks and never across stacked rasters. T is capped
at 256: real neighbors differ by at most 255, so every T >= 256 admits all
of them and no border pixel.
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


def _stack(covers: Sequence[GrayImage]) -> np.ndarray:
    """The covers as int16 blocks of one shape, bordered by _BORDER and padded to the largest."""
    h, w = max(cover.height for cover in covers) + 2, max(cover.width for cover in covers) + 2
    stack = np.full((len(covers), h, w), _BORDER, dtype=np.int16)
    for block, cover in zip(stack, covers):
        block[1 : cover.height + 1, 1 : cover.width + 1] = cover.pixels
    return stack


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
    job = _job(cover, frame_bits(message), config,
               traversal_order(cover, config.traversal, config.seed))
    return _settle([job], _threshold(config))[0]


def _capacity(cover: GrayImage, n_framed: int, pairwise: bool) -> None:
    capacity = 2 * (cover.n_pixels // 2) if pairwise else cover.n_pixels
    if n_framed > capacity:
        raise CapacityError(f"framed message of {n_framed} bits exceeds capacity {capacity} "
                            f"({cover.width}x{cover.height} cover)")


def _job(cover: GrayImage, framed: np.ndarray, config: EmbedConfig, order: np.ndarray) -> tuple:
    """embed's _settle job (cover, pixels, new, coin seed), given the framed bits and full order."""
    pairwise = config.method.startswith("lsbmr")
    _capacity(cover, len(framed), pairwise)
    if pairwise and len(framed) & 1:
        framed = np.append(framed, np.uint8(0))  # pad to a whole pair; the frame length ignores it
    order = order[: len(framed)]
    return cover, *_plan(order, cover.pixels.ravel()[order], framed, pairwise), config.seed


def _threshold(config: EmbedConfig) -> int:
    """_settle's vote threshold: the config's, capped at 256, for the improved methods; else 0."""
    return min(config.threshold, 256) if config.method.endswith("_improved") else 0


def _runs(at: np.ndarray, fi: np.ndarray, around: np.ndarray, size: int, ends: list) -> list[int]:
    """Where each run of the changes at `at` starts, then len(at); job g's changes end at ends[g].

    fi are the free changes' indices into at. A job's first change starts a
    run, and so does a free change that neighbors a change of the current run
    other than the one planned just before it. around are the offsets a vote
    reads in a raster of `size` pixels.
    """
    dep = np.full(len(fi), -1, dtype=np.int32)  # latest earlier neighboring change but i - 1
    if len(around):
        visit = np.full(size, -1, dtype=np.int32)
        visit[at] = np.arange(len(at), dtype=np.int32)
        q, last = at[fi], fi - 1
        for offset in around.tolist():
            seen = visit.take(q + offset)
            np.maximum(dep, seen, out=dep, where=seen < last)
    reach = np.maximum.accumulate(dep)  # sorted: the first dep >= s reads the run at s
    starts = [0]
    for end in ends:  # an earlier job's deps all sit before this job's first change
        while starts[-1] < end:
            j = int(reach.searchsorted(np.int32(starts[-1])))  # a Python int would copy reach
            starts.append(min(int(fi[j]), end) if j < len(fi) else end)
    return starts


def _pull(d: np.ndarray, t: int) -> np.ndarray:
    """sign(d) where |d| < t, for d = c - n: voter n's half of the README vote's up minus down sum.

    Voter n adds |d - 1| to the down sum and |d + 1| to the up sum, and
    |d - 1| - |d + 1| = -2 sign(d): a negative summed pull steps c up.
    """
    return np.sign(d) * ((d > -t) & (d < t))


def _pulls(t: int) -> np.ndarray:
    """_pull(d, t) at index d + 256, for every d = c - n a vote meets: n is _BORDER or -1..256."""
    return _pull(np.arange(-256, 1280, dtype=np.int16), t)


def _settle(jobs: Sequence[tuple], t: int) -> list[GrayImage]:
    """Each job's cover with its planned changes made; t (at most 256) is the vote threshold.

    A job is _job's (cover, pixels, new, coin seed). The covers are settled
    together on their _stack. Each free step follows the README rule: a
    saturated pixel steps inward, the vote (its neighbors' summed _pull) takes
    the step with the smaller sum, and a tie or an empty mask takes its job's
    next coin. Pass r settles run r (see _runs) of every job: one gather reads
    what earlier passes wrote, chained changes add the swing of their
    predecessor's step, and one scan per job settles those whose predecessor's
    step decides. Cover values, free changes, swings and pass bounds are fixed
    for the call (see the module docstring): found once.
    """
    stack = _stack([cover for cover, *_ in jobs])
    stride, block = stack.shape[2], stack[0].size  # job g's block starts at g * block
    out, ends = stack.ravel(), np.cumsum([len(p) for _, p, _, _ in jobs]).tolist()
    # pixel y * w + x of job g sits at g * block + (y + 1) * stride + x + 1
    at = np.concatenate([p + (stride - cover.width) * (p // cover.width) + g * block + stride + 1
                         for g, (cover, p, _, _) in enumerate(jobs)], dtype=np.int32)
    new = np.concatenate([n for _, _, n, _ in jobs])
    free = new == _FREE
    fi = np.flatnonzero(free).astype(np.int32)
    nxt = np.searchsorted(fi, [0] + ends).tolist()  # each job's next coin, then the coin count
    coins = np.concatenate([_coins(seed, b - a) for (*_, seed), a, b in zip(jobs, nxt, nxt[1:])])
    around = np.array([-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1]
                      if t > 1 else [], dtype=np.int32)  # at T <= 1 every vote ties
    linked = np.zeros(len(at), dtype=bool)  # a free change next to the change before it
    if t > 1:  # neighbors sit 1, stride - 1, stride or stride + 1 apart
        gap = np.abs(np.diff(at))
        linked[1:] = free[1:] & ((gap == 1) | (np.abs(gap - stride) <= 1))
    starts = _runs(at, fi, around, len(out), ends)
    # each run votes on the raster as it stood before the run, then writes. A
    # chained change neighbors the change planned just before it, in its run:
    # its vote takes that change's new value, or both candidates if it is free
    linked[starts[:-1]] = False  # a run's first change reads its predecessor as written
    if len(jobs) > 1:  # number each change's run in its job; pass r is then one slice, job-major
        run = np.repeat(np.arange(len(starts) - 1, dtype=np.int32), np.diff(starts))
        run -= np.repeat(np.searchsorted(starts, [0] + ends[:-1]), np.diff([0] + ends))
        order = np.argsort(run, kind="stable")
        at, new, linked = at[order], new[order], linked[order]
        fi = np.flatnonzero(new == _FREE).astype(np.int32)
        starts = [0] + np.cumsum(np.bincount(run)).tolist()  # where each pass starts
    # pass r's free changes are fi[fs[r]:fs[r + 1]], its chained ones li[cs[r]:cs[r + 1]]
    li, pulls = np.flatnonzero(linked).astype(np.int32), _pulls(t)
    fq, fs, cs = at[fi], np.searchsorted(fi, starts).tolist(), np.searchsorted(li, starts).tolist()
    fc, cc, was, known = out[fq], out[at[li]], out[at[li - 1]], new[li - 1]  # li - 1: predecessors
    bias = np.zeros(len(fc), dtype=np.int16)  # saturated pixels step inward: eight pulls
    bias[fc == 0], bias[fc == 255] = -16, 16  # and a swing never outweigh 16
    steps = np.array([[-1], [1]], dtype=np.int16)  # a free predecessor's two steps
    after = np.where(known == _FREE, was + steps, known)  # fixed, or after -1 and +1
    swing = pulls[cc - after + 256] - pulls[cc - was + 256]  # its pull after, less as it stood
    # the chained ones among the free; intp, as numpy casts an int32 index at each use
    ci = np.flatnonzero(linked[fi]) if len(li) else li
    for a, b, fa, fb, ca, cb in zip(starts, starts[1:], fs, fs[1:], cs, cs[1:]):
        q, c = fq[fa:fb], fc[fa:fb]
        score = pulls.take(c + 256 - out.take(q + around[:, None])).sum(axis=0) + bias[fa:fb]
        step, tie = -np.sign(score), score == 0
        g = q // block if len(jobs) > 1 else None  # each free change's job
        if ca < cb:
            chained = ci[ca:cb] - fa
            down, up = -np.sign(score[chained] + swing[:, ca:cb])
            step[chained], tie[chained] = down, (down == 0) & (up == 0)
            scan = (down != up).nonzero()[0]  # the predecessor's step decides
            if len(scan):  # a tie takes the coin after all its job's earlier ties in the pass
                js, before, cuts = chained[scan], np.cumsum(tie) - tie, [0, len(scan)]
                if g is not None:  # count a job's ties from its first free change in the pass
                    before -= before[np.searchsorted(g, g)]
                    cuts[1:1] = (np.flatnonzero(np.diff(g[js])) + 1).tolist()
                s, before, js = step.tolist(), before.tolist(), js.tolist()  # before: ties above
                ds, us = down[scan].tolist(), up[scan].tolist()
                for x, y in zip(cuts, cuts[1:]):  # one job's scan; extra: ties found here
                    k = 0 if g is None else g[js[x]]
                    flips, extra = coins[nxt[k] : nxt[k] + js[y - 1] + 1].tolist(), 0
                    for j, d, u in zip(js[x:y], ds[x:y], us[x:y]):
                        # free change j - 1 is settled, by now; a tie above takes its coin here
                        s[j] = u if (s[j - 1] or flips[before[j - 1] + extra]) > 0 else d
                        if not s[j]:
                            s[j], tie[j] = flips[before[j] + extra], True
                            extra += 1
                step[js] = [s[j] for j in js]
        tie = tie.nonzero()[0]
        if g is None:  # the one job's next coins
            step[tie] = coins[nxt[0] : nxt[0] + len(tie)]
            nxt[0] += len(tie)
        else:  # the n-th tie of a job in this pass takes its n-th next coin
            g, nxt = g[tie], np.array(nxt)
            step[tie] = coins[nxt[g] + np.arange(len(tie)) - np.searchsorted(g, g)]
            nxt = (nxt + np.bincount(g, minlength=len(nxt))).tolist()
        if fb - fa < b - a:  # the pass has fixed changes; its free ones are overwritten next
            out[at[a:b]] = new[a:b]
        out[q] = c + step
    return [GrayImage(raster[1 : cover.height + 1, 1 : cover.width + 1].astype(np.uint8))
            for (cover, *_), raster in zip(jobs, stack)]


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
