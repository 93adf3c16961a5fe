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
Plans of several covers (a benchmark chunk's images, in every cell of one
threshold) settle together, with each plan's own coins: the same bytes as
one by one. The run search finds run r of every plan at step r: row r of its
grid of run starts, a column per plan, is pass r, job-major.
Each pixel is written once, by its own change, so only the neighbor gather
reads what earlier runs wrote; the rest of every vote is known up front.

Each raster has a one-pixel border of -1024, so the vote reads eight fixed
offsets with no bounds checks and never across stacked rasters. T is capped
at 256: real neighbors differ by at most 255, so every T >= 256 admits all
of them and no border pixel.

Stack positions are int32 (a stack holds fewer than 2**31 pixels); |score|
<= 8 pulls + 16 of saturation bias + a swing of 2, so pulls, scores, steps
and coins are int8; the run search gathers a block of free changes at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import FRAME_BITS, CapacityError, FramingError, frame_bits, frame_length
from .image import GrayImage, traversal_order
from .rng import _BLOCK, Rng

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
    if len(covers) * h * w >= 2**31:  # _settle's positions are int32
        raise ValueError(f"{len(covers)} blocks of {w}x{h} pixels exceed one settle's 2**31")
    stack = np.full((len(covers), h, w), _BORDER, dtype=np.int16)
    for block, cover in zip(stack, covers):
        block[1 : cover.height + 1, 1 : cover.width + 1] = cover.pixels
    return stack


def _coins(seed: int, n: int) -> np.ndarray:
    """The first n coin steps of a seed's coin stream, as int8: +1 for a 1 bit, -1 for a 0."""
    return Rng(seed).bits(n).view(np.int8) * 2 - 1


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


def _runs(at: np.ndarray, fi: np.ndarray, around: np.ndarray, size: int, ends: list) -> np.ndarray:
    """Each job's run starts in the changes at `at`, a column each; job g's changes end at ends[g].

    fi are the free changes' indices into at. A job's first change starts a
    run, and so does a free change that neighbors a change of the current run
    other than the one planned just before it. around are the eight offsets a
    vote reads at T > 1, in a raster of `size` pixels; they are read a block of
    free changes at a time. The jobs' runs are found in lockstep: int32 row r
    holds run r's start of every job (pass r, job-major), or ends[g] once job
    g has no run r, so a batch takes as many rows as its most runs, then ends.
    """
    dep = np.full(len(fi), -1, dtype=np.int32)  # latest earlier neighboring change but i - 1
    visit = np.full(size, -1, dtype=np.int32)
    visit[at] = np.arange(len(at), dtype=np.int32)
    low = -int(around.min())
    for a in range(0, len(fi), _BLOCK):  # block by block, so no temporary scales with fi
        # each offset reads visit shifted by it, at q: intp, which take need not cast
        last, d = fi[a : a + _BLOCK] - 1, dep[a : a + _BLOCK]
        q = at[fi[a : a + _BLOCK]].astype(np.intp)
        q -= low
        for offset in around.tolist():
            seen = visit[low + offset :].take(q)
            np.maximum(d, np.where(seen < last, seen, -1), out=d)  # np.maximum(where=) is slower
    del visit
    reach = np.maximum.accumulate(dep, out=dep)  # sorted: the first dep >= s reads the run at s
    after = np.concatenate((fi, [len(at)]), dtype=np.int32)  # the change a search finds, or the end
    stop = np.array(ends, dtype=np.int32)
    # each job's first change, then its next run start: an earlier job's deps all
    # sit before this job's first change, so a search from it finds this job's own
    grid = [np.array([0] + ends[:-1], dtype=np.int32)]
    while grid[-1].tolist() < ends:  # a job short of its end (none is past it, so list order tells)
        grid.append(np.minimum(after.take(reach.searchsorted(grid[-1])), stop))
    return np.array(grid)


def _pull(d: np.ndarray, t: int) -> np.ndarray:
    """sign(d) where |d| < t, for d = c - n: voter n's half of the README vote's up minus down sum.

    Voter n adds |d - 1| to the down sum and |d + 1| to the up sum, and
    |d - 1| - |d + 1| = -2 sign(d): a negative summed pull steps c up.
    """
    return np.sign(d) * ((d > -t) & (d < t))


def _pulls(t: int) -> np.ndarray:
    """_pull(d, t) as int8, at d + 256 for every d = c - n a vote meets: n is _BORDER or -1..256."""
    return _pull(np.arange(-256, 1280, dtype=np.int16), t).astype(np.int8)


def _settle(jobs: Sequence[tuple], t: int) -> list[GrayImage]:
    """Each job's cover with its planned changes made; t (at most 256) is the vote threshold.

    A job is _job's (cover, pixels, new, coin seed). The covers are settled
    together on their _stack. Each free step follows the README rule: a
    saturated pixel steps inward, the vote (its neighbors' summed _pull) takes
    the step with the smaller sum, and a tie or an empty mask takes its job's
    next coin; the jobs of one seed read one draw, as long as the hungriest
    needs. Pass r settles _runs' grid row r, job-major: one gather reads
    what earlier passes wrote, chained changes add the swing of their
    predecessor's step, and one scan per job settles those whose predecessor's
    step decides. At T <= 1 every job is one run, so one pass settles them all.
    Cover values, free changes, swings and pass bounds are fixed for the call
    (see the module docstring): found once. Each temporary goes after its last use.
    """
    stack = _stack([cover for cover, *_ in jobs])
    stride, block = stack.shape[2], stack[0].size  # job g's block starts at g * block
    out, ends = stack.ravel(), np.cumsum([len(p) for _, p, _, _ in jobs]).tolist()
    # pixel y * w + x of job g sits at g * block + (y + 1) * stride + x + 1
    at = np.concatenate([p + (stride - cover.width) * (p // cover.width) + g * block + stride + 1
                         for g, (cover, p, _, _) in enumerate(jobs)], dtype=np.int32)
    new = np.concatenate([n for _, _, n, _ in jobs])
    fi = np.flatnonzero(new == _FREE).astype(np.int32)
    # each job's next coin, then the coin count (int32 keys: wider ones copy fi to int64)
    nxt = np.searchsorted(fi, np.array([0] + ends, dtype=np.int32)).tolist()
    most = {}  # jobs of one seed slice one draw: bits(n) is a prefix of bits(m)
    for (*_, seed), a, b in zip(jobs, nxt, nxt[1:]):
        most[seed] = max(most.get(seed, 0), b - a)
    drawn = {seed: _coins(seed, n) for seed, n in most.items()}
    coins = np.concatenate([drawn[seed][: b - a] for (*_, seed), a, b in zip(jobs, nxt, nxt[1:])])
    del drawn
    around = np.array([-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1]
                      if t > 1 else [], dtype=np.int32)  # at T <= 1 every vote ties
    linked = np.zeros(len(at), dtype=bool)  # a free change next to the change before it
    starts = [0, len(at)]  # at T <= 1 every job is one run, so one pass settles them all
    if t > 1:  # neighbors sit 1, stride - 1, stride or stride + 1 apart
        gap = np.abs(np.diff(at))
        linked[1:] = (new[1:] == _FREE) & ((gap == 1) | (np.abs(gap - stride) <= 1))
        del gap
        grid = _runs(at, fi, around, len(out), ends)
        size = np.diff(grid, axis=0)  # each job's run r, or 0 once it has no run r
        # each run votes on the raster as it stood before the run, then writes. A
        # chained change neighbors the change planned just before it, in its run:
        # its vote takes that change's new value, or both candidates if it is free
        linked[grid[:-1][size > 0]] = False  # a run's first change reads its predecessor as written
        starts = [0] + size.sum(1).cumsum().tolist()  # pass r is row r's runs, job-major
        if len(jobs) > 1:  # gather the runs into pass order: each change follows its run
            size = size.ravel()
            order = np.repeat(grid[:-1].ravel() - np.cumsum(size, dtype=np.int32) + size, size)
            order += np.arange(len(at), dtype=np.int32)
            at, new, linked = at[order], new[order], linked[order]
            fi = np.flatnonzero(new == _FREE).astype(np.int32)
    # pass r's free changes are fi[fs[r]:fs[r + 1]], its chained ones li[cs[r]:cs[r + 1]]
    fq, li, pulls = at[fi], np.flatnonzero(linked).astype(np.int32), _pulls(t)
    bounds = np.array(starts, dtype=np.int32)  # int32 keys, as for nxt
    fs, cs = np.searchsorted(fi, bounds).tolist(), np.searchsorted(li, bounds).tolist()
    fc, cc, was, known = out[fq], out[at[li]], out[at[li - 1]], new[li - 1]  # li - 1: predecessors
    bias = np.zeros(len(fc), dtype=np.int8)  # saturated pixels step inward: eight pulls
    bias[fc == 0], bias[fc == 255] = -16, 16  # and a swing never outweigh 16
    steps = np.array([[-1], [1]], dtype=np.int16)  # a free predecessor's two steps
    after = np.where(known == _FREE, was + steps, known)  # fixed, or after -1 and +1
    swing = pulls[cc - after + 256] - pulls[cc - was + 256]  # its pull after, less as it stood
    del cc, was, known, after
    # the chained ones among the free; intp, as numpy casts an int32 index at each use
    ci = np.flatnonzero(linked[fi]) if len(li) else li
    del linked
    for a, b, fa, fb, ca, cb in zip(starts, starts[1:], fs, fs[1:], cs, cs[1:]):
        q, c = fq[fa:fb], fc[fa:fb]
        score = pulls.take(c + 256 - out.take(q + around[:, None])).sum(0, np.int8) + bias[fa:fb]
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
        if g is None:  # the one job's next coins, in mask order
            ties = np.count_nonzero(tie)
            step[tie] = coins[nxt[0] : nxt[0] + ties]
            nxt[0] += ties
        else:  # the n-th tie of a job in this pass takes its n-th next coin
            tie = tie.nonzero()[0]
            per_job = np.bincount(g[tie], minlength=len(nxt))  # g is sorted: ties are job-major
            nxt = np.array(nxt)
            step[tie] = coins[np.repeat(nxt - np.cumsum(per_job) + per_job, per_job)
                              + np.arange(len(tie))]
            nxt = (nxt + per_job).tolist()
        if fb - fa < b - a:  # the pass has fixed changes; its free ones are overwritten next
            out[at[a:b]] = new[a:b]
        out[q] = c + step
    return [GrayImage(raster[1 : cover.height + 1, 1 : cover.width + 1].astype(np.uint8))
            for (cover, *_), raster in zip(jobs, stack)]


def extract(stego: GrayImage, config: EmbedConfig) -> np.ndarray:
    """Read back the payload under the shared seed and traversal.

    _read gives the bits the visited pixels carry: lsbm reads each LSB,
    lsbmr reads LSB(y1) and f_pair(y1, y2) per pair, so 32 pixels carry the
    32-bit frame in both families. The frame is read first and checked
    against the usable pixels (every pixel, or every whole pair); then only
    the framed prefix is read, up to a whole pair, and its payload bits come
    back as a uint8 array. Raster visits 0..N-1, so it reads in place;
    permuted gathers the whole visiting sequence once, in shuffled order.
    """
    pairwise = config.method.startswith("lsbmr")
    flat = stego.pixels.ravel()
    usable = 2 * (len(flat) // 2) if pairwise else len(flat)
    if config.traversal != "raster":
        flat = flat[traversal_order(stego, config.traversal, config.seed)]
    declared = frame_length(_read(flat[:FRAME_BITS], pairwise))
    k = FRAME_BITS + declared
    if k > usable:
        raise FramingError(
            f"declared payload of {declared} bits exceeds the {usable - FRAME_BITS} available"
        )
    return _read(flat[: k + 1], pairwise)[FRAME_BITS:k]  # _read keeps whole pairs
