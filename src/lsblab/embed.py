"""±1 embedding codes over grayscale covers, with one extractor.

Two code families share one config and framing contract:

- "lsbm": per-pixel ±1 matching. A pixel is left alone when its LSB already
  equals the message bit, otherwise it is stepped up or down.
- "lsbmr": pixel pairs carry two bits with at most one ±1 change per pair;
  the first bit is the first pixel's LSB, the second is the pair function
  f_pair of both values.

Every free up-or-down choice goes through one rule, _step: saturated pixels
step inward; otherwise the "_improved" variants ask neighbor_vote, which
steps the pixel toward its 3x3 neighbors, and the baselines flip a coin.
Neighbors are read from the live, partially embedded raster, so
earlier-visited pixels vote with their post-change values. The variants
write the same code, so extract decodes every method of a family.
"""

from __future__ import annotations

import math
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

    rate caps the framed message length at rate * pixel-count bits;
    threshold is the neighbor-difference bound used only by the improved
    methods.
    """

    method: str
    rate: float = 1.0
    threshold: int = DEFAULT_THRESHOLD
    seed: int = 0
    traversal: str = "raster"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")
        if self.traversal not in TRAVERSALS:
            raise ValueError(f"traversal must be one of {TRAVERSALS}, got {self.traversal!r}")


def f_pair(y1, y2):
    """Binary pair function: LSB(floor(y1 / 2) + y2); also works on uint8 arrays."""
    return ((y1 >> 1) + y2) & 1


def neighbor_vote(flat: list, width: int, height: int, idx: int, threshold: int) -> tuple[int, int]:
    """(sad_minus, sad_plus) for the pixel at flat index idx.

    Only in-bounds 3x3 neighbors strictly closer than `threshold` to the
    center vote; each sum adds the absolute differences between the voters
    and the center after a -1 or a +1 step.
    """
    c = flat[idx]
    x = idx % width
    y = idx // width
    sad_minus = 0
    sad_plus = 0
    for ny in (y - 1, y, y + 1):
        if 0 <= ny < height:
            row = ny * width
            for nx in (x - 1, x, x + 1):
                if (nx != x or ny != y) and 0 <= nx < width:
                    d = c - flat[row + nx]
                    if -threshold < d < threshold:
                        sad_minus += abs(d - 1)
                        sad_plus += abs(d + 1)
    return sad_minus, sad_plus


def _step(flat: list, width: int, height: int, idx: int, threshold: int, guided: bool,
          rng: Rng) -> int:
    """The ±1 step for a free choice at idx.

    Saturated pixels step inward. The guided rule takes the step with the
    smaller vote sum; an empty mask (both sums 0) or a tie falls back to a
    fair coin, so it degrades to the plain random step exactly where it has
    no information.
    """
    c = flat[idx]
    if c == 0:
        return 1
    if c == 255:
        return -1
    if guided:
        sad_minus, sad_plus = neighbor_vote(flat, width, height, idx, threshold)
        if sad_minus != sad_plus:
            return 1 if sad_plus < sad_minus else -1
    return rng.sign()


def rate_capacity(rate: float, n_pixels: int) -> int:
    """Bit budget at a payload rate; floor(rate * n) with float-noise guard."""
    return math.floor(rate * n_pixels + 1e-9)


def embed(cover: GrayImage, message: Sequence[int], config: EmbedConfig) -> GrayImage:
    """Embed message bits with the method named in the config."""
    pairwise = config.method.startswith("lsbmr")
    guided = config.method.endswith("_improved")
    framed = frame_bits(message)
    n = cover.n_pixels
    structural = 2 * (n // 2) if pairwise else n
    capacity = min(structural, rate_capacity(config.rate, n))
    if len(framed) > capacity:
        raise CapacityError(
            f"framed message of {len(framed)} bits exceeds capacity {capacity} "
            f"({cover.width}x{cover.height} cover at rate {config.rate:g})"
        )
    order = traversal_order(cover, config.traversal, Rng(config.seed))
    rng = Rng(config.seed)
    w, h, t = cover.width, cover.height, config.threshold
    flat = cover.pixels.ravel().tolist()
    if not pairwise:
        for idx, bit in zip(order, framed):
            v = flat[idx]
            if bit != (v & 1):
                flat[idx] = v + _step(flat, w, h, idx, t, guided, rng)
    else:
        if len(framed) & 1:
            framed.append(0)  # pad to a whole pair; the frame length ignores it
        pixels, bits = iter(order), iter(framed)  # zip(it, it) takes items two at a time
        for i1, i2, s1, s2 in zip(pixels, pixels, bits, bits):
            y1, y2 = flat[i1], flat[i2]
            if s1 == (y1 & 1):
                if s2 != f_pair(y1, y2):
                    # free branch: either y2 step re-encodes s2
                    flat[i2] = y2 + _step(flat, w, h, i2, t, guided, rng)
            # s1 needs a y1 step: take the candidate whose pair function matches s2
            elif y1 > 0 and f_pair(y1 - 1, y2) == s2:
                flat[i1] = y1 - 1
            elif y1 < 255 and f_pair(y1 + 1, y2) == s2:
                flat[i1] = y1 + 1
            else:
                # saturated y1 whose required candidate is out of range: step
                # inward (flipping the pair function) and step y2 to flip it back
                flat[i1] = 1 if y1 == 0 else 254
                flat[i2] = y2 + _step(flat, w, h, i2, t, guided, rng)
    return GrayImage(np.asarray(flat, dtype=np.uint8).reshape(cover.height, cover.width))


def extract(stego: GrayImage, config: EmbedConfig) -> list[int]:
    """Read back the payload under the shared seed and traversal.

    lsbm reads each visited pixel's LSB; lsbmr reads LSB(y1) and
    f_pair(y1, y2) per visited pair. The 32-bit frame then says how many
    payload bits follow.
    """
    order = traversal_order(stego, config.traversal, Rng(config.seed))
    values = stego.pixels.ravel()[order]
    if config.method.startswith("lsbmr"):
        m = len(values) // 2
        y1, y2 = values[0 : 2 * m : 2], values[1 : 2 * m : 2]
        bits = np.empty(2 * m, dtype=np.uint8)
        bits[0::2] = y1 & 1
        bits[1::2] = f_pair(y1, y2)
    else:
        bits = values & 1
    if len(bits) < FRAME_BITS:
        raise FramingError(f"carrier of {stego.n_pixels} pixels cannot hold the 32-bit prefix")
    declared = frame_length(bits[:FRAME_BITS])
    if FRAME_BITS + declared > len(bits):
        raise FramingError(
            f"declared payload of {declared} bits exceeds the {len(bits) - FRAME_BITS} available"
        )
    return bits[FRAME_BITS : FRAME_BITS + declared].tolist()
