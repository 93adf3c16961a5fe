"""Gray-level co-occurrence statistics and near-diagonal band energies.

A co-occurrence matrix for a displacement (dx, dy) counts, over all pixel
positions where both ends fall inside the image, how often gray level i
sits at (x, y) while gray level j sits at (x+dx, y+dy). Natural images
concentrate these counts on and near the main diagonal; the band-energy
features below measure that concentration as the share of pairs with
|i - j| = k. They count |a - b| per band and never build the matrix,
which only cooccurrence (behind `lsblab glcm`) does, and take one image
or a stack of rasters of one shape, which they featurize at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .image import GrayImage

Offset = tuple[int, int]

# default feature set: horizontal, vertical and both diagonals
DEFAULT_OFFSETS: tuple[Offset, ...] = ((1, 0), (0, 1), (1, 1), (-1, 1))

N_BANDS = 5  # |i - j| = 0 .. 4


def _pairs(pixels: np.ndarray, offset: Offset) -> tuple[np.ndarray, np.ndarray]:
    """The two ends of every in-bounds pixel pair at the displacement, over the last two axes.

    There is no wraparound or padding at the borders; the slice stops are
    clamped at 0, so a displacement at or beyond the image side has no pairs.
    """
    dx, dy = offset
    if dx == 0 and dy == 0:
        raise ValueError("offset (0, 0) pairs every pixel with itself")
    h, w = pixels.shape[-2:]
    a = pixels[..., max(0, -dy) : max(0, h - dy), max(0, -dx) : max(0, w - dx)]
    b = pixels[..., max(0, dy) : max(0, h + dy), max(0, dx) : max(0, w + dx)]
    return a, b


def cooccurrence(image: GrayImage, offset: Offset) -> np.ndarray:
    """(256, 256) int64 counts of gray-level pairs at the displacement (as `lsblab glcm` writes)."""
    a, b = _pairs(image.pixels, offset)
    codes = a.astype(np.int32).ravel() * 256 + b.astype(np.int32).ravel()
    return np.bincount(codes, minlength=256 * 256).astype(np.int64).reshape(256, 256)


def band_energies(images: GrayImage | np.ndarray, offset: Offset) -> np.ndarray:
    """Fraction of in-bounds pixel pairs with |a - b| = k, for k = 0..4.

    Band k sums the +k and -k diagonals of cooccurrence(image, offset),
    normalised by the pair count so values compare across image sizes. It
    counts |a - b| per band instead, so no 256x256 matrix is built. One
    GrayImage gives shape (5,), a (..., h, w) uint8 stack (..., 5): the same floats.
    """
    a, b = _pairs(images.pixels if isinstance(images, GrayImage) else images, offset)
    n = a.shape[-2] * a.shape[-1]
    if n == 0:
        raise ValueError("empty co-occurrence matrix: no in-bounds pixel pairs")
    # |a - b| in uint8; int32 band sums beat both int64 ones and count_nonzero(axis=)
    diff = (np.maximum(a, b) - np.minimum(a, b)).reshape(*a.shape[:-2], n)
    return np.stack([(diff == k).sum(axis=-1, dtype=np.int32) for k in range(N_BANDS)], axis=-1) / n


def band_features(images: GrayImage | np.ndarray) -> np.ndarray:
    """band_energies over DEFAULT_OFFSETS, concatenated: 4 offsets x 5 bands.

    images as for band_energies: shape (20,) for one GrayImage, (..., 20) for a stack.
    """
    return np.concatenate([band_energies(images, off) for off in DEFAULT_OFFSETS], axis=-1)


def matrix_to_csv(counts: np.ndarray) -> str:
    """256 lines of 256 comma-separated counts."""
    return "\n".join(",".join(str(int(v)) for v in row) for row in counts) + "\n"


ENERGY_CSV_HEADER = "offset,e0,e1,e2,e3,e4"


def energies_to_csv(rows: Sequence[tuple[Offset, np.ndarray]]) -> str:
    """Energy table, one row per offset. Offsets are written as dx:dy."""
    lines = [ENERGY_CSV_HEADER]
    for (dx, dy), e in rows:
        lines.append(f"{dx}:{dy}," + ",".join(f"{v:.6f}" for v in e))
    return "\n".join(lines) + "\n"
