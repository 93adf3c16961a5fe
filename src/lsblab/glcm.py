"""Gray-level co-occurrence statistics and near-diagonal band energies.

A co-occurrence matrix for a displacement (dx, dy) counts, over all pixel
positions where both ends fall inside the image, how often gray level i
sits at (x, y) while gray level j sits at (x+dx, y+dy). Natural images
concentrate these counts on and near the main diagonal; the band-energy
features below measure that concentration as the share of pairs with
|i - j| = k. They count a clipped |a - b| histogram and never build the
matrix, which only cooccurrence (behind `lsblab glcm`) does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .image import GrayImage

Offset = tuple[int, int]

# default feature set: horizontal, vertical and both diagonals
DEFAULT_OFFSETS: tuple[Offset, ...] = ((1, 0), (0, 1), (1, 1), (-1, 1))

N_BANDS = 5  # |i - j| = 0 .. 4


def _pairs(image: GrayImage, offset: Offset) -> tuple[np.ndarray, np.ndarray]:
    """The two ends of every in-bounds pixel pair at the displacement.

    There is no wraparound or padding at the borders; the slice stops are
    clamped at 0, so a displacement at or beyond the image side has no pairs.
    """
    dx, dy = offset
    if dx == 0 and dy == 0:
        raise ValueError("offset (0, 0) pairs every pixel with itself")
    h, w = image.pixels.shape
    a = image.pixels[max(0, -dy) : max(0, h - dy), max(0, -dx) : max(0, w - dx)]
    b = image.pixels[max(0, dy) : max(0, h + dy), max(0, dx) : max(0, w + dx)]
    return a, b


def cooccurrence(image: GrayImage, offset: Offset) -> np.ndarray:
    """(256, 256) int64 counts of gray-level pairs at the displacement (as `lsblab glcm` writes)."""
    a, b = _pairs(image, offset)
    codes = a.astype(np.int32).ravel() * 256 + b.astype(np.int32).ravel()
    return np.bincount(codes, minlength=256 * 256).astype(np.int64).reshape(256, 256)


def band_energies(image: GrayImage, offset: Offset) -> np.ndarray:
    """Fraction of in-bounds pixel pairs with |a - b| = k, for k = 0..4.

    Band k sums the +k and -k diagonals of cooccurrence(image, offset),
    normalised by the pair count so values compare across image sizes. It
    counts a clipped |a - b| histogram instead, so no 256x256 matrix is built.
    """
    a, b = _pairs(image, offset)
    if a.size == 0:
        raise ValueError("empty co-occurrence matrix: no in-bounds pixel pairs")
    diff = np.abs(a.astype(np.int16) - b.astype(np.int16))
    counts = np.bincount(np.minimum(diff, N_BANDS).ravel(), minlength=N_BANDS + 1)
    return counts[:N_BANDS] / a.size


def band_features(image: GrayImage) -> np.ndarray:
    """Band energies over DEFAULT_OFFSETS, concatenated: 4 offsets x 5 bands."""
    return np.concatenate([band_energies(image, off) for off in DEFAULT_OFFSETS])


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
