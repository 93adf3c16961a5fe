"""8-bit grayscale images with bit-exact binary PGM (P5) I/O.

Only the binary flavour with maxval 255 is supported; that keeps reads and
writes lossless byte-for-byte, which the embedding round trip depends on.
Header fields may be separated by any ASCII whitespace and '#' comments.
"""

from __future__ import annotations

import re

import numpy as np

from .rng import Rng

# skip whitespace and '#' comments, read a token; \s on bytes is b" \t\n\r\x0b\x0c"
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


class PgmFormatError(ValueError):
    """Raised when a byte stream is not a valid 8-bit binary PGM."""


class GrayImage:
    """An 8-bit grayscale raster stored as a (height, width) uint8 array.

    Pixel (x, y) lives at ``pixels[y, x]``; the flat row-major index is
    ``y * width + x``.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels) -> None:
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"raster must be 2-D, got shape {arr.shape}")
        height, width = arr.shape
        if width < 1 or height < 1:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
            if int(arr.min()) < 0 or int(arr.max()) > 255:
                raise ValueError("pixel values must lie in 0..255")
            arr = arr.astype(np.uint8)
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.pixels.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    token = _TOKEN.match(data, pos)
    if not token[1]:
        raise PgmFormatError(f"{field}: header ended prematurely")
    return token[1], token.end()


def _int_token(data: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos, field)
    if not token.isdigit():
        raise PgmFormatError(f"{field}: expected an unsigned integer, got {token[:16]!r}")
    try:
        return int(token), pos
    except ValueError:  # more digits than the interpreter converts
        raise PgmFormatError(f"{field}: {len(token)}-digit value is too long") from None


def read_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (magic P5, maxval 255) byte stream, losslessly."""
    magic, pos = _next_token(data, 0, "magic")
    if magic != b"P5":
        raise PgmFormatError(f"magic: expected b'P5', got {magic[:8]!r}")
    width, pos = _int_token(data, pos, "width")
    if width < 1:
        raise PgmFormatError(f"width: must be positive, got {width}")
    height, pos = _int_token(data, pos, "height")
    if height < 1:
        raise PgmFormatError(f"height: must be positive, got {height}")
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval != 255:
        raise PgmFormatError(f"maxval: only 255 is supported, got {maxval}")
    # exactly one whitespace byte separates the header from the raster
    if not data[pos : pos + 1].isspace():
        raise PgmFormatError("raster: missing separator after maxval")
    pos += 1
    # checked before frombuffer, so huge header dimensions fail cleanly
    if len(data) - pos < width * height:
        raise PgmFormatError(
            f"raster: expected {width}x{height} pixels, got {len(data) - pos} bytes")
    # one copy, straight out of the input: slicing first would copy the raster twice
    pixels = np.frombuffer(data, np.uint8, width * height, pos).reshape(height, width).copy()
    return GrayImage(pixels)


def write_pgm(image: GrayImage) -> bytes:
    """Encode with the canonical header; read_pgm(write_pgm(img)) == img."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def load_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def save_pgm(path, image: GrayImage) -> None:
    with open(path, "wb") as fh:
        fh.write(write_pgm(image))


def traversal_order(image: GrayImage, mode: str, seed: int) -> np.ndarray:
    """Pixel visiting order as int32 flat row-major indices; a bijection over all pixels.

    "raster" visits 0..N-1 in order. "permuted" is the Fisher-Yates order
    Rng(seed).shuffle draws, so sender and receiver sharing a seed agree.
    """
    if mode == "raster":
        return np.arange(image.n_pixels, dtype=np.int32)
    if mode == "permuted":
        return Rng(seed).shuffle(image.n_pixels)
    raise ValueError(f"unknown traversal mode: {mode!r}")
