"""Message bit streams: MSB-first byte packing and 32-bit length framing.

A framed stream is a 32-bit big-endian payload bit-count followed by the
payload bits themselves. The frame makes extraction self-describing: the
receiver needs no out-of-band message length.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

FRAME_BITS = 32
MAX_PAYLOAD_BITS = (1 << FRAME_BITS) - 1


class CapacityError(ValueError):
    """The message does not fit the carrier (or the 32-bit frame)."""


class FramingError(ValueError):
    """The extracted stream carries no consistent length frame."""


def bytes_to_bits(data: bytes | bytearray) -> np.ndarray:
    """Unpack bytes into a uint8 bit array, MSB first within each byte."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack bits (MSB first) back into bytes; inverse of bytes_to_bits."""
    if len(bits) % 8:
        raise FramingError(f"bit count {len(bits)} is not a whole number of bytes")
    return np.packbits(np.asarray(bits, dtype=np.uint8) & 1).tobytes()


def frame_bits(payload_bits: Sequence[int]) -> np.ndarray:
    """Prefix payload bits with their 32-bit big-endian count, as uint8."""
    n = len(payload_bits)
    if n > MAX_PAYLOAD_BITS:
        raise CapacityError(f"payload of {n} bits exceeds the 32-bit frame limit")
    framed = np.empty(FRAME_BITS + n, dtype=np.uint8)
    framed[:FRAME_BITS] = (n >> np.arange(FRAME_BITS - 1, -1, -1)) & 1
    framed[FRAME_BITS:] = np.asarray(payload_bits, dtype=np.uint8) & 1
    return framed


def frame_length(bits: Sequence[int]) -> int:
    """Read the payload bit count out of a stream's first 32 bits."""
    if len(bits) < FRAME_BITS:
        raise FramingError(f"stream of {len(bits)} bits is shorter than the 32-bit prefix")
    prefix = np.packbits(np.asarray(bits[:FRAME_BITS], dtype=np.uint8) & 1)
    return int.from_bytes(prefix.tobytes(), "big")
