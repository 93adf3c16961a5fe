import numpy as np
import pytest
from hypothesis import given, strategies as st

from lsblab.bits import (
    FRAME_BITS,
    CapacityError,
    FramingError,
    bits_to_bytes,
    bytes_to_bits,
    frame_bits,
    frame_length,
)
from lsblab.embed import EmbedConfig, extract
from lsblab.image import GrayImage


def framed_payload(bits):
    """Read a framed stream back: the declared count, then exactly that many bits."""
    n = frame_length(bits)
    return bits[FRAME_BITS : FRAME_BITS + n]


def test_bytes_to_bits_msb_first():
    assert bytes_to_bits(b"\xa5").tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert bytes_to_bits(b"\x80\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert bits_to_bytes([3, 0, 1, 2, 0, 1, 0, 1]) == b"\xa5"  # only each LSB counts


def test_frame_single_byte():
    framed = frame_bits(bytes_to_bits(b"\xa5"))
    # 32-bit big-endian count of 8, then the payload bits
    assert framed[:32].tolist() == [0] * 28 + [1, 0, 0, 0]
    assert framed[32:].tolist() == [1, 0, 1, 0, 0, 1, 0, 1]


def test_frame_empty_payload():
    assert frame_bits(bytes_to_bits(b"")).tolist() == [0] * 32


def test_frame_length_reads_uint8_arrays():
    # extract hands frame_length a uint8 array; counts past 255 must not wrap
    for n in (8, 256, 70_000):
        prefix = frame_bits([0] * n)[:FRAME_BITS]
        assert frame_length(np.array(prefix, dtype=np.uint8)) == n


def test_bits_to_bytes_rejects_ragged():
    with pytest.raises(FramingError, match="bit count 3 is not a whole number of bytes"):
        bits_to_bytes([1, 0, 1])


def test_unframe_rejects_overdeclared_length():
    # a stream truncated below its declared 8 bits, read by the extractor
    framed = frame_bits(bytes_to_bits(b"\xff"))[:-2]
    stego = GrayImage(np.array([framed], dtype=np.uint8))
    assert frame_length(framed) == 8
    with pytest.raises(FramingError):
        extract(stego, EmbedConfig(method="lsbm"))


def test_unframe_rejects_short_prefix():
    with pytest.raises(FramingError):
        frame_length([0] * 31)


def test_frame_capacity_guard():
    class _HugeBits:
        def __len__(self):
            return 2**32

    with pytest.raises(CapacityError):
        frame_bits(_HugeBits())


@given(st.binary(max_size=200))
def test_frame_roundtrip_bytes(payload):
    assert bits_to_bytes(framed_payload(frame_bits(bytes_to_bits(payload)))) == payload


@given(st.lists(st.integers(0, 1), max_size=300))
def test_frame_roundtrip_bits(bits):
    assert framed_payload(frame_bits(bits)).tolist() == bits


@given(st.lists(st.integers(0, 1), max_size=300))
def test_trailing_bits_ignored(bits):
    assert framed_payload(frame_bits(bits).tolist() + [1, 1, 0]) == bits
