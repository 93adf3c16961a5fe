import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lsblab.cli import main
from lsblab.image import (
    GrayImage,
    PgmFormatError,
    load_pgm,
    read_pgm,
    save_pgm,
    traversal_order,
    write_pgm,
)


def test_read_minimal():
    img = read_pgm(b"P5 2 2 255 " + bytes([0, 0, 0, 1]))
    assert (img.width, img.height) == (2, 2)
    assert img.pixels.ravel().tolist() == [0, 0, 0, 1]


def test_read_single_pixel():
    img = read_pgm(b"P5 1 1 255\n" + bytes([255]))
    assert img.pixels[0, 0] == 255


def test_read_with_comments():
    data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([9, 7])
    img = read_pgm(data)
    assert img.pixels.ravel().tolist() == [9, 7]


@pytest.mark.parametrize(
    "data, field",
    [
        (b"P6 1 1 255\n\x00", "magic"),
        (b"P5 0 2 255\n", "width"),
        (b"P5 2 0 255\n", "height"),
        (b"P5 2 2 65535\n" + bytes(8), "maxval"),
        (b"P5 2 2 255\n" + bytes(3), "raster"),
        (b"P5 2 2\n", "maxval"),
        (b"P5 x 2 255\n", "width"),
        # more digits than int() converts; a product of more digits than str() converts
        pytest.param(b"P5 " + b"9" * 5000 + b" 2 255\n", "width", id="5000-digit-width"),
        pytest.param(b"P5 2 " + b"9" * 5000 + b" 255\n", "height", id="5000-digit-height"),
        pytest.param(b"P5 2 2 " + b"9" * 5000 + b"\n", "maxval", id="5000-digit-maxval"),
        pytest.param(b"P5 " + b"9" * 3000 + b" " + b"9" * 3000 + b" 255\n", "raster",
                     id="6000-digit-raster-size"),
    ],
)
def test_read_errors_name_the_field(data, field):
    with pytest.raises(PgmFormatError, match=field):
        read_pgm(data)


# the header's whitespace is exactly b" \t\n\r\x0b\x0c" and a comment runs to \n or \r
@pytest.mark.parametrize("data", [
    b"P5\x0b2\x0c1\x0b255\x0c",
    b"P5\x0c2 1\x0b255\n",
    b"P5 # ended by a carriage return\r2 1 255\n",
    b"P5 #comment\r2\t#\r1 255\r",
])
def test_header_reads_every_ascii_whitespace_and_cr_ended_comments(data):
    assert read_pgm(data + bytes([9, 7])).pixels.ravel().tolist() == [9, 7]


@pytest.mark.parametrize("sep", [b"\x1c", b"\x85", b"\xa0"])
@pytest.mark.parametrize("template, field", [
    (b"P5%s2 1 255\n", "magic"),
    (b"P5 2%s1 255\n", "width"),
    (b"P5 2 1%s255\n", "height"),
])
def test_header_rejects_non_ascii_whitespace_as_separator(sep, template, field):
    # str.isspace() holds for all three, bytes whitespace for none
    with pytest.raises(PgmFormatError, match=field):
        read_pgm(template.replace(b"%s", sep) + bytes([9, 7]))


@pytest.mark.parametrize("data, field", [
    (b"P5 2#c 1 255\n", "width"),
    (b"P5 2 1 255#c\n", "maxval"),
])
def test_header_hash_inside_a_token_is_no_comment(data, field):
    with pytest.raises(PgmFormatError, match=field):
        read_pgm(data + bytes([9, 7]))


def test_write_canonical_header():
    img = GrayImage(np.array([[7], [9]], dtype=np.uint8))
    assert write_pgm(img) == b"P5\n1 2\n255\n" + bytes([7, 9])


def test_grayimage_rejects_empty():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 0), dtype=np.uint8))


def test_grayimage_rejects_out_of_range():
    with pytest.raises(ValueError):
        GrayImage(np.array([[0, 300]]))


@given(
    w=st.integers(1, 32),
    h=st.integers(1, 32),
    data=st.data(),
)
def test_pgm_roundtrip_is_identity(w, h, data):
    raster = data.draw(st.binary(min_size=w * h, max_size=w * h))
    img = GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(h, w))
    assert read_pgm(write_pgm(img)) == img


def test_file_helpers_roundtrip(tmp_path):
    img = GrayImage(np.arange(36, dtype=np.uint8).reshape(6, 6))
    path = tmp_path / "img.pgm"
    save_pgm(path, img)
    assert load_pgm(path) == img


def test_traversal_raster():
    img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
    assert traversal_order(img, "raster", 5).tolist() == [0, 1, 2, 3]


def test_traversal_permuted_is_seeded_bijection():
    img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    a = traversal_order(img, "permuted", 5).tolist()
    b = traversal_order(img, "permuted", 5).tolist()
    assert a == b
    assert sorted(a) == list(range(64))
    assert a != list(range(64))


def test_traversal_unknown_mode():
    img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        traversal_order(img, "spiral", 5)


# ---------------------------------------------------------------------------
# malformed input: read_pgm raises PgmFormatError and nothing else

VALID_PGM = write_pgm(GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4)))
_NUMBERS = [b"0", b"1", b"3", b"4", b"12", b"-1", b"+3", b"255", b"256", b"1e3", b"\xd9\xa3",
            b"99999999999999999999", b"9" * 5000, b""]
_GAPS = [b" ", b"\n", b"\t", b"\r\n", b"# note\n", b"#", b"", b" # cut"]


@st.composite
def mutated_pgms(draw):
    """A valid 4x3 PGM with bytes flipped, inserted, deleted or cut off, mostly in the header."""
    data = bytearray(VALID_PGM)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, min(len(data), 14)))
        if op == "flip" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.sampled_from(_NUMBERS + _GAPS))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 3))]
        else:
            del data[draw(st.integers(0, len(data))):]
    return bytes(data)


_gap, _number = st.sampled_from(_GAPS), st.sampled_from(_NUMBERS)
MALFORMED = st.one_of(
    st.binary(max_size=40),
    mutated_pgms(),
    # well-formed magic, then odd fields and separators
    st.tuples(st.sampled_from([b"P5", b"P2"]), _gap, _number, _gap, _number, _gap, _number,
              _gap, st.binary(max_size=20)).map(b"".join),
)


@settings(max_examples=400, deadline=None)
@given(data=MALFORMED)
def test_read_pgm_raises_only_format_errors(data):
    try:
        read_pgm(data)
    except PgmFormatError:
        pass


@settings(max_examples=60, deadline=None)
@given(data=MALFORMED)
def test_cli_reports_malformed_pgm_as_format_error(data):
    try:
        read_pgm(data)
    except PgmFormatError:
        pass
    else:
        return  # the mutation happened to leave a valid file
    with tempfile.TemporaryDirectory() as tmp:
        bad, payload = os.path.join(tmp, "bad.pgm"), os.path.join(tmp, "payload.bin")
        with open(bad, "wb") as fh:
            fh.write(data)
        with open(payload, "wb") as fh:
            fh.write(b"hi")
        out = os.path.join(tmp, "out")
        for argv in (
            ["embed", "--cover", bad, "--payload", payload, "--out", out, "--method", "lsbm",
             "--seed", "1"],
            ["extract", "--stego", bad, "--out", out, "--method", "lsbmr", "--seed", "1",
             "--traversal", "permuted"],
            ["features", "--image", bad, "--out", out],
        ):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert main(argv) == 1, argv[0]
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("format: "), (argv[0], lines)
            assert not os.path.exists(out)
