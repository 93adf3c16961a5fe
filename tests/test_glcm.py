import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from lsblab.glcm import (
    DEFAULT_OFFSETS,
    band_energies,
    band_features,
    cooccurrence,
    energies_to_csv,
    matrix_to_csv,
)
from lsblab.harness import synthetic_image
from lsblab.image import GrayImage

# all eight one-pixel displacements
NEIGHBOR_OFFSETS = ((1, 0), (-1, 1), (0, 1), (1, 1), (-1, -1), (0, -1), (1, -1), (-1, 0))


def brute_force_glcm(pixels: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Independent oracle: literal double loop over all pixel positions."""
    h, w = pixels.shape
    counts = np.zeros((256, 256), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h:
                counts[pixels[y, x], pixels[ny, nx]] += 1
    return counts


def diagonal_energies(counts: np.ndarray) -> np.ndarray:
    """Oracle of band_energies: a matrix's share of counts on the diagonals |i - j| = k."""
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty co-occurrence matrix: no in-bounds pixel pairs")
    e = np.empty(5, dtype=np.float64)
    e[0] = np.trace(counts) / total
    for k in range(1, 5):
        e[k] = (np.trace(counts, offset=k) + np.trace(counts, offset=-k)) / total
    return e


def test_constant_image_concentrates_on_diagonal():
    img = GrayImage(np.full((3, 3), 5, dtype=np.uint8))
    m = cooccurrence(img, (1, 0))
    assert m[5, 5] == 6
    assert m.sum() == 6


def test_two_by_two_hand_count():
    img = GrayImage(np.array([[0, 0], [0, 1]], dtype=np.uint8))
    m = cooccurrence(img, (1, 0))
    assert m.shape == (256, 256) and m.dtype == np.int64
    assert m[0, 0] == 1
    assert m[0, 1] == 1
    assert m.sum() == 2


def test_rejects_zero_offset():
    img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        cooccurrence(img, (0, 0))


def test_total_count_conservation():
    gen = np.random.default_rng(0)
    img = GrayImage(gen.integers(0, 256, (11, 7), dtype=np.uint8))
    assert cooccurrence(img, (1, 0)).sum() == (7 - 1) * 11
    assert cooccurrence(img, (0, 1)).sum() == 7 * (11 - 1)
    assert cooccurrence(img, (1, 1)).sum() == (7 - 1) * (11 - 1)


def test_transpose_symmetry_all_neighbors():
    gen = np.random.default_rng(1)
    for _ in range(10):
        img = GrayImage(gen.integers(0, 256, (8, 8), dtype=np.uint8))
        for dx, dy in NEIGHBOR_OFFSETS:
            a = cooccurrence(img, (dx, dy))
            b = cooccurrence(img, (-dx, -dy))
            assert np.array_equal(a, b.T)


def test_matches_brute_force_oracle():
    gen = np.random.default_rng(2)
    for _ in range(20):
        pixels = gen.integers(0, 256, (8, 8), dtype=np.uint8)
        img = GrayImage(pixels)
        for dx, dy in NEIGHBOR_OFFSETS:
            got = cooccurrence(img, (dx, dy))
            assert np.array_equal(got, brute_force_glcm(pixels, dx, dy))


def test_energies_constant_image():
    img = GrayImage(np.full((4, 4), 9, dtype=np.uint8))
    e = diagonal_energies(cooccurrence(img, (1, 0)))
    assert e.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_energies_two_entry_matrix():
    counts = np.zeros((256, 256), dtype=np.int64)
    counts[0, 1] = 1
    counts[3, 3] = 1
    e = diagonal_energies(counts)
    assert e.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]


def test_energies_match_band_sums():
    gen = np.random.default_rng(3)
    img = GrayImage(gen.integers(0, 256, (8, 8), dtype=np.uint8))
    m = cooccurrence(img, (0, 1))
    e = diagonal_energies(m)
    i, j = np.indices((256, 256))
    for k in range(5):
        expected = m[np.abs(i - j) == k].sum() / m.sum()
        assert e[k] == pytest.approx(expected, abs=1e-12)


def test_energies_empty_matrix_errors():
    img = GrayImage(np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        diagonal_energies(cooccurrence(img, (1, 0)))
    with pytest.raises(ValueError):
        band_energies(img, (1, 0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_energies_match_matrix_oracle(data):
    # the |a - b| histogram must reproduce the matrix diagonals bit for bit.
    # One more offset reaches up to twice the image side each way; at or
    # beyond the side there are no pairs, so the matrix is all zero and
    # band_energies raises, as it does for a one-pixel-wide image
    w = data.draw(st.integers(1, 12), label="w")
    h = data.draw(st.integers(2, 12) if w == 1 else st.integers(1, 12), label="h")
    spread = data.draw(st.sampled_from([3, 8, 256]), label="spread")
    base = data.draw(st.integers(0, 256 - spread), label="base")
    raster = data.draw(st.lists(st.integers(0, spread - 1), min_size=w * h, max_size=w * h))
    dx = data.draw(st.integers(-2 * w, 2 * w), label="dx")
    dy = data.draw(st.integers(-2 * h, 2 * h).filter(lambda d: dx != 0 or d != 0), label="dy")
    img = GrayImage(np.array(raster, dtype=np.uint8).reshape(h, w) + base)
    assert np.array_equal(cooccurrence(img, (dx, dy)), brute_force_glcm(img.pixels, dx, dy))
    for offset in NEIGHBOR_OFFSETS + ((dx, dy),):
        counts = cooccurrence(img, offset)
        if counts.sum() == 0:
            with pytest.raises(ValueError, match="no in-bounds pixel pairs"):
                band_energies(img, offset)
        else:
            assert np.array_equal(band_energies(img, offset), diagonal_energies(counts))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_features_of_a_stack_match_matrix_oracle(data):
    # row j of a stack's features is raster j's matrix diagonals at every default
    # offset; values run up to both ends of 0..255, so a wrapped uint8 |a - b| shows
    w = data.draw(st.integers(1, 12), label="w")
    h = data.draw(st.integers(1, 12), label="h")
    k = data.draw(st.integers(1, 4), label="k")
    spread = data.draw(st.sampled_from([3, 8, 256]), label="spread")
    base = data.draw(st.sampled_from([0, 256 - spread]) | st.integers(0, 256 - spread), label="base")
    raster = data.draw(st.lists(st.integers(0, spread - 1), min_size=k * w * h, max_size=k * w * h))
    stack = np.array(raster, dtype=np.uint8).reshape(k, h, w) + np.uint8(base)
    if w == 1 or h == 1:
        for images in (stack, GrayImage(stack[0])):
            with pytest.raises(ValueError, match="no in-bounds pixel pairs"):
                band_features(images)
        return
    rows = band_features(stack)
    assert rows.shape == (k, 20)
    for row, pixels in zip(rows, stack):
        img = GrayImage(pixels)
        expected = np.concatenate([diagonal_energies(cooccurrence(img, off)) for off in DEFAULT_OFFSETS])
        assert np.array_equal(row, expected)
        assert np.array_equal(band_features(img), expected)


def test_band_features_single_offset():
    # each 5-band block is one default offset's matrix diagonals, in order
    gen = np.random.default_rng(4)
    img = GrayImage(gen.integers(0, 256, (8, 8), dtype=np.uint8))
    blocks = band_features(img).reshape(len(DEFAULT_OFFSETS), 5)
    for block, off in zip(blocks, DEFAULT_OFFSETS):
        assert np.array_equal(block, diagonal_energies(cooccurrence(img, off)))


def test_band_features_default_arity():
    img = GrayImage(np.full((6, 6), 10, dtype=np.uint8))
    feats = band_features(img)
    assert feats.shape == (20,)
    assert np.array_equal(feats, np.tile([1, 0, 0, 0, 0], 4))


def test_noise_lowers_main_diagonal_energy():
    # smooth image vs same image with +-1 noise on half the pixels
    gen = np.random.default_rng(5)
    for seed in range(5):
        img = synthetic_image(64, 64, seed)
        noisy = img.pixels.astype(np.int16)
        half = gen.random(noisy.shape) < 0.5
        steps = gen.choice([-1, 1], size=noisy.shape)
        noisy = np.clip(noisy + half * steps, 0, 255).astype(np.uint8)
        e_img = diagonal_energies(cooccurrence(img, (1, 0)))
        e_noisy = diagonal_energies(cooccurrence(GrayImage(noisy), (1, 0)))
        assert e_noisy[0] < e_img[0]


def test_matrix_csv_shape_and_sum():
    gen = np.random.default_rng(6)
    img = GrayImage(gen.integers(0, 256, (5, 5), dtype=np.uint8))
    m = cooccurrence(img, (1, 0))
    lines = matrix_to_csv(m).strip().split("\n")
    assert len(lines) == 256
    assert all(len(line.split(",")) == 256 for line in lines)
    total = sum(int(v) for line in lines for v in line.split(","))
    assert total == m.sum()


def test_energies_csv_format():
    img = GrayImage(np.full((4, 4), 3, dtype=np.uint8))
    rows = [(off, diagonal_energies(cooccurrence(img, off))) for off in DEFAULT_OFFSETS]
    csv = energies_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "offset,e0,e1,e2,e3,e4"
    assert len(lines) == 5
    assert lines[1] == "1:0,1.000000,0.000000,0.000000,0.000000,0.000000"
