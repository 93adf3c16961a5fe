import importlib
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from lsblab.bits import CapacityError, FramingError, bytes_to_bits, frame_bits
from lsblab.embed import (
    _FREE,
    EmbedConfig,
    _coins,
    _job,
    _pull,
    _pulls,
    _settle,
    _stack,
    embed,
    extract,
    f_pair,
)
from lsblab.harness import synthetic_image
from lsblab.image import GrayImage, traversal_order
from lsblab.rng import Rng

# the module itself: the package re-exports a function under the same name
embed_module = importlib.import_module("lsblab.embed")


def flat_image(values, width=8):
    arr = np.asarray(values, dtype=np.uint8)
    return GrayImage(arr.reshape(-1, width))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        EmbedConfig(method="lsb")
    with pytest.raises(ValueError):
        EmbedConfig(method="lsbm", threshold=-1)
    with pytest.raises(ValueError):
        EmbedConfig(method="lsbm", traversal="spiral")


# ---------------------------------------------------------------------------
# pair function


def test_f_pair_values():
    assert f_pair(4, 7) == 1
    assert f_pair(0, 0) == 0
    assert f_pair(3, 2) == 1
    assert f_pair(3, 7) == 0


def test_f_pair_flips_when_y2_steps():
    for y1 in range(256):
        for y2 in (1, 100, 254):
            assert f_pair(y1, y2 + 1) != f_pair(y1, y2)
            assert f_pair(y1, y2 - 1) != f_pair(y1, y2)


def test_f_pair_on_uint8_arrays_matches_scalar():
    # extract applies f_pair to uint8 arrays, where (y1 >> 1) + y2 wraps at 256
    y1, y2 = (a.astype(np.uint8) for a in np.indices((256, 256)))
    expected = [[f_pair(a, b) for b in range(256)] for a in range(256)]
    assert f_pair(y1, y2).tolist() == expected


# ---------------------------------------------------------------------------
# direction choice (the worked example on a flat 3x3 block is
# test_acceptance.py::test_direction_choice_worked_example)


def one_step(rows, idx, seed=0, threshold=4):
    """The step _settle gives flat pixel idx of a block when it is the plan's one free change."""
    cover = GrayImage(np.array(rows, dtype=np.uint8))
    job = (cover, np.array([idx]), np.array([_FREE], dtype=np.int16), seed)
    (stego,) = _settle([job], threshold)
    return int(stego.pixels.ravel()[idx]) - int(cover.pixels.ravel()[idx])


def first_coin(seed):
    """The seed's first coin: the step the baseline rule takes for its first free change."""
    return int(_coins(seed, 1)[0])


def test_mask_is_strict_inequality():
    # 104 and 96 sit exactly at the threshold and do not vote; only 99 and
    # 101 do. Were they counted, each block would tie and take the coin
    assert reference.vote([[104, 100, 99]], 0, 1, 4) == (0, 2)
    assert reference.vote([[96, 100, 101]], 0, 1, 4) == (2, 0)
    for seed in range(30):
        assert one_step([[104, 100, 99]], 1, seed) == -1
        assert one_step([[96, 100, 101]], 1, seed) == 1


def test_saturated_centers_are_forced():
    # the baselines' inward step is test_lsbm_zero_pixel_goes_up and
    # test_lsbm_saturated_pixel_goes_down
    for seed in range(10):
        assert one_step([[0, 10, 20]], 0, seed) == 1
        assert one_step([[255, 250]], 0, seed) == -1


def test_empty_mask_falls_back_to_coin():
    assert reference.vote([[100, 200]], 0, 0, 4) == (0, 0)
    steps = [one_step([[100, 200]], 0, seed) for seed in range(30)]
    assert set(steps) == {-1, 1}
    # the fallback is the very coin the baseline rule would flip
    assert steps == [first_coin(seed) for seed in range(30)]


def test_tie_falls_back_to_coin():
    # neighbors straddle the center symmetrically: both steps cost the same
    assert reference.vote([[99, 100, 101]], 0, 1, 4) == (2, 2)
    steps = [one_step([[99, 100, 101]], 1, seed) for seed in range(30)]
    assert set(steps) == {-1, 1}
    assert steps == [first_coin(seed) for seed in range(30)]


# ---------------------------------------------------------------------------
# lsbm: the per-pixel ±1 table

# a framed 8-bit payload spans exactly 40 bits; bit 28 is the only 1 in the
# length prefix, so it lands on pixel index 28


def test_lsbm_leaves_matching_pixels_alone():
    cover = flat_image([10] * 40)
    stego = embed(cover, [0] * 8, EmbedConfig(method="lsbm", seed=1))
    diff = np.flatnonzero(stego.pixels.ravel() != cover.pixels.ravel())
    assert diff.tolist() == [28]  # the single 1-bit of the length prefix
    assert stego.pixels.ravel()[28] in (9, 11)


def test_lsbm_zero_pixel_goes_up():
    cover = flat_image([0] * 40)
    stego = embed(cover, [1] * 8, EmbedConfig(method="lsbm", seed=1))
    out = stego.pixels.ravel()
    assert out[28] == 1
    assert out[32:].tolist() == [1] * 8
    assert out[:28].tolist() == [0] * 28
    assert extract(stego, EmbedConfig(method="lsbm", seed=1)).tolist() == [1] * 8


def test_lsbm_saturated_pixel_goes_down():
    cover = flat_image([255] * 40)
    stego = embed(cover, [0] * 8, EmbedConfig(method="lsbm", seed=1))
    out = stego.pixels.ravel()
    assert out[:28].tolist() == [254] * 28
    assert out[28] == 255  # prefix bit 1 matches LSB(255)
    assert out[29:32].tolist() == [254] * 3
    assert out[32:].tolist() == [254] * 8
    assert extract(stego, EmbedConfig(method="lsbm", seed=1)).tolist() == [0] * 8


def test_lsbm_visited_lsbs_equal_message():
    gen = np.random.default_rng(9)
    cover = GrayImage(gen.integers(0, 256, (8, 8), dtype=np.uint8))
    bits = gen.integers(0, 2, 30).tolist()
    cfg = EmbedConfig(method="lsbm", seed=4)
    stego = embed(cover, bits, cfg)
    lsbs = (stego.pixels.ravel() & 1).tolist()
    assert lsbs[32 : 32 + 30] == bits


# ---------------------------------------------------------------------------
# lsbmr pair coding, with the pair of interest at pair index 16
# (a 2-bit payload makes the frame 34 bits; prefix bits 30,31 are (1,0))


def paired_cover():
    values = [5] * 64
    values[32] = 4
    values[33] = 7
    return flat_image(values)


def test_lsbmr_pair_no_change():
    cfg = EmbedConfig(method="lsbmr", seed=2)
    stego = embed(paired_cover(), [0, 1], cfg)
    out = stego.pixels.ravel()
    assert (out[32], out[33]) == (4, 7)  # s1 == LSB(4), s2 == f(4,7)
    assert extract(stego, cfg).tolist() == [0, 1]


def test_lsbmr_pair_adjusts_first_pixel():
    cfg = EmbedConfig(method="lsbmr", seed=2)
    stego = embed(paired_cover(), [1, 0], cfg)
    out = stego.pixels.ravel()
    assert (out[32], out[33]) == (3, 7)  # f(3,7) == 0
    assert extract(stego, cfg).tolist() == [1, 0]


def test_lsbmr_pair_free_branch_uses_rng_sign():
    # coin 1 feeds the free branch of prefix pair 15, coin 2 the payload
    # pair (4, 7): s2 = 0 needs f_pair to flip, so y2 steps by the coin.
    # Seed 0 draws a -1 there and seed 1 a +1.
    for seed, y2 in ((0, 6), (1, 8)):
        cfg = EmbedConfig(method="lsbmr", seed=seed)
        stego = embed(paired_cover(), [0, 0], cfg)
        out = stego.pixels.ravel()
        assert (out[32], out[33]) == (4, y2)
        assert f_pair(4, y2) == 0
        assert extract(stego, cfg).tolist() == [0, 0]


def test_lsbmr_pair_readout():
    assert (3 & 1, f_pair(3, 7)) == (1, 0)
    assert (4 & 1, f_pair(4, 7)) == (0, 1)


def test_lsbm_single_bit_on_zero_cover():
    # framed [1] is 31 zeros, a 1, then the payload bit: pixels 31 and 32 go
    # from 0 to 1 and everything else stays put
    cover = flat_image([0] * 64)
    cfg = EmbedConfig(method="lsbm", seed=20)
    stego = embed(cover, [1], cfg)
    out = stego.pixels.ravel()
    changed = np.flatnonzero(out != 0)
    assert changed.tolist() == [31, 32]
    assert out[31] == 1 and out[32] == 1
    assert extract(stego, cfg).tolist() == [1]


def test_lsbmr_improved_free_branch_follows_neighborhood():
    # pair 16 is (6, 7) in a sea of 6s; the free branch must step y2 down to
    # rejoin its neighbors (sad_minus 1 vs sad_plus >= 15)
    values = [6] * 64
    values[33] = 7
    cover = flat_image(values)
    cfg = EmbedConfig(method="lsbmr_improved", seed=21, threshold=4)
    stego = embed(cover, [0, 1], cfg)
    out = stego.pixels.ravel()
    assert out[33] == 6
    assert f_pair(int(out[32]), 6) == 1
    assert extract(stego, cfg).tolist() == [0, 1]


def test_lsbmr_boundary_fallback_changes_two_pixels():
    # all-zero cover forces y1 == 0; whenever the required step would be -1
    # the embedder steps to 1 and compensates on y2
    cover = flat_image([0] * 64)
    cfg = EmbedConfig(method="lsbmr", seed=3)
    gen = np.random.default_rng(10)
    bits = gen.integers(0, 2, 14).tolist()
    stego = embed(cover, bits, cfg)
    assert extract(stego, cfg).tolist() == bits
    diff = stego.pixels.ravel() != cover.pixels.ravel()
    per_pair = diff.reshape(-1, 2).sum(axis=1)
    assert per_pair.max() <= 2
    assert np.abs(stego.pixels.astype(int) - cover.pixels.astype(int)).max() <= 1


def test_lsbmr_pair_change_bound_on_interior_covers():
    # away from saturation at most one pixel of a pair may move
    gen = np.random.default_rng(11)
    cover = GrayImage(gen.integers(1, 255, (8, 8), dtype=np.uint8))
    cfg = EmbedConfig(method="lsbmr", seed=5)
    bits = gen.integers(0, 2, 20).tolist()
    stego = embed(cover, bits, cfg)
    diff = stego.pixels.ravel() != cover.pixels.ravel()
    assert diff.reshape(-1, 2).sum(axis=1).max() <= 1


# ---------------------------------------------------------------------------
# improved variants


def test_improved_direction_follows_neighborhood():
    # the worked-example neighbor multiset {100,101,102,100,103,99,100,101}
    # around center 100, arranged so no other visited pixel needs a change:
    # the SAD vote only depends on the values, not their positions
    width = 8
    cover_vals = [10] * 56  # filler value with LSB 0
    block = {24: 100, 25: 100, 26: 102,  # prefix rows carry 0-bits: LSB 0 here
             32: 100, 33: 100, 34: 103,  # payload bits 0,1,1 below
             40: 99, 41: 101, 42: 101}   # past the visited region
    for idx, value in block.items():
        cover_vals[idx] = value
    cover = flat_image(cover_vals, width=width)
    # payload bits sit at flat 32..39; only the center's bit mismatches
    payload = [0, 1, 1, 0, 0, 0, 0, 0]
    cfg = EmbedConfig(method="lsbm_improved", seed=6, threshold=4)
    stego = embed(cover, payload, cfg)
    assert stego.pixels.ravel()[33] == 101  # sad_plus 8 beats sad_minus 14
    # flat 28 carries the length prefix's single 1-bit; all else untouched
    untouched = [i for i in range(56) if i not in (28, 33)]
    assert np.array_equal(stego.pixels.ravel()[untouched], cover.pixels.ravel()[untouched])


def test_improved_leaves_matching_pixels_alone():
    cover = flat_image([100] * 40)
    cfg = EmbedConfig(method="lsbm_improved", seed=7)
    stego = embed(cover, [0] * 8, cfg)
    out = stego.pixels.ravel()
    assert out[28] in (99, 101)
    assert np.count_nonzero(out != 100) == 1


def test_improvement_is_sign_only_lsbm():
    gen = np.random.default_rng(12)
    cover = GrayImage(gen.integers(0, 256, (10, 10), dtype=np.uint8))
    bits = gen.integers(0, 2, 60).tolist()
    base = embed(cover, bits, EmbedConfig(method="lsbm", seed=8))
    imp = embed(cover, bits, EmbedConfig(method="lsbm_improved", seed=8))
    changed_base = np.flatnonzero(base.pixels.ravel() != cover.pixels.ravel())
    changed_imp = np.flatnonzero(imp.pixels.ravel() != cover.pixels.ravel())
    assert changed_base.tolist() == changed_imp.tolist()


def test_improvement_is_sign_only_lsbmr():
    gen = np.random.default_rng(13)
    cover = GrayImage(gen.integers(0, 256, (10, 10), dtype=np.uint8))
    bits = gen.integers(0, 2, 60).tolist()
    base = embed(cover, bits, EmbedConfig(method="lsbmr", seed=9))
    imp = embed(cover, bits, EmbedConfig(method="lsbmr_improved", seed=9))
    changed_base = np.flatnonzero(base.pixels.ravel() != cover.pixels.ravel())
    changed_imp = np.flatnonzero(imp.pixels.ravel() != cover.pixels.ravel())
    assert changed_base.tolist() == changed_imp.tolist()
    # where the two stegos disagree, both moved the same pixel by one step
    disagree = np.flatnonzero(base.pixels.ravel() != imp.pixels.ravel())
    cover_flat = cover.pixels.astype(int).ravel()
    for idx in disagree:
        assert abs(int(base.pixels.ravel()[idx]) - cover_flat[idx]) == 1
        assert abs(int(imp.pixels.ravel()[idx]) - cover_flat[idx]) == 1


METHODS = ("lsbm", "lsbmr", "lsbm_improved", "lsbmr_improved")


@st.composite
def edge_covers(draw):
    """Covers at the edges: 1xN, Nx1 and Nx2 strips, odd pixel counts, saturated values.

    The narrow mid-range palette is there for the vote: most neighbors fall
    within a small T of each other, and many sit exactly at it.
    """
    shape = draw(st.sampled_from(["row", "column", "block", "two columns"]), label="shape")
    if shape == "block":
        h = draw(st.integers(2, 9), label="h")
        w = draw(st.integers(math.ceil(34 / h), 41), label="w")
    elif shape == "two columns":
        h, w = draw(st.integers(17, 60), label="h"), 2
    else:
        h, w = 1, draw(st.integers(34, 120), label="n")
        if shape == "column":
            h, w = w, h
    palette = draw(st.sampled_from([(0, 255), (0, 1, 254, 255), tuple(range(256)),
                                    tuple(range(100, 108))]), label="palette")
    # one byte per pixel, mapped into the palette; as intp, since a uint8 % 256 overflows
    raster = draw(st.binary(min_size=w * h, max_size=w * h), label="raster")
    picks = np.frombuffer(raster, dtype=np.uint8).astype(np.intp) % len(palette)
    return GrayImage(np.array(palette, dtype=np.uint8)[picks].reshape(h, w))


def draw_bits(data, n):
    """n payload bits, drawn as whole bytes: far faster for hypothesis than n single bits."""
    raw = data.draw(st.binary(min_size=math.ceil(n / 8), max_size=math.ceil(n / 8)), label="bits")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n].tolist()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_zero_threshold_improved_equals_baseline(data):
    # at T=0 no neighbor is strictly closer than the threshold, so the mask is
    # always empty; at T=1 only equal neighbors (d = 0) pass -1 < d < 1, and
    # each adds 1 to both sums, so every vote ties. Either way every free step
    # takes the same coin as the baseline, with payloads up to and exactly at
    # capacity. The baselines settle at T=0, where the vote reads no neighbor
    cover = data.draw(edge_covers(), label="cover")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    traversal = data.draw(st.sampled_from(["raster", "permuted"]), label="traversal")
    threshold = data.draw(st.sampled_from([0, 1]), label="threshold")
    for base in ("lsbm", "lsbmr"):
        capacity = cover.n_pixels if base == "lsbm" else 2 * (cover.n_pixels // 2)
        full = data.draw(st.booleans(), label="full")
        nbits = capacity - 32 if full else data.draw(st.integers(0, capacity - 32), label="nbits")
        bits = draw_bits(data, nbits)
        plain_cfg = EmbedConfig(method=base, seed=seed, traversal=traversal)
        plain = embed(cover, bits, plain_cfg)
        guided = embed(cover, bits, EmbedConfig(method=base + "_improved", threshold=threshold,
                                                seed=seed, traversal=traversal))
        assert guided == plain
        assert extract(plain, plain_cfg).tolist() == bits


# small T puts a neighbor exactly at the threshold often enough to test the strict mask
THRESHOLDS = st.one_of(st.sampled_from([0, 1, 4, 255, 256, 257, 10**9]), st.integers(2, 8),
                       st.integers(0, 10**9))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bordered_vote_matches_bounds_checked_reference(data):
    # every pixel of every block up to 9x9, 1xN, Nx1 and 2x2 included, as a
    # plan's one free change; _settle caps T at 256, the reference does not
    h = data.draw(st.integers(1, 9), label="h")
    w = data.draw(st.integers(1, 9), label="w")
    palette = data.draw(st.sampled_from([(0, 255), (0, 1, 254, 255), tuple(range(256))]),
                        label="palette")
    flat = data.draw(st.lists(st.sampled_from(palette), min_size=w * h, max_size=w * h),
                     label="raster")
    threshold = data.draw(THRESHOLDS, label="threshold")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    rows = np.array(flat).reshape(h, w).tolist()
    for idx, c in enumerate(flat):
        down, up = reference.vote(rows, idx // w, idx % w, threshold)
        want = 1 if c == 0 else -1 if c == 255 else \
            int(np.sign(down - up)) if down != up else first_coin(seed)
        assert one_step(rows, idx, seed, min(threshold, 256)) == want


def draw_case(data, methods=METHODS, traversals=("raster", "permuted"), thresholds=THRESHOLDS):
    """An edge cover, a method, traversal and T, and a payload up to or exactly at capacity."""
    cover = data.draw(edge_covers(), label="cover")
    method = data.draw(st.sampled_from(methods), label="method")
    cfg = EmbedConfig(method=method, threshold=data.draw(thresholds, label="threshold"),
                      seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
                      traversal=data.draw(st.sampled_from(traversals), label="traversal"))
    capacity = (2 * (cover.n_pixels // 2) if method.startswith("lsbmr") else cover.n_pixels) - 32
    nbits = capacity if data.draw(st.booleans(), label="full") else \
        data.draw(st.integers(0, capacity), label="nbits")
    return cover, draw_bits(data, nbits), cfg


def reference_embed(cover, bits, cfg):
    return reference.embed(cover.pixels.tolist(), bits, cfg.method, cfg.seed, cfg.traversal,
                           cfg.threshold)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_settle_paths_match_reference(data):
    # the run-parallel array vote, behind public embed, against the stdlib oracle
    cover, bits, cfg = draw_case(data)
    assert embed(cover, bits, cfg).pixels.tolist() == reference_embed(cover, bits, cfg)


def greedy_runs(at, fi, around):
    """Run starts by definition: a free change (one of fi) starts one when it neighbors a
    change of the current run other than the one planned just before it."""
    starts, current, last, free = [0], set(), None, set(fi.tolist())
    for i, p in enumerate(at.tolist()):
        if i in free and any(p + offset in current and p + offset != last
                           for offset in around.tolist()):
            starts.append(i)
            current = set()
        current.add(p)
        last = p
    return starts + [len(at)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chained_runs_match_reference_in_raster_order(data):
    # in raster order most free changes read the change just before them (the
    # left neighbor, or the one above on 1- and 2-wide covers), so runs chain
    cover, bits, cfg = draw_case(data, methods=["lsbm_improved", "lsbmr_improved"],
                                 traversals=["raster"],
                                 thresholds=st.one_of(st.integers(2, 8),
                                                      st.sampled_from([256, 10**9])))
    assert embed(cover, bits, cfg).pixels.tolist() == reference_embed(cover, bits, cfg)


@pytest.mark.parametrize("method, traversal", [
    ("lsbm_improved", "permuted"), ("lsbmr_improved", "permuted"),
    ("lsbm_improved", "raster"), ("lsbmr_improved", "raster"),
], ids=["lsbm_improved", "lsbmr_improved", "lsbm_improved-raster", "lsbmr_improved-raster"])
def test_settle_paths_match_reference_on_many_runs(method, traversal):
    # a smooth cover at rate 0.8: the vote decides most steps, and the plan
    # splits into many runs of many free changes each. Raster runs chain
    # along a row, so that cover is wide
    width, height = (128, 128) if traversal == "permuted" else (256, 64)
    cover = synthetic_image(width, height, seed=31)
    bits = Rng(32).bits(int(0.8 * cover.n_pixels) - 32).tolist()
    cfg = EmbedConfig(method=method, threshold=4, seed=33, traversal=traversal)
    runs = []
    real_runs = embed_module._runs

    def spy(*args):
        runs.append((real_runs(*args), greedy_runs(*args[:3])))
        return runs[-1][0]

    with mock.patch.object(embed_module, "_runs", spy):
        stego = embed(cover, bits, cfg)
    starts, greedy = runs[0]
    assert starts == greedy  # the runs are maximal
    assert len(starts) > 40  # permuted 121 and 47 runs, raster 52 and 50
    assert stego.pixels.tolist() == reference_embed(cover, bits, cfg)


@pytest.mark.parametrize("threshold", [2, 4, 256])
@pytest.mark.parametrize("seed", range(4))
def test_chained_change_after_a_saturated_free_predecessor(threshold, seed):
    # every LSB of the strip is wrong, so each pixel is a free change chained to
    # the one before it, and every other one sits at 0 or 255: the chained vote
    # reads its predecessor after a -1 and after a +1 step, so at -1 or 256
    bits = Rng(seed).bits(32).tolist()
    framed = frame_bits(bits).tolist()
    edge = [0 if bit else 255 for bit in framed[0::2]]
    near = [(2 if bit else 1) if e == 0 else (254 if bit else 253)
            for e, bit in zip(edge, framed[1::2])]
    cover = GrayImage(np.array([[v for pair in zip(edge, near) for v in pair]], dtype=np.uint8))
    cfg = EmbedConfig(method="lsbm_improved", threshold=threshold, seed=seed)
    assert embed(cover, bits, cfg).pixels.tolist() == reference_embed(cover, bits, cfg)


@pytest.mark.parametrize("t", [2, 3, 4, 255, 256])
def test_pull_table_covers_every_difference(t):
    # _settle looks the pull of d = c - n up at index d + 256: c is 0..255 and
    # n is _BORDER, a pixel, or a free predecessor's -1 or 256 after its step
    d = np.arange(-256, 1280)
    assert len(_pulls(t)) == len(d)
    assert _pulls(t)[d + 256].tolist() == _pull(d, t).tolist()


@pytest.mark.parametrize("threshold", [2, 4, 256])
def test_saturated_change_chained_after_the_opposite_saturated_value(threshold):
    # every LSB of the strip is wrong: the frame's pixels are 255 for a 0 bit and
    # 0 for a 1 bit, then the payload alternates 255 and 0. Every change is free
    # and chained, so a 0 reads its predecessor 255 after a +1 step as 256
    # (d = -256, the table's first entry) and a 255 reads a 0 after -1 (d = 256)
    bits = [0, 1] * 40
    cover = GrayImage(np.array([[255 - 255 * bit for bit in frame_bits(bits).tolist()]],
                               dtype=np.uint8))
    cfg = EmbedConfig(method="lsbm_improved", threshold=threshold, seed=7)
    assert embed(cover, bits, cfg).pixels.tolist() == reference_embed(cover, bits, cfg)


@pytest.mark.parametrize("traversal", ["raster", "permuted"])
@pytest.mark.parametrize("method", ["lsbm_improved", "lsbmr_improved"])
@pytest.mark.parametrize("threshold", [2, 4, 256])
@pytest.mark.parametrize("pattern", ["checkerboard", "stripes"])
def test_saturated_patterns_match_reference(pattern, threshold, method, traversal):
    # every cover pixel is 0 or 255, so each free step carries the saturation bias
    # of 16; at T = 256 all eight neighbors pull as well, and the int8 score (a
    # chained one with its predecessor's swing) reaches 24 in magnitude, its most
    y, x = np.mgrid[:20, :24]
    cover = GrayImage(255 * ((x + y) % 2 if pattern == "checkerboard" else x % 2).astype(np.uint8))
    bits = Rng(threshold).bits(cover.n_pixels - 32).tolist()
    cfg = EmbedConfig(method=method, threshold=threshold, seed=51, traversal=traversal)
    assert embed(cover, bits, cfg).pixels.tolist() == reference_embed(cover, bits, cfg)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_settles_each_job_as_alone(data):
    # covers of mixed widths (strips included) and plans of both families and
    # traversals share one T and the passes of one _settle; raster plans chain
    t = data.draw(st.sampled_from([0, 1, 2, 4, 256]), label="T")
    jobs = []
    for _ in range(data.draw(st.integers(2, 4), label="jobs")):
        cover, bits, cfg = draw_case(data)
        order = traversal_order(cover, cfg.traversal, cfg.seed)
        jobs.append(_job(cover, frame_bits(bits), cfg, order))
    alone = [_settle([job], t)[0] for job in jobs]
    assert _settle(jobs, t) == alone


@pytest.mark.parametrize("method", ["lsbm_improved", "lsbmr_improved"])
def test_batch_of_chained_raster_plans_settles_each_as_alone(method):
    # smooth covers of four widths at rate 0.8 in raster order: the passes hold
    # chained runs of several jobs, and each job's scan finds ties of its own
    covers = [synthetic_image(w, h, seed=34 + w) for w, h in ((64, 16), (48, 20), (33, 17), (200, 1))]
    jobs = []
    for i, cover in enumerate(covers):
        cfg = EmbedConfig(method=method, threshold=4, seed=35 + i)
        framed = frame_bits(Rng(36 + i).bits(int(0.8 * cover.n_pixels) - 32))
        jobs.append(_job(cover, framed, cfg, traversal_order(cover, "raster", cfg.seed)))
    alone = [_settle([job], 4)[0] for job in jobs]
    assert _settle(jobs, 4) == alone


def test_batch_jobs_without_free_changes_settle_as_alone():
    # a cover that already carries its frame plans no change, and an lsbmr-imp
    # cover whose every wrong pair needs a y1 step plans only fixed ones: both
    # draw no coin, so in either order the chained raster job's coins must not move
    framed = frame_bits(Rng(37).bits(48))  # 80 bits: 40 pairs
    carrier = GrayImage((100 + framed).astype(np.uint8).reshape(8, 10))
    s1, s2 = framed[0::2].astype(np.int16), framed[1::2].astype(np.int16)
    y1 = 100 + (s1 ^ (np.arange(40) < 20))  # the first 20 pairs carry the wrong s1
    y2 = 100 + ((s2 - (y1 >> 1)) & 1)  # f_pair(y1, y2) == s2
    fixed = GrayImage(np.stack([y1, y2], axis=1).astype(np.uint8).reshape(8, 10))
    chained = synthetic_image(24, 10, seed=38)
    jobs = []
    for cover, method, bits in ((carrier, "lsbm", framed), (fixed, "lsbmr_improved", framed),
                                (chained, "lsbm_improved", frame_bits(Rng(39).bits(160)))):
        cfg = EmbedConfig(method=method, threshold=4, seed=40)
        jobs.append(_job(cover, bits, cfg, traversal_order(cover, "raster", cfg.seed)))
    assert [len(job[1]) for job in jobs[:2]] == [0, 20] and _FREE not in jobs[1][2]
    alone = [_settle([job], 4)[0] for job in jobs]
    assert alone[0] == carrier
    assert alone[1].pixels.ravel()[jobs[1][1]].tolist() == jobs[1][2].tolist()
    assert alone[2] == embed(chained, Rng(39).bits(160), EmbedConfig("lsbm_improved", 4, 40))
    assert _settle(jobs, 4) == alone
    assert _settle(jobs[::-1], 4) == alone[::-1]


@pytest.mark.parametrize("t", [0, 1, 4])
def test_batch_jobs_sharing_a_coin_seed_settle_as_alone(t):
    # a benchmark image's cells share its coin seed: the batch draws that seed's
    # coins once, as many as its hungriest job needs, and each job reads a prefix.
    # Either order puts the job with the fewest free changes first for one seed
    cover, other = synthetic_image(24, 10, seed=41), synthetic_image(16, 12, seed=42)
    jobs = []
    for image, method, n_bits, seed in ((cover, "lsbm", 200, 43), (other, "lsbm", 150, 44),
                                        (cover, "lsbmr", 40, 43), (cover, "lsbm", 90, 43)):
        cfg = EmbedConfig(method=method, seed=seed, traversal="permuted")
        framed = frame_bits(Rng(n_bits).bits(n_bits))
        jobs.append(_job(image, framed, cfg, traversal_order(image, cfg.traversal, seed)))
    free = [int(np.count_nonzero(job[2] == _FREE)) for job in jobs]
    assert free[0] > free[3] > free[2] > 0
    alone = [_settle([job], t)[0] for job in jobs]
    assert _settle(jobs, t) == alone
    assert _settle(jobs[::-1], t) == alone[::-1]


def test_batch_runs_are_each_jobs_greedy_runs():
    # smooth covers of four shapes at rate 0.8, raster and permuted: the jobs have
    # from a handful to dozens of runs, so the lockstep search reaches some jobs'
    # ends many steps before others'. A job without changes sits between them
    found = []
    real_runs = embed_module._runs

    def spy(*args):
        found.append((args, real_runs(*args)))
        return found[-1][1]

    shapes = ((64, 16, "raster"), (9, 30, "permuted"), (40, 40, "permuted"), (200, 2, "raster"))
    jobs = []
    for i, (w, h, traversal) in enumerate(shapes):
        cover = synthetic_image(w, h, seed=45 + i)
        cfg = EmbedConfig(method="lsbm_improved", seed=46 + i, traversal=traversal)
        framed = frame_bits(Rng(47 + i).bits(int(0.8 * cover.n_pixels) - 32))
        jobs.append(_job(cover, framed, cfg, traversal_order(cover, traversal, cfg.seed)))
    carrier = synthetic_image(8, 8, seed=49)
    jobs.insert(2, _job(carrier, carrier.pixels.ravel()[:40] & 1, EmbedConfig("lsbm"),
                        traversal_order(carrier, "raster", 0)))
    assert len(jobs[2][1]) == 0
    with mock.patch.object(embed_module, "_runs", spy):  # conftest's time limit bounds it
        _settle(jobs, 4)
    (at, fi, around, _, ends), starts = found[0]
    want, begin = [], 0
    for end in ends:
        mine = fi[(fi >= begin) & (fi < end)] - begin
        want += [begin + s for s in greedy_runs(at[begin:end], mine, around)[:-1]]
        begin = end
    want = sorted(set(want)) + [len(at)]
    per_job = [sum(begin <= s < end for s in want) for begin, end in zip([0] + ends, ends)]
    assert per_job[2] == 0 and min(per_job[:2] + per_job[3:]) < 10 < max(per_job)
    assert starts == want
@given(data=st.data())
def test_wire_contract_in_stdlib_terms(data):
    # the README's contract: traversal is random.Random(seed).shuffle, coins are
    # successive getrandbits(1) of a second random.Random(seed), and the frame
    # is a 32-bit big-endian count
    cover = data.draw(edge_covers(), label="cover")
    seed = data.draw(st.integers(0, 2**70), label="seed")
    traversal = data.draw(st.sampled_from(["raster", "permuted"]), label="traversal")
    nbits = data.draw(st.integers(0, 2 * (cover.n_pixels // 2) - 32), label="nbits")
    bits = draw_bits(data, nbits)
    order = reference.visiting_order(cover.n_pixels, seed, traversal)
    for family in ("lsbm", "lsbmr"):
        stego = embed(cover, bits, EmbedConfig(method=family, seed=seed, traversal=traversal))
        rows = reference.embed(cover.pixels.tolist(), bits, family, seed, traversal)
        assert stego.pixels.tolist() == rows
        # the receiver side: pure stdlib decoding
        read = stdlib_read([v for row in rows for v in row], order, family)
        assert read[32 : 32 + int("".join(map(str, read[:32])), 2)] == bits


def stdlib_read(values, order, family):
    """The bits every visited pixel carries: each LSB, or per whole pair LSB(y1), f_pair(y1, y2)."""
    if family == "lsbm":
        return [values[i] & 1 for i in order]
    read = []
    for i1, i2 in zip(order[0::2], order[1::2]):
        read += [values[i1] & 1, ((values[i1] >> 1) + values[i2]) & 1]
    return read


# ---------------------------------------------------------------------------
# capacity and framing errors


class Shape:
    """A stand-in cover: a height and a width, with no raster behind them."""

    def __init__(self, height, width):
        self.height, self.width = height, width


def test_settle_rejects_stacks_past_int32_positions():
    # _settle addresses the bordered stack by int32 positions, so a stack of 2**31
    # pixels or more is refused before anything is allocated: one 46341x46341
    # bordered block, or a chunk of two 32768x32768 ones
    with pytest.raises(ValueError, match=r"2\*\*31"):
        _settle([(Shape(46339, 46339), np.zeros(0, np.int32), np.zeros(0, np.int16), 0)], 4)
    with pytest.raises(ValueError, match=r"2\*\*31"):
        _stack([Shape(32766, 32766), Shape(1, 1)])
    # one bordered row fewer, 2**31 - 2**16 pixels, goes on to allocate the stack
    with mock.patch.object(np, "full", side_effect=MemoryError("allocated")) as full:
        with pytest.raises(MemoryError, match="allocated"):
            _stack([Shape(32766, 32765), Shape(1, 1)])
    assert full.call_args.args[0] == (2, 32768, 32767)


def test_capacity_error_when_message_too_long():
    cover = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(CapacityError):
        embed(cover, [0] * 40, EmbedConfig(method="lsbm", seed=0))


def test_extract_rejects_tampered_prefix():
    # all-ones LSBs declare a payload far beyond the carrier
    stego = GrayImage(np.full((8, 8), 255, dtype=np.uint8))
    with pytest.raises(FramingError):
        extract(stego, EmbedConfig(method="lsbm", seed=0))
    with pytest.raises(FramingError):
        extract(stego, EmbedConfig(method="lsbmr", seed=0))


def test_extract_rejects_tiny_carrier():
    stego = GrayImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(FramingError):
        extract(stego, EmbedConfig(method="lsbm", seed=0))


def full_read_decode(stego, cfg):
    """The payload by a stdlib receiver that reads every visited pixel, then the frame."""
    order = reference.visiting_order(stego.n_pixels, cfg.seed, cfg.traversal)
    family = "lsbmr" if cfg.method.startswith("lsbmr") else "lsbm"
    read = stdlib_read(stego.pixels.ravel().tolist(), order, family)
    if len(read) < 32:
        raise FramingError(f"stream of {len(read)} bits is shorter than the 32-bit prefix")
    declared = int("".join(map(str, read[:32])), 2)
    if 32 + declared > len(read):
        raise FramingError(
            f"declared payload of {declared} bits exceeds the {len(read) - 32} available")
    return read[32 : 32 + declared]


def carrying(raster, cfg, bits):
    """raster (flat ints) changed so its first visited pixels carry bits, by stdlib_read's rule."""
    values = list(raster)
    order = reference.visiting_order(len(values), cfg.seed, cfg.traversal)
    if not cfg.method.startswith("lsbmr"):
        for i, b in zip(order, bits):
            values[i] = values[i] & ~1 | b
        return values
    bits = list(bits) + [0] * (len(bits) & 1)
    for i1, i2, s1, s2 in zip(order[0::2], order[1::2], bits[0::2], bits[1::2]):
        values[i1] = values[i1] & ~1 | s1
        values[i2] = values[i2] & ~1 | s2 ^ (values[i1] >> 1 & 1)  # f_pair(y1, y2) == s2
    return values


def check_extract(h, w, raster, cfg, declared, payload):
    """extract on a stego framing `declared` bits against full_read_decode: same bits or text."""
    frame = [int(b) for b in format(declared, "032b")]
    stego = GrayImage(np.array(carrying(raster, cfg, frame + payload), dtype=np.uint8).reshape(h, w))
    try:
        want = full_read_decode(stego, cfg)
    except FramingError as exc:
        with pytest.raises(FramingError, match=f"^{re.escape(str(exc))}$"):
            extract(stego, cfg)
        return None
    got = extract(stego, cfg)
    assert got.dtype == np.uint8 and got.tolist() == want
    return got


# the framed lengths: the capacity exactly and one past it, no payload, an odd
# length one pair short of the capacity (lsbmr rounds it up to the last pair);
# a carrier of fewer than 32 usable pixels holds no frame at all
DECLARED = {"capacity": lambda usable: max(usable - 32, 0),
            "over": lambda usable: max(usable - 31, 0),
            "zero": lambda usable: 0, "odd": lambda usable: max(usable - 33, 0)}


@pytest.mark.parametrize("traversal", ["raster", "permuted"])
@pytest.mark.parametrize("method", ["lsbm", "lsbmr"])
@pytest.mark.parametrize("w", [1, 31, 32, 33, 35, 64])
@pytest.mark.parametrize("declared", sorted(DECLARED))
def test_extract_reads_the_framed_prefix_at_the_edges(traversal, method, w, declared):
    # 1xN carriers: fewer than 32 usable pixels, exactly 32, and odd counts,
    # where lsbmr's last pixel carries nothing (1x35: an odd framed length
    # reads the last whole pair)
    cfg = EmbedConfig(method=method, seed=7, traversal=traversal)
    usable = 2 * (w // 2) if method == "lsbmr" else w
    n = DECLARED[declared](usable)
    payload = Rng(w).bits(min(n, max(usable - 32, 0))).tolist()
    got = check_extract(1, w, np.random.default_rng(w).integers(0, 256, w).tolist(), cfg, n,
                        payload)
    if usable < 32 or declared == "over":
        assert got is None
    else:
        assert got.tolist() == payload


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extract_matches_a_full_read_decode(data):
    # arbitrary stegos, small and thin ones included, whose frame declares up
    # to the capacity, just past it, or any 32-bit count
    h, w = data.draw(st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 12)),
                               st.tuples(st.just(1), st.integers(1, 80)),
                               st.sampled_from([(1, 33), (33, 1), (3, 11)])), label="shape")
    raster = data.draw(st.binary(min_size=w * h, max_size=w * h), label="raster")
    cfg = EmbedConfig(method=data.draw(st.sampled_from(METHODS), label="method"),
                      seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
                      traversal=data.draw(st.sampled_from(["raster", "permuted"]), label="traversal"))
    usable = 2 * (w * h // 2) if cfg.method.startswith("lsbmr") else w * h
    which = data.draw(st.sampled_from(sorted(DECLARED) + ["any", "32-bit"]), label="declared")
    if which == "any":
        declared = data.draw(st.integers(0, max(usable - 32, 0)), label="n")
    elif which == "32-bit":
        declared = data.draw(st.integers(0, 2**32 - 1), label="n")
    else:
        declared = DECLARED[which](usable)
    payload = draw_bits(data, min(declared, max(usable - 32, 0)))
    check_extract(h, w, raster, cfg, declared, payload)


@pytest.mark.parametrize("traversal", ["raster", "permuted"])
def test_extract_leaves_the_stego_raster_alone(traversal):
    # extract reads a raster prefix in place: it must neither write to it nor
    # need it writable
    cover = synthetic_image(24, 16, 5)
    bits = Rng(8).bits(200).tolist()
    for method in ("lsbm", "lsbmr"):
        cfg = EmbedConfig(method=method, seed=9, traversal=traversal)
        raw = embed(cover, bits, cfg).pixels.tobytes()
        read_only = GrayImage(np.frombuffer(raw, dtype=np.uint8).reshape(16, 24))
        writable = GrayImage(read_only.pixels.copy())
        assert not read_only.pixels.flags.writeable
        for stego in (read_only, writable):
            assert extract(stego, cfg).tolist() == bits
            assert stego.pixels.tobytes() == raw


WRONG_KEY_COVERS = {
    # random LSBs: a wrong key reads a random length that overflows the carrier
    "noise": np.random.default_rng(22).integers(0, 256, (24, 24), dtype=np.uint8),
    # even values: a wrong key reads mostly zero LSBs and a short garbage payload
    "flat": np.full((24, 24), 100, dtype=np.uint8),
}
WRONG_KEY_PAYLOAD = b"\xb4\xb4"
SENDER_KEY = {"seed": 42, "traversal": "permuted"}


def wrong_keys(family):
    """The receiver's key changes: another seed, the other traversal, the other family."""
    return [{"seed": 43}, {"traversal": "raster"},
            {"method": "lsbmr" if family == "lsbm" else "lsbm"}]


@pytest.mark.parametrize("cover_name", sorted(WRONG_KEY_COVERS))
@pytest.mark.parametrize("family", ["lsbm", "lsbmr"])
def test_wrong_key_extraction_raises_or_differs(family, cover_name):
    # the frame has no integrity check: under a wrong key extraction either
    # finds no consistent frame or reads other bits
    bits = bytes_to_bits(WRONG_KEY_PAYLOAD).tolist()
    sender = EmbedConfig(method=family, **SENDER_KEY)
    stego = embed(GrayImage(WRONG_KEY_COVERS[cover_name]), bits, sender)
    for change in wrong_keys(family):
        try:
            recovered = extract(stego, replace(sender, **change))
        except FramingError:
            continue
        assert recovered.tolist() != bits


# ---------------------------------------------------------------------------
# round trips and distortion bounds


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roundtrip_and_distortion(method, data):
    w = data.draw(st.integers(6, 12), label="w")
    h = data.draw(st.integers(6, 12), label="h")
    raster = data.draw(st.binary(min_size=w * h, max_size=w * h), label="raster")
    cover = GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(h, w))
    cap = 2 * (w * h // 2) - 32
    nbits = data.draw(st.integers(0, cap), label="nbits")
    bits = draw_bits(data, nbits)
    seed = data.draw(st.integers(0, 2**32), label="seed")
    traversal = data.draw(st.sampled_from(["raster", "permuted"]), label="traversal")
    cfg = EmbedConfig(method=method, seed=seed, traversal=traversal)
    stego = embed(cover, bits, cfg)
    assert extract(stego, cfg).tolist() == bits
    assert np.abs(stego.pixels.astype(int) - cover.pixels.astype(int)).max(initial=0) <= 1


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("value", [0, 255])
def test_saturated_covers_stay_in_range(method, value):
    cover = GrayImage(np.full((12, 12), value, dtype=np.uint8))
    cfg = EmbedConfig(method=method, seed=11)
    bits = Rng(1).bits(100).tolist()
    stego = embed(cover, bits, cfg)
    assert extract(stego, cfg).tolist() == bits
    assert int(stego.pixels.min()) >= 0 and int(stego.pixels.max()) <= 255
    assert np.abs(stego.pixels.astype(int) - cover.pixels.astype(int)).max() <= 1


def test_change_rates_smoke():
    # coarse check here; the tight ±0.005 bound runs in the acceptance suite
    gen = np.random.default_rng(14)
    cover = GrayImage(gen.integers(0, 256, (320, 320), dtype=np.uint8))
    n_bits = 90_000
    bits = Rng(15).bits(n_bits)
    visited = n_bits + 32
    lsbm_frac = np.count_nonzero(
        embed(cover, bits, EmbedConfig(method="lsbm", seed=16)).pixels != cover.pixels
    ) / visited
    assert abs(lsbm_frac - 0.5) < 0.02
    lsbmr_frac = np.count_nonzero(
        embed(cover, bits, EmbedConfig(method="lsbmr", seed=16)).pixels != cover.pixels
    ) / visited
    assert abs(lsbmr_frac - 0.375) < 0.02


def test_partial_rate_leaves_tail_untouched():
    gen = np.random.default_rng(17)
    cover = GrayImage(gen.integers(0, 256, (16, 16), dtype=np.uint8))
    cfg = EmbedConfig(method="lsbm", seed=18)
    bits = Rng(19).bits(60).tolist()
    stego = embed(cover, bits, cfg)
    # only the first 92 raster positions are visited
    assert np.array_equal(stego.pixels.ravel()[92:], cover.pixels.ravel()[92:])
    assert extract(stego, cfg).tolist() == bits
