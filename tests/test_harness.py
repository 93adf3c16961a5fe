import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lsblab.harness
from lsblab.bits import CapacityError
from lsblab.embed import EmbedConfig, embed
from lsblab.glcm import band_features
from lsblab.harness import (
    ReportRow,
    _blur,
    _mean_energies,
    _message_bits,
    _split_accuracy,
    accuracy,
    benchmark,
    report_csv,
    report_svg,
    synthetic_corpus,
    synthetic_image,
    train_fld,
)
from lsblab.image import GrayImage
from lsblab.rng import Rng, derive_seed


def xy(rows):
    """(x, y) arrays from (values, label) rows."""
    return np.array([values for values, _ in rows], dtype=float), np.array([label for _, label in rows])


# ---------------------------------------------------------------------------
# Fisher discriminant


def test_fld_separates_one_dimensional_classes():
    x, y = xy([([0.1], 0), ([0.2], 0), ([0.8], 1), ([0.9], 1)])
    model = train_fld(x, y)
    assert accuracy(model, x, y) == 100.0


def test_fld_two_dimensional_separable():
    gen = np.random.default_rng(0)
    x = np.concatenate([gen.normal((0, 0), 0.1, (40, 2)), gen.normal((3, 3), 0.1, (40, 2))])
    y = np.repeat([0, 1], 40)
    model = train_fld(x, y)
    assert accuracy(model, x, y) == 100.0


def test_fld_no_signal_is_chance_level():
    gen = np.random.default_rng(1)
    y = np.arange(400) % 2
    x_train, x_test = gen.normal(0, 1, (400, 4)), gen.normal(0, 1, (400, 4))
    model = train_fld(x_train, y)
    assert abs(accuracy(model, x_test, y) - 50.0) <= 10.0


def test_fld_requires_both_classes():
    with pytest.raises(ValueError):
        train_fld(*xy([([0.1], 0), ([0.2], 0)]))


def test_fld_handles_singular_scatter():
    # identical samples within each class make the scatter all zeros
    x, y = xy([([0.0, 0.0], 0)] * 3 + [([1.0, 1.0], 1)] * 3)
    model = train_fld(x, y)
    assert accuracy(model, x, y) == 100.0


def test_fld_identical_classes_degenerates_to_one_side():
    x, y = xy([([0.3, 0.7], 0), ([0.3, 0.7], 1)] * 10)
    model = train_fld(x, y)
    assert accuracy(model, x, y) == 50.0


# ---------------------------------------------------------------------------
# synthetic corpus


def test_corpus_is_seeded_and_sized():
    a = synthetic_corpus(5, 32, 32, seed=4)
    b = synthetic_corpus(5, 32, 32, seed=4)
    c = synthetic_corpus(5, 32, 32, seed=5)
    assert len(a) == 5
    assert all(x == y for x, y in zip(a, b))
    assert any(x != y for x, y in zip(a, c))
    assert all(img.width == 32 and img.height == 32 for img in a)


def test_corpus_images_are_smooth():
    for img in synthetic_corpus(5, 64, 64, seed=6):
        diffs = np.abs(np.diff(img.pixels.astype(int), axis=1))
        assert np.mean(diffs < 4) > 0.9


def test_corpus_rejects_empty():
    with pytest.raises(ValueError):
        synthetic_corpus(0, 32, 32, seed=0)


@settings(max_examples=300, deadline=None)
@given(height=st.integers(1, 89), width=st.integers(1, 89),
       sigma=st.one_of(st.floats(0.6, 2.0), st.floats(5.0, 12.0)),
       seed=st.integers(0, 2**32 - 1), strip=st.sampled_from([None, 0, 1]))
def test_blur_equals_gaussian_filter_bitwise(height, width, sigma, seed, strip):
    ndimage = pytest.importorskip("scipy.ndimage")
    # the covers' bytes depend on every ulp: a drift of np.exp between CPUs shows here.
    # Radii reach 48, so many sides here are shorter than their pad
    shape = [height, width]
    if strip is not None:
        shape[strip] = 1  # 1xN and Nx1
    x = np.random.default_rng(seed).standard_normal(shape)
    assert np.array_equal(_blur(x, sigma), ndimage.gaussian_filter(x, sigma, mode="reflect"))


def test_blur_equals_gaussian_filter_bitwise_at_512():
    ndimage = pytest.importorskip("scipy.ndimage")
    x = np.random.default_rng(512).standard_normal((512, 512))
    assert np.array_equal(_blur(x, 12.0), ndimage.gaussian_filter(x, 12.0, mode="reflect"))


# ---------------------------------------------------------------------------
# experiments


def test_null_detection_is_exactly_chance():
    corpus = synthetic_corpus(100, 32, 32, seed=12)
    acc = benchmark(corpus, [None], [0.8], seed=13)[0].detect_pct
    assert abs(acc - 50.0) <= 5.0


def test_detection_requires_corpus_and_split():
    corpus = synthetic_corpus(10, 32, 32, seed=14)
    with pytest.raises(ValueError):
        benchmark(corpus, ["lsbm"], [0.8], seed=0)


def test_detection_finds_heavy_embedding():
    corpus = synthetic_corpus(40, 48, 48, seed=15)
    acc = benchmark(corpus, ["lsbm"], [0.8], seed=16)[0].detect_pct
    assert acc > 60.0


# ---------------------------------------------------------------------------
# report


def sample_report():
    return [ReportRow("lsbm", 0.4, 4, 7, 20,
                      np.array([0.3, 0.3, 0.2, 0.1, 0.05]),
                      np.array([0.25, 0.28, 0.22, 0.12, 0.07]), 83.25)]


def test_report_csv_header_only_when_empty():
    csv = report_csv([])
    assert csv == ("method,rate,T,seed,n,"
                   "e0_cover,e1_cover,e2_cover,e3_cover,e4_cover,"
                   "e0_stego,e1_stego,e2_stego,e3_stego,e4_stego,detect_pct\n")


def test_report_csv_row_format():
    lines = report_csv(sample_report()).strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[:5] == ["lsbm", "0.4", "4", "7", "20"]
    assert cells[5] == "0.300000"
    assert cells[-1] == "83.25"


def test_benchmark_arity_and_determinism():
    corpus = synthetic_corpus(20, 32, 32, seed=17)
    report = benchmark(corpus, ["lsbm", "lsbm_improved"], [0.4, 0.8], seed=18)
    assert len(report) == 4
    again = benchmark(corpus, ["lsbm", "lsbm_improved"], [0.4, 0.8], seed=18)
    assert report_csv(report) == report_csv(again)


def test_benchmark_constant_corpus_drops_e0():
    # a constant cover's pairs all fall in the main diagonal; embedding moves some off it
    corpus = [GrayImage(np.full((32, 32), 100, dtype=np.uint8)) for _ in range(20)]
    (row,) = benchmark(corpus, ["lsbm"], [0.5], seed=7)
    assert row.cover_energies[0] == 1.0
    assert row.stego_energies[0] < 1.0


def cell_stegos(corpus, method, rate, threshold, seed):
    """One benchmark cell's stegos, each image embedded alone through embed.

    Child seeds use the harness's stream tags: 0 message, 1 embed.
    """
    return [embed(image, _message_bits(rate, image.n_pixels, derive_seed(seed, i, 0)),
                  EmbedConfig(method, threshold, derive_seed(seed, i, 1), "permuted"))
            for i, image in enumerate(corpus)]


def reference_benchmark(corpus, methods, rates, threshold, seed):
    """The method-outer loop: every cell embeds every image from scratch through embed.

    The train/test split uses the harness's stream tag 2.
    """
    cover_x = np.stack([band_features(image) for image in corpus])
    split = Rng(derive_seed(seed, 2)).shuffle(len(corpus))
    rows = []
    for method in methods:
        for rate in rates:
            stegos = corpus if method is None else cell_stegos(corpus, method, rate, threshold, seed)
            stego_x = np.stack([band_features(image) for image in stegos])
            rows.append(ReportRow(method, rate, threshold, seed, len(corpus),
                                  _mean_energies(cover_x).mean(axis=0),
                                  _mean_energies(stego_x).mean(axis=0),
                                  _split_accuracy(cover_x, stego_x, split)))
    return rows


# sizes cycle through even, odd (15 x 9 = 135 pixels) and non-square covers
MIXED_SIZES = ((24, 24), (15, 9), (32, 20), (17, 17), (40, 12))


def mixed_corpus(seed):
    return [synthetic_image(*MIXED_SIZES[i % len(MIXED_SIZES)], seed=seed + i) for i in range(20)]


@pytest.mark.parametrize("chunk_pixels", [lsblab.harness._CHUNK_PIXELS, 32768, 1500])
@pytest.mark.parametrize("threshold", [0, 1, 4, 300])
@pytest.mark.parametrize("methods, rates", [
    ([None, "lsbm", "lsbm_improved", "lsbm"], [1.0, 0.4, 1.0]),
    (["lsbmr", None, "lsbmr_improved", "lsbmr_improved"], [0.6, 0.3, 0.6]),
    (["lsbmr_improved", "lsbm", None, "lsbmr", "lsbm_improved"], [0.7, 0.35]),
])
def test_benchmark_matches_per_cell_reference(monkeypatch, methods, rates, threshold, chunk_pixels):
    # a threshold's cells settle together: the whole corpus in one batch, in chunks
    # of three to seven covers, or cover by cover; at T <= 1 the improved cells'
    # votes all tie, and at T = 0 they join the baselines' batch
    monkeypatch.setattr(lsblab.harness, "_CHUNK_PIXELS", chunk_pixels)
    corpus = mixed_corpus(19)
    got = benchmark(corpus, methods, rates, threshold, seed=20)
    want = reference_benchmark(corpus, methods, rates, threshold, seed=20)
    assert report_csv(got) == report_csv(want)
    assert report_svg(got) == report_svg(want)


def test_benchmark_budgets_padded_blocks_on_wide_and_tall_covers():
    # a batch pads every block to its largest height and width: alternating 512x2
    # and 2x512 covers would pad each job to 514x514, so each chunk holds one cover
    corpus = [synthetic_image(*((512, 2) if i % 2 else (2, 512)), seed=60 + i) for i in range(20)]
    tracemalloc.start()
    try:
        got = benchmark(corpus, ["lsbm_improved", "lsbmr"], [0.5], seed=61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert report_csv(got) == report_csv(reference_benchmark(corpus, ["lsbm_improved", "lsbmr"],
                                                             [0.5], 4, 61))


def test_benchmark_capacity_error_matches_per_cell_reference():
    # lsbmr cannot carry a full-rate message on an odd pixel count
    corpus = mixed_corpus(21)
    errors = []
    for run in (benchmark, reference_benchmark):
        with pytest.raises(CapacityError) as info:
            run(corpus, [None, "lsbm", "lsbmr"], [0.5, 1.0], 4, 22)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert "135 bits exceeds capacity 134" in errors[0]


def test_benchmark_capacity_error_in_a_later_chunk_matches_per_cell_reference(monkeypatch):
    # chunks of ten covers: cover 15 is odd-sized, so lsbmr cannot carry rate 1.0
    # there, and cover 3 is too small for a rate-0.05 frame. The first embedding
    # cell fails only in the second chunk, the next one already in the first
    def no_settle(*args):
        raise AssertionError("a chunk settled before the capacity check")

    corpus = [synthetic_image(*((16, 16) if i == 3 else (31, 33) if i == 15 else (32, 32)),
                              seed=40 + i) for i in range(20)]
    monkeypatch.setattr(lsblab.harness, "_CHUNK_PIXELS", 10 * 32 * 32)
    monkeypatch.setattr(lsblab.harness, "_settle", no_settle)
    errors = []
    for run in (benchmark, reference_benchmark):
        with pytest.raises(CapacityError) as info:
            run(corpus, [None, "lsbmr"], [1.0, 0.05], 4, 41)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "framed message of 1023 bits exceeds capacity 1022 (31x33 cover)"


def test_benchmark_unknown_method_raises_before_a_later_cells_capacity_error():
    # the first cell's EmbedConfig error, though cover 1 cannot carry lsbmr at rate 1.0
    corpus = mixed_corpus(21)
    for run in (benchmark, reference_benchmark):
        with pytest.raises(ValueError, match="unknown method 'lsbx'"):
            run(corpus, ["lsbx", "lsbmr"], [1.0], 4, 22)


@pytest.mark.parametrize("methods, rates, non_null_cells", [
    ([None, "lsbm", "lsbmr_improved"], [0.4, 0.8, 0.4], 6),
    ([None], [0.5, 0.9], 0),
])
def test_benchmark_shuffles_once_per_image(monkeypatch, methods, rates, non_null_cells):
    calls = {"shuffle": 0, "band_features": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Rng, "shuffle", counted("shuffle", Rng.shuffle))
    monkeypatch.setattr(lsblab.harness, "band_features",
                        counted("band_features", lsblab.harness.band_features))
    n = 20
    benchmark(synthetic_corpus(n, 16, 16, seed=23), methods, rates, seed=24)
    # one permutation per image when any cell embeds, plus the train/test split
    assert calls["shuffle"] == (n + 1 if non_null_cells else 1)
    assert calls["band_features"] == n * (1 + non_null_cells)


@pytest.mark.parametrize("methods", [[None], [None, "lsbm"]])
@pytest.mark.parametrize("rate", [2.0, float("inf"), float("nan")])
def test_benchmark_rejects_rate_above_one_before_any_cell(monkeypatch, methods, rate):
    # a null cell draws no message, so only a check made up front rejects its rate;
    # no image is featurized before the error
    def no_features(image):
        raise AssertionError("band_features called before the rate check")

    monkeypatch.setattr(lsblab.harness, "band_features", no_features)
    with pytest.raises(ValueError, match=r"rate must be in \(0, 1\], got"):
        benchmark(synthetic_corpus(20, 16, 16, seed=25), methods, [0.5, rate], seed=26)


@pytest.mark.parametrize("methods", [[None], [None, "lsbm"]])
def test_benchmark_rejects_negative_threshold_before_any_cell(monkeypatch, methods):
    # EmbedConfig's own error, even when no cell embeds
    def no_features(image):
        raise AssertionError("band_features called before the threshold check")

    monkeypatch.setattr(lsblab.harness, "band_features", no_features)
    with pytest.raises(ValueError, match="threshold must be non-negative, got -3"):
        benchmark(synthetic_corpus(20, 8, 8, seed=1), methods, [0.5], threshold=-3)


def test_report_svg_is_valid_and_deterministic():
    svg = report_svg(sample_report())
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "lsbm" in svg
    assert report_svg(sample_report()) == svg
