import numpy as np
import pytest

from lsblab.bits import CapacityError
from lsblab.harness import (
    ReportRow,
    accuracy,
    benchmark,
    detection_experiment,
    energy_experiment,
    report_csv,
    report_svg,
    synthetic_corpus,
    train_fld,
)
from lsblab.image import GrayImage


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


# ---------------------------------------------------------------------------
# experiments


def test_energy_constant_corpus_drops_e0():
    corpus = [GrayImage(np.full((32, 32), 100, dtype=np.uint8)) for _ in range(3)]
    res = energy_experiment(corpus, "lsbm", 0.5, seed=7)
    for cover_e, stego_e in res:
        assert cover_e[0] == 1.0
        assert stego_e[0] < 1.0


def test_energy_experiment_is_deterministic():
    corpus = synthetic_corpus(4, 48, 48, seed=8)
    a = energy_experiment(corpus, "lsbmr", 0.8, seed=9)
    b = energy_experiment(corpus, "lsbmr", 0.8, seed=9)
    for (ca, sa), (cb, sb) in zip(a, b):
        assert np.array_equal(ca, cb) and np.array_equal(sa, sb)


def test_energy_direction_on_natural_corpus():
    corpus = synthetic_corpus(20, 64, 64, seed=10)
    res = energy_experiment(corpus, "lsbm", 0.8, seed=11)
    cover_mean = np.mean([c[0] for c, _ in res])
    stego_mean = np.mean([s[0] for _, s in res])
    assert stego_mean < cover_mean


def test_energy_rejects_infeasible_rate():
    corpus = [GrayImage(np.zeros((6, 6), dtype=np.uint8))]
    with pytest.raises(CapacityError):
        energy_experiment(corpus, "lsbm", 0.5, seed=0)  # 18-bit budget < frame


def test_null_detection_is_exactly_chance():
    corpus = synthetic_corpus(100, 32, 32, seed=12)
    acc = detection_experiment(corpus, None, 0.8, seed=13)
    assert abs(acc - 50.0) <= 5.0


def test_detection_requires_corpus_and_split():
    corpus = synthetic_corpus(10, 32, 32, seed=14)
    with pytest.raises(ValueError):
        detection_experiment(corpus, "lsbm", 0.8, seed=0)


def test_detection_finds_heavy_embedding():
    corpus = synthetic_corpus(40, 48, 48, seed=15)
    acc = detection_experiment(corpus, "lsbm", 0.8, seed=16)
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


def test_report_svg_is_valid_and_deterministic():
    svg = report_svg(sample_report())
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "lsbm" in svg
    assert report_svg(sample_report()) == svg
