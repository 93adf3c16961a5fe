"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
All experiments are seeded; reruns produce identical numbers.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from lsblab.bits import FRAME_BITS
from lsblab.embed import (
    _FREE,
    EmbedConfig,
    _pull,
    _settle,
    embed,
    extract,
)
from lsblab.glcm import cooccurrence
from lsblab.harness import (
    benchmark,
    energy_experiment,
    rate_capacity,
    synthetic_corpus,
)
from lsblab.image import GrayImage
from lsblab.rng import Rng, derive_seed

import reference
from test_glcm import NEIGHBOR_OFFSETS, brute_force_glcm

METHODS = ("lsbm", "lsbmr", "lsbm_improved", "lsbmr_improved")

MASTER_SEED = 20240901
ROUNDTRIP_COVERS = 50
ROUNDTRIP_RATES = (0.1, 0.5, 1.0)

# frozen experiment configuration for the trend criteria
FIG4_CORPUS_SEED = 7
TABLE1_CORPUS_SEED = 29
EXPERIMENT_SEED = 5
TABLE1_SEEDS = (5, 11, 23)  # detection accuracy is the mean over these runs


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] {name}")
        raise
    print(f"\n[PASS] {name} ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def roundtrip_trials():
    """50 random 64x64 covers x 4 methods x 3 rates, embedded and extracted."""
    trials = []
    failures = 0
    t0 = time.perf_counter()
    for i in range(ROUNDTRIP_COVERS):
        cover_pixels = np.random.default_rng(derive_seed(MASTER_SEED, i)).integers(
            0, 256, (64, 64), dtype=np.uint8)
        cover = GrayImage(cover_pixels)
        for mi, method in enumerate(METHODS):
            for ri, rate in enumerate(ROUNDTRIP_RATES):
                budget = rate_capacity(rate, cover.n_pixels)
                bits = Rng(derive_seed(MASTER_SEED, i, mi, ri)).bits(budget - FRAME_BITS).tolist()
                cfg = EmbedConfig(method=method, seed=derive_seed(MASTER_SEED, i, mi, ri, 1))
                stego = embed(cover, bits, cfg)
                if extract(stego, cfg).tolist() != bits:
                    failures += 1
                trials.append((method, rate, cover.pixels, stego.pixels))
    return {"trials": trials, "failures": failures, "elapsed": time.perf_counter() - t0}


def test_roundtrip_exactness(roundtrip_trials):
    name = (f"round-trip exactness: 50 covers x 4 methods x 3 rates "
            f"(embed+extract took {roundtrip_trials['elapsed']:.1f}s)")
    with criterion(name):
        assert roundtrip_trials["failures"] == 0
        assert len(roundtrip_trials["trials"]) == ROUNDTRIP_COVERS * len(METHODS) * len(ROUNDTRIP_RATES)
        assert roundtrip_trials["elapsed"] < 10.0, f"took {roundtrip_trials['elapsed']:.1f}s"


def test_plus_minus_one_boundary_table():
    with criterion("±1 matching boundary table: 0→1, 255→254, matching LSB untouched"):
        # a framed 8-bit payload spans 40 bits; prefix bit 28 is its only 1
        cfg = EmbedConfig(method="lsbm", seed=1)

        cover = GrayImage(np.zeros((5, 8), dtype=np.uint8))
        out = embed(cover, [1] * 8, cfg).pixels.ravel()
        assert out[28] == 1 and out[32:].tolist() == [1] * 8  # value 0, bit 1 -> 1

        cover = GrayImage(np.full((5, 8), 255, dtype=np.uint8))
        out = embed(cover, [0] * 8, cfg).pixels.ravel()
        assert out[32:].tolist() == [254] * 8  # value 255, bit 0 -> 254
        assert out[28] == 255  # bit matches LSB(255): untouched

        cover = GrayImage(np.full((5, 8), 10, dtype=np.uint8))
        out = embed(cover, [0] * 8, cfg).pixels.ravel()
        assert out[32:].tolist() == [10] * 8  # bit matches LSB(10): untouched


def test_distortion_bounds(roundtrip_trials):
    with criterion("distortion bounds: |change| ≤ 1; ≤ 1 change per pair off saturation"):
        for method, rate, cover, stego in roundtrip_trials["trials"]:
            delta = np.abs(stego.astype(np.int16) - cover.astype(np.int16))
            assert int(delta.max()) <= 1
            if method.startswith("lsbmr"):
                changed = (delta > 0).ravel()
                per_pair = changed.reshape(-1, 2).sum(axis=1)
                heavy = np.flatnonzero(per_pair == 2)
                assert int(per_pair.max(initial=0)) <= 2
                # two changes only via the saturated-y1 fallback
                y1_values = cover.ravel()[2 * heavy]
                assert np.all((y1_values == 0) | (y1_values == 255))


def test_change_rate_statistics():
    with criterion("change rates over 10^6 bits: lsbm 0.500 ± 0.005, lsbmr 0.375 ± 0.005"):
        n_bits = 1_000_000
        cover = GrayImage(np.random.default_rng(derive_seed(MASTER_SEED, 900)).integers(
            0, 256, (1024, 1024), dtype=np.uint8))
        visited = n_bits + FRAME_BITS
        for method, expected in (("lsbm", 0.5), ("lsbmr", 0.375)):
            bits = Rng(derive_seed(MASTER_SEED, 901)).bits(n_bits)
            cfg = EmbedConfig(method=method, seed=derive_seed(MASTER_SEED, 902))
            stego = embed(cover, bits, cfg)
            frac = np.count_nonzero(stego.pixels != cover.pixels) / visited
            assert abs(frac - expected) <= 0.005, f"{method}: {frac:.4f}"


def test_glcm_brute_force_oracle():
    with criterion("co-occurrence oracle: 200 random 8x8 images, 8 offsets, exact"):
        t0 = time.perf_counter()
        gen = np.random.default_rng(derive_seed(MASTER_SEED, 903))
        for _ in range(200):
            pixels = gen.integers(0, 256, (8, 8), dtype=np.uint8)
            img = GrayImage(pixels)
            for dx, dy in NEIGHBOR_OFFSETS:
                fast = cooccurrence(img, (dx, dy))
                assert np.array_equal(fast, brute_force_glcm(pixels, dx, dy))
                mirrored = cooccurrence(img, (-dx, -dy))
                assert np.array_equal(fast, mirrored.T)
        assert time.perf_counter() - t0 < 5.0


def test_direction_choice_worked_example():
    with criterion("direction choice example: sad_minus 14, sad_plus 8, step +1"):
        # 3x3 block [[100,101,102],[100,100,103],[99,100,101]], T=4: every
        # neighbor votes. embed's array score sums sign(c - n) over them,
        # which is (sad_plus - sad_minus) / 2
        block = np.array([[100, 101, 102], [100, 100, 103], [99, 100, 101]])
        sad_minus, sad_plus = reference.vote(block.tolist(), 1, 1, 4)
        assert sad_minus == 14
        assert sad_plus == 8
        assert _pull(100 - np.delete(block.ravel(), 4), 4).sum() == (sad_plus - sad_minus) // 2 == -3
        # the center as a plan's one free change steps up, whatever the coin
        for seed in range(10):
            stego = _settle(GrayImage(block.astype(np.uint8)), np.array([4]),
                            np.array([_FREE], dtype=np.int16), seed, 4)
            assert stego.pixels[1, 1] == 101


def test_energy_trend():
    name = ("energy trend at 0.8 bpp, T=4: improved drop < baseline drop, "
            "improved closer on ≥ 80% of images")
    with criterion(name):
        t0 = time.perf_counter()
        corpus = synthetic_corpus(20, 128, 128, seed=FIG4_CORPUS_SEED)
        drops = {}
        for method in METHODS:
            pairs = energy_experiment(corpus, method, 0.8, threshold=4, seed=EXPERIMENT_SEED)
            drops[method] = np.array([cover_e[0] - stego_e[0] for cover_e, stego_e in pairs])
            assert drops[method].mean() > 0, f"{method}: stego e0 not below cover"
        for base, imp in (("lsbm", "lsbm_improved"), ("lsbmr", "lsbmr_improved")):
            assert drops[imp].mean() < drops[base].mean()
            closer = np.mean(drops[imp] < drops[base])
            assert closer >= 0.8, f"{imp} closer on only {closer:.0%} of images"
        assert time.perf_counter() - t0 < 60.0


def test_detection_trend():
    name = ("detection trend at 0.8 bpp: baseline beats improved by ≥ 5 points "
            "per family; cover-vs-cover null at 50 ± 5")
    with criterion(name):
        corpus = synthetic_corpus(400, 40, 40, seed=TABLE1_CORPUS_SEED,
                                  texture=1.5, noise=0.4)
        # one benchmark per seed: the four methods share each image's permutation
        runs = {method: [] for method in METHODS}
        for s in TABLE1_SEEDS:
            for row in benchmark(corpus, METHODS, [0.8], 4, s):
                runs[row.method].append(row.detect_pct)
        acc = {method: float(np.mean(runs[method])) for method in METHODS}
        print(f"\n    accuracies: " + "  ".join(f"{m}={acc[m]:.1f}" for m in METHODS))
        assert acc["lsbm"] - acc["lsbm_improved"] >= 5.0
        assert acc["lsbmr"] - acc["lsbmr_improved"] >= 5.0
        null = benchmark(corpus, [None], [0.8], 4, EXPERIMENT_SEED)[0].detect_pct
        assert abs(null - 50.0) <= 5.0


def test_cli_end_to_end_determinism(tmp_path):
    from lsblab.cli import main
    from lsblab.image import save_pgm

    with criterion("CLI determinism: identical flags give byte-identical outputs"):
        gen = np.random.default_rng(derive_seed(MASTER_SEED, 904))
        cover_path = tmp_path / "cover.pgm"
        save_pgm(cover_path, GrayImage(gen.integers(0, 256, (32, 32), dtype=np.uint8)))
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(bytes(gen.integers(0, 256, 40, dtype=np.uint8)))

        outputs = []
        for tag in ("a", "b"):
            stego = tmp_path / f"stego_{tag}.pgm"
            recovered = tmp_path / f"rec_{tag}.bin"
            corpus = tmp_path / f"corpus_{tag}"
            report = tmp_path / f"report_{tag}.csv"
            svg = tmp_path / f"plot_{tag}.svg"
            glcm_csv = tmp_path / f"glcm_{tag}.csv"
            assert main(["embed", "--method", "lsbmr-imp", "--cover", str(cover_path),
                         "--out", str(stego), "--payload", str(payload_path),
                         "--seed", "11", "--traversal", "permuted"]) == 0
            assert main(["extract", "--method", "lsbmr-imp", "--stego", str(stego),
                         "--out", str(recovered), "--seed", "11",
                         "--traversal", "permuted"]) == 0
            assert main(["gen-corpus", "--n", "20", "--size", "32x32", "--seed", "3",
                         "--out", str(corpus)]) == 0
            assert main(["bench", "--corpus", str(corpus), "--methods", "lsbm,lsbm-imp",
                         "--rates", "0.8", "--threshold", "4", "--seed", "9",
                         "--out", str(report), "--svg", str(svg)]) == 0
            assert main(["glcm", "--image", str(stego), "--offset", "0,1",
                         "--out", str(glcm_csv)]) == 0
            outputs.append((stego.read_bytes(), recovered.read_bytes(),
                            report.read_bytes(), svg.read_bytes(), glcm_csv.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == payload_path.read_bytes()
