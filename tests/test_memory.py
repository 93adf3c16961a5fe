"""Peak memory of embed, extract, the settle, the shuffle and the bench call.

tracemalloc sees every numpy buffer, so each peak below is what one call
allocates on top of its inputs: bytes per cover pixel at 512x512 and rate
0.8, or MiB for one benchmark call. The bounds hold at 1024x1024 as well.
"""

import importlib
import tracemalloc
from unittest import mock

import pytest

from lsblab.embed import METHODS, TRAVERSALS, EmbedConfig, embed, extract
from lsblab.harness import benchmark, synthetic_corpus, synthetic_image
from lsblab.rng import Rng

# the module itself: the package re-exports a function under the same name
embed_module = importlib.import_module("lsblab.embed")

SIDE = 512
PIXELS = SIDE * SIDE


def peak_bytes(call):
    """tracemalloc's peak over call(), not counting what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cover():
    return synthetic_image(SIDE, SIDE, 1)


@pytest.fixture(scope="module")
def message():
    return Rng(5).bits(int(0.8 * PIXELS) - 32)


def embed_peaks(cover, message, config):
    """The peaks of one embed call and of its _settle, each over what was live as it began."""
    real, peaks = embed_module._settle, []

    def settle(jobs, t):
        live, before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stegos = real(jobs, t)
        peaks.extend([before, tracemalloc.get_traced_memory()[1] - live])
        return stegos

    with mock.patch.object(embed_module, "_settle", settle):
        whole = peak_bytes(lambda: embed(cover, message, config))
    before, settled = peaks
    return max(whole, before), settled


@pytest.mark.parametrize("traversal, bound", [("raster", 20), ("permuted", 26)])
@pytest.mark.parametrize("method", METHODS)
def test_embed_and_settle_peaks(cover, message, method, traversal, bound):
    # a permuted embed peaks in its shuffle, a raster one in its single-job settle
    whole, settled = embed_peaks(cover, message, EmbedConfig(method, seed=5, traversal=traversal))
    assert settled / PIXELS <= 16
    assert whole / PIXELS <= bound


def test_shuffle_peak():
    assert peak_bytes(lambda: Rng(5).shuffle(PIXELS)) / PIXELS <= 24


@pytest.mark.parametrize("traversal", TRAVERSALS)
def test_extract_peak(cover, message, traversal):
    config = EmbedConfig("lsbm", seed=5, traversal=traversal)
    stego = embed(cover, message, config)
    assert peak_bytes(lambda: extract(stego, config)) / PIXELS <= 26


def test_benchmark_peak():
    corpus = synthetic_corpus(40, 64, 64, seed=1)
    methods = ["lsbm", "lsbm_improved", "lsbmr", "lsbmr_improved"]
    peak = peak_bytes(lambda: benchmark(corpus, methods, [0.2, 0.4, 0.6, 0.8], seed=1))
    assert peak / 2**20 <= 3.0
