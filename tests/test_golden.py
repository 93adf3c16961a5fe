"""Golden wire-format hashes: any engine rewrite must write these exact bytes.

Every digest below was generated from the reference implementation and is
checked in verbatim. A mismatch means the stego pixels, the feature CSV or
the benchmark report changed, which breaks every receiver of the old format.
The cover digests are pinned separately, so a drift in the cover generator
(numpy's generator or `harness._blur`) is told apart from a change in the
embedder.
"""

import hashlib

import numpy as np
import pytest

from lsblab.bits import bytes_to_bits
from lsblab.cli import main
from lsblab.embed import EmbedConfig, embed, extract
from lsblab.harness import benchmark, report_csv, report_svg, synthetic_image
from lsblab.image import GrayImage, save_pgm, write_pgm

METHODS = ("lsbm", "lsbmr", "lsbm_improved", "lsbmr_improved")
TRAVERSALS = ("raster", "permuted")
SEEDS = (3, 2024)

# 1024 fixed payload bits, platform-independent; each cover carries the
# longest prefix that fits its pair capacity, so small covers are filled exactly
PAYLOAD = bytes_to_bits(b"".join(hashlib.sha256(b"lsblab golden %d" % i).digest()
                                 for i in range(4)))


def _covers() -> dict[str, GrayImage]:
    y, x = np.mgrid[0:12, 0:16]
    return {
        "synthetic": synthetic_image(64, 48, seed=11),
        "saturated": GrayImage(np.where((x // 3 + y // 2) % 2, 255, 0).astype(np.uint8)),
        "odd": GrayImage((np.arange(35) * 37 % 256).astype(np.uint8).reshape(5, 7)),
    }


COVERS = _covers()


def payload_for(cover: GrayImage) -> np.ndarray:
    return PAYLOAD[: min(len(PAYLOAD), 2 * (cover.n_pixels // 2) - 32)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


COVER_DIGESTS = {
    "synthetic": "68d66c3ed7ac298e1f23afd3a04c58a5721d802e5936a2ef029fe1b849b26450",
    "saturated": "106e5d920b7274186caec39d073ddc47a1146fa014632c7630834396f918f44b",
    "odd": "4713019c88459f47692525b3a98b85121cd160d7200e8f316cee6a18612c9d22",
}

STEGO_DIGESTS = {
    ("odd", "lsbm", "raster", 3):
        "2477e544c4f46178aed9a6bc9a053821abc27b512ed61714f271897ae7db670a",
    ("odd", "lsbm", "raster", 2024):
        "f30e2557e8a86ff3b8dad7aa1f66f1271150d48624bc8168679ec6d31d7d64ed",
    ("odd", "lsbm", "permuted", 3):
        "ac23f371b63394de7098baf18981834cec2093905f5190db15d3d3fb85c45aa3",
    ("odd", "lsbm", "permuted", 2024):
        "c7417b5fef2fc1b3e1ddfdc0ccc86158fcccdf2d3974b051507645ab2ca00d52",
    ("odd", "lsbmr", "raster", 3):
        "dba981cb54d39b7e40c9884c633df85dbf46c55e41bbdd1160b79cef2302d28f",
    ("odd", "lsbmr", "raster", 2024):
        "e1548c92a30cee0976f52838391bd0a2df4e1f2ba950cba627251b2009d84de2",
    ("odd", "lsbmr", "permuted", 3):
        "c94885d1853aa82c63150b18e52b01655b46fbb0a8c0feb0de343ff3c30f8c31",
    ("odd", "lsbmr", "permuted", 2024):
        "b0d7f1a9300fe31cf98d02ebbf11165b80f71f3bf326ef5a070fff015f9cbfb5",
    ("odd", "lsbm_improved", "raster", 3):
        "1e83ec57d4c1dbb107b4131744e8970c80fc8439c3a5e5cb681663b1db7260e0",
    ("odd", "lsbm_improved", "raster", 2024):
        "b080bf405e8541e169ac160065efd7bbc463c3a9ed05fee45155bf991d2f8b9e",
    ("odd", "lsbm_improved", "permuted", 3):
        "b4890c8150dc81916eab759879d6263be119ea36aecfbb93f5d5dc2a20e6f7da",
    ("odd", "lsbm_improved", "permuted", 2024):
        "7f8fff816af37b53d79a5e8d2b6252c1446bfbb2cd35954f26ad9297bd3966d1",
    ("odd", "lsbmr_improved", "raster", 3):
        "bce850f78a15187935db948e37fa3deb9a045a0fd8ea16d3c5637ae85195eee0",
    ("odd", "lsbmr_improved", "raster", 2024):
        "bc7ceb2dc7fad6f9fed0968281032e81ed5a67d9a27a425aab6d0f9ccfc6a95d",
    ("odd", "lsbmr_improved", "permuted", 3):
        "f0d0ef5b2fa9f10faf42dba6ed617acb096faac44f274e8467be8c7370cac46e",
    ("odd", "lsbmr_improved", "permuted", 2024):
        "af62d1090b67d2c3fc3062fa60c32bc620a4856e5ce114c72756d89fe481d9e0",
    ("saturated", "lsbm", "raster", 3):
        "7069cd5504f59fedb944e2c6e3be7fdf3fa05eb7ad49c4ded20c23f75235d114",
    ("saturated", "lsbm", "raster", 2024):
        "7069cd5504f59fedb944e2c6e3be7fdf3fa05eb7ad49c4ded20c23f75235d114",
    ("saturated", "lsbm", "permuted", 3):
        "cc7c3c3fcc58c294ade4c3994593dcea06d87f6d2c99e0186970994de1706031",
    ("saturated", "lsbm", "permuted", 2024):
        "86411f3b98666d4c07613173b4acef7aeefdeb42f4cda37d291ef0f4cac53d5c",
    ("saturated", "lsbmr", "raster", 3):
        "4e848181b357b52d5f93c2cc5df3565833a8b9e3095a14ab9d1fd9454100989f",
    ("saturated", "lsbmr", "raster", 2024):
        "4e848181b357b52d5f93c2cc5df3565833a8b9e3095a14ab9d1fd9454100989f",
    ("saturated", "lsbmr", "permuted", 3):
        "10ba8e4ec0384f07b1ca38a80bb67d5e48982f6ceac1d5e5cd14f37f60b8527a",
    ("saturated", "lsbmr", "permuted", 2024):
        "efbfd27b5e5e5ab92b597c33c6aaf3dd8bb40c5d3e17416962361c900555bcdd",
    ("saturated", "lsbm_improved", "raster", 3):
        "7069cd5504f59fedb944e2c6e3be7fdf3fa05eb7ad49c4ded20c23f75235d114",
    ("saturated", "lsbm_improved", "raster", 2024):
        "7069cd5504f59fedb944e2c6e3be7fdf3fa05eb7ad49c4ded20c23f75235d114",
    ("saturated", "lsbm_improved", "permuted", 3):
        "cc7c3c3fcc58c294ade4c3994593dcea06d87f6d2c99e0186970994de1706031",
    ("saturated", "lsbm_improved", "permuted", 2024):
        "86411f3b98666d4c07613173b4acef7aeefdeb42f4cda37d291ef0f4cac53d5c",
    ("saturated", "lsbmr_improved", "raster", 3):
        "4e848181b357b52d5f93c2cc5df3565833a8b9e3095a14ab9d1fd9454100989f",
    ("saturated", "lsbmr_improved", "raster", 2024):
        "4e848181b357b52d5f93c2cc5df3565833a8b9e3095a14ab9d1fd9454100989f",
    ("saturated", "lsbmr_improved", "permuted", 3):
        "10ba8e4ec0384f07b1ca38a80bb67d5e48982f6ceac1d5e5cd14f37f60b8527a",
    ("saturated", "lsbmr_improved", "permuted", 2024):
        "efbfd27b5e5e5ab92b597c33c6aaf3dd8bb40c5d3e17416962361c900555bcdd",
    ("synthetic", "lsbm", "raster", 3):
        "e14a067c9119c08f82db3a05b87f0e81644489ccf84ae65d4e072d163b7c54c0",
    ("synthetic", "lsbm", "raster", 2024):
        "a3e492e4fc304a4e84ee092f9a51a1f3ac9e06ec0adef20f6d9f08c7d705d978",
    ("synthetic", "lsbm", "permuted", 3):
        "fa5e4ddb30b8413eeb256ba256d4ba8589e1be54965c2bfa05c7eeca2a23dc7e",
    ("synthetic", "lsbm", "permuted", 2024):
        "722ff1ef9e262bc23483191fcf890e3ea94df29d2b89d6bbaa5340c6bfd5ede9",
    ("synthetic", "lsbmr", "raster", 3):
        "21bb157ed9916bdd641c2a80ca5d6d00f712bfd1dbaaf774bd96f85a4ffef68f",
    ("synthetic", "lsbmr", "raster", 2024):
        "cd8a32514e1ff6f8b355ce5cafa7268c58516f77f812befdb45e4556947d52e2",
    ("synthetic", "lsbmr", "permuted", 3):
        "71facc0f24efa9c1370c688668491df71a304ba96844429a63355c72f53d6a79",
    ("synthetic", "lsbmr", "permuted", 2024):
        "e774da47d19328e4d08c7bd077ec07122543c5dd345c99f29769426ec7807757",
    ("synthetic", "lsbm_improved", "raster", 3):
        "6c38142f87d3caca5025520dd2b5ea1e9167696908985455fd766b9e0d3b944c",
    ("synthetic", "lsbm_improved", "raster", 2024):
        "f5519b15e3235f898544866aa5905aa605284708db5b3bb4831ee11235fd4f49",
    ("synthetic", "lsbm_improved", "permuted", 3):
        "718d7e0f20b4d16f3acfc024045b6bd069dbb5bae4c38e3a312334256d111dc8",
    ("synthetic", "lsbm_improved", "permuted", 2024):
        "a6fb76a23ab52c5ee7ad5a24fecdb7778d69bddb1f363f97eced37e0c8d0a2c2",
    ("synthetic", "lsbmr_improved", "raster", 3):
        "2e43ecf181957bc6188fd5b7faabedb409058f8a0f8a386da3c8ae91f6ac4afb",
    ("synthetic", "lsbmr_improved", "raster", 2024):
        "cc9e8fd6629d2e289280866768468a3b539b83edb3e6c600c115d763e25df4ff",
    ("synthetic", "lsbmr_improved", "permuted", 3):
        "ffedd07ff6b597d0ddfbe5735dfafe7b9f6fa30e5125309e7b2e815539477e2a",
    ("synthetic", "lsbmr_improved", "permuted", 2024):
        "4381ab5702e395db926fde3d6e5276b7dd8adc675ed0611226a2964497d29e68",
}

FEATURES_DIGEST = "86fd30bc3ed7c91488840987c55305a48bc8a489f58701b910c11c70a6a60954"
BENCH_CSV_DIGEST = "4a47161a315159452e13a51752160ef82dee3453be3e0bc08fcf920972254e05"
BENCH_SVG_DIGEST = "7d939697a4d7e45188b3e6d685cf86e3b487777d8fcd368fd5ce462d72cdcf7a"

# every method at two rates on covers of five shapes (width x height): square,
# wide, tall, odd-sized and a 2-wide strip share each settle batch, padded to one block
MIXED_SHAPES = ((32, 32), (48, 16), (16, 48), (33, 21), (2, 128))
MIXED_BENCH_DIGESTS = {  # T: (CSV, SVG)
    4: ("3be178e27720dd3185a91767f11cd21b727ef33a14fe642960b922b35fac8767",
        "87659a9cfe6d6714d8eca54a21a27a2093ea943e050652e43df335fe02b87053"),
    0: ("940982ec7819ec656fdc4f0ec63da925d85df719a0e93bae29ab617e926ad5ee",
        "87f38ed9854e3557766d2788e412ef20b189589262befc3402f325500a25c200"),
}


@pytest.mark.parametrize("name", sorted(COVERS))
def test_cover_digest(name):
    assert sha256(write_pgm(COVERS[name])) == COVER_DIGESTS[name]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("traversal", TRAVERSALS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(COVERS))
def test_stego_digest_and_roundtrip(name, method, traversal, seed):
    cover = COVERS[name]
    bits = payload_for(cover)
    cfg = EmbedConfig(method=method, seed=seed, traversal=traversal)
    stego = embed(cover, bits, cfg)
    assert sha256(write_pgm(stego)) == STEGO_DIGESTS[name, method, traversal, seed]
    assert np.array_equal(extract(stego, cfg), bits)


def test_features_csv_digest(tmp_path):
    image, out = tmp_path / "cover.pgm", tmp_path / "features.csv"
    save_pgm(image, COVERS["synthetic"])
    assert main(["features", "--image", str(image), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == FEATURES_DIGEST


def test_bench_report_digests(tmp_path):
    corpus, csv, svg = tmp_path / "corpus", tmp_path / "bench.csv", tmp_path / "bench.svg"
    assert main(["gen-corpus", "--n", "20", "--size", "32x32", "--seed", "3",
                 "--out", str(corpus)]) == 0
    assert main(["bench", "--corpus", str(corpus), "--methods", "lsbm,lsbm-imp",
                 "--rates", "0.8", "--seed", "9", "--out", str(csv), "--svg", str(svg)]) == 0
    assert sha256(csv.read_bytes()) == BENCH_CSV_DIGEST
    assert sha256(svg.read_bytes()) == BENCH_SVG_DIGEST


@pytest.mark.parametrize("threshold", sorted(MIXED_BENCH_DIGESTS))
def test_bench_report_digests_on_mixed_shapes(threshold):
    corpus = [synthetic_image(*MIXED_SHAPES[i % len(MIXED_SHAPES)], seed=50 + i) for i in range(20)]
    rows = benchmark(corpus, METHODS, [0.3, 0.9], threshold=threshold, seed=51)
    digests = sha256(report_csv(rows).encode()), sha256(report_svg(rows).encode())
    assert digests == MIXED_BENCH_DIGESTS[threshold]
