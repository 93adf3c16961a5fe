"""The README's Python examples run as written, so the documented API cannot drift."""

import re
from pathlib import Path

import lsblab
from lsblab.bits import bytes_to_bits
from lsblab.embed import EmbedConfig, embed
from lsblab.harness import synthetic_image

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def readme_block(marker):
    """The one README python block containing marker."""
    (block,) = [b for b in BLOCKS if marker in b]
    return block


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(readme_block("import lsblab as L"), {})
    assert (tmp_path / "stego.pgm").is_file()


def test_readme_library_block_names_every_export():
    # "lsblab exports exactly these names plus the error classes"
    named = set(re.findall(r"\bL\.(\w+)", readme_block("import lsblab as L")))
    assert named | {"CapacityError", "FramingError", "PgmFormatError"} == set(lsblab.__all__)


def test_readme_stdlib_decoder_reads_lsbm_stego():
    namespace = {}
    exec(readme_block("def decode_lsbm"), namespace)
    cover = synthetic_image(32, 32, seed=1)
    bits = bytes_to_bits(b"readme")
    for traversal in ("permuted", "raster"):
        cfg = EmbedConfig(method="lsbm", seed=2**64 + 5, traversal=traversal)
        pixels = embed(cover, bits, cfg).pixels.ravel().tolist()
        decoded = namespace["decode_lsbm"](pixels, cfg.seed, permuted=traversal == "permuted")
        assert decoded == bits.tolist()
