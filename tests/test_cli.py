import argparse
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsblab.cli import build_parser, main
from lsblab.embed import EmbedConfig, embed
from lsblab.image import GrayImage, load_pgm, save_pgm

from test_embed import SENDER_KEY, WRONG_KEY_COVERS, WRONG_KEY_PAYLOAD, wrong_keys


@pytest.fixture
def cover_path(tmp_path):
    gen = np.random.default_rng(21)
    path = tmp_path / "cover.pgm"
    save_pgm(path, GrayImage(gen.integers(0, 256, (24, 24), dtype=np.uint8)))
    return path


@pytest.fixture
def payload_path(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(b"attack at dawn")
    return path


def run(*args):
    return main([str(a) for a in args])


def flags(key):
    """--method, --seed and --traversal arguments for a key dict."""
    return [arg for name, value in key.items() for arg in (f"--{name}", value)]


def test_embed_extract_roundtrip(tmp_path, cover_path, payload_path):
    stego = tmp_path / "stego.pgm"
    out = tmp_path / "recovered.bin"
    assert run("embed", "--method", "lsbm", "--cover", cover_path, "--out", stego,
               "--payload", payload_path, "--seed", 42) == 0
    assert run("extract", "--method", "lsbm", "--stego", stego, "--out", out,
               "--seed", 42) == 0
    assert out.read_bytes() == payload_path.read_bytes()


@pytest.mark.parametrize("method", ["lsbmr", "lsbm-imp", "lsbmr-imp"])
def test_all_method_spellings_roundtrip(tmp_path, cover_path, payload_path, method):
    stego = tmp_path / "stego.pgm"
    out = tmp_path / "recovered.bin"
    args = ["--method", method, "--seed", 7, "--traversal", "permuted", "--threshold", 4]
    assert run("embed", "--cover", cover_path, "--out", stego, "--payload", payload_path, *args) == 0
    assert run("extract", "--stego", stego, "--out", out, *args) == 0
    assert out.read_bytes() == payload_path.read_bytes()


def test_embed_is_deterministic(tmp_path, cover_path, payload_path):
    s1, s2 = tmp_path / "s1.pgm", tmp_path / "s2.pgm"
    for out in (s1, s2):
        assert run("embed", "--method", "lsbmr-imp", "--cover", cover_path, "--out", out,
                   "--payload", payload_path, "--seed", 5) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_wrong_seed_under_permutation_fails_or_differs(tmp_path, cover_path, payload_path):
    stego = tmp_path / "stego.pgm"
    out = tmp_path / "recovered.bin"
    assert run("embed", "--method", "lsbm", "--cover", cover_path, "--out", stego,
               "--payload", payload_path, "--seed", 42, "--traversal", "permuted") == 0
    status = run("extract", "--method", "lsbm", "--stego", stego, "--out", out,
                 "--seed", 43, "--traversal", "permuted")
    assert status == 1 or out.read_bytes() != payload_path.read_bytes()


@pytest.mark.parametrize("cover_name", sorted(WRONG_KEY_COVERS))
@pytest.mark.parametrize("family", ["lsbm", "lsbmr"])
def test_wrong_key_extract_fails_cleanly_or_differs(tmp_path, capsys, family, cover_name):
    # README, "No integrity check": exit 1 with one framing line, or exit 0 with
    # other bytes; never a traceback or another category
    cover, stego, out = tmp_path / "cover.pgm", tmp_path / "stego.pgm", tmp_path / "out.bin"
    payload = tmp_path / "payload.bin"
    save_pgm(cover, GrayImage(WRONG_KEY_COVERS[cover_name]))
    payload.write_bytes(WRONG_KEY_PAYLOAD)
    sender = {"method": family, **SENDER_KEY}
    assert run("embed", "--cover", cover, "--out", stego, "--payload", payload,
               *flags(sender)) == 0
    for change in wrong_keys(family):
        capsys.readouterr()
        status = run("extract", "--stego", stego, "--out", out, *flags({**sender, **change}))
        err = capsys.readouterr().err
        if status == 1:
            assert err.startswith("framing: ") and err.count("\n") == 1
        else:
            assert status == 0 and err == ""
            assert out.read_bytes() != WRONG_KEY_PAYLOAD


def test_extract_of_a_ragged_payload_reports_framing(tmp_path, capsys):
    # a 12-bit message frames and extracts, but is not a whole number of bytes
    stego, out = tmp_path / "stego.pgm", tmp_path / "out.bin"
    cover = GrayImage(np.full((8, 8), 100, dtype=np.uint8))
    save_pgm(stego, embed(cover, [1, 0, 1] * 4, EmbedConfig(method="lsbm", seed=3)))
    assert run("extract", "--method", "lsbm", "--stego", stego, "--out", out, "--seed", 3) == 1
    assert capsys.readouterr().err == "framing: bit count 12 is not a whole number of bytes\n"
    assert not out.exists()


def test_embed_capacity_error_exit_code(tmp_path, cover_path):
    big = tmp_path / "big.bin"
    big.write_bytes(bytes(2000))  # 16000 bits >> 576 pixels
    stego = tmp_path / "stego.pgm"
    assert run("embed", "--method", "lsbm", "--cover", cover_path, "--out", stego,
               "--payload", big, "--seed", 1) == 1


def test_bad_flags_usage_exit(tmp_path, cover_path):
    with pytest.raises(SystemExit) as err:
        run("embed", "--method", "rot13", "--cover", cover_path, "--out", "x",
            "--payload", "y", "--seed", 1)
    assert err.value.code == 2


def test_missing_file_reports_error(tmp_path):
    assert run("glcm", "--image", tmp_path / "missing.pgm", "--offset", "1,0",
               "--out", tmp_path / "g.csv") == 1


def test_glcm_csv_sums_to_pair_count(tmp_path, cover_path):
    # an offset at or beyond the 24-pixel side has no pairs: all 256x256 zeros
    out = tmp_path / "glcm.csv"
    for offset, pairs in (("1,0", (24 - 1) * 24), ("0,24", 0), ("0,25", 0), ("-47,3", 0)):
        assert run("glcm", "--image", cover_path, f"--offset={offset}", "--out", out) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 256 and all(len(row.split(",")) == 256 for row in rows)
        total = sum(int(v) for row in rows for v in row.split(","))
        assert total == pairs


def test_features_csv(tmp_path, cover_path):
    out = tmp_path / "features.csv"
    assert run("features", "--image", cover_path, "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "offset,e0,e1,e2,e3,e4"
    assert len(lines) == 5


def test_gen_corpus_and_bench(tmp_path):
    corpus = tmp_path / "corpus"
    assert run("gen-corpus", "--n", 20, "--size", "32x32", "--seed", 3, "--out", corpus) == 0
    files = sorted(corpus.glob("*.pgm"))
    assert len(files) == 20
    img = load_pgm(files[0])
    assert (img.width, img.height) == (32, 32)

    report = tmp_path / "report.csv"
    svg = tmp_path / "report.svg"
    assert run("bench", "--corpus", corpus, "--methods", "lsbm,lsbm-imp",
               "--rates", "0.2,0.4,0.6,0.8", "--threshold", 4, "--seed", 7,
               "--out", report, "--svg", svg) == 0
    lines = report.read_text().strip().split("\n")
    assert len(lines) == 1 + 8  # header + methods x rates
    assert svg.read_text().startswith("<svg")

    report2 = tmp_path / "report2.csv"
    assert run("bench", "--corpus", corpus, "--methods", "lsbm,lsbm-imp",
               "--rates", "0.2,0.4,0.6,0.8", "--threshold", 4, "--seed", 7,
               "--out", report2) == 0
    assert report.read_bytes() == report2.read_bytes()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    assert run("gen-corpus", "--n", 20, "--size", "16x16", "--seed", 1, "--out", corpus) == 0
    return corpus


@pytest.mark.parametrize("rate, category", [
    ("inf", "error"), ("nan", "error"), ("1.5", "error"), ("0", "capacity"), ("-inf", "capacity"),
])
def test_bench_bad_rate_reports_one_line(tmp_path, capsys, small_corpus, rate, category):
    # a good cell first: the bad one still stops the run before the CSV is written
    report = tmp_path / "report.csv"
    assert run("bench", "--corpus", small_corpus, "--methods", "lsbm", f"--rates=0.5,{rate}",
               "--seed", 1, "--out", report) == 1
    line = {"error": f"error: rate must be in (0, 1], got {rate}",
            "capacity": f"capacity: rate {rate} on 256 pixels leaves no room for the 32-bit frame"}
    assert capsys.readouterr().err.splitlines() == [line[category]]
    assert not report.exists()


def test_gen_corpus_is_deterministic(tmp_path):
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    for out in (c1, c2):
        assert run("gen-corpus", "--n", 3, "--size", "16x16", "--seed", 9, "--out", out) == 0
    for f1, f2 in zip(sorted(c1.glob("*.pgm")), sorted(c2.glob("*.pgm"))):
        assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("size", ["0x5", "5x0"])
def test_gen_corpus_rejects_non_positive_size(tmp_path, capsys, recwarn, size):
    assert run("gen-corpus", "--n", 2, "--size", size, "--seed", 1,
               "--out", tmp_path / "corpus") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert len(recwarn) == 0


def test_gen_corpus_rejects_empty_corpus_before_making_the_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run("gen-corpus", "--n", 0, "--size", "8x8", "--seed", 1, "--out", corpus) == 1
    assert capsys.readouterr().err.splitlines() == ["error: corpus size must be positive, got 0"]
    assert not corpus.exists()


def gen_corpus_peak_bytes(out, n):
    """tracemalloc's peak over one in-process gen-corpus call of n 256x256 covers."""
    tracemalloc.start()
    try:
        assert run("gen-corpus", "--n", n, "--size", "256x256", "--seed", 1, "--out", out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_corpus_peak_memory_is_flat_in_n(tmp_path):
    # a 256x256 cover is a 64 KiB raster: a corpus held until the last cover is
    # generated would add one per extra image, about 38 rasters here
    gen_corpus_peak_bytes(tmp_path / "warm", 1)
    small = gen_corpus_peak_bytes(tmp_path / "small", 2)
    large = gen_corpus_peak_bytes(tmp_path / "large", 40)
    assert len(list((tmp_path / "large").glob("*.pgm"))) == 40
    assert large - small < 5 * 65536, (small, large)


def test_gen_corpus_too_large_to_allocate_reports_one_line(tmp_path, capsys):
    # about 7 EiB, more than any 64-bit address space: the allocation fails at once
    assert run("gen-corpus", "--n", 1, "--size", "1000000000000000000x1", "--seed", 1,
               "--out", tmp_path / "corpus") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_glcm_reports_overlong_header_number_as_format_error(tmp_path, capsys):
    image = tmp_path / "wide.pgm"
    image.write_bytes(b"P5 " + b"9" * 5000 + b" 2 255\n")
    assert run("glcm", "--image", image, "--offset", "1,0", "--out", tmp_path / "g.csv") == 1
    assert capsys.readouterr().err.splitlines() == ["format: width: 5000-digit value is too long"]


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is only the test oracle of harness._blur: every subcommand runs in a
    # fresh interpreter without importing it
    script = textwrap.dedent("""
        import sys
        from lsblab import cli
        commands = [
            "gen-corpus --n 20 --size 16x16 --seed 1 --out corpus",
            "embed --method lsbmr-imp --cover corpus/img_0000.pgm --payload payload.bin"
            " --out stego.pgm --seed 5 --traversal permuted",
            "extract --method lsbmr-imp --stego stego.pgm --out back.bin --seed 5"
            " --traversal permuted",
            "features --image stego.pgm --out features.csv",
            "glcm --image stego.pgm --offset 1,0 --out glcm.csv",
            "bench --corpus corpus --methods lsbm-imp --rates 0.5 --seed 2 --out bench.csv",
        ]
        for command in commands:
            assert cli.main(command.split()) == 0, command
        assert open("back.bin", "rb").read() == open("payload.bin", "rb").read()
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
    """)
    (tmp_path / "payload.bin").write_bytes(b"attack at dawn")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr


COMMANDS = ["embed", "extract", "glcm", "features", "bench", "gen-corpus"]

# a complete argument list for each subcommand; parsing never opens the files
COMPLETE = {
    "embed": "--cover c.pgm --payload p.bin --method lsbm --out s.pgm --seed 1",
    "extract": "--stego s.pgm --method lsbmr-imp --out p.bin --seed 1 --traversal permuted",
    "glcm": "--image c.pgm --offset 1,0 --out g.csv",
    "features": "--image c.pgm --out f.csv",
    "bench": "--corpus corpus --methods lsbm --rates 0.5 --seed 1 --out r.csv --svg r.svg",
    "gen-corpus": "--n 2 --size 8x8 --seed 1 --out corpus",
}
BAD_CHOICE = {
    "embed": "--cover c.pgm --payload p.bin --method rot13 --out s.pgm --seed 1",
    "extract": "--stego s.pgm --method lsbm --out p.bin --seed 1 --traversal spiral",
}


def usage_cases():
    yield "-h"
    yield ""
    yield "bogus"
    yield "--version"
    for i, command in enumerate(COMMANDS):
        stray = COMMANDS[i - 1]
        yield f"{command} -h"
        yield command
        yield f"{command} {COMPLETE[command]} --bogus"
        yield f"{command} {COMPLETE[command]} {stray}"
        if command in BAD_CHOICE:
            yield f"{command} {BAD_CHOICE[command]}"


def exit_and_output(capsys, parse):
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        parse()
    return stop.value.code, *capsys.readouterr()


@pytest.mark.parametrize("line", list(usage_cases()))
def test_help_and_usage_errors_match_the_full_parser(capsys, line):
    # main builds only the named subcommand's parser; what it prints must not show it
    argv = line.split()
    expected = exit_and_output(capsys, lambda: build_parser().parse_args(argv))
    assert exit_and_output(capsys, lambda: main(argv)) == expected
    assert expected[0] in (0, 2)


def test_usage_errors_name_the_command_argument(capsys):
    # the full parser keeps argparse's default metavar: these errors say "command",
    # not the "{embed,...}" list the one-command parser shows in its usage line
    assert exit_and_output(capsys, lambda: main([]))[2].endswith(
        "lsblab: error: the following arguments are required: command\n")
    assert "lsblab: error: argument command: invalid choice: " in exit_and_output(
        capsys, lambda: main(["bogus"]))[2]


@pytest.mark.parametrize("line", ["embed -h", f"glcm {COMPLETE['glcm']} --bogus", ""])
def test_entry_point_reads_sys_argv(capsys, monkeypatch, line):
    argv = line.split()
    expected = exit_and_output(capsys, lambda: build_parser().parse_args(argv))
    monkeypatch.setattr(sys, "argv", ["lsblab", *argv])
    assert exit_and_output(capsys, main) == expected


def subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_builds_only_that_subcommand(command):
    assert subcommands(build_parser(command)) == [command]


def test_full_parser_builds_every_subcommand_in_order():
    assert subcommands(build_parser()) == COMMANDS
    assert subcommands(build_parser("bogus")) == COMMANDS
