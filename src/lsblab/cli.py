"""Command-line front end: embed, extract, glcm, features, bench, gen-corpus."""

from __future__ import annotations

import argparse
import os
import sys

from .bits import CapacityError, FramingError, bits_to_bytes, bytes_to_bits
from .embed import DEFAULT_THRESHOLD, TRAVERSALS, EmbedConfig, embed, extract
from .glcm import DEFAULT_OFFSETS, band_energies, cooccurrence, energies_to_csv, matrix_to_csv
from .harness import _synthetic_covers, benchmark, report_csv, report_svg
from .image import PgmFormatError, load_pgm, save_pgm

_METHOD_NAMES = {
    "lsbm": "lsbm",
    "lsbmr": "lsbmr",
    "lsbm-imp": "lsbm_improved",
    "lsbmr-imp": "lsbmr_improved",
}


def _parse_method(spelling: str) -> str:
    try:
        return _METHOD_NAMES[spelling]
    except KeyError:
        raise ValueError(f"unknown method {spelling!r}; expected one of {', '.join(_METHOD_NAMES)}")


def _parse_offset(text: str) -> tuple[int, int]:
    try:
        dx, dy = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"offset must look like 'dx,dy', got {text!r}")
    return dx, dy


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"size must look like 'WxH', got {text!r}")
    if w < 1 or h < 1:
        raise ValueError(f"size must be positive, got {text!r}")
    return w, h


def _config(args: argparse.Namespace) -> EmbedConfig:
    return EmbedConfig(method=_parse_method(args.method), threshold=args.threshold,
                       seed=args.seed, traversal=args.traversal)


def _cmd_embed(args: argparse.Namespace) -> int:
    cover = load_pgm(args.cover)
    with open(args.payload, "rb") as fh:
        payload = fh.read()
    stego = embed(cover, bytes_to_bits(payload), _config(args))
    save_pgm(args.out, stego)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    payload = bits_to_bytes(extract(load_pgm(args.stego), _config(args)))
    with open(args.out, "wb") as fh:
        fh.write(payload)
    return 0


def _cmd_glcm(args: argparse.Namespace) -> int:
    image = load_pgm(args.image)
    counts = cooccurrence(image, _parse_offset(args.offset))
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(matrix_to_csv(counts))
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    image = load_pgm(args.image)
    rows = [(off, band_energies(image, off)) for off in DEFAULT_OFFSETS]
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(energies_to_csv(rows))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = sorted(f for f in os.listdir(args.corpus) if f.endswith(".pgm"))
    corpus = [load_pgm(os.path.join(args.corpus, name)) for name in names]
    methods = [_parse_method(m) for m in args.methods.split(",")]
    rates = [float(r) for r in args.rates.split(",")]
    report = benchmark(corpus, methods, rates, threshold=args.threshold, seed=args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(report_csv(report))
    if args.svg:
        with open(args.svg, "w", encoding="ascii") as fh:
            fh.write(report_svg(report))
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    width, height = _parse_size(args.size)
    covers = _synthetic_covers(args.n, width, height, args.seed)  # checks n before makedirs
    os.makedirs(args.out, exist_ok=True)
    for i, image in enumerate(covers):  # one cover at a time
        save_pgm(os.path.join(args.out, f"img_{i:04d}.pgm"), image)
    return 0


_COMMANDS = {"embed": _cmd_embed, "extract": _cmd_extract, "glcm": _cmd_glcm,
             "features": _cmd_features, "bench": _cmd_bench, "gen-corpus": _cmd_gen_corpus}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names one."""
    command = command if command in _COMMANDS else None
    parser = argparse.ArgumentParser(prog="lsblab",
                                     description="±1 steganography and co-occurrence analysis")
    # the one-command parser's usage lists every command, as the full parser's does; the full
    # parser keeps the default metavar, under which its errors name the argument "command"
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", required=True, choices=sorted(_METHOD_NAMES))
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--traversal", choices=TRAVERSALS, default="raster")
        p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)

    if command in (None, "embed"):
        p = sub.add_parser("embed", help="hide a payload file in a PGM cover")
        p.add_argument("--cover", required=True)
        p.add_argument("--payload", required=True)
        add_shared(p)

    if command in (None, "extract"):
        p = sub.add_parser("extract", help="recover a payload file from a stego PGM")
        p.add_argument("--stego", required=True)
        add_shared(p)

    if command in (None, "glcm"):
        p = sub.add_parser("glcm", help="dump one co-occurrence matrix as CSV")
        p.add_argument("--image", required=True)
        p.add_argument("--offset", required=True, help="displacement as dx,dy")
        p.add_argument("--out", required=True)

    if command in (None, "features"):
        p = sub.add_parser("features", help="dump band energies for the default offsets")
        p.add_argument("--image", required=True)
        p.add_argument("--out", required=True)

    if command in (None, "bench"):
        p = sub.add_parser("bench", help="energy and detection benchmark over a corpus")
        p.add_argument("--corpus", required=True)
        p.add_argument("--methods", required=True, help="comma list, e.g. lsbm,lsbm-imp")
        p.add_argument("--rates", required=True, help="comma list, e.g. 0.2,0.4,0.8")
        p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--svg", default=None)

    if command in (None, "gen-corpus"):
        p = sub.add_parser("gen-corpus", help="write a seeded synthetic PGM corpus")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--size", required=True, help="image size as WxH")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
    except FramingError as exc:
        print(f"framing: {exc}", file=sys.stderr)
    except PgmFormatError as exc:
        print(f"format: {exc}", file=sys.stderr)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
