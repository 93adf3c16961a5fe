"""Benchmark set-up, run in a fresh interpreter so its time includes the import.

Imports lsblab from the checkout's ``src``, writes the covers with the CLI's
``gen-corpus`` command and writes the seeded payload file. Usage:

    python3 perfbench/setup_inputs.py --out DIR --n 40 --size 64x64 --seed 1 --payload-bytes 405
"""

import argparse
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--payload-bytes", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from lsblab import cli

    out = Path(args.out)
    rc = cli.main(["gen-corpus", "--n", args.n, "--size", args.size,
                   "--seed", str(args.seed), "--out", str(out / "covers")])
    if rc != 0:
        return rc
    (out / "payload.bin").write_bytes(random.Random(args.seed).randbytes(args.payload_bytes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
