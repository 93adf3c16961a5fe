"""lsblab benchmark: CLI round trips on a 512x512 cover and the corpus `bench`.

Every operation is one in-process call of ``lsblab.cli.main``, the entry
point behind the ``lsblab`` command. Run from the repository root:

    python3 perfbench/run.py --workload roundtrip-permuted --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
perfbench/README.md). Exit code 0 means every output was correct.
"""

from __future__ import annotations

import os

# one process, one thread: pin the BLAS pools before numpy is imported
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = BENCH_DIR / "pinned.json"

METHODS = ("lsbm", "lsbm-imp", "lsbmr", "lsbmr-imp")
LIBRARY_METHOD = {"lsbm": "lsbm", "lsbm-imp": "lsbm_improved",
                  "lsbmr": "lsbmr", "lsbmr-imp": "lsbmr_improved"}
BENCH_RATES = ("0.2", "0.4", "0.6", "0.8")
BENCH_THRESHOLD = "4"
FRAME_BITS = 32
SETUP_REPEATS = 7
REFERENCE_EVERY_S = 4.0  # seconds of rounds between machine-speed reference samples
MATRIX_BYTES = 256 * 256 * 8  # one int64 co-occurrence matrix
BENCH_OFFSETS = 4  # `bench` builds one matrix per default offset per feature call
MODULES = ("__init__", "bits", "cli", "embed", "glcm", "harness", "image", "rng")


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # cover side in pixels
    n_covers: int  # images written by gen-corpus
    trip_covers: int  # covers that get an embed+extract round trip per method each round
    traversal: str | None  # None keeps the CLI default (raster)
    bench: bool  # run `bench` over the whole corpus each round
    rate: float = 0.8  # payload share of the pixel count

    @property
    def payload_bytes(self) -> int:
        budget = int(self.rate * self.size * self.size + 1e-9)
        return (budget - FRAME_BITS) // 8


WORKLOADS = {
    w.name: w for w in (
        Workload("roundtrip-permuted", 512, 1, 1, "permuted", False),
        Workload("roundtrip-raster", 512, 1, 1, None, False),
        Workload("corpus-bench", 64, 40, 40, "permuted", True),
    )
}


@dataclass
class Op:
    key: str
    kind: str  # "embed", "extract" or "bench"
    argv: list
    method: str = ""
    cover: str = ""
    pixels: int = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fold(hashes: dict[str, str]) -> str:
    """One digest over named artifact hashes, independent of insertion order."""
    return sha256("".join(f"{name} {h}\n" for name, h in sorted(hashes.items())).encode())


def tree_hashes(base: Path) -> dict[str, str]:
    return {p.relative_to(base).as_posix(): sha256(p.read_bytes())
            for p in sorted(base.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: Workload, seed: int, run_dir: Path, repeats: int, reference: list):
    """Run the set-up script `repeats` times in fresh interpreters.

    Returns (median wall seconds, input directory, input hashes, failed
    repeats); a repeat fails when it exits non-zero or writes other bytes than
    the first. Reference samples taken before and after the repeats go to
    `reference`.
    """
    times, failed, first = [], 0, None
    reference += speed.sample()
    for i in range(repeats):
        out = run_dir / f"setup-{i}"
        argv = [sys.executable, str(BENCH_DIR / "setup_inputs.py"), "--out", str(out),
                "--n", str(workload.n_covers), "--size", f"{workload.size}x{workload.size}",
                "--seed", str(seed), "--payload-bytes", str(workload.payload_bytes)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            failed += 1
            continue
        hashes = tree_hashes(out)
        if first is None:
            first = (out, hashes)
        elif hashes != first[1]:
            failed += 1
    reference += speed.sample()
    if first is None:
        raise RuntimeError("set-up failed on every repeat")
    return statistics.median(times), first[0], first[1], failed


def build_ops(workload: Workload, seed: int, inputs: Path, out: Path) -> list[Op]:
    covers = sorted((inputs / "covers").glob("*.pgm"))
    payload = str(inputs / "payload.bin")
    traversal = ["--traversal", workload.traversal] if workload.traversal else []
    ops = []
    if workload.bench:
        ops.append(Op("bench", "bench", [
            "bench", "--corpus", str(inputs / "covers"), "--methods", ",".join(METHODS),
            "--rates", ",".join(BENCH_RATES), "--threshold", BENCH_THRESHOLD,
            "--seed", str(seed), "--out", str(out / "bench.csv"), "--svg", str(out / "bench.svg")]))
    for cover in covers[:workload.trip_covers]:
        for method in METHODS:
            stego = out / f"{cover.stem}.{method}.pgm"
            recovered = out / f"{cover.stem}.{method}.bin"
            shared = ["--method", method, "--seed", str(seed)] + traversal
            pixels = workload.size * workload.size
            ops.append(Op(f"embed:{method}:{cover.stem}", "embed",
                          ["embed", "--cover", str(cover), "--payload", payload,
                           "--out", str(stego)] + shared, method, cover.name, pixels))
            ops.append(Op(f"extract:{method}:{cover.stem}", "extract",
                          ["extract", "--stego", str(stego), "--out", str(recovered)] + shared,
                          method, cover.name, pixels))
    return ops


# ---------------------------------------------------------------------------
# checking outputs


class Checker:
    """Checks each op's output bytes; the first round's hashes are the reference."""

    def __init__(self, workload: Workload, inputs: Path, out: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.payload = (inputs / "payload.bin").read_bytes()
        self.reference: dict[str, str] = {}
        self.current: dict[str, str] = {}  # this round's artifact hashes
        self.changed: dict[str, int] = {}  # method -> changed pixels over all trip covers

    def _same(self, name: str, data: bytes) -> bool:
        h = self.current[name] = sha256(data)
        return self.reference.setdefault(name, h) == h

    def check(self, op: Op) -> bool:
        try:
            return self._check(op)
        except (OSError, ValueError, IndexError):  # missing or malformed output
            return False

    def _check(self, op: Op) -> bool:
        import numpy as np

        if op.kind == "bench":
            csv = (self.out / "bench.csv").read_bytes()
            svg = (self.out / "bench.svg").read_bytes()
            rows = [row.split(",") for row in csv.decode("ascii").splitlines()]
            expected = [(LIBRARY_METHOD[m], r) for m in METHODS for r in BENCH_RATES]
            shape_ok = (",".join(rows[0]).startswith("method,rate,T,seed,n,")
                        and [tuple(row[:2]) for row in rows[1:]] == expected
                        and all(row[4] == str(self.workload.n_covers) for row in rows[1:])
                        and svg.startswith(b"<svg") and svg.endswith(b"</svg>\n"))
            return shape_ok & self._same("bench.csv", csv) & self._same("bench.svg", svg)
        stem = f"{Path(op.cover).stem}.{op.method}"
        if op.kind == "embed":
            cover = (self.inputs / "covers" / op.cover).read_bytes()
            stego = (self.out / f"{stem}.pgm").read_bytes()
            header = len(cover) - op.pixels
            if len(stego) != len(cover) or stego[:header] != cover[:header]:
                return False
            a = np.frombuffer(cover, dtype=np.uint8, offset=header).astype(np.int16)
            b = np.frombuffer(stego, dtype=np.uint8, offset=header).astype(np.int16)
            if int(np.abs(a - b).max()) > 1:
                return False
            if f"stego/{stem}" not in self.reference:
                self.changed[op.method] = self.changed.get(op.method, 0) + int((a != b).sum())
            return self._same(f"stego/{stem}", stego)
        recovered = (self.out / f"{stem}.bin").read_bytes()
        return recovered == self.payload and self._same(f"recovered/{stem}", recovered)

    def change_rates(self) -> dict[str, float]:
        """Changed over visited pixels per method; pairs visit an even count."""
        framed = FRAME_BITS + 8 * len(self.payload)
        rates = {}
        for method in METHODS:
            visited = framed + (framed & 1 if method.startswith("lsbmr") else 0)
            rates[method] = self.changed.get(method, 0) / (visited * self.workload.trip_covers)
        return rates


# ---------------------------------------------------------------------------
# measuring


def call_cli(main, argv: list) -> tuple[float, bool]:
    """Time one cli.main call; any non-zero exit or exception is a failure."""
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception:  # the op fails, the benchmark carries on
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t0, rc == 0


def run_round(ops, checker, main, tracer=None) -> tuple[list, int]:
    """Run every op once; with a tracer, inside its wrappers and one cli.main span each."""
    times, failed = [], 0
    with tracer.installed() if tracer else nullcontext([]) as missing:
        if missing:
            print(f"not traced, names not found: {', '.join(missing)}", file=sys.stderr)
        for op in ops:
            with tracer.span("cli.main") if tracer else nullcontext():
                seconds, ok = call_cli(main, op.argv)
            times.append(seconds)
            failed += not (ok and checker.check(op))
    return times, failed


def layer_metrics(tracer, cover_hashes: set[str]) -> dict[str, float]:
    """One traced round's per-layer numbers (seconds are per round)."""
    t = tracer.totals()

    def get(name: str, field: str = "s") -> float:
        return t.get(name, {}).get(field, 0)

    m = {
        "rng.shuffle.s": get("rng.shuffle"),
        "rng.bits.s": get("rng.bits"),
        "image.traversal_order.self_s": get("image.traversal_order", "self_s"),
        "image.load_pgm.s": get("image.load_pgm"),
        "image.save_pgm.s": get("image.save_pgm"),
        "bits.bytes_to_bits.s": get("bits.bytes_to_bits"),
        "bits.bits_to_bytes.s": get("bits.bits_to_bytes"),
        "bits.frame_bits.s": get("bits.frame_bits"),
    }
    for method in METHODS:
        m[f"embed.embed.{method}.self_s"] = get(f"embed.embed.{LIBRARY_METHOD[method]}", "self_s")
    for family in ("lsbm", "lsbmr"):
        m[f"embed.extract.{family}.self_s"] = get(f"embed.extract.{family}", "self_s")
    calls = get("glcm.band_features", "calls")
    cover_tags = [tag for tag in tracer.tags("glcm.band_features") if tag in cover_hashes]
    m.update({
        "glcm.band_features.s": get("glcm.band_features"),
        "glcm.band_features.calls": calls,
        "glcm.matrix_mib": calls * BENCH_OFFSETS * MATRIX_BYTES / 2**20,
        "harness.benchmark.self_s": get("harness.benchmark", "self_s"),
        "harness.fld.s": get("harness.train_fld") + get("harness.accuracy"),
        "harness.cover_feature_useful_ratio":
            len(set(cover_tags)) / len(cover_tags) if cover_tags else 0.0,
        "cli.main.self_s": get("cli.main", "self_s"),
    })
    return m


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio"


def pixel_hash(args, kwargs) -> str:
    image = kwargs.get("image", args[0] if args else None)
    return sha256(image.pixels.tobytes()) if hasattr(image, "pixels") else ""


def loc_counts() -> dict[str, int]:
    counts = {}
    for module in MODULES:
        text = (SRC / "lsblab" / f"{module}.py").read_text(encoding="utf-8")
        counts[f"loc.{module}"] = sum(1 for line in text.splitlines() if line.strip())
    return counts


def end_to_end_metrics(workload: Workload, ops: list[Op], rounds: list[list[float]]) -> dict:
    """Throughputs from per-op medians over the timed rounds."""
    per_op = {op.key: statistics.median(r[i] for r in rounds) for i, op in enumerate(ops)}

    def mpx_per_s(kind: str) -> float:
        chosen = [op for op in ops if op.kind == kind]
        return sum(op.pixels for op in chosen) / 1e6 / sum(per_op[op.key] for op in chosen)

    if workload.bench:
        cells_per_s = len(METHODS) * len(BENCH_RATES) / per_op["bench"]
    else:  # one cell is one method's embed+extract pair
        cells_per_s = len(ops) / 2 / sum(per_op.values())
    return {
        "embed_mpx_s": (mpx_per_s("embed"), "Mpx/s"),
        "extract_mpx_s": (mpx_per_s("extract"), "Mpx/s"),
        "cells_per_s": (cells_per_s, "1/s"),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure for `seconds`, check every output; returns the raw result."""
    from lsblab import cli
    from lsblab.image import read_pgm

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        reference: list[float] = []  # speed.reference_task seconds, sampled throughout
        setup_s, inputs, input_hashes, failed = set_up(workload, seed, run_dir, setup_repeats,
                                                       reference)
        attempted = setup_repeats
        out = run_dir / "out"
        out.mkdir()
        ops = build_ops(workload, seed, inputs, out)
        checker = Checker(workload, inputs, out)
        cover_hashes = {sha256(read_pgm(p.read_bytes()).pixels.tobytes())
                        for p in (inputs / "covers").glob("*.pgm")}
        inputs_named = {f"input/{k}": v for k, v in input_hashes.items()}

        rounds, layers, digests = [], [], []  # rounds: per-op seconds, in `ops` order
        round_s = {False: [], True: []}
        start = last_sample = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            tracer = Tracer({"glcm.band_features": pixel_hash}) if traced else None
            times, bad = run_round(ops, checker, cli.main, tracer)
            attempted += len(ops)
            failed += bad
            digests.append(fold({**inputs_named, **checker.current}))
            checker.current = {}
            rounds.append(times)
            round_s[traced].append(sum(times))
            if traced:
                layers.append(layer_metrics(tracer, cover_hashes))
            # start another round only if it should end within half a round of the deadline
            elapsed = time.perf_counter() - start
            typical = statistics.median(round_s[False] + round_s[True])
            done = len(rounds) >= (2 if trace else 1) and elapsed + typical / 2 > seconds
            if done or time.perf_counter() - last_sample >= REFERENCE_EVERY_S:
                reference += speed.sample()
                last_sample = time.perf_counter()
            if done:
                break

        digest = digests[0]
        pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
        pin = pinned.get("digests", {}).get(workload.name) if pinned.get("seed") == seed else None
        if pin is not None:
            attempted += 1
            failed += pin != digest

        factor = speed.scale(reference)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        end_to_end = {"setup_s": (setup_s * factor, "s"),
                      **end_to_end_metrics(workload, ops, [[t * factor for t in r] for r in rounds]),
                      "peak_rss_mib": (peak_rss, "MiB")}
        wall = {"setup_s": (setup_s, "s"), **end_to_end_metrics(workload, ops, rounds)}
        per_layer = {}
        if trace:
            for name in layers[0]:
                unit = layer_unit(name)
                value = statistics.median(x[name] for x in layers)
                per_layer[name] = (value * factor if unit == "s" else value, unit)
            for method, rate in checker.change_rates().items():
                per_layer[f"embed.change_rate.{method}"] = (rate, "ratio")
            per_layer["trace_overhead_ratio"] = (
                statistics.median(round_s[True]) / statistics.median(round_s[False]), "ratio")
            per_layer.update({name: (n, "lines") for name, n in loc_counts().items()})
        return {
            "attempted": attempted,
            "failed": failed,
            "rounds": len(rounds),
            "digest": digest,
            "round_digests": digests,
            "pinned": pin,
            "reference_s": statistics.median(reference),
            "end_to_end": end_to_end,
            "wall": wall,
            "per_layer": per_layer,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def provenance(result: dict) -> dict:
    import numpy as np
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_hashes = {p.name: sha256(p.read_bytes()) for p in sorted((SRC / "lsblab").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": fold(src_hashes),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "loc": loc_counts(),
        "rounds": result["rounds"],
        "reference_s": result["reference_s"],
        "wall": {name: value for name, (value, _) in result["wall"].items()},
        "digest": result["digest"],
        "pinned_digest": result["pinned"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lsblab" / "cli.py").is_file():
        print(f"lsblab sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lsblab

    if Path(lsblab.__file__).resolve().parent != SRC / "lsblab":
        print(f"imported lsblab from {lsblab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    failed_ratio = result["failed"] / result["attempted"]
    for name, (value, unit) in {**metrics, "failed_ratio": (failed_ratio, "ratio")}.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    if not args.trace:
        for name, (value, unit) in result["wall"].items():
            print(f"{name + ' (wall, unscaled)':40s} {value:14.6f} {unit}")
    if result["pinned"] is not None and result["pinned"] != result["digest"]:
        print(f"digest {result['digest']} does not match pinned {result['pinned']}",
              file=sys.stderr)
    print(json.dumps({"provenance": provenance(result)}))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
