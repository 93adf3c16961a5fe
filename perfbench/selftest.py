"""Self-test of the benchmark: tracer wiring, traced-vs-plain bytes, pinned digests.

Run from the repository root (about half a minute):

    python3 perfbench/selftest.py

The file is deliberately not named test_*.py, so the repository's test suite
does not collect it.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import LOCAL, REQUIRED, Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# small stand-ins for the three workloads: same code paths, a second or two each
TINY = (
    run.Workload("tiny-permuted", 64, 1, 1, "permuted", False),
    run.Workload("tiny-raster", 64, 1, 1, None, False),
    run.Workload("tiny-bench", 32, 20, 2, "permuted", True),
)


def _owner(path: str):
    """The module, or the class inside a module, that a REQUIRED entry names."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_every_wrapped_name_exists_and_is_restored():
    originals = {(o, a): getattr(_owner(o), a) for o, a in REQUIRED}
    tracer = Tracer()
    with tracer.installed() as missing:
        assert missing == []
        for owner, attr in REQUIRED:
            assert getattr(getattr(_owner(owner), attr), "__wrapped__", None) is originals[owner, attr]
    for (owner, attr), fn in originals.items():
        assert getattr(_owner(owner), attr) is fn
    assert {(m + "." + c if c else m, a) for m, c, a, _ in LOCAL} <= set(REQUIRED)


def test_traced_and_untraced_rounds_write_the_same_bytes():
    for workload in TINY:
        result = run.run(workload, seed=5, seconds=0, trace=True, setup_repeats=1)
        assert result["failed"] == 0, workload.name
        assert len(result["round_digests"]) >= 2, workload.name
        assert len(set(result["round_digests"])) == 1, workload.name
        assert list(result["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]


def test_metric_names_match_benchmark_json():
    result = run.run(TINY[0], seed=6, seconds=0, trace=False, setup_repeats=2)
    assert list(result["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in result["end_to_end"].values())


def test_default_seed_matches_pinned_digests():
    pinned = json.loads(run.PINNED.read_text())
    for name, workload in run.WORKLOADS.items():
        result = run.run(workload, pinned["seed"], seconds=0, trace=False, setup_repeats=1)
        assert result["digest"] == pinned["digests"][name], name
        assert result["failed"] == 0, name


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
