"""A register of mutants: small wrong edits to the source that named tests must catch.

    python3 tests/mutants.py [NAME ...]

runs every entry, or the named ones. For each it copies src/, tests/ and
pyproject.toml (the pytest settings) into a temporary directory, runs the
entry's tests there on the unedited copy, then makes its edit and runs them
again. A mutant is

- caught: some named test fails, a kill by conftest.py's 30 s alarm included;
- survived: every named test passes on the edited copy;
- stale: the old text does not occur exactly once in its file, or the named
  tests do not all pass on the unedited copy; the line says which, and how
  many times the old text occurs.

Survived and stale both end the run with exit status 1. Pytest does not
collect this file. Hypothesis runs with seed 0, so each run draws the same
examples. A change that rewrites the code under an entry updates the entry's
texts, or retires the entry and says why in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # pytest node IDs, at least one of which must fail


EMBED, RNG, CLI, GLCM, HARNESS = (f"src/lsblab/{module}.py"
                                  for module in ("embed", "rng", "cli", "glcm", "harness"))
T_EMBED, T_RNG, T_HARNESS = "tests/test_embed.py::", "tests/test_rng.py::", "tests/test_harness.py::"

MUTANTS = (
    # the settle's pass layout: _runs' lockstep grid, row r is pass r
    Mutant("layout-linked-kept-at-run-starts", EMBED,
           "        linked[grid[:-1][size > 0]] = False",
           "        pass",
           (T_EMBED + "test_settle_paths_match_reference_on_many_runs[lsbm_improved-raster]",)),
    Mutant("layout-batch-skips-pass-order", EMBED,
           "        if len(jobs) > 1:  # gather the runs into pass order",
           "        if False:  # gather the runs into pass order",
           (T_EMBED + "test_batch_of_chained_raster_plans_settles_each_as_alone[lsbm_improved]",)),
    Mutant("layout-lockstep-uncapped", EMBED,
           "grid.append(np.minimum(after.take(reach.searchsorted(grid[-1])), stop))",
           "grid.append(after.take(reach.searchsorted(grid[-1])))",
           (T_EMBED + "test_batch_runs_are_each_jobs_greedy_runs",)),
    # the vote and the scan, against tests/reference.py
    Mutant("vote-mask-admits-t", EMBED,
           "((d > -t) & (d < t))",
           "((d > -t) & (d <= t))",
           (T_EMBED + "test_bordered_vote_matches_bounds_checked_reference",)),
    Mutant("saturation-bias-flipped-at-0", EMBED,
           "bias[fc == 0], bias[fc == 255] = -16, 16",
           "bias[fc == 0], bias[fc == 255] = 16, 16",
           (T_EMBED + "test_saturated_patterns_match_reference[stripes-4-lsbm_improved-raster]",)),
    Mutant("scan-predecessor-coin-one-late", EMBED,
           "flips[before[j - 1] + extra]",
           "flips[before[j - 1] + extra + 1]",
           (T_EMBED + "test_chained_runs_match_reference_in_raster_order",)),
    # coins
    Mutant("coin-for-a-job-with-none", EMBED,
           "drawn[seed][: b - a]",
           "drawn[seed][: max(b - a, 1)]",
           (T_EMBED + "test_batch_jobs_without_free_changes_settle_as_alone",)),
    Mutant("first-jobs-coin-count", EMBED,
           "most[seed] = max(most.get(seed, 0), b - a)",
           "most.setdefault(seed, b - a)",
           (T_EMBED + "test_batch_jobs_sharing_a_coin_seed_settle_as_alone[0]",)),
    Mutant("batch-ties-numbered-across-jobs", EMBED,
           "np.repeat(nxt - np.cumsum(per_job) + per_job, per_job)",
           "np.repeat(nxt - np.cumsum(per_job), per_job)",
           (T_HARNESS + "test_benchmark_matches_per_cell_reference[methods0-rates0-4-1500]",)),
    # the bench's checks and its per-chunk plan table
    Mutant("bench-plan-reads-the-top-rate-message", HARNESS,
           "framed = frame_bits(message[: _budget(rate, image.n_pixels) - FRAME_BITS])",
           "framed = frame_bits(message)",
           (T_HARNESS + "test_benchmark_matches_per_cell_reference[methods0-rates0-4-1500]",)),
    Mutant("bench-null-only-still-plans", HARNESS,
           "for i in chunk if plans else ():",
           "for i in chunk:",
           (T_HARNESS + "test_benchmark_shuffles_once_per_image[methods1-rates1-0]",)),
    Mutant("bench-method-checked-before-the-frame", HARNESS,
           "            budget = _budget(rate, image.n_pixels)\n"
           "            _capacity(image, budget, EmbedConfig(method).method.startswith(\"lsbmr\"))",
           "            pairwise = EmbedConfig(method).method.startswith(\"lsbmr\")\n"
           "            _capacity(image, _budget(rate, image.n_pixels), pairwise)",
           (T_HARNESS + "test_benchmark_checks_an_images_frame_before_the_method",)),
    # extract
    Mutant("extract-reads-half-a-pair", EMBED,
           "_read(flat[: k + 1], pairwise)",
           "_read(flat[:k], pairwise)",
           (T_EMBED + "test_extract_reads_the_framed_prefix_at_the_edges[odd-35-lsbmr-raster]",)),
    Mutant("extract-counts-an-odd-pixel-for-lsbmr", EMBED,
           "usable = 2 * (len(flat) // 2) if pairwise else len(flat)",
           "usable = len(flat)",
           (T_EMBED + "test_extract_reads_the_framed_prefix_at_the_edges[over-33-lsbmr-raster]",)),
    # the shuffle's draws and swaps
    Mutant("draws-sure-rejects-dropped", RNG,
           "a = q - before - rejected",
           "a = q - rejected",
           (T_RNG + "test_draws_match_randrange_across_bit_lengths[2048]",)),
    Mutant("draws-carried-words-discarded", RNG,
           "words = words[taken[-1] + 1 :] if len(taken) == span else words[:0]",
           "words = words[:0]",
           (T_RNG + "test_draws_match_randrange_across_bit_lengths[1026]",)),
    Mutant("draws-window-ignores-draws-left", RNG,
           "min(_WINDOW, 16 << (k // 2), m - 1)",
           "min(_WINDOW, 16 << (k // 2))",
           (T_RNG + "test_windows_capped_by_the_draws_left[0]",)),
    Mutant("swaps-jumping-capped-at-6-rounds", RNG,
           "    while True:\n        jumped",
           "    for _ in range(6):\n        jumped",
           (T_RNG + "test_apply_swaps_fixed_partners[chain-1000]",)),
    # band energies, against the co-occurrence matrix
    Mutant("bands-uint8-difference-wraps", GLCM,
           "(np.maximum(a, b) - np.minimum(a, b))",
           "(a - b)",
           ("tests/test_glcm.py::test_band_features_of_a_stack_match_matrix_oracle",)),
    # the CLI's error boundary
    Mutant("cli-oserror-escapes-main", CLI,
           "except (ValueError, OSError, MemoryError) as exc:",
           "except (ValueError, MemoryError) as exc:",
           ("tests/test_cli.py::test_missing_file_reports_error",)),
)


def passes(copy: Path, tests: tuple[str, ...]) -> bool:
    """Whether every named test passes in the copy; the first failure stops the run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def verdict(mutant: Mutant) -> tuple[str, str]:
    """caught, survived or stale (see the module docstring), and why it is stale."""
    with tempfile.TemporaryDirectory(prefix="lsblab-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return "stale", f"the old text occurs {count} times"
        if not passes(copy, mutant.tests):
            return "stale", "the named tests fail on the unedited copy"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return ("survived" if passes(copy, mutant.tests) else "caught"), ""


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen, start, failed = [known[name] for name in names] or MUTANTS, time.perf_counter(), 0
    for mutant in chosen:
        began = time.perf_counter()
        result, why = verdict(mutant)
        failed += result != "caught"
        print(f"{result:9} {mutant.name} ({time.perf_counter() - began:.1f} s)"
              + (f": {why}" if why else ""), flush=True)
    print(f"{len(chosen) - failed} caught, {failed} survived or stale, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
