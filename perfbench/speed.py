"""Machine-speed reference for the timed metrics.

The baseline machine is a shared VM whose speed drifts by 30% or more over
minutes. The benchmark therefore times a fixed pure-Python reference task
around its set-up and every few seconds between rounds, and scales every
timing by ``scale()`` of the run's reference times. Times then read as
seconds on the machine at its nominal speed; the raw wall times are printed
next to them.

The reference runs in a fresh interpreter (``python3 perfbench/speed.py N``
prints N timings as JSON), so the heap and caches that lsblab's own calls
leave behind in the benchmark process cannot change it.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

# median reference time on the baseline machine (2-core x86_64 VM, Python 3.11.7)
NOMINAL_S = 0.2

# as many elements as a 512x512 traversal order, so the working set is as large as lsblab's
REFERENCE_ITEMS = 512 * 512


def reference_task() -> None:
    """A pure-Python Fisher-Yates shuffle, the loop lsblab spends most time in."""
    rnd = random.Random(20170918)
    seq = list(range(REFERENCE_ITEMS))
    for i in range(len(seq) - 1, 0, -1):
        j = rnd.randrange(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def measure(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return times


def sample(repeats: int = 1) -> list[float]:
    """Wall seconds of `repeats` reference tasks, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, str(repeats)], capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def scale(samples: list[float]) -> float:
    """Factor that converts this run's wall seconds to nominal seconds.

    Under the machine's drift the reference's time moves about twice as much
    as lsblab's (log-log slope 0.52 over 136 interleaved samples), so the
    factor is the square root of the speed ratio.
    """
    return (NOMINAL_S / statistics.median(samples)) ** 0.5


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))
