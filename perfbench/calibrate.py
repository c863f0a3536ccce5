"""Times measured against the machine's current speed.

The benchmark was written on a shared 2-core VM whose speed changes by tens
of percent within a second and drifts over minutes: a fixed loop of Python
code can take 0.10 s and 0.20 s of CPU time a few seconds apart. A time
measured there says as much about the machine's neighbours as about the
program. So every timed step is bracketed by a fixed piece of reference work,
and the step's time is divided by the mean time of the two brackets.
Multiplied by ``REFERENCE_S``, the ratio is the step's time at the speed at
which the reference work takes ``REFERENCE_S``: a time in seconds at one
fixed machine speed.

The machine's slow spells do not slow all code alike: interpreted Python
and work on large arrays slow by different shares. So there are two kinds of
reference work, and each workload names the one like its own work
(workloads.REFERENCE). Neither shares code with upsetkit, so a change to
upsetkit changes the ratio only through its own time.
"""

from __future__ import annotations

import time

import numpy as np

# The reference work's typical time, of either kind, on the 2-core VM the
# benchmark was written on (Intel Xeon, Python 3.11, numpy 2.4). Only ratios
# matter; this constant makes them read as seconds of about the size of a
# measured wall time.
REFERENCE_S = 0.0025


def interpreter_work() -> float:
    """Interpreted Python of the kind upsetkit runs (bit masks, recursion,
    float and dict updates): about 2.5 ms on that VM."""
    seen: dict[int, int] = {}
    total = 0.0

    def walk(mask: int, depth: int) -> int:
        nonlocal total
        if depth == 0 or not mask:
            return 1
        total += 0.5 ** depth
        seen[mask] = seen.get(mask, 0) + 1
        return walk(mask ^ (mask & -mask), depth - 1) + walk(mask >> 1, depth - 1)

    for shift in range(12):
        walk((1 << 12) - 1 - shift, 9)
    return total


def array_work() -> float:
    """Random draws and a reduction over a 3.2 MB array, as upsetkit's
    measure profiles and Monte Carlo do: about 2.5 ms on that VM."""
    draws = np.random.default_rng(7).random((20_000, 20))
    return float((draws < 0.5).sum())


REFERENCE_WORK = {"interpreter": interpreter_work, "arrays": array_work}


def time_reference(kind: str) -> float:
    """Seconds the reference work of ``kind`` takes now."""
    work = REFERENCE_WORK[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """What to multiply a step's seconds by, measured between reference
    timings ``before`` and ``after``, to get its time at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
