"""A fixed piece of work that measures how fast the machine runs right now.

On a shared host the speed of one CPU drifts by a quarter or more over
seconds to minutes, as other tenants come and go, and every timing drifts
with it.  The worker server runs ``calibrate`` just before it forks each
operation and just after the operation ends, and each set-up worker runs
it twice after its import; the benchmark reports each time scaled by
``REFERENCE_S`` over the mean of the calibrations around it: seconds on a
machine that runs this work in ``REFERENCE_S``.  The work mixes what
madkit's workloads spend time on: float formatting and parsing, dict and
list handling in the interpreter, a trailing median filter and a sort in
numpy, and passes over an array larger than a core's cache.  It never
touches madkit, so a change to the package under test cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# this work's median duration on the 2-vCPU Xeon VM the benchmark was tuned on
REFERENCE_S = 0.30

_DATA = np.random.default_rng(20240427).standard_normal((8, 16000))
# 32 MiB: far more than a core's L2, so these passes go to the shared cache
# and memory that other tenants also use
_STREAM_WORDS = 4 * 2**20


def _interpreter_work() -> float:
    total = 0.0
    cells = []
    counts: dict[int, int] = {}
    for i in range(60000):
        text = "%.17g" % (i * 0.37)
        total += float(text)
        cells.append(text)
        counts[i % 1009] = counts.get(i % 1009, 0) + 1
    return total + len(",".join(cells)) + len(counts)


def _numpy_work() -> float:
    total = 0.0
    for row in _DATA:
        total += float(np.median(sliding_window_view(row, 20), axis=-1).sum())
        total += float(np.sort(row)[-1])
    return total


def _memory_work() -> float:
    big = np.arange(_STREAM_WORDS, dtype=np.float64)
    total = 0.0
    for _ in range(4):
        total += float(big.sum()) + float((big * 0.5).max())
    return total


def calibrate() -> float:
    """Seconds this machine takes for the fixed work now."""
    start = time.perf_counter()
    _interpreter_work()
    _numpy_work()
    _memory_work()
    return time.perf_counter() - start
