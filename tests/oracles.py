"""Slow oracles that more than one test file checks madkit against, and
the timing protocol of the speed gates.

Each oracle is a direct statement of its definition, independent of the
code it checks.  The oracles that the benchmark also uses live in
``perfbench/reference.py``.
"""

import math
import statistics
import time
from collections import Counter

import numpy as np

from calibrate import calibrate


def time_over_calibration(run):
    """``(result, seconds, ratio)``: the result of ``run()``, the faster of
    two runs' times, and that time over the median of three
    ``perfbench/calibrate.py`` runs, one before and one after each run, so
    a drift in the machine's speed cancels."""
    calibrations, times = [calibrate()], []
    for _ in range(2):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
        calibrations.append(calibrate())
    return result, min(times), min(times) / statistics.median(calibrations)


def gpd_sample(rng, gamma, delta, size):
    """Inverse-CDF sampler of a GPD, the independent oracle for the fitter."""
    u = rng.random(size)
    if gamma == 0.0:
        return -delta * np.log1p(-u)
    return delta * ((1.0 - u) ** -gamma - 1.0) / gamma


def brute_point_metrics(pred, truth):
    """``(tp, fp, tn, fn, precision, recall, f1, mcc)`` from a Counter over
    outcome pairs."""
    counts = Counter(zip(pred, truth))
    tp, fp, tn, fn = counts[(1, 1)], counts[(1, 0)], counts[(0, 0)], counts[(0, 1)]
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1v = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mccv = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    return tp, fp, tn, fn, prec, rec, f1v, mccv


def brute_clusters(truth, min_length=1):
    """Inclusive ``(start, end)`` of each run of 1s at least ``min_length``
    long, by one scan."""
    runs = []
    start = None
    for i, t in enumerate(truth):
        if t == 1 and start is None:
            start = i
        elif t == 0 and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(truth) - 1))
    return [(s, e) for s, e in runs if e - s + 1 >= min_length]
