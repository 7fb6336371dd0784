"""Slow oracles that more than one test file checks madkit against.

Each is a direct statement of its definition, independent of the code it
checks.  The oracles that the benchmark also uses live in
``perfbench/reference.py``.
"""

import math
from collections import Counter

import numpy as np


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
