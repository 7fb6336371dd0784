"""Moving-window noise filters applied before scoring.

A window of length ``h`` slides over each variable independently; only full
windows produce output, so a series of length ``T`` shrinks to ``T - h + 1``.
Output position ``j`` summarizes the original positions ``j .. j + h - 1``,
and downstream bookkeeping aligns labels to the window end ``j + h - 1``.

The median is an order statistic: each variable's row is viewed as its
full windows (``sliding_window_view``, no copy), and blocks of at most
``_MEDIAN_BLOCK`` windows are sorted at a time.  An odd window takes the
middle entry ``(h - 1) // 2``; an even window averages entries ``h // 2 - 1``
and ``h // 2``.  Only one sorted block is ever held, so the working memory
is a row and a block rather than ``h`` times the matrix, and the result is
bit for bit what ``np.median`` gives over the same windows.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import SeriesMatrix, SmoothConfig, as_labels

# windows sorted at once by the median: h = 20 makes a 640 KiB block
_MEDIAN_BLOCK = 4096


def smooth_series(x: np.ndarray, config: SmoothConfig) -> np.ndarray:
    """Apply the moving filter to one series.

    Returns an array of length ``len(x) - h + 1`` whose entry ``j`` is the
    mean or median of ``x[j : j + h]``.  An even-length median is the mean
    of the two middle order statistics.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("smooth_series expects a 1-D array")
    if config.kind == "median" and np.isnan(x).any():
        # a sort has no defined middle for NaN
        raise ValueError("median smoothing needs a series without NaN")
    return _smooth_last_axis(x, config)


def smooth_matrix(matrix: SeriesMatrix, config: SmoothConfig) -> SeriesMatrix:
    """Apply the moving filter to every variable of a matrix.

    Column ``j`` of the result is the window ending at column ``j + h - 1``
    of the input.
    """
    smoothed = _smooth_last_axis(matrix.values, config)
    return SeriesMatrix(names=list(matrix.names), values=smoothed)


def align_labels(labels: np.ndarray, h: int) -> np.ndarray:
    """Map original-timeline 0/1 labels onto the smoothed timeline.

    Smoothed position ``j`` carries the original label at the window end
    ``j + h - 1``, so the aligned vector is ``labels[h - 1:]``.
    """
    labels = as_labels(labels)
    if h < 1:
        raise ValueError("window length h must be at least 1")
    if labels.size < h:
        raise ValueError("label vector shorter than the window")
    return labels[h - 1 :]


def _smooth_last_axis(values: np.ndarray, config: SmoothConfig) -> np.ndarray:
    t = values.shape[-1]
    if t < config.h:
        raise ValueError(f"series length {t} is shorter than window {config.h}")
    if config.h == 1:
        return values.copy()
    if config.kind == "mean":
        return sliding_window_view(values, config.h, axis=-1).mean(axis=-1)
    return _moving_median(values, config.h)


def _moving_median(values: np.ndarray, h: int) -> np.ndarray:
    """Median of every full length-``h`` window along the last axis.

    The result keeps the memory order of ``values``, as a reduction over a
    window view does: matrix products downstream round differently on the
    other order.
    """
    t = values.shape[-1]
    n = t - h + 1
    lo, hi = (h - 1) // 2, h // 2  # the middle entries, equal for odd h
    out = np.empty_like(values, shape=values.shape[:-1] + (n,))
    for row, dest in zip(values.reshape(-1, t), out.reshape(-1, n)):
        windows = sliding_window_view(np.ascontiguousarray(row), h)
        for start in range(0, n, _MEDIAN_BLOCK):
            block = np.sort(windows[start : start + _MEDIAN_BLOCK], axis=-1)
            # np.median averages the middle order statistics with np.mean,
            # whose sum starts from +0.0; adding 0.0 first gives the same
            # bits, a zero median included (never -0.0).
            if h % 2:
                median = 0.0 + block[:, lo]
            else:
                median = (0.0 + block[:, lo] + block[:, hi]) / 2
            dest[start : start + _MEDIAN_BLOCK] = median
    return out
