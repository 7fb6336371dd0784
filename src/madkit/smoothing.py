"""Moving-window noise filters applied before scoring.

A window of length ``h`` slides over each variable independently; only full
windows produce output, so a series of length ``T`` shrinks to ``T - h + 1``.
Output position ``j`` summarizes the original positions ``j .. j + h - 1``,
and downstream bookkeeping aligns labels to the window end ``j + h - 1``.

The median is an order-statistic filter: ``scipy.ndimage.rank_filter`` runs
over each variable's row as one contiguous 1-D pass and keeps the outputs
whose window lies fully inside the series.  An odd window takes rank
``(h - 1) // 2``; an even window averages ranks ``h // 2 - 1`` and ``h // 2``.
No window is ever copied out, so the working memory is one row rather than
``h`` times the matrix, and the result is bit for bit what ``np.median``
gives over the same windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import rank_filter

from .data import FILTER_KINDS, SeriesMatrix


@dataclass(frozen=True)
class SmoothConfig:
    """Window length ``h`` (1 disables smoothing) and filter kind."""

    h: int = 1
    kind: str = "median"

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("window length h must be at least 1")
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}")


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
        # a rank filter has no defined order for NaN
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
    """Map original-timeline labels onto the smoothed timeline.

    Smoothed position ``j`` carries the original label at the window end
    ``j + h - 1``, so the aligned vector is ``labels[h - 1:]``.
    """
    labels = np.asarray(labels)
    if h < 1:
        raise ValueError("window length h must be at least 1")
    if labels.shape[-1] < h:
        raise ValueError("label vector shorter than the window")
    return labels[..., h - 1 :]


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
    full = slice(h // 2, h // 2 + t - h + 1)  # centred windows inside the row
    out = np.empty_like(values, shape=values.shape[:-1] + (t - h + 1,))
    for row, dest in zip(values.reshape(-1, t), out.reshape(-1, t - h + 1)):
        row = np.ascontiguousarray(row)
        # np.median averages the middle order statistics with np.mean, whose
        # sum starts from +0.0; adding 0.0 first gives the same bits, a
        # zero median included (never -0.0).
        if h % 2:
            dest[...] = 0.0 + rank_filter(row, (h - 1) // 2, size=h)[full]
        else:
            lo = rank_filter(row, h // 2 - 1, size=h)[full]
            hi = rank_filter(row, h // 2, size=h)[full]
            dest[...] = (0.0 + lo + hi) / 2
    return out
