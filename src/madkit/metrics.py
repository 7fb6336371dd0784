"""Pointwise and cluster-level evaluation of binary anomaly predictions.

Pointwise scores follow the usual confusion-matrix definitions with the
convention that a zero denominator yields 0.  Cluster-level recall is the
rate of identified clusters (RIC): the fraction of maximal runs of 1s in
the truth that receive at least one predicted positive.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import as_labels


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


class AnomalyCluster(NamedTuple):
    """A maximal run of 1s: inclusive ``start .. end`` with its length."""

    start: int
    end: int
    length: int


class ClusterColumns(Sequence):
    """Clusters held as two int64 columns, ``starts`` and ``ends``.

    A read-only sequence of :class:`AnomalyCluster`: ``len`` is the cluster
    count, indexing and iteration give records of Python ints, and it
    equals any sequence of the same records (an empty one equals ``[]``).
    Bulk consumers read the columns and ``lengths`` without building them.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts = starts
        self.ends = ends

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts + 1

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ClusterColumns(self.starts[i], self.ends[i])
        start, end = int(self.starts[i]), int(self.ends[i])
        return AnomalyCluster(start, end, end - start + 1)

    def __iter__(self):
        columns = (self.starts.tolist(), self.ends.tolist(), self.lengths.tolist())
        return map(AnomalyCluster, *columns)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"ClusterColumns({list(self)!r})"


def confusion(pred, truth) -> ConfusionCounts:
    """Count TP/FP/TN/FN between aligned binary vectors."""
    p = as_labels(pred, "pred")
    t = as_labels(truth, "truth")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: pred {p.size}, truth {t.size}")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p)) - tp
    fn = int(np.count_nonzero(t)) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=p.size - tp - fp - fn, fn=fn)


def precision(c: ConfusionCounts) -> float:
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: ConfusionCounts) -> float:
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f1(c: ConfusionCounts) -> float:
    denom = 2 * c.tp + c.fp + c.fn
    return 2 * c.tp / denom if denom else 0.0


def mcc(c: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    factors = (
        (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    if factors == 0:
        return 0.0
    num = c.tp * c.tn - c.fp * c.fn
    return num / math.sqrt(factors)


def extract_clusters(truth, min_length: int = 1) -> ClusterColumns:
    """Maximal runs of 1s in ``truth`` that are at least ``min_length`` long,
    in order, as :class:`ClusterColumns`."""
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    t = as_labels(truth, "truth")
    edge = np.empty(t.size, dtype=bool)  # marks run starts, then run ends
    edge[:1] = t[:1]
    np.greater(t[1:], t[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    edge[-1:] = t[-1:]
    np.less(t[1:], t[:-1], out=edge[:-1])
    ends = np.flatnonzero(edge)
    if min_length > 1:  # every run is at least 1 long
        keep = ends - starts + 1 >= min_length
        starts, ends = starts[keep], ends[keep]
    return ClusterColumns(starts, ends)


def ric(pred, clusters: ClusterColumns) -> float:
    """Fraction of clusters overlapping at least one predicted positive.

    ``clusters`` is :func:`extract_clusters`'s result; its ``starts`` and
    ``ends`` columns are read directly.
    """
    if not clusters:
        raise ValueError("no clusters to identify")
    p = as_labels(pred, "pred")
    starts, ends = clusters.starts, clusters.ends
    if ends.max() >= p.size:
        raise ValueError("prediction vector does not cover the clusters")
    # cs[i] counts the positives in p[:i] modulo 2**bits, so a cluster is
    # hit when cs[end + 1] - cs[start] > 0, also modulo 2**bits: exact in
    # the narrowest unsigned type that holds the longest cluster's length
    longest = int(clusters.lengths.max())
    cs = np.zeros(p.size + 1, dtype=np.min_scalar_type(longest))
    cs[1:] = p
    np.cumsum(cs[1:], dtype=cs.dtype, out=cs[1:])  # in place, wrapping
    hit = int(np.count_nonzero(cs[1:][ends] - cs[starts] > 0))
    return hit / len(clusters)
