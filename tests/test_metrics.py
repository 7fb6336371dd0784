"""Pointwise and cluster evaluation metrics."""

import math
import tracemalloc

import numpy as np
import pytest

from madkit.metrics import (
    AnomalyCluster,
    ConfusionCounts,
    confusion,
    extract_clusters,
    f1,
    mcc,
    precision,
    recall,
    ric,
)

import reference
from oracles import brute_clusters, brute_point_metrics


def test_confusion_frozen_example():
    pred = np.array([1, 1, 0, 0, 0, 0])
    truth = np.array([1, 0, 1, 1, 1, 0])
    c = confusion(pred, truth)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 3)


def test_precision_recall_f1_frozen():
    # tp=1, fp=1, fn=3: precision 1/2, recall 1/4, F1 = 2tp/(2tp+fp+fn) = 1/3
    c = ConfusionCounts(tp=1, fp=1, tn=1, fn=3)
    assert precision(c) == 0.5
    assert recall(c) == 0.25
    assert abs(f1(c) - 1.0 / 3.0) < 1e-15


def test_zero_denominators_give_zero():
    no_pred = ConfusionCounts(tp=0, fp=0, tn=5, fn=2)
    assert precision(no_pred) == 0.0
    no_truth = ConfusionCounts(tp=0, fp=2, tn=5, fn=0)
    assert recall(no_truth) == 0.0
    nothing = ConfusionCounts(tp=0, fp=0, tn=5, fn=0)
    assert f1(nothing) == 0.0
    assert mcc(nothing) == 0.0


def test_mcc_frozen_example():
    # tp=6, tn=3, fp=1, fn=2: numerator 18-2=16, denominator sqrt(7*8*5*4)
    c = ConfusionCounts(tp=6, fp=1, tn=3, fn=2)
    assert abs(mcc(c) - 16.0 / math.sqrt(1120.0)) < 1e-12


def test_mcc_extremes():
    perfect = ConfusionCounts(tp=5, fp=0, tn=5, fn=0)
    assert mcc(perfect) == 1.0
    inverted = ConfusionCounts(tp=0, fp=5, tn=0, fn=5)
    assert mcc(inverted) == -1.0


def test_mcc_no_overflow_on_large_counts():
    # int64 products overflow silently in numpy; counts stay Python ints
    big = 10**7
    c = ConfusionCounts(tp=big, fp=big, tn=big, fn=big)
    assert mcc(c) == 0.0
    c2 = ConfusionCounts(tp=big, fp=1, tn=big, fn=1)
    assert 0.99 < mcc(c2) <= 1.0


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion(np.array([0, 1]), np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        confusion(np.array([0, 2]), np.array([0, 1]))


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 200))
        pred = (rng.random(n) < 0.3).astype(int)
        truth = (rng.random(n) < 0.2).astype(int)
        c = confusion(pred, truth)
        want = brute_point_metrics(pred.tolist(), truth.tolist())
        assert (c.tp, c.fp, c.tn, c.fn) == want[:4]


def test_clusters_frozen_example():
    truth = np.array([0, 1, 1, 0, 1])
    got = [(c.start, c.end) for c in extract_clusters(truth)]
    assert got == [(1, 2), (4, 4)]
    got2 = [(c.start, c.end) for c in extract_clusters(truth, min_length=2)]
    assert got2 == [(1, 2)]


def test_clusters_edges_and_degenerates():
    assert extract_clusters(np.zeros(10, dtype=int)) == []
    full = extract_clusters(np.ones(7, dtype=int))
    assert [(c.start, c.end, c.length) for c in full] == [(0, 6, 7)]
    single = extract_clusters(np.array([1, 0, 0, 0, 1]))
    assert [(c.start, c.end) for c in single] == [(0, 0), (4, 4)]


def test_clusters_equal_only_sequences_and_name_their_records():
    clusters = extract_clusters([0, 1, 1])
    assert clusters.__eq__(5) is NotImplemented
    assert (clusters == 5) is False
    assert clusters == [AnomalyCluster(1, 2, 2)]
    assert repr(clusters) == "ClusterColumns([AnomalyCluster(start=1, end=2, length=2)])"


def test_clusters_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 300))
        truth = (rng.random(n) < 0.35).astype(int)
        min_len = int(rng.integers(1, 4))
        got = [(c.start, c.end) for c in extract_clusters(truth, min_len)]
        assert got == brute_clusters(truth, min_len)


def test_clusters_match_the_padded_diff_oracle():
    rng = np.random.default_rng(21)
    vectors = [np.zeros(0), [0], [1], [0, 0], [1, 1], [1, 0], [0, 1],
               np.zeros(50), np.ones(50), [1, 0, 1, 1, 0, 0, 1], [1, 0, 0, 1]]
    for _ in range(200):
        n = int(rng.integers(1, 400))
        vectors.append(rng.random(n) < rng.uniform(0.05, 0.95))
    for vec in vectors:
        truth = np.asarray(vec, dtype=np.int8)
        for min_length in (1, 2, 3, 5):
            got = extract_clusters(truth, min_length)
            runs = reference.runs(truth)
            runs = runs[runs[:, 1] - runs[:, 0] + 1 >= min_length]
            for column, want in ((got.starts, runs[:, 0]), (got.ends, runs[:, 1])):
                assert column.dtype == want.dtype
                assert np.array_equal(column, want), (truth, min_length)


def test_clusters_hold_one_mask_beside_their_columns():
    # 1e6 labels in runs of mean length 2, with runs at both ends: the
    # cluster columns and one mask of the labels' length, no padded copy
    # and no second mask
    rng = np.random.default_rng(8)
    lengths = rng.geometric(0.5, 500_000)
    truth = np.repeat(np.tile(np.array([1, 0], dtype=np.int8), 250_000), lengths)
    truth = truth[:1_000_000].copy()
    truth[-1] = 1
    tracemalloc.start()
    try:
        clusters = extract_clusters(truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(clusters) > 200_000
    columns = clusters.starts.nbytes + clusters.ends.nbytes
    assert peak < truth.size + 1.5 * columns, (peak, columns)


def test_cluster_record_fields():
    c = AnomalyCluster(start=3, end=5, length=3)
    assert (c.start, c.end, c.length) == (3, 5, 3)


def test_ric_prediction_must_cover_clusters():
    truth = np.array([0, 0, 0, 1, 1])
    clusters = extract_clusters(truth)
    with pytest.raises(ValueError, match="cover"):
        ric(np.array([0, 1]), clusters)


def test_ric_frozen_example():
    # three truth clusters, predictions touch two of them
    truth = np.array([1, 1, 0, 1, 0, 1])
    pred = np.array([1, 0, 0, 1, 0, 0])
    clusters = extract_clusters(truth)
    assert len(clusters) == 3
    assert abs(ric(pred, clusters) - 2.0 / 3.0) < 1e-15


def test_ric_counts_any_overlap():
    truth = np.array([0, 1, 1, 1, 0])
    pred = np.array([0, 0, 0, 1, 0])  # one point of the cluster suffices
    assert ric(pred, extract_clusters(truth)) == 1.0


def test_ric_all_zero_prediction():
    truth = np.array([0, 1, 0, 1, 1])
    pred = np.zeros(5, dtype=int)
    assert ric(pred, extract_clusters(truth)) == 0.0


def test_ric_requires_clusters():
    with pytest.raises(ValueError, match="cluster"):
        ric(np.array([0, 1]), [])


def test_ric_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(5, 300))
        truth = (rng.random(n) < 0.3).astype(int)
        clusters = extract_clusters(truth)
        if not clusters:
            continue
        pred = (rng.random(n) < 0.3).astype(int)
        covered = sum(
            1 for s, e in brute_clusters(truth) if any(pred[s : e + 1])
        )
        assert ric(pred, clusters) == covered / len(brute_clusters(truth))
    # runs at index 0 and n - 1, the subsets that --min-cluster-len keeps,
    # and an int8 prediction
    for _ in range(30):
        n = int(rng.integers(5, 300))
        truth = (rng.random(n) < 0.5).astype(int)
        truth[0] = truth[-1] = 1
        pred = (rng.random(n) < 0.2).astype(int)
        pred[0], pred[-1] = rng.integers(0, 2, 2)
        min_len = int(rng.integers(1, 4))
        runs = brute_clusters(truth, min_len)
        clusters = extract_clusters(truth, min_len)
        assert [(c.start, c.end) for c in clusters] == runs
        if not runs:
            continue
        covered = sum(1 for s, e in runs if any(pred[s : e + 1]))
        assert ric(pred, clusters) == covered / len(runs)
        assert ric(pred.astype(np.int8), clusters) == covered / len(runs)


@pytest.mark.parametrize("longest", [1, 255, 256, 65535, 65536])
def test_ric_counts_exactly_in_its_narrow_prefix_sums(longest):
    # the prefix counts wrap modulo a power of two no smaller than the
    # longest cluster: a cluster whose positives number a multiple of
    # 256 or 65,536 is still hit, and one without any is not
    truth = np.zeros(3 * longest + 3, dtype=np.int8)
    truth[1 : longest + 1] = 1  # positives all through
    truth[longest + 2 : 2 * longest + 2] = 1  # no positive
    truth[2 * longest + 3 :] = 1  # a positive at its end only
    pred = np.zeros_like(truth)
    pred[: longest + 2] = 1
    pred[-1] = 1
    clusters = extract_clusters(truth)
    assert [c.length for c in clusters] == [longest] * 3
    assert ric(pred, clusters) == 2 / 3


def test_ric_hits_at_the_vector_ends():
    truth = np.array([1, 1, 0, 0, 1])
    clusters = extract_clusters(truth)
    assert ric(np.array([0, 0, 0, 0, 1]), clusters) == 0.5
    assert ric(np.array([1, 0, 0, 0, 0]), clusters) == 0.5
    assert ric(np.array([0, 1, 0, 1, 0]), clusters) == 0.5
    assert ric(np.array([0, 1, 1, 1, 1]), clusters) == 1.0
    # a --min-cluster-len subset needs only its own clusters covered
    long_only = extract_clusters(np.array([1, 1, 0, 1]), min_length=2)
    assert ric(np.array([0, 1]), long_only) == 1.0
    # one point short of the last cluster's end
    with pytest.raises(ValueError, match="cover"):
        ric(np.array([0, 1]), extract_clusters(np.array([0, 1, 1])))
