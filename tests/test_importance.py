"""Explanation stage: dataset assembly, random forest, logistic RCDE."""

import math

import numpy as np
import pytest
from scipy import stats

import madkit.importance
import madkit.pipeline
from madkit.data import SeriesMatrix
from madkit.importance import (
    ConvergenceError,
    DecisionTree,
    ExplainDataset,
    ImportanceReport,
    SingleClassError,
    _dense_ranks,
    _fit_glm,
    _gini,
    _null_deviance,
    assemble_explain_dataset,
    gini_importance,
    oob_accuracy,
    rcde,
    train_forest,
)
from madkit.pipeline import PipelineConfig, run_explain
from madkit.smoothing import SmoothConfig
from madkit.thresholds import ThresholdSpec

import reference
from oracles import time_over_calibration
from test_pipeline import separation_corpus

# train_forest's ceiling at the explain_window bench's size, over
# calibration time (see test_forest_time_relative_to_calibration).  On a
# 2-vCPU VM, 11 runs of the (q, s) rank-block grower read 3.01-3.70, and 11
# of the grower before it, which worked on (s, q) blocks and gathered float
# values at every node, read 4.78-6.09.  Growing on distinct bootstrap rows
# weighted by draw count read 2.08-2.94 in 6 runs, against 3.13-3.60 for
# the per-draw (q, s) grower in the 6 runs alternating with them.
FOREST_CALIBRATION_RATIO = 4.3


def make_dataset(features, targets, names=None):
    features = np.asarray(features, dtype=np.float64)
    p = features.shape[1]
    return ExplainDataset(
        features=features,
        targets=np.asarray(targets),
        feature_names=names or [f"f{i}" for i in range(p)],
    )


def planted_dataset(seed=0, n=2000, p=20, informative=(3, 7)):
    """Class 1 iff the informative features are both shifted upward."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.zeros(n, dtype=int)
    half = n // 2
    y[:half] = 1
    for j in informative:
        x[:half, j] += 2.5
    perm = rng.permutation(n)
    return make_dataset(x[perm], y[perm])


# ---------------------------------------------------------------------------
# dataset assembly


def test_assemble_window_and_tail():
    rng = np.random.default_rng(0)
    test = SeriesMatrix(names=["a", "b"], values=rng.standard_normal((2, 10)))
    train = SeriesMatrix(names=["a", "b"], values=rng.standard_normal((2, 8)))
    flags = np.array([0, 0, 1, 1, 0, 0, 0, 0, 0, 0])
    ds = assemble_explain_dataset(test, flags, (1, 5), train_tail=train, n_extra=3)
    assert ds.n_rows == 4 + 3
    assert ds.n_features == 2
    # window rows are the transposed columns of the test block
    assert np.array_equal(ds.features[:4], test.values[:, 1:5].T)
    # tail rows come from the end of the training block, labeled normal
    assert np.array_equal(ds.features[4:], train.values[:, -3:].T)
    assert np.array_equal(ds.targets, np.array([0, 1, 1, 0, 0, 0, 0]))


def test_assemble_requires_both_classes():
    rng = np.random.default_rng(1)
    test = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 6)))
    flags = np.ones(6, dtype=int)
    with pytest.raises(SingleClassError):
        assemble_explain_dataset(test, flags, (0, 6))  # all flagged, no tail
    # adding normal tail rows silences the error
    train = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 6)))
    ds = assemble_explain_dataset(
        test, flags, (0, 6), train_tail=train, n_extra=4
    )
    assert ds.n_rows == 10
    assert sorted(np.unique(ds.targets)) == [0, 1]


def test_assemble_window_bounds():
    rng = np.random.default_rng(2)
    test = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 6)))
    flags = np.array([0, 1, 0, 1, 0, 0])
    with pytest.raises(ValueError, match="out of range"):
        assemble_explain_dataset(test, flags, (0, 7))
    with pytest.raises(ValueError, match="out of range"):
        assemble_explain_dataset(test, flags, (4, 4))


def test_assemble_name_mismatch():
    rng = np.random.default_rng(3)
    test = SeriesMatrix(names=["a", "b"], values=rng.standard_normal((2, 6)))
    train = SeriesMatrix(names=["a", "c"], values=rng.standard_normal((2, 6)))
    flags = np.array([0, 1, 0, 1, 0, 0])
    with pytest.raises(ValueError, match="must match"):
        assemble_explain_dataset(test, flags, (0, 6), train_tail=train, n_extra=2)


def test_assemble_tail_bookkeeping():
    rng = np.random.default_rng(4)
    test = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 6)))
    flags = np.array([0, 1, 0, 1, 0, 0])
    with pytest.raises(ValueError, match="requires a training tail"):
        assemble_explain_dataset(test, flags, (0, 6), n_extra=2)
    train = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 4)))
    with pytest.raises(ValueError, match="exceeds"):
        assemble_explain_dataset(test, flags, (0, 6), train_tail=train, n_extra=9)


def test_assemble_flag_length_check():
    rng = np.random.default_rng(5)
    test = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 6)))
    with pytest.raises(ValueError, match="one entry per test column"):
        assemble_explain_dataset(test, np.array([0, 1]), (0, 6))


def test_dataset_single_class_error():
    with pytest.raises(SingleClassError):
        make_dataset(np.zeros((4, 2)), [0, 0, 0, 0])


BAD_SHAPES = {
    "one-row": (np.zeros((1, 2)), [1], ["a", "b"], "at least two rows"),
    "short-targets": (np.zeros((3, 2)), [0, 1], ["a", "b"], "one entry per row"),
    "one-name": (np.zeros((3, 2)), [0, 1, 1], ["a"], "one name per feature"),
}


@pytest.mark.parametrize(
    "features, targets, names, message", BAD_SHAPES.values(), ids=BAD_SHAPES.keys()
)
def test_dataset_rejects_mismatched_shapes(features, targets, names, message):
    with pytest.raises(ValueError, match=message):
        ExplainDataset(features, targets, names)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    x = np.arange(12, dtype=np.float64).reshape(6, 2)
    x[3, 1] = bad
    x[5, 0] = bad  # a later row; the first bad cell is named
    with pytest.raises(ValueError, match="feature 'f1' in row 3"):
        make_dataset(x, [0, 1, 0, 1, 0, 1])


@pytest.mark.parametrize("bad", [0.5, 2], ids=["fraction", "two"])
def test_dataset_rejects_non_binary_targets(bad):
    # a fraction is not truncated to class 0, nor a 2 taken as a third class;
    # valid targets keep their values as int8
    x = np.arange(80, dtype=np.float64).reshape(40, 2)
    with pytest.raises(ValueError, match="targets must contain only 0 and 1"):
        make_dataset(x, [0, bad, 1, 1] * 10)
    targets = make_dataset(x, [0.0, 0.0, 1.0, 1.0] * 10).targets
    assert targets.dtype == np.int8 and targets.tolist() == [0, 0, 1, 1] * 10


# ---------------------------------------------------------------------------
# random forest


def test_forest_fits_separable_single_feature():
    x = np.linspace(0.0, 1.0, 40).reshape(-1, 1)
    y = (x[:, 0] > 0.5).astype(int)
    ds = make_dataset(x, y)
    forest = train_forest(ds, n_trees=25, seed=0)
    report = gini_importance(forest, ds)
    assert report.method == "rf-gini"
    assert report.ranking[0][0] == "f0"
    assert report.ranking[0][1] > 0.0


def test_forest_oob_accuracy_on_planted_signal():
    ds = planted_dataset(seed=0)
    forest = train_forest(ds, n_trees=100, seed=0)
    assert oob_accuracy(forest, ds) >= 0.95


def test_oob_accuracy_needs_an_out_of_bag_row():
    ds = ExplainDataset([[0.0], [1.0]], [0, 1], ["a"])
    forest = train_forest(ds, n_trees=1, seed=0)
    with pytest.raises(ValueError, match="no row is out of bag; grow more trees"):
        oob_accuracy(forest, ds)


def test_oob_accuracy_votes_only_with_trees_that_left_the_row_out():
    # at seed 2 one tree drew every row and row 0 is in every bag
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    forest = train_forest(ds, n_trees=8, seed=2)
    assert min(t.oob_indices.size for t in forest.trees) == 0
    votes = {i: [] for i in range(4)}
    for tree in forest.trees:
        for i in tree.oob_indices.tolist():
            votes[i].append(int(tree.predict(ds.features[i : i + 1])[0]))
    right = [int(2 * sum(v) >= len(v)) == ds.targets[i] for i, v in votes.items() if v]
    assert len(right) == 3
    assert oob_accuracy(forest, ds) == sum(right) / len(right)


def test_forest_importance_finds_planted_features():
    ds = planted_dataset(seed=1)
    forest = train_forest(ds, n_trees=100, seed=0)
    top3 = gini_importance(forest, ds).top(3)
    assert "f3" in top3
    assert "f7" in top3


def test_forest_deterministic_for_fixed_seed():
    ds = planted_dataset(seed=2, n=300, p=8)
    r1 = gini_importance(train_forest(ds, n_trees=30, seed=5), ds)
    r2 = gini_importance(train_forest(ds, n_trees=30, seed=5), ds)
    assert r1.ranking == r2.ranking
    r3 = gini_importance(train_forest(ds, n_trees=30, seed=6), ds)
    assert r1.ranking != r3.ranking  # scores shift with the seed


def test_forest_defaults_match_contract():
    ds = planted_dataset(seed=3, n=120, p=9)
    forest = train_forest(ds)
    assert forest.n_trees == 100
    assert forest.t_min == 2
    assert forest.q_features == 3  # floor(sqrt(9))


def test_forest_unsplittable_leaf_votes_class_one():
    # identical rows with mixed labels cannot be split, so each tree is
    # one leaf that votes its majority; ties go to class 1
    x = np.zeros((4, 2))
    y = np.array([0, 0, 1, 1])
    ds = make_dataset(x, y)
    forest = train_forest(ds, n_trees=9, seed=0)
    assert any(2 * tree.count1[0] == tree.n_node[0] for tree in forest.trees)
    for tree in forest.trees:
        want = int(2 * tree.count1[0] >= tree.n_node[0])
        assert tree.predict(np.zeros((1, 2)))[0] == want


def test_forest_importances_are_nonnegative_and_normalized_scale():
    ds = planted_dataset(seed=4, n=400, p=10)
    forest = train_forest(ds, n_trees=40, seed=1)
    scores = dict(gini_importance(forest, ds).ranking)
    vals = np.array(list(scores.values()))
    assert (vals >= 0).all()
    assert vals.sum() > 0


def test_forest_parameter_validation():
    ds = planted_dataset(seed=5, n=60, p=4, informative=(0, 2))
    with pytest.raises(ValueError):
        train_forest(ds, n_trees=0)
    with pytest.raises(ValueError):
        train_forest(ds, t_min=0)
    with pytest.raises(ValueError):
        train_forest(ds, q_features=5)


def test_gini_importance_rejects_a_dataset_of_another_width():
    narrow = planted_dataset(seed=5, n=60, p=2, informative=(0,))
    wide = planted_dataset(seed=5, n=60, p=3, informative=(0,))
    forest = train_forest(narrow, n_trees=2)
    with pytest.raises(ValueError, match="feature count does not match the forest"):
        gini_importance(forest, wide)


def test_forest_noise_importance_is_flat():
    # under pure noise no variable should dominate the importance profile
    rng = np.random.default_rng(6)
    maxima, medians = [], []
    for seed in range(5):
        x = rng.standard_normal((200, 8))
        y = (rng.random(200) < 0.5).astype(int)
        if y.min() == y.max():
            continue
        ds = make_dataset(x, y)
        forest = train_forest(ds, n_trees=50, seed=seed)
        scores = np.array([s for _, s in gini_importance(forest, ds).ranking])
        maxima.append(scores.max())
        medians.append(np.median(scores))
    assert max(m / md for m, md in zip(maxima, medians)) <= 3.0


# ---------------------------------------------------------------------------
# the float-sorting grower, with the benchmark's reference._best_split: the
# oracle for the rank-sorting one


def _reference_grow_tree(features, targets, t_min, q, seed):
    rng = np.random.default_rng(seed)
    n, p = features.shape
    boot = rng.integers(0, n, size=n)
    oob = np.setdiff1d(np.arange(n), boot)
    x = features[boot]
    y = targets[boot].astype(np.float64)

    feat_l, thr_l, left_l, right_l = [], [], [], []
    n_l, c1_l, dec_l = [], [], []

    def new_node():
        feat_l.append(-1)
        thr_l.append(0.0)
        left_l.append(-1)
        right_l.append(-1)
        n_l.append(0)
        c1_l.append(0)
        dec_l.append(0.0)
        return len(feat_l) - 1

    max_depth = 0
    stack = [(new_node(), np.arange(n), 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        max_depth = max(max_depth, depth)
        s = idx.size
        ones = int(y[idx].sum())
        gini = _gini(ones, s)
        n_l[node_id] = s
        c1_l[node_id] = ones
        if s <= t_min or ones == 0 or ones == s:
            continue
        cols = rng.choice(p, size=q, replace=False)
        split = reference._best_split(x[idx[:, None], cols[None, :]], y[idx], gini)
        if split is None:
            continue
        gain, col, thr = split
        go_left = x[idx, cols[col]] <= thr
        feat_l[node_id] = int(cols[col])
        thr_l[node_id] = thr
        dec_l[node_id] = gain
        left_id = new_node()
        right_id = new_node()
        left_l[node_id] = left_id
        right_l[node_id] = right_id
        stack.append((left_id, idx[go_left], depth + 1))
        stack.append((right_id, idx[~go_left], depth + 1))

    return DecisionTree(
        feature=np.array(feat_l, dtype=np.int32),
        threshold=np.array(thr_l),
        left=np.array(left_l, dtype=np.int32),
        right=np.array(right_l, dtype=np.int32),
        n_node=np.array(n_l, dtype=np.int64),
        count1=np.array(c1_l, dtype=np.int64),
        decrease=np.array(dec_l),
        seed=seed,
        oob_indices=oob,
        max_depth=max_depth,
        n_train=n,
    )


TREE_ARRAYS = (
    "feature", "threshold", "left", "right", "n_node", "count1", "decrease",
    "oob_indices",
)


def assert_matches_reference(ds, n_trees=10, t_min=2, q_features=None, seed=0):
    """train_forest grows the reference grower's trees, bit for bit."""
    forest = train_forest(
        ds, n_trees=n_trees, t_min=t_min, q_features=q_features, seed=seed
    )
    q = q_features or max(1, math.isqrt(ds.n_features))
    seeds = np.random.SeedSequence(seed).generate_state(n_trees)
    for tree, s in zip(forest.trees, seeds, strict=True):
        ref = _reference_grow_tree(ds.features, ds.targets, t_min, q, int(s))
        for name in TREE_ARRAYS:
            got, want = getattr(tree, name), getattr(ref, name)
            assert np.array_equal(got, want), name
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        assert tree.max_depth == ref.max_depth
        assert (tree.seed, tree.n_train) == (ref.seed, ref.n_train)
    return forest


@pytest.mark.parametrize("seed", range(10))
def test_forest_matches_float_sort_reference(seed):
    assert_matches_reference(planted_dataset(seed=seed), seed=seed)


def test_forest_matches_reference_on_heavy_ties():
    ds = planted_dataset(seed=3, n=800, p=6, informative=(1, 4))
    rounded = np.round(ds.features, 1)
    # rounding makes signed zeros, which sort as equals: one rank
    assert (np.signbit(rounded) & (rounded == 0)).any()
    assert (~np.signbit(rounded) & (rounded == 0)).any()
    assert_matches_reference(make_dataset(rounded, ds.targets), n_trees=20)


def test_forest_matches_reference_on_adjacent_doubles():
    # the midpoint of two adjacent doubles rounds onto one of them, so the
    # threshold falls back to the lower value, which goes left
    rng = np.random.default_rng(10)
    y = rng.integers(0, 2, 400)
    lo = np.array([1.0, 1e300, -3.5])
    x = np.where(
        (y[:, None] == 1) ^ (rng.random((400, 3)) < 0.1),
        np.nextafter(lo, np.inf), lo,
    )
    forest = assert_matches_reference(make_dataset(x, y), q_features=3)
    assert np.isin(forest.trees[0].threshold, lo).any()


def test_forest_matches_reference_next_to_signed_zeros():
    # column 0 cuts between -5e-324 and a zero of either sign: the midpoint
    # rounds to -0.0, which equals the zero above it, so the threshold
    # falls back to -5e-324; column 1 cuts between a signed zero and
    # 5e-324, whose midpoint rounds to +0.0 and sends both zeros left
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, 400)
    flip = (y[:, None] == 1) ^ (rng.random((400, 2)) < 0.1)
    zeros = np.where(rng.random((400, 2)) < 0.5, -0.0, 0.0)
    x = np.where(flip, zeros, [-5e-324, 5e-324])
    forest = assert_matches_reference(make_dataset(x, y), q_features=2)
    for j, want in enumerate([-5e-324, 0.0]):
        thr = np.concatenate([t.threshold[t.feature == j] for t in forest.trees])
        assert thr.size and (thr == want).all()
        assert (np.signbit(thr) == np.signbit(want)).all()


def test_forest_matches_reference_on_bootstrap_duplicates_grown_to_one_row():
    # few rows and few levels: each bootstrap repeats rows, most cuts lie
    # inside runs of ties, and t_min = 1 grows down to single rows
    rng = np.random.default_rng(12)
    x = rng.integers(0, 4, (40, 5)).astype(np.float64)
    y = (x[:, 0] + x[:, 1] + rng.integers(0, 3, 40) > 4).astype(int)
    assert_matches_reference(make_dataset(x, y), n_trees=40, t_min=1, q_features=5)


def test_forest_matches_reference_where_drawn_columns_are_all_tied():
    # three row patterns with mixed classes: once a node holds one pattern,
    # every column it draws is tied, so it stays a leaf although impure
    rng = np.random.default_rng(13)
    patterns = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [1.0, 1.0, 2.0]])
    x = patterns[rng.integers(0, 3, 300)]
    y = rng.integers(0, 2, 300)
    forest = assert_matches_reference(make_dataset(x, y), n_trees=10)
    stuck = [
        (t.feature < 0) & (t.n_node > forest.t_min)
        & (t.count1 > 0) & (t.count1 < t.n_node)
        for t in forest.trees
    ]
    assert all(s.any() for s in stuck)


def test_forest_matches_reference_with_a_constant_column():
    ds = planted_dataset(seed=4, n=600, p=5, informative=(1, 3))
    x = ds.features.copy()
    x[:, 2] = 0.25
    assert_matches_reference(make_dataset(x, ds.targets), q_features=2)


def test_forest_matches_reference_on_one_feature():
    ds = planted_dataset(seed=5, n=600, p=1, informative=(0,))
    forest = assert_matches_reference(ds)
    assert forest.q_features == 1


def test_forest_matches_reference_when_every_node_sees_every_feature():
    ds = planted_dataset(seed=6, n=600, p=7, informative=(2, 5))
    assert_matches_reference(ds, q_features=7)


@pytest.mark.parametrize("t_min", [1, 2, 5])
def test_forest_matches_reference_at_leaf_size(t_min):
    ds = planted_dataset(seed=7, n=500, p=9, informative=(0, 4))
    assert_matches_reference(ds, t_min=t_min)


def test_forest_matches_reference_beyond_uint16_ranks():
    # more rows than uint16 ranks can order, so the wide-rank path runs; a
    # large t_min keeps the tree to a few nodes
    ds = planted_dataset(seed=8, n=70_000, p=3, informative=(0, 1))
    assert _dense_ranks(ds.features).dtype.itemsize > 2
    forest = assert_matches_reference(ds, n_trees=1, t_min=5_000, q_features=2)
    assert forest.trees[0].feature.size > 3


def _bootstrap_at_nodes(tree, features):
    """Route the tree's bootstrap draws down its splits: per node, the
    number of draws and of distinct rows that reach it."""
    n = tree.n_train
    boot = np.random.default_rng(tree.seed).integers(0, n, size=n)
    draws = np.zeros(tree.feature.size, dtype=np.int64)
    distinct = np.zeros(tree.feature.size, dtype=np.int64)
    stack = [(0, boot)]
    while stack:
        node, rows = stack.pop()
        draws[node], distinct[node] = rows.size, np.unique(rows).size
        feat = tree.feature[node]
        if feat >= 0:
            go_left = features[rows, feat] <= tree.threshold[node]
            stack.append((tree.left[node], rows[go_left]))
            stack.append((tree.right[node], rows[~go_left]))
    return draws, distinct


def assert_counts_add_up(forest):
    """Each root holds every draw; each split's children partition its
    draws and class-1 draws."""
    for t in forest.trees:
        assert t.n_node[0] == t.n_train
        split = np.flatnonzero(t.feature >= 0)
        kids = t.left[split], t.right[split]
        for counts in (t.n_node, t.count1):
            assert np.array_equal(counts[kids[0]] + counts[kids[1]], counts[split])
        assert (t.n_node[kids[0]] > 0).all() and (t.n_node[kids[1]] > 0).all()


def test_forest_matches_reference_on_few_vectors_repeated_with_both_classes():
    # four distinct vectors, each repeated 100 times with both classes among
    # its copies: a bootstrap draws each vector hundreds of times but holds
    # at most four distinct feature vectors, and a node left with one
    # vector has every cut tied, so it stays an impure leaf
    rng = np.random.default_rng(14)
    patterns = np.array([[0.0, 2.0, -1.0], [1.0, 2.0, -1.0], [1.0, 3.0, -1.0],
                         [1.0, 3.0, 5.0]])
    x = np.repeat(patterns, 100, axis=0)
    y = (rng.random(400) < np.repeat([0.2, 0.5, 0.7, 0.9], 100)).astype(int)
    for v in range(4):
        assert 0 < y[100 * v : 100 * (v + 1)].sum() < 100
    ds = make_dataset(x, y)
    forest = assert_matches_reference(ds, n_trees=20, t_min=1, q_features=2)
    assert_counts_add_up(forest)
    stuck = 0
    for t in forest.trees:
        draws, _ = _bootstrap_at_nodes(t, ds.features)
        assert np.array_equal(draws, t.n_node)
        leaves = t.feature < 0
        impure = (t.count1 > 0) & (t.count1 < t.n_node)
        stuck += int((leaves & impure & (t.n_node > 1)).sum())
    assert stuck > 0


@pytest.mark.parametrize("t_min", [2, 3, 4, 5, 6])
def test_forest_matches_reference_with_t_min_near_node_draw_counts(t_min):
    # 24 rows on three levels per column: nodes hold fewer distinct rows
    # than draws, and t_min stops some of them exactly at their draw count
    rng = np.random.default_rng(15)
    x = rng.integers(0, 3, (24, 4)).astype(np.float64)
    y = (x[:, 0] + rng.integers(0, 3, 24) > 2).astype(int)
    ds = make_dataset(x, y)
    forest = assert_matches_reference(ds, n_trees=30, t_min=t_min, q_features=3)
    assert_counts_add_up(forest)
    at = split_above = 0
    for t in forest.trees:
        draws, distinct = _bootstrap_at_nodes(t, ds.features)
        assert np.array_equal(draws, t.n_node)
        repeated = distinct < draws
        at += int((repeated & (t.n_node == t_min)).sum())
        split_above += int(
            (repeated & (t.n_node == t_min + 1) & (t.feature >= 0)).sum()
        )
    assert at > 0 and split_above > 0


def test_forest_node_counts_add_up_from_every_draw():
    forest = train_forest(planted_dataset(seed=2, n=700, p=8), n_trees=10, seed=2)
    assert_counts_add_up(forest)


def test_dense_ranks_share_ties_and_switch_width_past_65536_rows():
    x = np.array([[0.5, -0.0], [-1.0, 0.0], [0.5, 2.0], [3.0, -0.0]])
    ranks = _dense_ranks(x)
    assert ranks.dtype == np.uint16
    assert ranks.tolist() == [[1, 0, 1, 2], [0, 0, 1, 0]]
    rng = np.random.default_rng(9)
    for n in (1 << 16, (1 << 16) + 1):
        col = rng.permutation(n).astype(np.float64)[:, None]
        ranks = _dense_ranks(col)
        assert (ranks.dtype == np.uint16) == (n <= 1 << 16)
        assert np.array_equal(ranks[0], col[:, 0])  # distinct ints rank as themselves


def test_forest_time_relative_to_calibration():
    """100 trees on 2,200 x 38 rows, the explain_window bench's forest,
    train in under ``FOREST_CALIBRATION_RATIO`` times the machine's
    current calibration time (``oracles.time_over_calibration``)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2200, 38))
    x[:300, [3, 17, 25]] += 2.5  # a shifted window, flagged ~11% of rows
    score = x[:, [3, 17, 25]].sum(axis=1) + rng.standard_normal(2200)
    ds = make_dataset(x, (score > np.quantile(score, 0.89)).astype(int))
    forest, seconds, ratio = time_over_calibration(
        lambda: train_forest(ds, n_trees=100, seed=0)
    )
    assert sum(t.feature.size for t in forest.trees) == 10_632
    detail = f"forest {seconds:.2f}s, {ratio:.2f}x calibration"
    assert ratio < FOREST_CALIBRATION_RATIO, detail
    print(detail)


# ---------------------------------------------------------------------------
# logistic regression and RCDE


def test_logistic_intercept_only_balanced():
    # no predictive signal, balanced classes: intercept 0, no deviance gain
    from madkit.importance import _fit_glm

    design = np.ones((10, 1))  # the intercept column alone
    y = np.array([0.0, 1.0] * 5)
    coef, intercept, d_full, _ = _fit_glm(design, y, ridge=1e-6)
    assert coef.size == 0
    assert abs(intercept) < 1e-12
    assert abs(d_full - (-2.0 * y.size * math.log(0.5))) < 1e-10


def test_logistic_separated_data_classifies_perfectly():
    from madkit.importance import _fit_glm, _null_deviance

    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(-3, 0.5, 50), rng.normal(3, 0.5, 50)])
    y = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    yf = y.astype(float)
    design = np.column_stack([np.ones(100), x])
    coef, intercept, d_full, _ = _fit_glm(design, yf, ridge=1e-3)
    prob = 1.0 / (1.0 + np.exp(-(intercept + x * coef[0])))
    assert np.array_equal((prob > 0.5).astype(int), y)
    assert d_full < _null_deviance(yf)


def test_logistic_deviance_gap_is_chi2_under_null():
    # with useless predictors the deviance drop is small: the LR statistic
    # should not reject at the 1% level
    from madkit.importance import _fit_glm, _null_deviance

    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 3))
    y = (rng.random(400) < 0.5).astype(float)
    design = np.hstack([np.ones((400, 1)), x])
    _, _, d_full, _ = _fit_glm(design, y, ridge=1e-8)
    gap = _null_deviance(y) - d_full
    assert gap >= -1e-8
    assert stats.chi2.sf(max(gap, 0.0), df=3) > 0.01


@pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
def test_logistic_ridge_validation(ridge):
    ds = planted_dataset(seed=9, n=50, p=3, informative=(0,))
    with pytest.raises(ValueError):
        rcde(ds, ridge=ridge)


def test_logistic_unpenalized_separation_fails_loudly():
    # perfectly separated data has no unpenalized optimum
    x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    ds = make_dataset(x.reshape(-1, 1), y)
    with pytest.raises(ConvergenceError):
        rcde(ds, ridge=0.0)
    rcde(ds, ridge=1e-2)  # a real penalty restores convergence


def test_logistic_unpenalized_duplicate_column_fails_loudly():
    # two equal columns make the unpenalized Hessian exactly singular
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3))
    x[:, 2] = x[:, 1]
    y = (x[:, 0] + rng.standard_normal(60) > 0).astype(int)
    with pytest.raises(ConvergenceError, match=r"singular update \(separation\?\)"):
        rcde(make_dataset(x, y), ridge=0.0)


def test_convergence_error_names_cli_remedies():
    x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
    y = np.repeat([0, 1], 20)
    ds = make_dataset(x.reshape(-1, 1), y)
    with pytest.raises(
        ConvergenceError, match="--importance rf, or a different --step5-window"
    ):
        rcde(ds, ridge=0.0)


def test_rcde_single_predictor_is_exactly_one():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((80, 1))
    y = (x[:, 0] + 0.3 * rng.standard_normal(80) > 0).astype(int)
    ds = make_dataset(x, y)
    report = rcde(ds)
    assert report.method == "lr-rcde"
    assert report.ranking[0][1] == 1.0  # exact, not approximate


def test_rcde_symmetric_predictors_score_alike():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(600)
    x = np.column_stack([
        z + 0.6 * rng.standard_normal(600),
        z + 0.6 * rng.standard_normal(600),
    ])
    y = (z > 0).astype(int)
    ds = make_dataset(x, y)
    scores = dict(rcde(ds).ranking)
    assert abs(scores["f0"] - scores["f1"]) < 0.05


def test_rcde_uninformative_predictor_scores_near_zero():
    rng = np.random.default_rng(12)
    signal = rng.standard_normal(800)
    noise = rng.standard_normal(800)
    y = (signal + 0.2 * rng.standard_normal(800) > 0).astype(int)
    ds = make_dataset(np.column_stack([signal, noise]), y)
    scores = dict(rcde(ds).ranking)
    assert abs(scores["f1"]) <= 0.02
    assert scores["f0"] > 0.5


def test_rcde_deviance_ordering():
    # dropping a variable can only hurt the fit (up to optimizer slack)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((300, 4))
    logits = x @ np.array([1.0, -0.5, 0.0, 0.25])
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    ds = make_dataset(x, y)
    from madkit.importance import _fit_glm, _null_deviance

    yf = y.astype(float)
    design = np.hstack([np.ones((300, 1)), x])
    _, _, d_full, _ = _fit_glm(design, yf, ridge=1e-8)
    for j in range(4):
        _, _, d_wo, _ = _fit_glm(np.delete(design, j + 1, axis=1), yf, ridge=1e-8)
        assert d_wo >= d_full - 1e-6


def cold_rcde_scores(ds, ridge=1e-6):
    """RCDE with every reduced model refitted from zero, the slow path the
    warm-started refits replace; ``None`` where that refit does not
    converge."""
    design = np.hstack([np.ones((ds.n_rows, 1)), ds.features])
    y = ds.targets.astype(np.float64)
    d_null, d_full = _null_deviance(y), _fit_glm(design, y, ridge)[2]
    scores = []
    for j in range(ds.n_features):
        try:
            d_wo = _fit_glm(np.delete(design, j + 1, 1), y, ridge)[2]
        except ConvergenceError:
            scores.append(None)
            continue
        scores.append(((d_null - d_full) - (d_null - d_wo)) / (d_null - d_full))
    return scores


def traced_rcde(ds, warm_fails=False):
    """``rcde(ds)`` scores in variable order, and one ``(warm, steps)`` per
    ``_fit_glm`` call, ``steps`` None where it raised.  With ``warm_fails``
    every call given a start raises before fitting."""
    calls = []

    def traced(design, y, ridge, start=None, max_iter=100):
        warm = start is not None
        try:
            if warm and warm_fails:
                raise ConvergenceError("warm start refused")
            fit = _fit_glm(design, y, ridge, start, max_iter)
        except ConvergenceError:
            calls.append((warm, None))
            raise
        calls.append((warm, fit[3]))
        return fit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(madkit.importance, "_fit_glm", traced)
        scores = dict(rcde(ds).ranking)
    return [scores[name] for name in ds.feature_names], calls


def separation_window(kind, h):
    """The dataset ``run_explain`` assembles on the separation corpus."""
    train, test = separation_corpus()
    cfg = PipelineConfig(
        train=train, test=test, smooth=SmoothConfig(h=h),
        threshold=ThresholdSpec(kind=kind), importance="lr",
    )
    datasets = []

    def capture(ds):
        datasets.append(ds)
        return ImportanceReport("lr-rcde", [])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(madkit.pipeline, "rcde", capture)
        run_explain(cfg)
    return datasets[0]


def assert_matches_cold_loop(ds):
    """Warm-started RCDE scores within 1e-12 of the cold loop wherever its
    refit converges; returns how many warm refits fell back to zero."""
    scores, calls = traced_rcde(ds)
    cold = cold_rcde_scores(ds)
    compared = [(w, c) for w, c in zip(scores, cold) if c is not None]
    assert compared
    for warm, ref in compared:
        assert abs(warm - ref) <= 1e-12, (warm, ref)
    return sum(1 for warm, steps in calls if warm and steps is None)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rcde_warm_refits_match_cold_loop_on_planted_sets(seed):
    ds = planted_dataset(seed=seed, n=600, p=8, informative=(1, 5))
    assert_matches_cold_loop(ds)


@pytest.mark.parametrize("kind, h", [("mvt", 20), ("pot", 4), ("chi2", 20)])
def test_rcde_warm_refits_match_cold_loop_on_pipeline_windows(kind, h):
    fallbacks = assert_matches_cold_loop(separation_window(kind, h))
    if kind == "mvt":  # this window exercises the restart from zero
        assert fallbacks > 0


def test_rcde_with_every_warm_start_failing_is_the_cold_loop():
    ds = planted_dataset(seed=4, n=600, p=8, informative=(1, 5))
    scores, calls = traced_rcde(ds, warm_fails=True)
    assert scores == cold_rcde_scores(ds)  # bit for bit
    assert sum(1 for warm, _ in calls if warm) == ds.n_features


def test_rcde_warm_refits_take_at_most_half_the_cold_steps():
    ds = planted_dataset(seed=0, n=2200, p=38)
    design = np.hstack([np.ones((ds.n_rows, 1)), ds.features])
    y = ds.targets.astype(np.float64)
    cold = sum(
        _fit_glm(np.delete(design, j + 1, 1), y, 1e-6)[3] for j in range(38)
    )
    _, calls = traced_rcde(ds)
    refits = calls[1:]
    assert len(refits) == 38 and all(warm and steps for warm, steps in refits)
    assert 2 * sum(steps for _, steps in refits) <= cold, (refits, cold)


def test_rcde_requires_explained_deviance():
    # target independent of a constant-ish feature: no deviance explained
    rng = np.random.default_rng(14)
    x = np.zeros((40, 1))
    x[:, 0] = 1e-12 * rng.standard_normal(40)
    y = np.array([0, 1] * 20)
    ds = make_dataset(x, y)
    with pytest.raises(ValueError, match="no deviance"):
        rcde(ds)


def test_importance_report_top():
    from madkit.importance import ImportanceReport

    report = ImportanceReport(
        method="rf-gini", ranking=[("b", 0.7), ("a", 0.2), ("c", 0.1)]
    )
    assert report.top(2) == ["b", "a"]
    assert report.top(10) == ["b", "a", "c"]
