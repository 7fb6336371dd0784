"""Explanation stage: dataset assembly, random forest, logistic RCDE."""

import math

import numpy as np
import pytest
from scipy import stats

from madkit.data import LabelVector, SeriesMatrix
from madkit.importance import (
    ConvergenceError,
    ExplainDataset,
    SingleClassError,
    assemble_explain_dataset,
    fit_logistic,
    gini_importance,
    oob_accuracy,
    rcde,
    train_forest,
)


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
    flags = LabelVector(np.array([0, 0, 1, 1, 0, 0, 0, 0, 0, 0]))
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
    flags = LabelVector(np.ones(6, dtype=int))
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


# ---------------------------------------------------------------------------
# random forest


def test_forest_fits_separable_single_feature():
    x = np.linspace(0.0, 1.0, 40).reshape(-1, 1)
    y = (x[:, 0] > 0.5).astype(int)
    ds = make_dataset(x, y)
    forest = train_forest(ds, n_trees=25, seed=0)
    assert np.array_equal(forest.predict(x), y)
    report = gini_importance(forest, ds)
    assert report.method == "rf-gini"
    assert report.ranking[0][0] == "f0"
    assert report.ranking[0][1] > 0.0


def test_forest_oob_accuracy_on_planted_signal():
    ds = planted_dataset(seed=0)
    forest = train_forest(ds, n_trees=100, seed=0)
    assert oob_accuracy(forest, ds) >= 0.95


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
    # identical rows with mixed labels cannot be split; ties go to class 1
    x = np.zeros((4, 2))
    y = np.array([0, 0, 1, 1])
    ds = make_dataset(x, y)
    forest = train_forest(ds, n_trees=9, seed=0)
    assert forest.predict(np.zeros((1, 2)))[0] == 1


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
# logistic regression and RCDE


def test_logistic_intercept_only_balanced():
    # no predictive signal, balanced classes: intercept 0, no deviance gain
    from madkit.importance import _fit_glm

    x = np.zeros((10, 0))
    y = np.array([0.0, 1.0] * 5)
    coef, intercept, d_full, _ = _fit_glm(x, y, ridge=1e-6)
    assert coef.size == 0
    assert abs(intercept) < 1e-12
    assert abs(d_full - (-2.0 * y.size * math.log(0.5))) < 1e-10


def test_logistic_separated_data_classifies_perfectly():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(-3, 0.5, 50), rng.normal(3, 0.5, 50)])
    y = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    ds = make_dataset(x.reshape(-1, 1), y)
    fit = fit_logistic(ds, ridge=1e-3)
    prob = 1.0 / (1.0 + np.exp(-(fit.intercept + x * fit.coef[0])))
    assert np.array_equal((prob > 0.5).astype(int), y)
    assert fit.d_full < fit.d_null


def test_logistic_deviance_gap_is_chi2_under_null():
    # with useless predictors the deviance drop is small: the LR statistic
    # should not reject at the 1% level
    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 3))
    y = (rng.random(400) < 0.5).astype(int)
    ds = make_dataset(x, y)
    fit = fit_logistic(ds, ridge=1e-8)
    gap = fit.d_null - fit.d_full
    assert gap >= -1e-8
    assert stats.chi2.sf(max(gap, 0.0), df=3) > 0.01


def test_logistic_ridge_validation():
    ds = planted_dataset(seed=9, n=50, p=3, informative=(0,))
    with pytest.raises(ValueError):
        fit_logistic(ds, ridge=-1.0)


def test_logistic_unpenalized_separation_fails_loudly():
    # perfectly separated data has no unpenalized optimum
    x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    ds = make_dataset(x.reshape(-1, 1), y)
    with pytest.raises(ConvergenceError):
        fit_logistic(ds, ridge=0.0)
    fit_logistic(ds, ridge=1e-2)  # a real penalty restores convergence


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
    _, _, d_full, _ = _fit_glm(x, yf, ridge=1e-8)
    for j in range(4):
        _, _, d_wo, _ = _fit_glm(np.delete(x, j, axis=1), yf, ridge=1e-8)
        assert d_wo >= d_full - 1e-6


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
