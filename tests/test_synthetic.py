"""Synthetic corpus generation: shapes, determinism, planted structure."""

import numpy as np
import pytest

from madkit.synthetic import AnomalySpec, CollinearGroup, SynthConfig, generate


def test_shapes_names_and_split():
    cfg = SynthConfig(n=4, t_train=100, t_test=50, seed=0)
    matrix, truth, train_end = generate(cfg)
    assert matrix.values.shape == (4, 150)
    assert matrix.names == ["v1", "v2", "v3", "v4"]
    assert len(truth) == 150
    assert train_end == 100


def test_truth_all_zero_without_anomalies():
    cfg = SynthConfig(n=3, t_train=50, t_test=30, seed=1)
    _, truth, _ = generate(cfg)
    assert truth.sum() == 0


def test_truth_marks_exact_windows():
    cfg = SynthConfig(
        n=3,
        t_train=50,
        t_test=50,
        anomalies=(
            AnomalySpec(start=60, length=5, variables=(0,), magnitude=4.0),
            AnomalySpec(start=80, length=3, variables=(1, 2), magnitude=-4.0),
        ),
        seed=2,
    )
    _, truth, _ = generate(cfg)
    expected = np.zeros(100, dtype=np.int8)
    expected[60:65] = 1
    expected[80:83] = 1
    assert np.array_equal(truth, expected)


def test_same_seed_reproduces_everything():
    cfg = SynthConfig(
        n=5,
        t_train=80,
        t_test=40,
        collinear_groups=(CollinearGroup(base=0, dependents=(3,)),),
        anomalies=(AnomalySpec(start=90, length=4, variables=(1,), magnitude=5.0),),
        seed=42,
    )
    m1, t1, _ = generate(cfg)
    m2, t2, _ = generate(cfg)
    assert np.array_equal(m1.values, m2.values)
    assert np.array_equal(t1, t2)


def test_seeds_change_the_draw():
    base = dict(n=3, t_train=60, t_test=20)
    m1, _, _ = generate(SynthConfig(seed=0, **base))
    m2, _, _ = generate(SynthConfig(seed=1, **base))
    assert not np.array_equal(m1.values, m2.values)


def test_exact_collinear_dependents_are_affine():
    cfg = SynthConfig(
        n=6,
        t_train=200,
        t_test=50,
        collinear_groups=(CollinearGroup(base=1, dependents=(2, 4)),),
        seed=3,
    )
    matrix, _, _ = generate(cfg)
    base = matrix.values[1]
    for d in (2, 4):
        dep = matrix.values[d]
        # residual of the best affine fit is numerically zero
        a = np.vstack([base, np.ones_like(base)]).T
        coef, *_ = np.linalg.lstsq(a, dep, rcond=None)
        residual = dep - a @ coef
        assert np.abs(residual).max() < 1e-9 * max(np.abs(dep).max(), 1.0)


def test_noisy_collinear_dependents_are_not_exact():
    cfg = SynthConfig(
        n=4,
        t_train=300,
        t_test=50,
        collinear_groups=(
            CollinearGroup(base=0, dependents=(2,), noise_scale=0.1),
        ),
        seed=4,
    )
    matrix, _, _ = generate(cfg)
    base, dep = matrix.values[0], matrix.values[2]
    a = np.vstack([base, np.ones_like(base)]).T
    coef, *_ = np.linalg.lstsq(a, dep, rcond=None)
    residual = dep - a @ coef
    assert residual.std() > 0.01
    # still strongly correlated
    assert abs(np.corrcoef(base, dep)[0, 1]) > 0.9


def test_anomaly_shift_magnitude_in_training_units():
    cfg_clean = SynthConfig(n=2, t_train=2000, t_test=1000, seed=5)
    clean, _, _ = generate(cfg_clean)
    cfg = SynthConfig(
        n=2,
        t_train=2000,
        t_test=1000,
        anomalies=(
            AnomalySpec(start=2200, length=400, variables=(0,), magnitude=6.0),
        ),
        seed=5,
    )
    shifted, _, _ = generate(cfg)
    # same seed: identical data outside the anomaly, exact shift inside
    assert np.array_equal(clean.values[1], shifted.values[1])
    diff = shifted.values[0] - clean.values[0]
    train_std = clean.values[0, :2000].std()
    window = diff[2200:2600]
    assert np.allclose(window, 6.0 * train_std, rtol=1e-12)
    outside = np.concatenate([diff[:2200], diff[2600:]])
    assert np.abs(outside).max() == 0.0


def test_training_block_is_roughly_stationary():
    cfg = SynthConfig(n=3, t_train=20000, t_test=100, seed=6)
    matrix, _, _ = generate(cfg)
    train = matrix.values[:, :20000]
    first, second = train[:, :10000], train[:, 10000:]
    std = train.std(axis=1)
    assert np.abs(first.mean(axis=1) - second.mean(axis=1)).max() < 0.1 * std.min()
    assert np.abs(first.std(axis=1) - second.std(axis=1)).max() < 0.1 * std.min()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n=0, t_train=10, t_test=10)
    with pytest.raises(ValueError):
        SynthConfig(n=2, t_train=1, t_test=10)
    with pytest.raises(ValueError, match="out of range"):
        SynthConfig(
            n=2,
            t_train=10,
            t_test=10,
            collinear_groups=(CollinearGroup(base=5, dependents=(1,)),),
        )
    with pytest.raises(ValueError, match="test range"):
        SynthConfig(
            n=2,
            t_train=10,
            t_test=10,
            anomalies=(AnomalySpec(start=5, length=2, variables=(0,), magnitude=3.0),),
        )
    with pytest.raises(ValueError, match="test range"):
        SynthConfig(
            n=2,
            t_train=10,
            t_test=10,
            anomalies=(
                AnomalySpec(start=18, length=5, variables=(0,), magnitude=3.0),
            ),
        )


def test_group_and_anomaly_validation():
    with pytest.raises(ValueError, match="depend on itself"):
        CollinearGroup(base=1, dependents=(1,))
    with pytest.raises(ValueError, match="at least one dependent"):
        CollinearGroup(base=0, dependents=())
    with pytest.raises(ValueError, match="magnitude"):
        AnomalySpec(start=0, length=3, variables=(0,), magnitude=0.0)
    with pytest.raises(ValueError, match="length"):
        AnomalySpec(start=0, length=0, variables=(0,), magnitude=1.0)
    with pytest.raises(ValueError, match="dependent twice"):
        SynthConfig(
            n=4,
            t_train=10,
            t_test=10,
            collinear_groups=(
                CollinearGroup(base=0, dependents=(2,)),
                CollinearGroup(base=1, dependents=(2,)),
            ),
        )
    with pytest.raises(ValueError, match="base is another group's dependent"):
        SynthConfig(
            n=4,
            t_train=10,
            t_test=10,
            collinear_groups=(
                CollinearGroup(base=0, dependents=(1,)),
                CollinearGroup(base=1, dependents=(2,)),
            ),
        )
