"""VIF computation and iterative pruning."""

import numpy as np
import pytest

from madkit.collinearity import (
    ConstantVariableError,
    _vifs_from_gram,
    center,
    compute_vifs,
    vif_prune,
)
from madkit.data import SeriesMatrix, SmoothConfig
from madkit.smoothing import smooth_matrix
from madkit.synthetic import CollinearGroup, SynthConfig, generate

import reference  # reference._vifs: one lstsq regression per variable, the oracle
from oracles import time_over_calibration

# vif_prune's ceiling on 110 independent plus 40 mixed series (T = 3000),
# over calibration time (see test_prune_time_relative_to_calibration).  On
# a 2-vCPU VM one eigendecomposition per step read 0.31-0.38 in 5 runs, and
# the per-variable lstsq loop it replaced read 42-62 in 2.
PRUNE_CALIBRATION_RATIO = 2.0


def vifs_by_inverse_correlation(centered):
    """Independent oracle: VIF_i = [R^-1]_ii for the correlation matrix R."""
    corr = np.corrcoef(centered)
    return np.diag(np.linalg.inv(corr))


def test_center_frozen_example():
    centered, means = center(np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(centered, np.array([[-1.0, 0.0, 1.0]]))
    assert means[0] == 2.0


def test_center_rows_sum_to_zero():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((5, 100)) + rng.uniform(-10, 10, size=(5, 1))
    centered, means = center(values)
    assert np.abs(centered.sum(axis=1)).max() < 1e-9
    assert np.allclose(centered + means[:, None], values)


def test_center_names_constant_variable():
    m = SeriesMatrix(
        names=["good", "flat"],
        values=np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]]),
    )
    with pytest.raises(ConstantVariableError, match="'flat'") as err:
        center(m)
    assert err.value.variable == "flat"


def test_center_reports_index_without_names():
    values = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ConstantVariableError) as err:
        center(values)
    assert err.value.variable == 0


def test_vif_exactly_one_for_orthogonal_rows():
    # two exactly orthogonal centered rows regress to zero coefficients
    x = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    vifs = compute_vifs(x)
    assert np.abs(vifs - 1.0).max() < 1e-9


def test_vif_near_one_for_independent_noise():
    rng = np.random.default_rng(2)
    centered, _ = center(rng.standard_normal((4, 100000)))
    vifs = compute_vifs(centered)
    assert np.abs(vifs - 1.0).max() < 0.01


def test_vif_infinite_for_duplicates():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(50)
    centered, _ = center(np.vstack([base, base, rng.standard_normal(50)]))
    vifs = compute_vifs(centered)
    assert np.isinf(vifs[0])
    assert np.isinf(vifs[1])
    assert np.isfinite(vifs[2])


def test_vif_infinite_for_exact_sum():
    rng = np.random.default_rng(4)
    x1 = rng.standard_normal(200)
    x2 = rng.standard_normal(200)
    centered, _ = center(np.vstack([x1, x2, x1 + x2]))
    assert np.isinf(compute_vifs(centered)).all()


def test_vif_agrees_with_inverse_correlation():
    # the regression route must match diag(R^-1) on well-conditioned data
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        t = int(rng.integers(50, 300))
        mix = rng.standard_normal((n, n)) + np.eye(n) * 2.0
        centered, _ = center(mix @ rng.standard_normal((n, t)))
        got = compute_vifs(centered)
        want = vifs_by_inverse_correlation(centered)
        assert np.abs(got / want - 1.0).max() < 1e-6


def test_vif_needs_two_variables():
    with pytest.raises(ValueError, match="at least 2"):
        compute_vifs(np.ones((1, 10)))


def test_vif_scale_invariance():
    rng = np.random.default_rng(6)
    centered, _ = center(rng.standard_normal((4, 500)))
    scaled = centered * np.array([1e-6, 1.0, 1e3, 42.0])[:, None]
    assert np.allclose(
        compute_vifs(centered), compute_vifs(scaled), rtol=1e-9, atol=0
    )


def test_prune_removes_exactly_one_for_single_dependence():
    rng = np.random.default_rng(7)
    x1 = rng.standard_normal(300)
    x2 = rng.standard_normal(300)
    report = vif_prune(np.vstack([x1, x2, x1 + x2]), vif_threshold=5.0)
    assert len(report.removed) == 1
    assert len(report.retained) == 2
    assert np.isfinite(report.final_vifs).all()
    assert report.final_vifs.max() < 5.0


def test_prune_tie_break_lowest_index():
    # duplicated pair ties at infinite VIF; the lower index goes first
    rng = np.random.default_rng(8)
    base = rng.standard_normal(100)
    other = rng.standard_normal(100)
    report = vif_prune(np.vstack([base, base.copy(), other]), vif_threshold=5.0)
    assert report.removed[0][0] == 0
    assert report.retained == [1, 2]


def test_prune_keeps_clean_data_untouched():
    rng = np.random.default_rng(9)
    report = vif_prune(rng.standard_normal((6, 5000)), vif_threshold=5.0)
    assert report.removed == []
    assert report.retained == list(range(6))


def test_prune_stops_at_single_survivor():
    rng = np.random.default_rng(10)
    base = rng.standard_normal(80)
    report = vif_prune(np.vstack([base, 2.0 * base + 1.0]), vif_threshold=5.0)
    assert report.retained == [1]
    assert np.array_equal(report.final_vifs, np.array([1.0]))


def test_prune_threshold_must_exceed_one():
    with pytest.raises(ValueError, match="exceed 1"):
        vif_prune(np.random.default_rng(0).standard_normal((3, 50)), 1.0)


def test_prune_final_vifs_match_fresh_computation():
    # cached-Gram recomputation equals VIFs derived from the reduced data
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 400))
    x[3] = x[0] + 0.98 * x[1] + 0.05 * rng.standard_normal(400)
    x[6] = x[2] - x[4] + 0.05 * rng.standard_normal(400)
    report = vif_prune(x, vif_threshold=5.0)
    assert len(report.retained) >= 2
    centered, _ = center(x[report.retained])
    fresh = compute_vifs(centered)
    assert np.allclose(report.final_vifs, fresh, rtol=1e-9, atol=1e-12)


def test_prune_removal_vifs_at_least_threshold():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 300))
    x[5] = x[0] + x[1] + 0.02 * rng.standard_normal(300)
    report = vif_prune(x, vif_threshold=5.0)
    for _, vif_at_removal in report.removed:
        assert vif_at_removal >= 5.0


def test_prune_permutation_equivariance_tie_free():
    # on tie-free data the removal set maps through the permutation
    rng = np.random.default_rng(13)
    x = rng.standard_normal((7, 500))
    x[2] = 0.9 * x[0] + 0.6 * x[1] + 0.08 * rng.standard_normal(500)
    perm = rng.permutation(7)
    base_report = vif_prune(x, vif_threshold=5.0)
    perm_report = vif_prune(x[perm], vif_threshold=5.0)
    mapped = sorted(int(perm[i]) for i, _ in perm_report.removed)
    assert mapped == sorted(i for i, _ in base_report.removed)


def test_prune_accepts_series_matrix():
    rng = np.random.default_rng(14)
    m = SeriesMatrix(
        names=["a", "b", "c"], values=rng.standard_normal((3, 100))
    )
    report = vif_prune(m, vif_threshold=5.0)
    assert report.retained == [0, 1, 2]


def separate_block_prune(values, threshold):
    """``vif_prune`` as it was before it formed the Gram in one scratch
    block: centered, squared and scaled blocks of their own (the oracle)."""
    means = values.mean(axis=1)
    centered = values - means[:, None]
    scale = np.sqrt(np.mean(centered * centered, axis=1))
    z = centered / scale[:, None]
    gram = z @ z.T
    alive = list(range(len(values)))
    removed = []
    while True:
        if len(alive) == 1:
            final = np.array([1.0])
            break
        vifs = _vifs_from_gram(gram[np.ix_(alive, alive)])
        worst = int(np.argmax(vifs))
        if vifs[worst] < threshold:
            final = vifs
            break
        removed.append((alive[worst], float(vifs[worst])))
        alive.pop(worst)
    return gram, means, removed, alive, final


@pytest.mark.parametrize("order", ["C", "F"])
def test_prune_gives_the_separate_block_bits(order):
    # offsets and scales as in min-max normalised data, two exactly
    # collinear rows (VIF inf) and one nearly collinear row
    rng = np.random.default_rng(30)
    values = rng.standard_normal((9, 5000)).cumsum(axis=1) * 0.05
    values += rng.standard_normal((9, 5000))
    values[3] = 0.6 * values[0] + 0.4 * values[1]
    values[6] = values[2] - 0.5 * values[4]
    values[7] = 0.7 * values[1] + 0.7 * values[5] + 0.15 * values[8]
    values = rng.uniform(0, 1, (9, 1)) + rng.uniform(0.02, 0.2, (9, 1)) * values
    values = np.asarray(values, order=order)
    for threshold in (5.0, 1.5, 1e6):
        report = vif_prune(values, threshold)
        gram, means, removed, retained, final = separate_block_prune(
            values, threshold
        )
        assert report.gram.tobytes() == gram.tobytes()
        assert report.means.tobytes() == means.tobytes()
        assert report.removed == removed
        assert report.retained == retained
        assert report.final_vifs.tobytes() == final.tobytes()
    assert any(np.isinf(v) for _, v in vif_prune(values, 5.0).removed)


def test_prune_names_a_constant_variable_as_before():
    values = np.random.default_rng(31).standard_normal((4, 50))
    values[2] = 0.25
    for matrix, name in (
        (values, 2),
        (SeriesMatrix(["a", "b", "c", "d"], values), "c"),
    ):
        with pytest.raises(ConstantVariableError) as raised:
            vif_prune(matrix)
        assert str(raised.value) == str(ConstantVariableError(name))
        assert raised.value.variable == name


def vif_tolerance(gram):
    """How far, relative, a finite VIF may lie from the oracle's."""
    return max(1e-9, 16 * np.finfo(np.float64).eps * np.linalg.cond(gram))


def assert_prune_matches_oracle(values, threshold):
    """Follow ``vif_prune``'s path over its Gram matrix with the oracle.

    At every step the eigendecomposition must give the oracle's ``inf`` set
    and its finite VIFs within :func:`vif_tolerance`, and take the oracle's
    decision: the same variable out, or the same stop.  Only where the
    oracle's top two VIFs lie within that tolerance may another variable go
    first; the paths part there, and the return value is False.
    """
    report = vif_prune(values, threshold)
    alive, removed = list(range(len(values))), []
    while len(alive) > 1:
        block = report.gram[np.ix_(alive, alive)]
        got, want = _vifs_from_gram(block), reference._vifs(block)
        tol = vif_tolerance(block)
        assert np.array_equal(np.isinf(got), np.isinf(want)), (alive, got, want)
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] / want[finite] - 1.0) <= tol), alive
        worst = int(np.argmax(want))
        if int(np.argmax(got)) != worst:
            top, second = np.sort(want)[-2:][::-1]
            assert top - second <= tol * top, (alive, want)
            return False
        assert (got[worst] < threshold) == (want[worst] < threshold), alive
        if want[worst] < threshold:
            break
        removed.append(alive.pop(worst))
    assert [i for i, _ in report.removed] == removed
    assert report.retained == alive
    return True


def synth_train_block(seed, noise_scales):
    """The training block of a seeded ``synth`` corpus with one collinear
    group per noise scale, each of a base and one to three dependents."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    picks = rng.permutation(n)
    groups, used = [], 0
    for noise in noise_scales:
        size = int(rng.integers(2, 5))
        members = [int(v) for v in picks[used:used + size]]
        used += size
        groups.append(CollinearGroup(members[0], tuple(members[1:]), noise))
    matrix, _, train_end = generate(SynthConfig(
        n=max(n, used), t_train=int(rng.integers(300, 2000)), t_test=10,
        collinear_groups=tuple(groups), seed=seed,
    ))
    return matrix.values[:, :train_end]


def exact_dependence_block(seed):
    """Independent rows with duplicated rows and exact sums among them."""
    rng = np.random.default_rng(seed)
    n, t = int(rng.integers(5, 14)), int(rng.integers(40, 600))
    x = rng.standard_normal((n, t))
    i, j, k, l = rng.choice(n, 4, replace=False)
    x[j] = x[i]
    x[k] = x[i] + x[l] if seed % 2 else 2.0 * x[i] - 0.5 * x[l]
    if n > 8:
        x[rng.integers(n)] = x[0] + x[1] + x[2]
    return x


def bench_shaped_block(seed, h):
    """38 weakly factor-loaded series with the benchmark's exact and noisy
    dependents, per-variable offsets and scales as in min-max normalised
    server data, median-smoothed over ``h``."""
    rng = np.random.default_rng(seed)
    t = 4000
    z = rng.standard_normal((4, t)).cumsum(axis=1) / np.sqrt(t)
    z = rng.standard_normal((38, 4)) * 0.2 @ z + rng.standard_normal((38, t))
    z[9] = 0.6 * z[2] + 0.4 * z[5]
    z[23] = z[11] - 0.5 * z[17]
    z[31] = 0.7 * z[13] + 0.7 * z[27] + 0.15 * rng.standard_normal(t)
    z = rng.uniform(0, 1, (38, 1)) + rng.uniform(0.02, 0.2, (38, 1)) * z
    matrix = SeriesMatrix([f"v{i}" for i in range(38)], np.asarray(z, order="F"))
    return smooth_matrix(matrix, SmoothConfig(h=h)).values


@pytest.mark.parametrize("noise_scales", [(0.0,), (0.0, 0.0), (0.05, 0.5), (0.0, 0.01)])
def test_prune_matches_lstsq_oracle_on_synth(noise_scales):
    compared = [
        assert_prune_matches_oracle(synth_train_block(seed, noise_scales), thr)
        for seed in range(12)
        for thr in (5.0, 50.0)
    ]
    assert all(compared)


def test_prune_matches_lstsq_oracle_on_exact_dependence():
    compared = []
    for seed in range(20):
        x = exact_dependence_block(seed)
        assert np.isinf(reference._vifs(vif_prune(x, 5.0).gram)).any()
        compared.append(assert_prune_matches_oracle(x, 5.0))
    assert all(compared)


@pytest.mark.parametrize("h", [1, 20])
def test_prune_matches_lstsq_oracle_on_bench_shaped_blocks(h):
    for seed in range(3):
        assert assert_prune_matches_oracle(bench_shaped_block(seed, h), 5.0)


def test_prune_matches_lstsq_oracle_at_thresholds_next_to_a_vif():
    # a threshold 1e-9 relative above or below one of the oracle's VIFs
    # lies outside the two routes' disagreement on these well-conditioned
    # sets, so the decision there must be the oracle's
    blocks = [synth_train_block(seed, (0.05, 0.5)) for seed in range(4)]
    blocks.append(bench_shaped_block(5, 20))
    for x in blocks:
        gram = vif_prune(x, 1e300).gram
        assert 16 * np.finfo(np.float64).eps * np.linalg.cond(gram) < 1e-9
        full = reference._vifs(gram)
        for vif in np.sort(full)[-3:]:
            for thr in (vif * (1 + 1e-9), vif * (1 - 1e-9)):
                assert assert_prune_matches_oracle(x, thr)
        top = full.max()
        assert vif_prune(x, top * (1 + 1e-9)).removed == []
        assert vif_prune(x, top * (1 - 1e-9)).removed[0][0] == int(np.argmax(full))


@pytest.mark.parametrize("factor", [1e160, 1e-170])
def test_prune_names_a_variable_whose_scale_overflows(factor):
    # squaring 1e160-sized deviations overflows, 1e-170-sized ones
    # underflow to 0: neither row can be scaled to unit RMS
    values = np.random.default_rng(32).standard_normal((4, 60))
    values[2] *= factor
    for matrix, name in (
        (values, 2),
        (SeriesMatrix(["a", "b", "c", "d"], values), "c"),
    ):
        with pytest.raises(ValueError, match=f"variable {name!r}: its RMS deviation") as err:
            vif_prune(matrix)
        assert not isinstance(err.value, ConstantVariableError)
    with pytest.raises(ValueError, match="variable 2: its RMS deviation"):
        compute_vifs(values - values.mean(axis=1)[:, None])


def test_prune_time_relative_to_calibration():
    """Pruning 110 independent plus 40 mixed series (T = 3000) takes under
    ``PRUNE_CALIBRATION_RATIO`` times the machine's current calibration
    time (``oracles.time_over_calibration``)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((150, 3000))
    x[110:] = rng.standard_normal((40, 110)) @ x[:110] / np.sqrt(110) + 0.1 * x[110:]
    report, seconds, ratio = time_over_calibration(lambda: vif_prune(x, 5.0))
    assert sorted(i for i, _ in report.removed) == list(range(110, 150))
    assert report.retained == list(range(110))
    detail = f"vif_prune {seconds:.3f}s, {ratio:.2f}x calibration"
    assert ratio < PRUNE_CALIBRATION_RATIO, detail
    print(detail)


def test_prune_parts_from_lstsq_oracle_only_at_near_ties():
    # groups with 1e-4 noise give VIFs of 1e7 to 1e9 at condition numbers
    # near 1e10, where a group's top two VIFs may tie within tolerance
    compared = [
        assert_prune_matches_oracle(synth_train_block(seed, (1e-4,)), 5.0)
        for seed in range(12)
    ]
    assert sum(compared) >= 6


@pytest.mark.parametrize("vif, exact", [(3e11, False), (3e12, True)])
def test_vif_is_inf_from_the_exact_r2_tolerance_on(vif, exact):
    # y = x + e z with z orthogonal to x: VIF(x) = VIF(y) = 1 + 1 / e^2,
    # which is inf from 1 / _EXACT_R2_TOL = 1e12 on, as in the oracle
    x, z, w = np.tile([[1.0, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], 25)
    values = np.vstack([x, x + z / np.sqrt(vif - 1.0), w])
    got = compute_vifs(values)
    oracle = reference._vifs(vif_prune(values, 1e300).gram)
    assert np.array_equal(np.isinf(got), np.isinf(oracle))
    assert np.isinf(got[:2]).all() == exact and abs(got[2] - 1.0) < 1e-9
    if not exact:
        assert np.abs(got[:2] / vif - 1.0).max() < 1e-3
