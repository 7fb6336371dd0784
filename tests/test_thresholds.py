"""Threshold rules: MVT, POT with GPD tail fitting, chi-square."""

import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from madkit.data import GpdParameters, SeriesMatrix
from madkit.scoring import fit_scatter, score_all
from madkit.smoothing import SmoothConfig, smooth_matrix
from madkit.thresholds import (
    MIN_EXCEEDANCES,
    GpdFitError,
    ThresholdSpec,
    chi2_threshold,
    fit_gpd,
    flag,
    gpd_loglik,
    mvt_threshold,
    pot_quantile,
    pot_threshold,
)

from oracles import gpd_sample


def nelder_mead_fit(y):
    """The Nelder-Mead fit that Grimshaw's reduction replaced, the oracle:
    two searches over (gamma, log delta), from a method-of-moments start
    and from the exponential fit, and the best of them and the exponential
    fit by likelihood."""
    mean, var = float(y.mean()), float(y.var())
    ratio = mean * mean / var
    exponential = (0.0, mean)

    def negloglik(params):
        ll = gpd_loglik(y, params[0], math.exp(params[1]))
        return -ll if math.isfinite(ll) else math.inf

    starts = [exponential]
    moments = (0.5 * (1.0 - ratio), 0.5 * mean * (ratio + 1.0))
    if math.isfinite(gpd_loglik(y, *moments)):
        starts.insert(0, moments)
    candidates = [exponential]
    for g0, d0 in starts:
        res = optimize.minimize(
            negloglik,
            x0=np.array([g0, math.log(d0)]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000, "maxfev": 4000},
        )
        # fit_gpd used to drop a search that ran out of evaluations, and
        # raised when both did; on a flat optimum that happens with the
        # simplex at the top, so its best point is kept here
        if math.isfinite(res.fun):
            candidates.append((float(res.x[0]), math.exp(float(res.x[1]))))
    return max(candidates, key=lambda c: gpd_loglik(y, *c))


def mahalanobis_tail(rng, m, t, h, heavy):
    """Exceedances over the 0.99 quantile of Mahalanobis training scores,
    as a POT detector fits them."""
    draw = rng.standard_t(4, (m, t)) if heavy else rng.standard_normal((m, t))
    values = draw + 0.3 * draw[:1]  # correlated variables
    values = smooth_matrix(SeriesMatrix([f"v{i}" for i in range(m)], values),
                           SmoothConfig(h, "median")).values
    centered = values - values.mean(axis=1, keepdims=True)
    scores = score_all(fit_scatter(centered), centered)
    l = float(np.quantile(scores, 0.99))
    return scores[scores > l] - l


def gpd_oracle_samples():
    """40 seeded samples: criterion 3's four (gamma, delta) pairs at four
    sizes, and 24 Mahalanobis tails of 30 to 285 exceedances."""
    rng = np.random.default_rng(2027)
    for gamma, delta in ((-0.2, 1.0), (0.0, 2.0), (0.2, 1.0), (0.5, 0.5)):
        for n in (40, 300, 5000, 100000):
            yield f"gpd({gamma},{delta}) n={n}", gpd_sample(rng, gamma, delta, n)
    for m in (5, 20, 38):
        for t in (3000, 28479):
            for h in (1, 20):
                for heavy in (False, True):
                    yield f"md m={m} t={t} h={h} heavy={heavy}", mahalanobis_tail(
                        rng, m, t, h, heavy
                    )


# ---------------------------------------------------------------------------
# MVT


def test_mvt_frozen_example():
    assert mvt_threshold(np.array([0.5, 2.0, 1.1])) == 2.0


def test_mvt_rejects_empty():
    with pytest.raises(ValueError, match="no training scores"):
        mvt_threshold(np.array([]))


def test_mvt_never_flags_its_own_training_scores():
    rng = np.random.default_rng(0)
    for _ in range(25):
        scores = np.abs(rng.standard_normal(int(rng.integers(1, 500))))
        k = mvt_threshold(scores)
        assert flag(scores, k).sum() == 0


# ---------------------------------------------------------------------------
# flagging


def test_flag_is_strictly_greater():
    out = flag(np.array([1.0, 2.0, 3.0]), 2.0)
    assert np.array_equal(out, np.array([0, 0, 1]))


def test_flag_requires_positive_threshold():
    with pytest.raises(ValueError):
        flag(np.array([1.0]), 0.0)


# ---------------------------------------------------------------------------
# chi-square rule


def test_chi2_frozen_quantiles():
    # chi2(df=1).ppf(0.95) = 3.8415, chi2(df=2).ppf(0.99) = 9.2103
    assert abs(chi2_threshold(1, 0.05) - math.sqrt(3.8415)) < 1e-3
    assert abs(chi2_threshold(2, 0.01) - math.sqrt(9.2103)) < 1e-3


def test_chi2_threshold_is_bit_identical_to_stats_chi2_ppf():
    # chi2_threshold imports scipy.stats lazily; it must still be exactly
    # chi2.ppf.  scipy.special.chdtri is not a substitute: on this grid
    # it differs in the last bits for hundreds of (m, alpha) pairs
    alphas = (0.2, 0.05, 0.01, 0.001, 1e-6)
    grid = [(m, a) for a in alphas for m in range(1, 201)]
    for m, a in grid:
        assert chi2_threshold(m, a) == math.sqrt(stats.chi2.ppf(1.0 - a, m)), (m, a)
    chdtri_differs = sum(
        chi2_threshold(m, a) != math.sqrt(special.chdtri(m, a)) for m, a in grid
    )
    assert chdtri_differs > 100


def test_chi2_exceedance_rate_under_gaussian_scores():
    # for m-dim standard normal data, MD^2 is chi-square(m), so the
    # flag rate should be close to alpha
    rng = np.random.default_rng(1)
    m, t, alpha = 4, 200000, 0.01
    md = np.sqrt((rng.standard_normal((m, t)) ** 2).sum(axis=0))
    k = chi2_threshold(m, alpha)
    rate = (md > k).mean()
    assert abs(rate - alpha) < 0.002


def test_chi2_threshold_monotone_in_alpha():
    ks = [chi2_threshold(3, a) for a in (0.2, 0.1, 0.01, 0.001)]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_chi2_validation():
    with pytest.raises(ValueError):
        chi2_threshold(0, 0.01)
    with pytest.raises(ValueError):
        chi2_threshold(3, 0.0)
    with pytest.raises(ValueError):
        chi2_threshold(3, 1.0)


# ---------------------------------------------------------------------------
# GPD likelihood and fitting


def test_gpd_loglik_continuous_through_zero():
    rng = np.random.default_rng(2)
    y = gpd_sample(rng, 0.0, 1.5, 200)
    at_zero = gpd_loglik(y, 0.0, 1.5)
    near_zero = gpd_loglik(y, 1e-13, 1.5)
    assert abs(at_zero - near_zero) < 1e-6


def test_gpd_loglik_exponential_form():
    y = np.array([1.0, 2.0, 3.0])
    want = -3.0 * math.log(2.0) - 6.0 / 2.0
    assert abs(gpd_loglik(y, 0.0, 2.0) - want) < 1e-12


def test_gpd_loglik_outside_support():
    # gamma < 0 bounds the support at -delta/gamma
    y = np.array([0.5, 3.0])
    assert gpd_loglik(y, -0.5, 1.0) == -math.inf  # support is (0, 2)
    assert gpd_loglik(y, 0.5, 0.0) == -math.inf


def test_fit_gpd_recovers_positive_gamma():
    rng = np.random.default_rng(3)
    y = gpd_sample(rng, 0.2, 1.0, 100000)
    fit = fit_gpd(y)
    assert abs(fit.gamma - 0.2) <= 0.02
    assert abs(fit.delta - 1.0) <= 0.02


def test_fit_gpd_recovers_exponential():
    rng = np.random.default_rng(4)
    y = rng.exponential(2.0, size=100000)
    fit = fit_gpd(y)
    assert abs(fit.gamma) <= 0.02
    assert abs(fit.delta - 2.0) <= 0.05


def test_fit_gpd_loglik_at_least_truth():
    # the fitted likelihood can never fall below the true-parameter value
    rng = np.random.default_rng(5)
    for gamma, delta in ((0.4, 1.0), (0.0, 2.0), (-0.2, 1.5)):
        y = gpd_sample(rng, gamma, delta, 5000)
        fit = fit_gpd(y)
        assert fit.loglik >= gpd_loglik(y, gamma, delta) - 1e-6


def test_fit_gpd_reports_its_loglik():
    rng = np.random.default_rng(6)
    y = gpd_sample(rng, 0.3, 1.0, 2000)
    fit = fit_gpd(y)
    assert abs(fit.loglik - gpd_loglik(y, fit.gamma, fit.delta)) < 1e-9


def test_fit_gpd_matches_nelder_mead_oracle():
    # k as the bench computes it: q = 1e-3 of 100 times the peak count
    samples = list(gpd_oracle_samples())
    assert len(samples) == 40
    for name, y in samples:
        fit = fit_gpd(y, l=1.0, t_total=100 * y.size)
        gamma, delta = nelder_mead_fit(y)
        oracle = GpdParameters(gamma, delta, 1.0, y.size, 100 * y.size,
                               gpd_loglik(y, gamma, delta))
        assert fit.loglik >= oracle.loglik - 1e-9, name
        k, want = pot_quantile(fit, 1e-3), pot_quantile(oracle, 1e-3)
        assert abs(k - want) <= 1e-7 * want, (name, k, want)


def test_fit_gpd_stops_at_gamma_minus_one():
    # toward theta = -1 / max y the likelihood grows without bound once
    # gamma < -1, and with few peaks the grid's last points reach that
    # region.  Where the likelihood has a maximum above gamma = -1 the fit
    # finds it; where it has none (2 of these 10 samples), Nelder-Mead
    # stops wherever its simplex shrinks, and the fit stops at -1.
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = gpd_sample(rng, -0.45, 1.0, MIN_EXCEEDANCES)
        fit = fit_gpd(y)
        gamma = nelder_mead_fit(y)[0]
        assert fit.gamma == pytest.approx(max(gamma, -1.0), rel=1e-6)


def test_fit_gpd_is_scale_free():
    # the search runs in theta * max(y); at 1e-170 the squares of the peaks
    # underflow, at 1e170 they overflow.  Scaling changes the last bits of
    # every product, and golden section finds the flat maximum to about
    # 1e-8, so the fits agree to POT_K_TOL (1e-7), not to the last bit.
    y = gpd_sample(np.random.default_rng(9), 0.2, 1.0, 500)
    fit = fit_gpd(y)
    for scale in (1e-170, 1e170):
        scaled = fit_gpd(scale * y)
        assert scaled.gamma == pytest.approx(fit.gamma, rel=1e-7)
        assert scaled.delta == pytest.approx(scale * fit.delta, rel=1e-7)


def test_fit_gpd_too_few_exceedances():
    rng = np.random.default_rng(7)
    y = rng.exponential(1.0, size=MIN_EXCEEDANCES - 25)
    assert y.size == 5
    with pytest.raises(GpdFitError, match="below the minimum"):
        fit_gpd(y)


def test_fit_gpd_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="positive"):
        fit_gpd(np.linspace(0.0, 1.0, 50))


def test_fit_gpd_degenerate_exceedances():
    with pytest.raises(GpdFitError, match="degenerate"):
        fit_gpd(np.full(50, 3.0))


def test_fit_gpd_carries_bookkeeping():
    rng = np.random.default_rng(8)
    y = rng.exponential(1.0, size=500)
    fit = fit_gpd(y, l=4.2, t_total=12345)
    assert fit.l == 4.2
    assert fit.t_l == 500
    assert fit.t_total == 12345
    with pytest.raises(ValueError, match="t_total"):
        fit_gpd(y, t_total=10)


# ---------------------------------------------------------------------------
# POT quantile and threshold


def test_pot_quantile_frozen_exponential_case():
    # l=10, delta=1, gamma=0, T_l=1e3, T=1e5, q=1e-3:
    # k = 10 + ln(1e3 / (1e-3 * 1e5)) = 10 + ln(10)
    fit = GpdParameters(
        gamma=0.0, delta=1.0, l=10.0, t_l=1000, t_total=100000, loglik=0.0
    )
    k = pot_quantile(fit, 1e-3)
    assert abs(k - (10.0 + math.log(10.0))) < 1e-12


def test_pot_quantile_inverts_survival_function():
    # plugging k back into the GPD survival gives exactly rate q
    for gamma in (0.4, 1e-9, -0.3):
        fit = GpdParameters(
            gamma=gamma, delta=2.0, l=5.0, t_l=800, t_total=60000, loglik=0.0
        )
        for q in (1e-2, 1e-3, 1e-4):
            k = pot_quantile(fit, q)
            y = k - fit.l
            if abs(gamma) < 1e-6:
                survival = math.exp(-y / fit.delta)
            else:
                survival = (1.0 + gamma * y / fit.delta) ** (-1.0 / gamma)
            rate = survival * fit.t_l / fit.t_total
            assert abs(rate / q - 1.0) < 1e-9


def test_pot_quantile_strictly_decreasing_in_q():
    fit = GpdParameters(
        gamma=0.25, delta=1.0, l=3.0, t_l=500, t_total=50000, loglik=0.0
    )
    qs = np.logspace(-5, -1, 9)
    ks = [pot_quantile(fit, q) for q in qs]
    assert all(a > b for a, b in zip(ks, ks[1:]))


def test_pot_quantile_validates_q():
    fit = GpdParameters(
        gamma=0.1, delta=1.0, l=1.0, t_l=100, t_total=1000, loglik=0.0
    )
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            pot_quantile(fit, bad)


def test_pot_threshold_calibrated_rate():
    # threshold fitted on one sample should flag a fresh sample from the
    # same distribution at roughly rate q
    rng = np.random.default_rng(9)
    train = np.abs(rng.standard_t(df=4, size=20000))
    spec = ThresholdSpec(kind="pot", q=0.01, percentile=0.95)
    k, fit = pot_threshold(train, spec)
    fresh = np.abs(rng.standard_t(df=4, size=200000))
    rate = (fresh > k).mean()
    assert 0.01 / 3 <= rate <= 0.01 * 3
    assert fit.t_total == 20000
    assert k > fit.l


def test_pot_threshold_exceeds_cutoff_for_small_q():
    rng = np.random.default_rng(10)
    train = rng.exponential(1.0, size=50000)
    spec = ThresholdSpec(kind="pot", q=1e-4, percentile=0.99)
    k, fit = pot_threshold(train, spec)
    # q below the empirical tail rate extrapolates beyond the data cutoff
    assert k > fit.l
    assert fit.t_l == (train > fit.l).sum()


def test_pot_threshold_no_exceedances():
    scores = np.full(1000, 2.0)  # quantile equals the max, nothing above it
    spec = ThresholdSpec(kind="pot", q=0.001, percentile=0.99)
    with pytest.raises(GpdFitError, match="no training score exceeds"):
        pot_threshold(scores, spec)


def test_pot_threshold_requires_pot_spec():
    with pytest.raises(ValueError, match="kind 'pot'"):
        pot_threshold(np.ones(10), ThresholdSpec(kind="mvt"))


def test_threshold_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ThresholdSpec(kind="zscore")
    with pytest.raises(ValueError, match="q"):
        ThresholdSpec(q=0.0)
    with pytest.raises(ValueError, match="percentile"):
        ThresholdSpec(percentile=1.0)
    with pytest.raises(ValueError, match="alpha"):
        ThresholdSpec(alpha=-0.1)


def test_pot_spec_needs_q_inside_the_tail():
    # 1 - 0.75 is exactly 0.25 in binary; 1 - 0.99 is not exactly 0.01
    with pytest.raises(ValueError, match=r"q < 1 - percentile"):
        ThresholdSpec(kind="pot", q=0.25, percentile=0.75)
    ThresholdSpec(kind="pot", q=0.2, percentile=0.75)
    ThresholdSpec(kind="mvt", q=0.25, percentile=0.75)  # q unused by mvt
