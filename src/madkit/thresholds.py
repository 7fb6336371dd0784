"""Alert-threshold selection over training scores, and flagging.

Three interchangeable rules produce the threshold ``k``:

* ``mvt``: the maximum training score; by construction no training point
  is flagged, and any test score strictly above it is.
* ``pot``: peaks-over-threshold.  Exceedances above a high empirical
  percentile ``l`` are fitted with a generalized Pareto distribution by
  maximum likelihood, and ``k`` is the level whose expected exceedance
  rate among normal data is ``q``.
* ``chi2``: ``sqrt`` of the chi-square quantile at ``1 - alpha`` with one
  degree of freedom per retained variable; exact if scores were Gaussian,
  otherwise a rough reference rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .data import THRESHOLD_KINDS, GpdParameters

# below this many exceedances a tail fit is not trustworthy
MIN_EXCEEDANCES = 30

# |gamma| below this uses the exponential limit of the GPD formulas
_GAMMA_ZERO = 1e-6


class GpdFitError(RuntimeError):
    """Tail fitting failed: too few peaks, no convergence, or bad support."""


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold rule selector with its per-rule parameters."""

    kind: str = "mvt"
    q: float = 0.001
    percentile: float = 0.99
    alpha: float = 0.01

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ValueError("kind must be 'mvt', 'pot', or 'chi2'")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError("percentile must lie strictly between 0 and 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        # the GPD quantile extrapolates only past l (Siffer et al., KDD 2017)
        if self.kind == "pot" and not self.q < 1.0 - self.percentile:
            raise ValueError("pot needs q < 1 - percentile, or k falls below l")


def mvt_threshold(train_scores: np.ndarray) -> float:
    """Maximum of the training scores."""
    train_scores = np.asarray(train_scores, dtype=np.float64)
    if train_scores.size == 0:
        raise ValueError("no training scores")
    return float(train_scores.max())


def gpd_loglik(exceedances: np.ndarray, gamma: float, delta: float) -> float:
    """Generalized Pareto log-likelihood, continuous through gamma = 0.

    Returns ``-inf`` outside the support (some exceedance with
    ``1 + gamma * y / delta <= 0``) or for ``delta <= 0``.
    """
    y = np.asarray(exceedances, dtype=np.float64)
    n = y.size
    if delta <= 0.0:
        return -math.inf
    if abs(gamma) < 1e-12:
        return -n * math.log(delta) - float(y.sum()) / delta
    z = gamma * y / delta
    if z.min() <= -1.0:
        return -math.inf
    return -n * math.log(delta) - (1.0 + 1.0 / gamma) * float(np.log1p(z).sum())


def _moment_start(y: np.ndarray) -> tuple[float, float]:
    mean = float(y.mean())
    var = float(y.var())
    if var <= 0.0:
        raise GpdFitError("exceedances are degenerate (zero variance)")
    ratio = mean * mean / var
    return 0.5 * (1.0 - ratio), 0.5 * mean * (ratio + 1.0)


def fit_gpd(
    exceedances: np.ndarray, *, l: float = 0.0, t_total: int | None = None
) -> GpdParameters:
    """Maximum-likelihood GPD fit to positive exceedances.

    The likelihood is maximized over ``(gamma, log delta)`` by Nelder-Mead
    from a method-of-moments start; the exponential profile (``gamma = 0``,
    ``delta`` = mean exceedance) is always kept as a candidate and the best
    feasible optimum wins.  ``l`` and ``t_total`` are carried through into
    the returned record for quantile extrapolation.

    Raises
    ------
    GpdFitError
        With fewer than ``MIN_EXCEEDANCES`` peaks, if the optimizer fails,
        or if no candidate satisfies the support constraint.
    """
    y = np.asarray(exceedances, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("exceedances must be 1-D")
    if y.size < MIN_EXCEEDANCES:
        raise GpdFitError(
            f"{y.size} exceedances is below the minimum of {MIN_EXCEEDANCES}"
        )
    if not (y > 0).all():
        raise ValueError("exceedances must all be positive")
    t_l = int(y.size)
    if t_total is None:
        t_total = t_l
    if t_total < t_l:
        raise ValueError("t_total cannot be smaller than the peak count")

    mean = float(y.mean())
    gamma0, delta0 = _moment_start(y)
    exp_candidate = (0.0, mean)  # exact MLE on the gamma = 0 axis

    def negloglik(params):
        g, log_d = params
        ll = gpd_loglik(y, g, math.exp(log_d))
        return -ll if math.isfinite(ll) else math.inf

    starts = [exp_candidate]
    if math.isfinite(gpd_loglik(y, gamma0, delta0)):
        starts.insert(0, (gamma0, delta0))

    candidates = [exp_candidate]
    converged = False
    for g0, d0 in starts:
        res = optimize.minimize(
            negloglik,
            x0=np.array([g0, math.log(d0)]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000, "maxfev": 4000},
        )
        if res.success and math.isfinite(res.fun):
            converged = True
            candidates.append((float(res.x[0]), math.exp(float(res.x[1]))))
    if not converged:
        raise GpdFitError("likelihood optimization did not converge")

    best = max(candidates, key=lambda c: gpd_loglik(y, *c))
    gamma, delta = best
    loglik = gpd_loglik(y, gamma, delta)
    if not math.isfinite(loglik):
        raise GpdFitError("fitted parameters violate the support constraint")
    return GpdParameters(
        gamma=gamma, delta=delta, l=l, t_l=t_l, t_total=int(t_total), loglik=loglik
    )


def pot_quantile(fit: GpdParameters, q: float) -> float:
    """Level whose expected exceedance rate among normal data is ``q``.

    ``k = l + delta / gamma * ((q T / T_l) ** -gamma - 1)`` with ``T`` the
    training score count, or the exponential limit
    ``k = l + delta * ln(T_l / (q T))`` when ``|gamma| < 1e-6``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    ratio = q * fit.t_total / fit.t_l
    if abs(fit.gamma) < _GAMMA_ZERO:
        return float(fit.l + fit.delta * math.log(fit.t_l / (q * fit.t_total)))
    return float(fit.l + fit.delta / fit.gamma * (ratio ** (-fit.gamma) - 1.0))


def pot_threshold(
    train_scores: np.ndarray, spec: ThresholdSpec
) -> tuple[float, GpdParameters]:
    """Peaks-over-threshold level for a target exceedance rate ``spec.q``.

    The cutoff ``l`` is the empirical ``spec.percentile`` quantile of the
    training scores (linear interpolation); the GPD fit to ``score - l``
    for scores above ``l`` extrapolates out to :func:`pot_quantile`.
    """
    if spec.kind != "pot":
        raise ValueError("pot_threshold requires a spec of kind 'pot'")
    md = np.asarray(train_scores, dtype=np.float64)
    if md.ndim != 1 or md.size == 0:
        raise ValueError("training scores must be a non-empty 1-D array")
    t_total = md.size
    l = float(np.quantile(md, spec.percentile))
    exceedances = md[md > l] - l
    if exceedances.size == 0:
        raise GpdFitError(
            "no training score exceeds the percentile cutoff; "
            "lower the percentile"
        )
    fit = fit_gpd(exceedances, l=l, t_total=t_total)
    return pot_quantile(fit, spec.q), fit


def chi2_threshold(m: int, alpha: float = 0.01) -> float:
    """Square root of the chi-square ``1 - alpha`` quantile with ``m``
    degrees of freedom.

    ``scipy.stats`` is imported on first use: with ``scipy.signal``, it
    nearly doubled the import time of ``madkit.cli`` for every command.
    ``chi2.ppf`` is kept over ``scipy.special.chdtri``, which differs by
    up to about 80 ulp.
    """
    from scipy.stats import chi2

    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return float(math.sqrt(chi2.ppf(1.0 - alpha, df=m)))


def flag(scores: np.ndarray, k: float) -> np.ndarray:
    """0/1 ``int8`` flags: 1 where a score is strictly above ``k``."""
    scores = np.asarray(scores, dtype=np.float64)
    if not k > 0:
        raise ValueError("threshold k must be positive")
    return (scores > k).astype(np.int8)
