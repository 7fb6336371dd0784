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

from .data import THRESHOLD_KINDS, GpdParameters

# below this many exceedances a tail fit is not trustworthy
MIN_EXCEEDANCES = 30

# |gamma| below this uses the exponential limit of the GPD formulas
_GAMMA_ZERO = 1e-6

# The profile likelihood is evaluated at this many points toward each of the
# four ends of phi's two sides, the nearest a fraction _END_GAP of the
# side's width from its end (and at most _END_GAP from phi = 0),
# in blocks of at most _GRID_CELLS products theta * y (128 KiB, or one row
# when a row is longer), whose log1p is taken in place.  Golden-section steps
# then shrink the best point's bracket by 0.618 each, to about 1e-13 of it.
_POINTS_PER_END = 88
_END_GAP = 1e-10
_GRID_CELLS = 1 << 14
_GOLDEN_STEPS = 60


class GpdFitError(RuntimeError):
    """Tail fitting failed: too few or degenerate peaks, or bad support."""


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


def _profile(y: np.ndarray, phi: np.ndarray):
    """Grimshaw's profile of the GPD likelihood in ``phi = max(y) gamma /
    delta``, which makes it scale-free.

    At fixed ``phi`` the likelihood peaks at ``gamma = mean(log1p(phi y /
    max y))`` and ``delta = max(y) gamma / phi``; returns those two arrays
    and the log-likelihood there plus ``n log max(y)``, that is ``-n (log(
    gamma / phi) + gamma + 1)``.  ``phi = 0`` is the exponential limit,
    ``delta = mean(y)``.  Below ``gamma = -1`` the likelihood grows without
    bound toward ``phi = -1`` (Smith 1985, *Biometrika* 72:67), so no
    maximum lies there: the profile is ``-inf`` at such points.
    """
    y_max = y.max()
    theta = phi / y_max
    rows = max(1, _GRID_CELLS // y.size)
    gamma = np.empty(phi.size)
    for i in range(0, phi.size, rows):
        block = np.multiply.outer(theta[i : i + rows], y)
        gamma[i : i + rows] = np.log1p(block, out=block).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(phi == 0.0, y.mean() / y_max, gamma / phi)
    loglik = -y.size * (np.log(scale) + gamma + 1.0)
    return gamma, scale * y_max, np.where(gamma < -1.0, -np.inf, loglik)


def _side(lo: float, hi: float, gap_lo: float) -> np.ndarray:
    """Grid over ``(lo, hi)``, geometric toward both ends: the point nearest
    ``lo`` is ``gap_lo`` of the width from it, the one nearest ``hi``
    ``_END_GAP``."""
    width = hi - lo
    return np.concatenate([
        lo + width * np.geomspace(gap_lo, 0.5, _POINTS_PER_END),
        hi - width * np.geomspace(0.5, _END_GAP, _POINTS_PER_END)[1:],
    ])


def _golden_max(f, a: float, b: float) -> float:
    """Golden-section search for the maximum of ``f`` on ``[a, b]``."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def fit_gpd(
    exceedances: np.ndarray, *, l: float = 0.0, t_total: int | None = None
) -> GpdParameters:
    """Maximum-likelihood GPD fit to positive exceedances.

    The likelihood is maximized through Grimshaw's reduction to one
    parameter, ``theta = gamma / delta`` (Grimshaw 1993, *Technometrics*
    35:185; SPOT, Siffer et al., KDD 2017): see :func:`_profile`.  Any
    stationary point has ``theta`` in ``(-1 / max y, 0)`` or in ``(0, 2
    (mean y - min y) / min y ** 2)``.  The profile is evaluated on a grid
    over both sides and 0, and the best point is refined between its
    neighbours by golden section.  Where the likelihood has no maximum above
    ``gamma = -1`` (a few very short-tailed samples of few peaks), the fit
    stops at ``gamma = -1``.  The exponential fit (``gamma = 0``, ``delta``
    = mean exceedance) is always kept as a candidate and the best feasible
    one wins.  ``l`` and ``t_total`` are carried through into the returned
    record for quantile extrapolation.

    Raises
    ------
    GpdFitError
        With fewer than ``MIN_EXCEEDANCES`` peaks, if they have no
        variance, or if no candidate satisfies the support constraint.
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

    y_min, y_max, mean = float(y.min()), float(y.max()), float(y.mean())
    if y_min == y_max:
        raise GpdFitError("exceedances are degenerate (zero variance)")
    # phi = theta max(y) lies in (-1, 0) or in (0, upper)
    upper = 2.0 * (mean / y_min - 1.0) * (y_max / y_min)
    grid = np.concatenate([
        _side(-1.0, 0.0, _END_GAP),
        [0.0],
        _side(0.0, upper, _END_GAP / max(upper, 1.0)),
    ])
    _, _, loglik = _profile(y, grid)
    best = int(np.argmax(loglik))
    phi = _golden_max(
        lambda p: float(_profile(y, np.array([p]))[2][0]),
        float(grid[max(best - 1, 0)]),
        float(grid[min(best + 1, grid.size - 1)]),
    )
    gamma, delta, _ = _profile(y, np.array([grid[best], phi]))
    candidates = [(0.0, mean), *zip(gamma.tolist(), delta.tolist())]

    gamma, delta = max(candidates, key=lambda c: gpd_loglik(y, *c))
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

    ``scipy.stats`` is imported on first use, so that only this rule pays
    for scipy at start-up; every other threshold runs on numpy alone.
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
