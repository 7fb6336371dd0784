"""Reference results for checking the program's outputs.

These functions freeze the arithmetic of the madkit release the benchmark
was written against (smoothing, VIF pruning, scatter and scores, the
thresholds, and the evaluation metrics), so that every seed has reference
values without importing the package under test.  A later change to
``src/madkit`` is checked against this frozen behaviour within the
tolerances in ``workloads.py``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize
from scipy.linalg import solve_triangular

EXACT_R2_TOL = 1e-12


def smooth(values: np.ndarray, h: int) -> np.ndarray:
    """Trailing median filter; only full windows produce output."""
    if h == 1:
        return values.copy()
    return np.median(sliding_window_view(values, h, axis=-1), axis=-1)


def _vifs(gram: np.ndarray) -> np.ndarray:
    m = gram.shape[0]
    vifs = np.empty(m)
    idx = np.arange(m)
    for i in range(m):
        others = idx != i
        g_oi = gram[others, i]
        coef, *_ = np.linalg.lstsq(gram[np.ix_(others, others)], g_oi, rcond=None)
        r2 = 1.0 - (gram[i, i] - g_oi @ coef) / gram[i, i]
        r2 = min(max(r2, 0.0), 1.0)
        vifs[i] = np.inf if r2 >= 1.0 - EXACT_R2_TOL else 1.0 / (1.0 - r2)
    return vifs


def vif_prune(values: np.ndarray, threshold: float):
    """``(removed, retained, final_vifs)``; removal drops the first worst."""
    centered = values - values.mean(axis=1)[:, None]
    z = centered / np.sqrt(np.mean(centered * centered, axis=1))[:, None]
    gram = z @ z.T
    alive = list(range(values.shape[0]))
    removed = []
    while True:
        if len(alive) == 1:
            return removed, alive, np.array([1.0])
        vifs = _vifs(gram[np.ix_(alive, alive)])
        worst = int(np.argmax(vifs))
        if vifs[worst] < threshold:
            return removed, alive, vifs
        removed.append((alive[worst], float(vifs[worst])))
        alive.pop(worst)


def scores(chol: np.ndarray, centered: np.ndarray) -> np.ndarray:
    z = solve_triangular(chol, centered, lower=True, check_finite=False)
    return np.sqrt(np.einsum("it,it->t", z, z))


def _gpd_loglik(y: np.ndarray, gamma: float, delta: float) -> float:
    if delta <= 0.0:
        return -math.inf
    if abs(gamma) < 1e-12:
        return -y.size * math.log(delta) - float(y.sum()) / delta
    z = gamma * y / delta
    if z.min() <= -1.0:
        return -math.inf
    return -y.size * math.log(delta) - (1.0 + 1.0 / gamma) * float(np.log1p(z).sum())


def pot_threshold(train_scores: np.ndarray, q: float, percentile: float) -> float:
    """Peaks-over-threshold level: GPD maximum likelihood by Nelder-Mead
    from the moment start and the exponential profile, then the level with
    exceedance rate ``q``."""
    l = float(np.quantile(train_scores, percentile))
    y = train_scores[train_scores > l] - l
    mean, var = float(y.mean()), float(y.var())
    ratio = mean * mean / var
    gamma0, delta0 = 0.5 * (1.0 - ratio), 0.5 * mean * (ratio + 1.0)
    exp_candidate = (0.0, mean)

    def negloglik(params):
        ll = _gpd_loglik(y, params[0], math.exp(params[1]))
        return -ll if math.isfinite(ll) else math.inf

    starts = [exp_candidate]
    if math.isfinite(_gpd_loglik(y, gamma0, delta0)):
        starts.insert(0, (gamma0, delta0))
    candidates = [exp_candidate]
    for g0, d0 in starts:
        res = optimize.minimize(
            negloglik,
            x0=np.array([g0, math.log(d0)]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000, "maxfev": 4000},
        )
        if res.success and math.isfinite(res.fun):
            candidates.append((float(res.x[0]), math.exp(float(res.x[1]))))
    gamma, delta = max(candidates, key=lambda c: _gpd_loglik(y, *c))
    t_l, t_total = y.size, train_scores.size
    if abs(gamma) < 1e-6:
        return float(l + delta * math.log(t_l / (q * t_total)))
    return float(l + delta / gamma * ((q * t_total / t_l) ** (-gamma) - 1.0))


def detector(train, test, h, vif_threshold, pot, column_major=False):
    """Fit on ``train`` and score ``test`` as the five-step detector does.

    ``pot`` is the ``(q, percentile)`` of the POT threshold.  With
    ``column_major`` the smoothed blocks take the column-major layout that
    madkit's CSV reader gives its arrays: the layout sets the summation
    order of the means, and so their last bits.
    """
    layout = np.asfortranarray if column_major else np.ascontiguousarray
    s_train = layout(smooth(train, h))
    removed, retained, final_vifs = vif_prune(s_train, vif_threshold)
    means = s_train.mean(axis=1)
    reduced = (s_train - means[:, None])[retained]
    sigma = reduced @ reduced.T / reduced.shape[1]
    chol = np.linalg.cholesky((sigma + sigma.T) / 2.0)
    train_scores = scores(chol, reduced)
    k = pot_threshold(train_scores, *pot)
    s_test = layout(smooth(test, h))
    test_scores = scores(chol, s_test[retained] - means[retained][:, None])
    return {
        "removed": removed,
        "retained": retained,
        "final_vifs": final_vifs,
        "k": k,
        "scores": test_scores,
        "flags": (test_scores > k).astype(np.int8),
    }


def runs(labels: np.ndarray) -> np.ndarray:
    """``(count, 2)`` inclusive start/end of every maximal run of 1s."""
    edges = np.diff(np.concatenate(([0], labels.astype(np.int8), [0])))
    return np.column_stack(
        [np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1]
    )


def evaluation(pred: np.ndarray, truth: np.ndarray) -> dict:
    """Confusion counts, pointwise scores, clusters and RIC."""
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    tn = int(np.sum((pred == 0) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    clusters = runs(truth)
    prefix = np.concatenate(([0], np.cumsum(pred, dtype=np.int64)))
    hit = int(np.count_nonzero(prefix[clusters[:, 1] + 1] > prefix[clusters[:, 0]]))
    return {
        "counts": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
        "mcc": (tp * tn - fp * fn) / math.sqrt(factors) if factors else 0.0,
        "clusters": clusters,
        "ric": hit / len(clusters) if len(clusters) else None,
    }


def explain_dataset(train, test, flags, window, n_extra):
    """Rows of the flagged window plus ``n_extra`` normal training-tail rows."""
    start, stop = window
    features = np.vstack([test[:, start:stop].T, train[:, train.shape[1] - n_extra:].T])
    targets = np.concatenate([flags[start:stop], np.zeros(n_extra, dtype=np.int8)])
    return features, targets


def _best_split(sub, y, parent_gini):
    s = sub.shape[0]
    order = np.argsort(sub, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(sub, order, axis=0)
    ones = np.cumsum(y[order], axis=0, dtype=np.float64)
    n_left = np.arange(1, s, dtype=np.float64)[:, None]
    n_right = s - n_left
    ones_left = ones[:-1]
    ones_right = ones[-1] - ones_left
    gini_left = 1.0 - (ones_left**2 + (n_left - ones_left) ** 2) / (n_left * n_left)
    gini_right = 1.0 - (ones_right**2 + (n_right - ones_right) ** 2) / (n_right * n_right)
    weighted = (n_left * gini_left + n_right * gini_right) / s
    weighted[sorted_vals[:-1] >= sorted_vals[1:]] = np.inf
    pos, col = divmod(int(np.argmin(weighted)), weighted.shape[1])
    best = weighted[pos, col]
    if not np.isfinite(best) or parent_gini - float(best) <= 0.0:
        return None
    lo, hi = sorted_vals[pos, col], sorted_vals[pos + 1, col]
    thr = (lo + hi) / 2.0
    return parent_gini - float(best), int(col), float(lo if thr >= hi else thr)


def _tree_importances(features, targets, q, seed, t_min=2):
    """Gini importance of one tree grown depth-first from a bootstrap, with
    ``q`` candidate variables drawn per node.  Node weights are summed in
    node-creation order, as the forest does."""
    rng = np.random.default_rng(seed)
    n, p = features.shape
    boot = rng.integers(0, n, size=n)
    x, y = features[boot], targets[boot].astype(np.float64)
    splits = {}  # node id -> (variable, weighted impurity decrease)
    next_id = 1
    stack = [(0, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        s, ones = idx.size, int(y[idx].sum())
        if s <= t_min or ones == 0 or ones == s:
            continue
        p1 = ones / s
        p0 = 1.0 - p1
        cols = rng.choice(p, size=q, replace=False)
        split = _best_split(x[idx[:, None], cols[None, :]], y[idx], 1.0 - p1 * p1 - p0 * p0)
        if split is None:
            continue
        gain, col, thr = split
        splits[node] = (int(cols[col]), s / n * gain)
        go_left = x[idx, cols[col]] <= thr
        stack.append((next_id, idx[go_left]))
        stack.append((next_id + 1, idx[~go_left]))
        next_id += 2
    imp = np.zeros(p)
    for node in sorted(splits):
        variable, weight = splits[node]
        imp[variable] += weight
    return imp


def gini_importance(features, targets, n_trees, seed):
    """Mean per-tree Gini importance of a random forest."""
    q = max(1, math.isqrt(features.shape[1]))
    seeds = np.random.SeedSequence(seed).generate_state(n_trees)
    total = np.zeros(features.shape[1])
    for ts in seeds:
        total += _tree_importances(features, targets, q, int(ts))
    return total / n_trees


def _deviance(x, y, ridge=1e-6):
    """Deviance of a ridge logistic fit (unpenalised intercept) by Newton."""
    n, p = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    beta = np.zeros(p + 1)
    penalty = np.full(p + 1, ridge)
    penalty[0] = 0.0
    for _ in range(100):
        eta = design @ beta
        prob = 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))
        w = prob * (1.0 - prob)
        grad = design.T @ (y - prob) - penalty * beta
        hess = (design * w[:, None]).T @ design
        hess[np.diag_indices_from(hess)] += penalty
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.abs(step).max() < 1e-8:
            eta = design @ beta
            return -2.0 * float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    raise RuntimeError("logistic fit did not converge")


def rcde(features, targets):
    """Relative change in deviance explained when each variable is left out."""
    y = targets.astype(np.float64)
    n1 = float(y.sum())
    d_null = -2.0 * (n1 * math.log(n1 / y.size) + (y.size - n1) * math.log(1.0 - n1 / y.size))
    d_full = _deviance(features, y)
    scores = np.empty(features.shape[1])
    for j in range(features.shape[1]):
        d_wo = _deviance(np.delete(features, j, axis=1), y)
        scores[j] = ((d_null - d_full) - (d_null - d_wo)) / (d_null - d_full)
    return scores
