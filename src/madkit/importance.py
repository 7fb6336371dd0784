"""Per-variable explanations for flagged anomaly windows.

Two rankings over the original (pre-pruning) variables are supported:

* random-forest Gini importance: a from-scratch forest of classification
  trees is trained to separate flagged from unflagged observations, and a
  variable's importance is its mean total Gini-impurity decrease per tree,
  each split weighted by the fraction of training rows reaching its node;
* logistic relative change in deviance explained (RCDE): for a ridge
  logistic fit, the share of explained deviance that is lost when one
  variable is removed.

The classifier dataset pairs a flagged window of scored observations with
an optional tail of known-normal training rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SeriesMatrix, as_labels


class SingleClassError(ValueError):
    """The assembled window contains only one class, so nothing separates."""


class ConvergenceError(RuntimeError):
    """Iterative fitting failed, usually on perfectly separated classes; from
    the CLI, try ``--importance rf`` or another ``--step5-window``/``--step5-extra``."""


_REMEDY = "try --importance rf, or a different --step5-window or --step5-extra"


@dataclass
class ExplainDataset:
    """Rows to classify: flagged-window observations plus normal tail rows.

    ``features`` is (N, p) finite values in original variable order,
    ``targets`` the 0/1 class per row.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = as_labels(self.targets, "targets")
        n, p = self.features.shape
        if n < 2:
            raise ValueError("need at least two rows")
        if self.targets.shape != (n,):
            raise ValueError("targets must have one entry per row")
        if len(self.feature_names) != p:
            raise ValueError("one name per feature column")
        if not np.isfinite(self.features).all():
            row, col = np.argwhere(~np.isfinite(self.features))[0]
            raise ValueError(
                f"non-finite value for feature {self.feature_names[col]!r} "
                f"in row {row}"
            )
        classes = np.unique(self.targets)
        if classes.size < 2:
            raise SingleClassError(
                "window contains a single class; widen it or add tail rows"
            )

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def assemble_explain_dataset(
    test: SeriesMatrix,
    flags,
    window: tuple[int, int],
    train_tail: SeriesMatrix | None = None,
    n_extra: int = 0,
) -> ExplainDataset:
    """Build the classifier dataset for a flagged window.

    Parameters
    ----------
    test : SeriesMatrix
        The representation that produced the flags (smoothed when h > 1),
        columns aligned one-to-one with ``flags``.
    flags : array
        Per-column 0/1 predictions over ``test``.
    window : (start, stop)
        Half-open column range of ``test`` to explain.
    train_tail : SeriesMatrix, optional
        Same variables as ``test``; its last ``n_extra`` columns are added
        as known-normal rows (target 0).
    n_extra : int
        How many tail columns to add; 0 disables the tail.
    """
    f = as_labels(flags, "flags")
    if f.shape != (test.n_times,):
        raise ValueError("flags must have one entry per test column")
    start, stop = window
    if not (0 <= start < stop <= test.n_times):
        raise ValueError(
            f"window {window} out of range for {test.n_times} columns"
        )
    rows = [test.values[:, start:stop].T]
    targets = [f[start:stop]]
    if n_extra < 0:
        raise ValueError("n_extra must be non-negative")
    if n_extra > 0:
        if train_tail is None:
            raise ValueError("n_extra > 0 requires a training tail matrix")
        if train_tail.names != test.names:
            raise ValueError("training tail variables must match the test set")
        if n_extra > train_tail.n_times:
            raise ValueError("n_extra exceeds the training tail length")
        rows.append(train_tail.values[:, train_tail.n_times - n_extra :].T)
        targets.append(np.zeros(n_extra, dtype=np.int8))
    return ExplainDataset(
        features=np.vstack(rows),
        targets=np.concatenate(targets),
        feature_names=list(test.names),
    )


@dataclass
class ImportanceReport:
    """A ranking of variables by importance, best first.

    ``method`` is ``"rf-gini"`` or ``"lr-rcde"``; ``ranking`` holds
    ``(variable_name, score)`` pairs sorted by descending score, ties
    broken toward the lower variable index.
    """

    method: str
    ranking: list[tuple[str, float]]

    def top(self, v: int) -> list[str]:
        return [name for name, _ in self.ranking[:v]]


def _rank(names: list[str], scores: np.ndarray, method: str) -> ImportanceReport:
    order = np.argsort(-scores, kind="stable")
    ranking = [(names[i], float(scores[i])) for i in order]
    return ImportanceReport(method=method, ranking=ranking)


# ---------------------------------------------------------------------------
# random forest


@dataclass
class DecisionTree:
    """One fitted tree, stored as parallel node arrays.

    ``feature[i] < 0`` marks a leaf.  ``n_node`` and ``count1`` are the
    training rows and class-1 rows reaching each node; ``decrease`` is the
    Gini impurity decrease of the node's split (0 at leaves).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_node: np.ndarray
    count1: np.ndarray
    decrease: np.ndarray
    seed: int
    oob_indices: np.ndarray
    n_train: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Leaf majority class per row; leaf ties vote for class 1."""
        features = np.asarray(features, dtype=np.float64)
        n = features.shape[0]
        node = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        for _ in range(self.feature.size):
            feat = self.feature[node]
            active = feat >= 0
            if not active.any():
                break
            vals = features[rows, np.where(active, feat, 0)]
            go_left = vals <= self.threshold[node]
            node = np.where(
                active, np.where(go_left, self.left[node], self.right[node]), node
            )
        ones = self.count1[node]
        return (2 * ones >= self.n_node[node]).astype(np.int8)

    def importances(self, n_features: int) -> np.ndarray:
        """Total impurity decrease per variable, nodes weighted by the
        fraction of training rows they see."""
        imp = np.zeros(n_features)
        splits = self.feature >= 0
        weights = self.n_node[splits] / self.n_train * self.decrease[splits]
        np.add.at(imp, self.feature[splits], weights)
        return imp


@dataclass
class Forest:
    """A bag of trees over ``n_features`` variables."""

    trees: list[DecisionTree]
    n_features: int


def _gini(ones: float, total: float) -> float:
    p1 = ones / total
    p0 = 1.0 - p1
    return 1.0 - p1 * p1 - p0 * p0


def _cut_side(sq_ones, zeros, n):
    """``n * (1 - (ones**2 + zeros**2) / n**2)`` for one side of every
    cut, given ``ones**2``: the weighted Gini impurity, rounded step by
    step as that expression is, computed in place in ``sq_ones``."""
    sq_ones += np.square(zeros, out=zeros)
    sq_ones /= np.square(n)
    np.subtract(1.0, sq_ones, out=sq_ones)
    sq_ones *= n
    return sq_ones


def _best_split(keys: np.ndarray, counts: np.ndarray, s: int, ones: int):
    """Best Gini split of a node's ``(q, d)`` block of packed keys.

    ``keys`` holds one C-contiguous row per drawn variable: the keys (see
    :func:`train_forest`) of the node's ``d`` distinct rows, each a dense
    rank in the high half and a row index in the low half.  ``counts[r]``
    packs row r's draw and class-1 draw counts (see :func:`_grow_tree`);
    the node holds ``s`` draws, ``ones`` of them class 1.  One in-place
    sort of the unique keys gives each variable's row order and sorted
    ranks; ranks order rows as their finite values do.  A cut's left draw
    and class-1 counts unpack from one cumsum of the gathered ``counts``,
    exact integers, so every cut gets the Gini bits that a float sort of
    all ``s`` draws gives it; that sort's cuts between copies of one row
    are ties, which it excludes, as this excludes cuts inside a run of
    tied ranks.  Of equal minima the smallest draw position, then the
    lowest column, wins.  Returns ``(gain, column, i, rows, n_left,
    ones_left)``: ``rows`` in the column's sorted order, ``rows[:i + 1]``
    going left with ``n_left`` draws, ``ones_left`` of them class 1; or
    ``None`` when no column admits a split with positive impurity decrease.
    """
    keys.sort(axis=1)
    half = keys.itemsize * 4
    rows, sorted_ranks = keys & ((1 << half) - 1), keys >> half
    left = counts.take(rows[:, :-1]).cumsum(axis=1)
    n_left, ones_left = (left & 0xFFFFFFFF).astype(float), (left >> 32).astype(float)
    n_right = s - n_left
    zeros_left = n_left - ones_left
    ones_right = ones - ones_left
    zeros_right = (s - ones) - zeros_left
    weighted = _cut_side(np.square(ones_left), zeros_left, n_left)
    weighted += _cut_side(np.square(ones_right, out=ones_right), zeros_right, n_right)
    weighted /= s
    np.putmask(weighted, sorted_ranks[:, :-1] == sorted_ranks[:, 1:], np.inf)  # ties
    q = len(keys)
    at = np.arange(q), weighted.argmin(axis=1)
    best, _, col = min(zip(weighted[at].tolist(), n_left[at].tolist(), range(q)))
    gain = _gini(ones, s) - best
    if not gain > 0.0:  # also when every cut is a tie: best is inf
        return None
    i = int(at[1][col])
    rows = rows[col].astype(np.intp)
    return gain, col, i, rows, int(n_left[col, i]), int(ones_left[col, i])


def _dense_ranks(features: np.ndarray) -> np.ndarray:
    """The ``(p, n)`` dense ranks of an ``(n, p)`` block: row j gives each
    value's index among column j's sorted distinct values, so tied values
    share a rank.  ``uint16`` up to 65,536 rows, so that a rank and a row
    index pack into one ``uint32`` key (see :func:`train_forest`)."""
    n, p = features.shape
    ranks = np.empty((p, n), dtype=np.uint16 if n <= 1 << 16 else np.intp)
    for j in range(p):
        ranks[j] = np.unique(features[:, j], return_inverse=True)[1]
    return ranks


def _grow_tree(
    features_t: np.ndarray,
    keys_t: np.ndarray,
    targets: np.ndarray,
    t_min: int,
    q: int,
    seed: int,
) -> DecisionTree:
    """One tree, grown depth first, from the ``(p, n)`` values
    ``features_t`` and their packed rank keys ``keys_t``.  The bootstrap
    is a multiset: each drawn row once, weighted by its draw count
    ``mult``; a node's row and class-1 counts count draws, packed per row
    as ``mult | (mult * y) << 32``.  A node holds its distinct rows,
    gathers the drawn variables' keys into one ``(q, d)`` block and reads
    float values only at the two rows around the chosen cut.  Its children
    are the two slices of the chosen column's sorted rows, with their
    counts carried from the split; row order within a node changes no bit,
    since no cut falls inside a tie and the counts are exact integers.  A
    child that is a leaf is never pushed: leaves draw no variables, so the
    rng stream is that of a grower which pops them."""
    rng = np.random.default_rng(seed)
    p, n = features_t.shape
    boot = rng.integers(0, n, size=n)
    mult = np.bincount(boot, minlength=n)
    oob = np.flatnonzero(mult == 0)
    yw = mult * targets
    counts = mult | yw << 32

    nodes = []  # [feature, threshold, left, right, n_node, count1, decrease]
    stack = []

    def new_node(rows, s, ones):
        nodes.append([-1, 0.0, -1, -1, s, ones, 0.0])
        node_id = len(nodes) - 1
        if s > t_min and 0 < ones < s:
            stack.append((node_id, rows, s, ones))
        return node_id

    new_node(np.flatnonzero(mult), n, int(yw.sum()))
    while stack:
        node_id, rows, s, ones = stack.pop()
        cols = rng.choice(p, size=q, replace=False)
        block = keys_t[cols].take(rows, axis=1)
        split = _best_split(block, counts, s, ones)
        if split is None:
            continue
        gain, col, i, rows, n_left, ones_left = split
        feature = int(cols[col])
        lo, hi = features_t[feature, rows[i : i + 2]]
        thr = (lo + hi) / 2.0
        if thr >= hi:  # midpoint rounded up to the right value
            thr = lo
        left = new_node(rows[: i + 1], n_left, ones_left)
        right = new_node(rows[i + 1 :], s - n_left, ones - ones_left)
        nodes[node_id] = [feature, float(thr), left, right, s, ones, gain]

    feature, threshold, left, right, n_node, count1, decrease = zip(*nodes)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        n_node=np.array(n_node, dtype=np.int64),
        count1=np.array(count1, dtype=np.int64),
        decrease=np.array(decrease),
        seed=seed,
        oob_indices=oob,
        n_train=n,
    )


def train_forest(
    data: ExplainDataset,
    n_trees: int = 100,
    t_min: int = 2,
    q_features: int | None = None,
    seed: int = 0,
) -> Forest:
    """Grow a random forest on the explanation dataset.

    Each tree sees a bootstrap of all rows; each node draws
    ``q_features`` variables without replacement (default: floor of the
    square root of the variable count) and takes the best Gini split.
    Per-tree seeds are derived deterministically from ``seed``, so the
    same call rebuilds bit-identical trees regardless of growth order.

    Each variable's dense ranks are computed once per forest, each packed
    with its row index into a unique key: ``rank << 16 | row`` as
    ``uint32`` up to 65,536 rows, else ``rank << 32 | row`` as ``uint64``.
    A tree takes its bootstrap as a multiset, each drawn row once with its
    draw count, as scikit-learn's forests do (Louppe, arXiv:1407.7502,
    2014).  A node sorts and scores the ``(q, d)`` keys of its drawn
    variables over its ``d`` distinct rows, about 0.63 of its draws, reads
    float values only at the two rows around the chosen cut, and hands its
    children slices of that column's sorted rows with their counts carried
    from the split (see :func:`_grow_tree`).  The nodes, draws and tree
    arrays are the ones a float sort of every draw grows.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if t_min < 1:
        raise ValueError("t_min must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    p = data.n_features
    if q_features is None:
        q_features = max(1, int(math.isqrt(p)))
    if not 1 <= q_features <= p:
        raise ValueError(f"q_features must lie in 1 .. {p}")
    features_t = np.ascontiguousarray(data.features.T)
    ranks_t = _dense_ranks(data.features)
    half, key = (16, np.uint32) if ranks_t.dtype == np.uint16 else (32, np.uint64)
    keys_t = ranks_t.astype(key) << half | np.arange(data.n_rows, dtype=key)
    trees = [
        _grow_tree(features_t, keys_t, data.targets, t_min, q_features, int(s))
        for s in np.random.SeedSequence(seed).generate_state(n_trees)
    ]
    return Forest(trees=trees, n_features=p)


def gini_importance(forest: Forest, data: ExplainDataset) -> ImportanceReport:
    """Mean per-tree Gini importance, ranked descending."""
    if data.n_features != forest.n_features:
        raise ValueError("dataset feature count does not match the forest")
    total = np.zeros(forest.n_features)
    for tree in forest.trees:
        total += tree.importances(forest.n_features)
    return _rank(data.feature_names, total / len(forest.trees), "rf-gini")


def oob_accuracy(forest: Forest, data: ExplainDataset) -> float:
    """Accuracy of out-of-bag majority votes over rows that have any."""
    n = data.n_rows
    votes1 = np.zeros(n, dtype=np.int64)
    votes_total = np.zeros(n, dtype=np.int64)
    for tree in forest.trees:
        oob = tree.oob_indices
        if oob.size == 0:
            continue
        votes1[oob] += tree.predict(data.features[oob])
        votes_total[oob] += 1
    covered = votes_total > 0
    if not covered.any():
        raise ValueError("no row is out of bag; grow more trees")
    pred = (2 * votes1[covered] >= votes_total[covered]).astype(np.int8)
    return float((pred == data.targets[covered]).mean())


# ---------------------------------------------------------------------------
# logistic regression and deviance-based importance


def _null_deviance(y: np.ndarray) -> float:
    n1 = float(y.sum())
    n0 = y.size - n1
    p_bar = n1 / y.size
    return -2.0 * (n1 * math.log(p_bar) + n0 * math.log(1.0 - p_bar))


def _hessian(design: np.ndarray, w: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """The penalized Newton Hessian ``design' diag(w) design + diag(penalty)``."""
    hess = (design * w[:, None]).T @ design
    hess[np.diag_indices_from(hess)] += penalty
    return hess


def _fit_glm(design: np.ndarray, y: np.ndarray, ridge: float, start=None, max_iter=100):
    """Newton (IRLS) fit of ridge logistic regression with free intercept.

    ``design`` is the intercept column of ones followed by the predictors.
    Maximizes ``loglik - ridge/2 * |coef|^2`` (intercept unpenalized) from
    ``start`` (default zero); declares convergence when the largest
    coefficient update is below 1e-8.  The no-predictor case reduces to
    the closed-form null model so deviance comparisons against it are exact.
    """
    n, p1 = design.shape
    if p1 == 1:
        p_bar = float(y.sum()) / n
        return np.empty(0), math.log(p_bar / (1.0 - p_bar)), _null_deviance(y), 0
    beta = np.zeros(p1) if start is None else start
    penalty = np.r_[0.0, np.full(p1 - 1, ridge)]
    for it in range(1, max_iter + 1):
        eta = design @ beta
        prob = 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))
        grad = design.T @ (y - prob) - penalty * beta
        hess = _hessian(design, prob * (1.0 - prob), penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular update (separation?); {_REMEDY}") from exc
        beta = beta + step
        if np.abs(step).max() < 1e-8:
            eta = design @ beta
            loglik = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
            return beta[1:], float(beta[0]), -2.0 * loglik, it
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (often separation); {_REMEDY}"
    )


def rcde(data: ExplainDataset, ridge: float = 1e-6) -> ImportanceReport:
    """Relative change in deviance explained, per variable.

    For variable x, ``((D_null - D_full) - (D_null - D_wo_x)) /
    (D_null - D_full)`` where ``D_wo_x`` refits without x.  With a single
    predictor this is exactly 1.  Raises when the full model explains no
    deviance.  Each refit starts from the full fit's one-step submodel
    estimate (Lawless & Singhal, *Biometrics* 34:318, 1978), or from zero
    if it does not converge within the full fit's Newton steps.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError("ridge must be finite and non-negative")
    design = np.hstack([np.ones((data.n_rows, 1)), data.features])
    y = data.targets.astype(np.float64)
    coef, intercept, d_full, n_full = _fit_glm(design, y, ridge)
    d_null = _null_deviance(y)
    denom = d_null - d_full
    if not denom > 0.0:
        raise ValueError("full model explains no deviance; RCDE is undefined")
    beta = np.r_[intercept, coef]
    prob = 1.0 / (1.0 + np.exp(-np.clip(design @ beta, -35.0, 35.0)))
    hess = _hessian(design, prob * (1.0 - prob), np.r_[0.0, np.full(coef.size, ridge)])
    scores = np.empty(data.n_features)
    for j in range(data.n_features):
        reduced = np.delete(design, j + 1, axis=1)
        rest = np.delete(np.arange(beta.size), j + 1)
        try:
            h_rj = hess[rest, j + 1] * beta[j + 1]
            shift = np.linalg.solve(hess[np.ix_(rest, rest)], h_rj)
            d_wo = _fit_glm(reduced, y, ridge, beta[rest] + shift, n_full)[2]
        except (ConvergenceError, np.linalg.LinAlgError):  # refit from zero
            d_wo = _fit_glm(reduced, y, ridge)[2]
        scores[j] = ((d_null - d_full) - (d_null - d_wo)) / denom
    return _rank(data.feature_names, scores, "lr-rcde")
