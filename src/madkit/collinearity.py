"""Variance-inflation-factor screening of near-collinear variables.

The VIF of variable ``i`` is ``1 / (1 - R_i^2)`` where ``R_i^2`` is the
coefficient of determination from regressing variable ``i`` on all the
others (data centered, no intercept).  Iterative pruning removes the single
worst variable until the largest VIF falls below a threshold, which makes
the reduced covariance safely invertible for Mahalanobis scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeriesMatrix

# an R^2 this close to 1 is treated as exact linear dependence
_EXACT_R2_TOL = 1e-12


class ConstantVariableError(ValueError):
    """A training variable has zero variance and carries no signal."""

    def __init__(self, name):
        self.variable = name
        super().__init__(
            f"variable {name!r} is constant over the training window; "
            f"drop it before fitting"
        )


@dataclass
class VifReport:
    """Outcome of iterative VIF pruning.

    ``removed`` lists ``(original_index, vif_at_removal)`` in removal order;
    ``retained`` lists surviving original indices in their original order;
    ``final_vifs`` are the VIFs of the retained set.  ``centered`` and
    ``means`` are the mean-subtracted input block (all variables) and its
    per-variable means, as :func:`center` returns them.
    """

    removed: list[tuple[int, float]]
    retained: list[int]
    final_vifs: np.ndarray
    centered: np.ndarray
    means: np.ndarray

    def __post_init__(self):
        self.final_vifs = np.asarray(self.final_vifs, dtype=np.float64)
        if len(self.final_vifs) != len(self.retained):
            raise ValueError("one final VIF per retained variable")
        if set(i for i, _ in self.removed) & set(self.retained):
            raise ValueError("removed and retained sets overlap")


def center(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Subtract per-variable means.

    Parameters
    ----------
    matrix : SeriesMatrix or ndarray, shape (n, T)

    Returns
    -------
    (centered, means)
        ``centered`` has every row summing to ~0; ``means`` has length n.

    Raises
    ------
    ConstantVariableError
        If any variable takes a single value over the window.
    """
    values, names = _values_and_names(matrix)
    spread = values.max(axis=1) - values.min(axis=1)
    if (spread == 0.0).any():
        i = int(np.argmax(spread == 0.0))
        raise ConstantVariableError(names[i] if names is not None else i)
    means = values.mean(axis=1)
    return values - means[:, None], means


def compute_vifs(centered: np.ndarray) -> np.ndarray:
    """VIF of every variable of an already-centered ``(m, T)`` matrix.

    Each regression is solved in minimum-norm least squares on
    correlation-scaled data, so exact collinearity is well defined: an
    ``R^2`` within 1e-12 of 1 yields ``inf``.  Requires ``m >= 2``.
    """
    centered = np.asarray(centered, dtype=np.float64)
    if centered.ndim != 2 or centered.shape[0] < 2:
        raise ValueError("compute_vifs needs a 2-D matrix with at least 2 rows")
    return _vifs_from_gram(_scaled_gram(centered))


def vif_prune(matrix, vif_threshold: float = 5.0) -> VifReport:
    """Iteratively remove the worst-VIF variable until all fall below
    ``vif_threshold`` or a single variable remains.

    Ties on the largest VIF are broken toward the lowest original index.
    Each iteration recomputes VIFs for the surviving set; because scales are
    per-variable, this equals re-deriving them from the reduced data.  The
    report carries the centered input, so callers need not center again.
    """
    if not vif_threshold > 1.0:
        raise ValueError("vif_threshold must exceed 1 (VIFs are never below 1)")
    centered, means = center(matrix)
    n = centered.shape[0]

    gram = _scaled_gram(centered)
    alive = list(range(n))
    removed: list[tuple[int, float]] = []
    while True:
        if len(alive) == 1:
            final = np.array([1.0])
            break
        vifs = _vifs_from_gram(gram[np.ix_(alive, alive)])
        worst = int(np.argmax(vifs))  # first maximum = lowest original index
        if vifs[worst] < vif_threshold:
            final = vifs
            break
        removed.append((alive[worst], float(vifs[worst])))
        alive.pop(worst)
    return VifReport(removed, alive, final, centered, means)


def _values_and_names(matrix):
    if isinstance(matrix, SeriesMatrix):
        return matrix.values, matrix.names
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a SeriesMatrix or a 2-D array")
    return values, None


def _scaled_gram(centered: np.ndarray) -> np.ndarray:
    """Gram matrix of rows scaled to unit root-mean-square."""
    scale = np.sqrt(np.mean(centered * centered, axis=1))
    if (scale == 0.0).any():
        raise ConstantVariableError(int(np.argmax(scale == 0.0)))
    z = centered / scale[:, None]
    return z @ z.T


def _vifs_from_gram(gram: np.ndarray) -> np.ndarray:
    """Per-variable VIFs from the Gram matrix of scaled, centered rows.

    Regressing row i on the others has normal equations
    ``G[-i,-i] b = G[-i,i]``; the minimum-norm solution of that system is
    the minimum-norm least-squares regression coefficient vector, so rank
    deficiency (exact dependence) is handled without special cases.
    """
    m = gram.shape[0]
    vifs = np.empty(m)
    idx = np.arange(m)
    for i in range(m):
        others = idx != i
        g_oo = gram[np.ix_(others, others)]
        g_oi = gram[others, i]
        coef, *_ = np.linalg.lstsq(g_oo, g_oi, rcond=None)
        rss = gram[i, i] - g_oi @ coef
        r2 = 1.0 - rss / gram[i, i]
        r2 = min(max(r2, 0.0), 1.0)
        if r2 >= 1.0 - _EXACT_R2_TOL:
            vifs[i] = np.inf
        else:
            vifs[i] = 1.0 / (1.0 - r2)
    return vifs
