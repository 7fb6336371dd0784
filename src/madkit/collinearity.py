"""Variance-inflation-factor screening of near-collinear variables.

The VIF of variable ``i`` is ``1 / (1 - R_i^2)`` where ``R_i^2`` is the
coefficient of determination from regressing variable ``i`` on all the
others (data centered, no intercept): the i-th diagonal entry of the
inverse correlation matrix, which is how it is computed.  Iterative pruning
removes the single worst variable until the largest VIF falls below a
threshold, which makes the reduced covariance safely invertible for
Mahalanobis scoring.
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
    ``final_vifs`` are the VIFs of the retained set.  ``gram`` is the Gram
    matrix of the centered rows scaled to unit RMS (T times the correlation
    matrix); each pruning step reads its VIFs from one eigendecomposition
    of the block of the variables in play.  ``means`` are the per-variable
    means, as :func:`center` returns them.
    """

    removed: list[tuple[int, float]]
    retained: list[int]
    final_vifs: np.ndarray
    gram: np.ndarray
    means: np.ndarray


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
    values, _, means = _values_and_means(matrix)
    return values - means[:, None], means


def compute_vifs(centered: np.ndarray) -> np.ndarray:
    """VIF of every variable of an already-centered ``(m, T)`` matrix, as
    :func:`_vifs_from_gram` reads them (``inf`` for ``R^2`` within 1e-12 of
    1).  Requires ``m >= 2``."""
    centered = np.asarray(centered, dtype=np.float64)
    if centered.ndim != 2 or centered.shape[0] < 2:
        raise ValueError("compute_vifs needs a 2-D matrix with at least 2 rows")
    values, names, _ = _values_and_means(centered)
    return _vifs_from_gram(_scaled_gram(values, np.zeros(len(values)), names))


def vif_prune(matrix, vif_threshold: float = 5.0) -> VifReport:
    """Iteratively remove the worst-VIF variable until all fall below
    ``vif_threshold`` or a single variable remains.

    Ties on the largest VIF are broken toward the lowest original index.
    Each iteration recomputes VIFs for the surviving set; because scales are
    per-variable, this equals re-deriving them from the reduced data.  No
    centered copy of the input is kept; callers center what they retain.
    """
    if not vif_threshold > 1.0:
        raise ValueError("vif_threshold must exceed 1 (VIFs are never below 1)")
    values, names, means = _values_and_means(matrix)
    gram = _scaled_gram(values, means, names)
    alive = list(range(values.shape[0]))
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
    return VifReport(removed, alive, final, gram, means)


def _values_and_means(matrix):
    """The input block, its row names (row indices for an array) and its
    row means; a constant row is an error."""
    if isinstance(matrix, SeriesMatrix):
        values, names = matrix.values, matrix.names
    else:
        values = np.asarray(matrix, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("expected a SeriesMatrix or a 2-D array")
        names = range(len(values))
    spread = values.max(axis=1) - values.min(axis=1)
    if (spread == 0.0).any():
        raise ConstantVariableError(names[int(np.argmax(spread == 0.0))])
    return values, names, values.mean(axis=1)


def _scaled_gram(values: np.ndarray, means: np.ndarray, names) -> np.ndarray:
    """Gram matrix of the rows of ``values - means`` scaled to unit RMS, in
    one scratch block in ``values``' memory order, which sets the rounding.
    A row whose RMS over- or underflows float64 is an error that names it."""
    s = values - means[:, None]
    with np.errstate(over="ignore"):  # a row that overflows is named below
        s *= s
        scale = np.sqrt(np.mean(s, axis=1))
    bad = ~((scale > 0.0) & (scale < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"variable {names[i]!r}: its RMS deviation ({scale[i]}) is not a "
            f"positive finite float64; rescale it before fitting"
        )
    np.subtract(values, means[:, None], out=s)
    s /= scale[:, None]
    return s @ s.T


def _vifs_from_gram(gram: np.ndarray) -> np.ndarray:
    """Per-variable VIFs from the Gram matrix G of scaled, centered rows:
    ``VIF_i = G_ii (G^-1)_ii = G_ii sum_k V_ik^2 / lambda_k`` from one
    ``eigh``, each eigenvalue raised to numpy's rank tolerance
    ``lambda_max m eps``; a VIF of at least ``1 / _EXACT_R2_TOL`` is
    exact dependence, ``inf``.
    """
    lam, vec = np.linalg.eigh(gram)
    lam = np.maximum(lam, lam[-1] * len(lam) * np.finfo(np.float64).eps)
    vifs = np.diag(gram) * ((vec * vec) @ (1.0 / lam))
    vifs[vifs >= 1.0 / _EXACT_R2_TOL] = np.inf
    return vifs
