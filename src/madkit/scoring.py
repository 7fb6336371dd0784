"""Mahalanobis distance scoring against a training scatter estimate.

The scatter of the centered, reduced training block ``D`` with ``T``
columns is ``sigma = D D' / T`` (population normalization, 1/T rather than
1/(T-1)).  Scores are computed through the Cholesky factor ``L`` by forward
substitution, one row of ``L z = x`` at a time; the inverse of sigma is
never formed.  An eigendecomposition of sigma is provided for diagnostics
such as its eigenvalue extremes and condition number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# columns of a forward substitution done together: 40 rows of 4,096 are
# 1.25 MiB
_SOLVE_COLUMNS = 4096


class SingularCovarianceError(ValueError):
    """The scatter estimate is not positive definite.

    Signals residual collinearity; re-run VIF pruning with a stricter
    threshold before fitting.
    """


@dataclass
class ScatterFit:
    """Mean, scatter matrix, and its Cholesky factor for scoring.

    ``mu`` is the training mean of the retained variables (kept for
    centering new data).  ``chol`` is factored from ``sigma`` on
    construction, so ``sigma = chol @ chol.T`` within rounding; a
    ``sigma`` that does not factor raises :class:`SingularCovarianceError`.
    """

    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape[:1]:
            raise ValueError("mu length must equal the variable count")
        # Cholesky of a nan sigma returns nan instead of raising
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("mu and sigma must be finite")
        try:
            self.chol = np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(
                "scatter matrix is singular; variables are still collinear, "
                "re-run VIF pruning with a stricter threshold"
            ) from exc

    @property
    def m(self) -> int:
        return self.mu.size


def fit_scatter(centered: np.ndarray, mu: np.ndarray | None = None) -> ScatterFit:
    """Estimate the scoring scatter from a centered ``(m, T)`` block.

    Parameters
    ----------
    centered : ndarray, shape (m, T)
        Training data after smoothing, pruning, and mean subtraction.
        Requires ``T > m`` so that positive definiteness is attainable.
    mu : ndarray, optional
        Training means of the retained variables, carried into the fit for
        later centering of test data.  Defaults to zeros.

    Raises
    ------
    SingularCovarianceError
        If the Cholesky factorization fails.
    """
    centered = np.asarray(centered, dtype=np.float64)
    if centered.ndim != 2:
        raise ValueError("expected a 2-D (m, T) array")
    m, t = centered.shape
    if t <= m:
        raise ValueError(
            f"need more observations than variables (T = {t}, m = {m})"
        )
    sigma = centered @ centered.T / t
    sigma = (sigma + sigma.T) / 2.0  # exact symmetry
    return ScatterFit(mu=np.zeros(m) if mu is None else mu, sigma=sigma)


def score(fit: ScatterFit, x: np.ndarray) -> float:
    """Mahalanobis distance of one centered observation vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fit.m,):
        raise ValueError(f"expected a length-{fit.m} vector, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("observation contains non-finite values")
    z = _forward_solve(fit.chol, x)
    return float(np.sqrt(z @ z))


def score_all(fit: ScatterFit, centered: np.ndarray) -> np.ndarray:
    """Mahalanobis distance of every column of a centered ``(m, T)`` block.

    Column ``t`` agrees with ``score(fit, centered[:, t])`` to floating
    rounding; the batched products may round differently from the
    per-vector ones in the last bits.  A copy of ``centered`` is solved.
    """
    centered = np.asarray(centered, dtype=np.float64)
    if centered.ndim != 2 or centered.shape[0] != fit.m:
        raise ValueError(f"expected an ({fit.m}, T) array, got {centered.shape}")
    return _score_in_place(fit, centered.copy())


def _score_in_place(fit: ScatterFit, centered: np.ndarray) -> np.ndarray:
    """:func:`score_all` of a block the caller needs no more: solved in place
    when C-ordered, as the pipeline's are, else in a C copy (same bits)."""
    z = _forward_solve(fit.chol, centered, np.ascontiguousarray(centered))
    return np.sqrt(np.einsum("it,it->t", z, z))


def _forward_solve(chol: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Solve ``chol @ z = b`` for lower-triangular ``chol`` and a vector or
    ``(m, T)`` block ``b``: row ``i`` of ``z`` is ``b[i]`` less the rows
    already solved, weighted by ``chol[i, :i]``, over ``chol[i, i]``.

    ``z`` is new and C-ordered, or ``out``, which may be ``b`` itself: row
    ``i`` of ``b`` is read before row ``i`` of ``z`` is written.  Columns are
    solved ``_SOLVE_COLUMNS`` at a time, so that the rows already solved are
    read from cache rather than from memory.
    """
    m = chol.shape[0]
    columns = b.reshape(m, -1)
    z = np.empty(columns.shape) if out is None else out.reshape(m, -1)
    for start in range(0, z.shape[1], _SOLVE_COLUMNS):
        zb = z[:, start : start + _SOLVE_COLUMNS]
        bb = columns[:, start : start + _SOLVE_COLUMNS]
        for i in range(m):
            zb[i] = (bb[i] - chol[i, :i] @ zb[:i]) / chol[i, i]
    return z.reshape(b.shape)


@dataclass
class EigenBasis:
    """Descending eigenpairs of a scatter matrix."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def eigen_basis(fit: ScatterFit) -> EigenBasis:
    """Eigendecompose ``fit.sigma`` for diagnostics."""
    lam, vec = np.linalg.eigh(fit.sigma)
    lam, vec = lam[::-1].copy(), vec[:, ::-1].copy()
    if lam[-1] <= 0:
        raise SingularCovarianceError("scatter matrix has a non-positive eigenvalue")
    ortho = vec.T @ vec - np.eye(fit.m)
    if np.abs(ortho).max() > 1e-9:
        raise SingularCovarianceError("eigenvector basis failed orthonormality")
    return EigenBasis(eigenvalues=lam, vectors=vec)
