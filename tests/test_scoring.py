"""Scatter fitting, Mahalanobis scores, and the eigen split."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from madkit.collinearity import center, vif_prune
from madkit.scoring import (
    EigenBasis,
    ScatterFit,
    SingularCovarianceError,
    _SOLVE_COLUMNS,
    _forward_solve,
    _score_in_place,
    eigen_basis,
    fit_scatter,
    score,
    score_all,
)
from madkit.smoothing import SmoothConfig, smooth_series
from madkit.thresholds import ThresholdSpec, fit_gpd, pot_threshold


def manual_fit(sigma, mu=None):
    sigma = np.asarray(sigma, dtype=np.float64)
    m = sigma.shape[0]
    return ScatterFit(mu=np.zeros(m) if mu is None else mu, sigma=sigma)


def test_score_frozen_example():
    # sigma = [[2,1],[1,2]], x = (1,1): inv(sigma) x = (1/3, 1/3),
    # so MD^2 = 2/3
    fit = manual_fit([[2.0, 1.0], [1.0, 2.0]])
    got = score(fit, np.array([1.0, 1.0]))
    assert abs(got - np.sqrt(2.0 / 3.0)) < 1e-12


def test_score_identity_sigma_is_euclidean_norm():
    fit = manual_fit(np.eye(3))
    x = np.array([3.0, 4.0, 12.0])
    assert abs(score(fit, x) - 13.0) < 1e-12


def test_score_matches_explicit_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(1, 12))
        a = rng.standard_normal((m, 3 * m + 2))
        sigma = a @ a.T / a.shape[1]
        fit = manual_fit(sigma)
        x = rng.standard_normal(m)
        want = np.sqrt(x @ np.linalg.solve(sigma, x))
        assert abs(score(fit, x) - want) < 1e-10 * max(1.0, want)


def test_score_all_matches_single_scores():
    # batched and per-vector solves agree to floating rounding
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 50))
    fit = fit_scatter(a - a.mean(axis=1, keepdims=True))
    data = rng.standard_normal((4, 30))
    all_scores = score_all(fit, data)
    for t in range(30):
        one = score(fit, data[:, t])
        assert abs(all_scores[t] - one) <= 1e-12 * max(one, 1.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_forward_solve_matches_solve_triangular(order):
    # the LAPACK solve that scoring used before is the oracle; the block
    # runs past one block of solved columns
    rng = np.random.default_rng(11)
    for m in range(1, 41):
        a = rng.standard_normal((m, 3 * m + 5))
        fit = fit_scatter(a - a.mean(axis=1, keepdims=True))
        shape = (m, _SOLVE_COLUMNS + 7)
        block = np.asarray(5.0 * rng.standard_normal(shape), order=order)
        want = solve_triangular(fit.chol, block, lower=True)
        got = _forward_solve(fit.chol, block)
        norms = np.linalg.norm(want, axis=0)
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-13 * norms), m
        scores = score_all(fit, block)
        assert np.all(np.abs(scores - norms) <= 1e-13 * norms), m
        x = block[:, 0]
        one = np.linalg.norm(solve_triangular(fit.chol, x, lower=True))
        assert abs(score(fit, x) - one) <= 1e-13 * one, m


def full_z_scores(chol, block):
    """Scores as ``score_all`` made them before it solved in place: the
    whole solved block in a new C-ordered array, then ``sqrt(einsum)``
    (the oracle)."""
    m = chol.shape[0]
    z = np.empty(block.shape)
    for start in range(0, z.shape[1], _SOLVE_COLUMNS):
        zb = z[:, start : start + _SOLVE_COLUMNS]
        bb = block[:, start : start + _SOLVE_COLUMNS]
        for i in range(m):
            zb[i] = (bb[i] - chol[i, :i] @ zb[:i]) / chol[i, i]
    return z, np.sqrt(np.einsum("it,it->t", z, z))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 5, 35])
def test_in_place_solve_gives_the_full_block_bits(m, order):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, 3 * m + 5))
    fit = fit_scatter(a - a.mean(axis=1, keepdims=True))
    for t in (1, _SOLVE_COLUMNS - 1, _SOLVE_COLUMNS, _SOLVE_COLUMNS + 1,
              2 * _SOLVE_COLUMNS + 3):
        block = np.asarray(3.0 * rng.standard_normal((m, t)), order=order)
        kept = block.copy(order="K")
        want_z, want = full_z_scores(fit.chol, block)
        # the public scorer solves a copy and leaves its argument alone
        got = score_all(fit, block)
        assert got.tobytes() == want.tobytes(), (m, t)
        assert block.tobytes("A") == kept.tobytes("A")
        # the pipeline's scorer takes a block it owns, of either order
        assert _score_in_place(fit, block.copy(order="K")).tobytes() == want.tobytes()
        # a C-ordered block is overwritten by the solved block itself
        own = np.array(block, order="C")
        solved = _forward_solve(fit.chol, own, out=own)
        assert np.shares_memory(solved, own)
        assert own.tobytes() == want_z.tobytes(), (m, t)


def test_fit_scatter_population_normalization():
    # sigma must be D D' / T, not / (T - 1)
    d = np.array([[1.0, -1.0, 2.0, -2.0]])
    fit = fit_scatter(d)
    assert fit.sigma[0, 0] == 10.0 / 4.0


def test_fit_scatter_trace_identity():
    # with 1/T normalization, mean squared training score equals m exactly
    rng = np.random.default_rng(2)
    for m, t in ((2, 50), (5, 120), (10, 3000)):
        centered, _ = center(rng.standard_normal((m, t)))
        fit = fit_scatter(centered)
        md2 = score_all(fit, centered) ** 2
        assert abs(md2.mean() - m) < 1e-8


def test_fit_scatter_recovers_identity():
    rng = np.random.default_rng(3)
    centered, _ = center(rng.standard_normal((2, 100000)))
    fit = fit_scatter(centered)
    assert np.abs(fit.sigma - np.eye(2)).max() < 0.05


def test_fit_scatter_needs_more_columns_than_rows():
    with pytest.raises(ValueError, match="more observations"):
        fit_scatter(np.random.default_rng(0).standard_normal((5, 5)))


def test_fit_scatter_rejects_collinear_rows():
    rng = np.random.default_rng(4)
    base = rng.standard_normal(100)
    data = np.vstack([base, 2.0 * base])
    data = data - data.mean(axis=1, keepdims=True)
    with pytest.raises(SingularCovarianceError):
        fit_scatter(data)


def test_fit_scatter_sigma_is_symmetric():
    rng = np.random.default_rng(5)
    centered, _ = center(rng.standard_normal((6, 200)))
    fit = fit_scatter(centered)
    assert np.array_equal(fit.sigma, fit.sigma.T)
    assert np.allclose(fit.chol @ fit.chol.T, fit.sigma, atol=1e-12)


def test_fit_scatter_keeps_mu():
    rng = np.random.default_rng(6)
    centered, _ = center(rng.standard_normal((3, 40)))
    mu = np.array([1.0, -2.0, 0.5])
    fit = fit_scatter(centered, mu)
    assert np.array_equal(fit.mu, mu)
    with pytest.raises(ValueError, match="mu length"):
        fit_scatter(centered, np.zeros(2))


@pytest.mark.parametrize("field", ["mu", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scatter_fit_rejects_non_finite(field, bad):
    # Cholesky of a nan sigma returns nan and raises nothing, so every
    # score would be nan; a bad field is a plain ValueError, not a
    # singular-covariance error
    mu, sigma = np.zeros(2), np.eye(2)
    if field == "mu":
        mu[1] = bad
    else:
        sigma[0, 1] = sigma[1, 0] = bad
    with pytest.raises(ValueError, match="finite") as info:
        ScatterFit(mu=mu, sigma=sigma)
    assert not isinstance(info.value, SingularCovarianceError)


def test_score_input_validation():
    fit = manual_fit(np.eye(2))
    with pytest.raises(ValueError, match="length-2"):
        score(fit, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        score(fit, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match=r"\(2, T\)"):
        score_all(fit, np.zeros((3, 4)))


SHAPE_ERRORS = {
    "fit_scatter-1d": (lambda: fit_scatter(np.zeros(5)), "2-D"),
    "smooth_series-2d": (
        lambda: smooth_series(np.zeros((2, 5)), SmoothConfig(h=1)), "1-D"
    ),
    "fit_gpd-2d": (lambda: fit_gpd(np.ones((2, 20))), "1-D"),
    "pot_threshold-empty": (
        lambda: pot_threshold(np.array([]), ThresholdSpec("pot")), "non-empty 1-D"
    ),
    "vif_prune-3d": (lambda: vif_prune(np.zeros((2, 3, 4))), "2-D array"),
}


@pytest.mark.parametrize("call, message", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_stage_functions_reject_arrays_of_the_wrong_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# eigendecomposition view


def test_eigen_identity_squared_score():
    # sum xi_i^2 / lambda_i equals the squared Mahalanobis distance
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 15))
        a = rng.standard_normal((m, 4 * m))
        centered, _ = center(a)
        fit = fit_scatter(centered)
        basis = eigen_basis(fit)
        x = rng.standard_normal(m)
        xi = basis.vectors.T @ x
        via_eigen = float((xi * xi / basis.eigenvalues).sum())
        md2 = score(fit, x) ** 2
        assert abs(via_eigen - md2) <= 1e-8 * max(md2, 1.0)


def test_eigen_basis_properties():
    rng = np.random.default_rng(8)
    centered, _ = center(rng.standard_normal((5, 200)))
    fit = fit_scatter(centered)
    basis = eigen_basis(fit)
    lam, vec = basis.eigenvalues, basis.vectors
    assert (np.diff(lam) <= 1e-12).all()  # descending
    assert lam[-1] > 0
    assert np.abs(vec.T @ vec - np.eye(5)).max() < 1e-9
    assert np.allclose((vec * lam) @ vec.T, fit.sigma, atol=1e-10)
