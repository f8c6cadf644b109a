import numpy as np
import pytest

from logitdemand.errors import RankDeficientError
from logitdemand.matrix import solve_least_squares


def test_identity_design_recovers_y_exactly():
    sol = solve_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(sol.coefficients, [1.0, 2.0, 3.0])
    assert np.allclose(sol.residuals, 0.0)
    assert sol.rank == 3


def test_intercept_only_fit_is_the_mean():
    sol = solve_least_squares(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert sol.coefficients[0] == pytest.approx(2.5, abs=1e-14)


def test_matches_normal_equations_oracle():
    # Oracle: explicit (X'X)^-1 X'y on a well-conditioned draw.
    rng = np.random.default_rng(42)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    oracle = np.linalg.solve(x.T @ x, x.T @ y)
    sol = solve_least_squares(x, y)
    assert np.max(np.abs(sol.coefficients - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))
    assert np.max(np.abs(sol.xtx_inverse - np.linalg.inv(x.T @ x))) < 1e-10


def test_fitted_plus_residuals_reconstruct_y():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    sol = solve_least_squares(x, y)
    assert np.max(np.abs(sol.fitted + sol.residuals - y)) < 1e-12


def test_residuals_orthogonal_to_design_columns():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, min(n, 6)))
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        sol = solve_least_squares(x, y)
        scale = np.max(np.abs(x)) * np.max(np.abs(y)) * n
        assert np.max(np.abs(x.T @ sol.residuals)) <= 1e-8 * scale


def test_row_permutation_invariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    perm = rng.permutation(12)
    a = solve_least_squares(x, y)
    b = solve_least_squares(x[perm], y[perm])
    assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-12
    assert np.max(np.abs(a.residuals[perm] - b.residuals)) < 1e-12


def test_column_scaling_rescales_coefficient_only():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    base = solve_least_squares(x, y)
    c = 250.0
    scaled = x.copy()
    scaled[:, 1] *= c
    other = solve_least_squares(scaled, y)
    assert other.coefficients[1] * c == pytest.approx(base.coefficients[1], rel=1e-8)
    assert np.max(np.abs(other.fitted - base.fitted)) <= 1e-8 * max(1.0, np.max(np.abs(base.fitted)))


def test_rank_deficient_raises_and_names_columns():
    x = np.column_stack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])
    with pytest.raises(RankDeficientError) as err:
        solve_least_squares(x, np.ones(6))
    offending = set(err.value.columns)
    # One of the two dependent columns must be flagged; never silently dropped.
    assert offending & {1, 2}


def test_fewer_rows_than_columns_rejected():
    with pytest.raises(ValueError):
        solve_least_squares(np.ones((2, 3)), np.ones(2))


def test_nonfinite_inputs_rejected():
    x = np.ones((4, 2))
    x[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_least_squares(x, np.ones(4))
    with pytest.raises(ValueError):
        solve_least_squares(np.ones((4, 2)), np.array([1.0, np.inf, 0.0, 0.0]))


def test_rank_of_identity():
    assert solve_least_squares(np.eye(3), np.ones(3)).rank == 3


def test_rank_with_duplicated_column():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 4))
    x[:, 3] = x[:, 0]
    with pytest.raises(RankDeficientError) as err:
        solve_least_squares(x, rng.normal(size=8))
    # Rank 3: one of the twin columns is reported.
    assert len(err.value.columns) == 1
    assert set(err.value.columns) <= {0, 3}


def test_rank_with_tiny_perturbation_matches_svd_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    x[:, 2] = x[:, 0] + 1e-14 * rng.normal(size=5)
    tol = 1e-10
    with pytest.raises(RankDeficientError) as err:
        solve_least_squares(x, rng.normal(size=5), tol=tol)
    # Independent oracle: singular values from numpy give rank 2.
    s = np.linalg.svd(x, compute_uv=False)
    svd_rank = int(np.sum(s > tol * np.max(np.linalg.norm(x, axis=0))))
    assert svd_rank == 2
    assert len(err.value.columns) == x.shape[1] - svd_rank
    assert set(err.value.columns) <= {0, 2}


def test_rank_is_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    a = solve_least_squares(x, y)
    b = solve_least_squares(x.copy(), y.copy())
    assert a.rank == b.rank == 4
    assert np.array_equal(a.coefficients, b.coefficients)
    x[:, 3] = x[:, 1]
    reported = []
    for _ in range(2):
        with pytest.raises(RankDeficientError) as err:
            solve_least_squares(x.copy(), y)
        reported.append(err.value.columns)
    assert reported[0] == reported[1]
