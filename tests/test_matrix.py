import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand import matrix
from logitdemand.errors import RankDeficientError
from logitdemand.matrix import (DEFAULT_RANK_TOL, _column_scale, _householder_qr_pivoted,
                                solve_least_squares)


def test_identity_design_recovers_y_exactly():
    sol = solve_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(sol.coefficients, [1.0, 2.0, 3.0])
    assert np.allclose(sol.residuals, 0.0)
    assert sol.certified is True


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
    assert solve_least_squares(np.eye(3), np.ones(3)).certified is True


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
        solve_least_squares(x, rng.normal(size=5))
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
    assert np.array_equal(a.coefficients, b.coefficients)
    x[:, 3] = x[:, 1]
    reported = []
    for _ in range(2):
        with pytest.raises(RankDeficientError) as err:
            solve_least_squares(x.copy(), y)
        reported.append(err.value.columns)
    assert reported[0] == reported[1]


# --- a LAPACK factor, then pivoting on the small factor -------------------------
# Q is orthogonal, so the p x p factor R of [X | y] has X's column norms and R'R = X'X:
# pivoting on R and on X must agree on the rank, the dependent columns and the fit.


def _pivoted_fit(x, y, scale):
    """(rank, dependent columns, coefficients or None) from the pivoted QR of `x`, with the
    rank decided as `solve_least_squares` decides it against the column scale `scale`."""
    p = x.shape[1]
    r, pivots, qty = _householder_qr_pivoted(x, y)
    rank = int(np.sum(np.abs(np.diag(r)[:p]) > DEFAULT_RANK_TOL * scale))
    if rank < p:
        return rank, sorted(pivots[rank:].tolist()), None
    beta = np.zeros(p)
    beta[pivots] = np.linalg.solve(r[:p, :p], qty[:p])
    return rank, [], beta


@st.composite
def designs(draw):
    """A random design with columns on scales 0.01 to 100 and at most one exactly dependent
    column: zero, or a multiple other than -1 or 1 of another column. (Among three or more
    dependent columns, pivoting can meet an exact tie, and rounding then picks the column.)"""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    dependency = draw(st.sampled_from(["none", "zero", "multiple"]))
    j = draw(st.integers(0, p - 1))
    if dependency == "zero":
        x[:, j] = 0.0
    elif dependency == "multiple" and p > 1:
        a = draw(st.sampled_from([k for k in range(p) if k != j]))
        x[:, j] = draw(st.sampled_from([-3.0, 0.5, 2.0])) * x[:, a]
    return x, rng.normal(size=n)


@settings(max_examples=300, deadline=None)
@given(designs())
def test_pivoting_on_the_factor_of_x_y_agrees_with_pivoting_on_x(design):
    x, y = design
    p = x.shape[1]
    scale = _column_scale(x)
    factor = np.linalg.qr(np.column_stack([x, y]), mode="r")
    rank, dependent, beta = _pivoted_fit(x, y, scale)
    factor_rank, factor_dependent, factor_beta = _pivoted_fit(factor[:p, :p], factor[:p, p], scale)
    assert (factor_rank, factor_dependent) == (rank, dependent)
    if beta is not None:
        assert np.max(np.abs(factor_beta - beta)) <= 1e-10 * np.max(np.abs(beta))


@settings(max_examples=300, deadline=None)
@given(designs(), st.integers(1, 4))
def test_a_certified_stack_entry_is_full_rank_as_one_design(design, copies):
    x, y = design
    stack = solve_least_squares(np.stack([x] * copies), np.stack([y] * copies))
    assert stack.certified.shape == (copies,)
    try:
        one = solve_least_squares(x, y)
    except RankDeficientError:
        assert not stack.certified.any()
        return
    for certified, beta in zip(stack.certified, stack.coefficients):
        if certified:
            assert np.max(np.abs(beta - one.coefficients)) <= 1e-10 * np.max(np.abs(one.coefficients))


# --- the factor of one design, built over row blocks ------------------------------


def _outcome(x, y):
    """(rank, dependent columns, message, coefficients) of one design's fit."""
    names = [f"c{j}" for j in range(x.shape[1])]
    try:
        sol = solve_least_squares(x, y, names)
    except RankDeficientError as err:
        return x.shape[1] - len(err.columns), err.columns, str(err), None
    return x.shape[1], (), None, sol.coefficients


@settings(max_examples=300, deadline=None)
@given(designs(), st.integers(3, 7))
def test_row_blocks_agree_with_one_block(design, block_rows):
    x, y = design
    rank, dependent, message, beta = _outcome(x, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "FACTOR_ROWS", block_rows)
        blocked = _outcome(x, y)
    assert blocked[:3] == (rank, dependent, message)
    if beta is not None:
        assert np.max(np.abs(blocked[3] - beta)) <= 1e-10 * np.max(np.abs(beta))


def test_a_tall_design_over_several_blocks_names_the_dependent_column():
    rng = np.random.default_rng(0)
    n = 9000
    x1 = rng.normal(size=n)
    x = np.column_stack([np.ones(n), x1, 10.0 * rng.normal(size=n), 2.0 * x1])
    assert n > 2 * matrix.FACTOR_ROWS
    with pytest.raises(RankDeficientError) as err:
        solve_least_squares(x, rng.normal(size=n), ("const", "x1", "x2", "x3"))
    assert err.value.columns == (1,)
    assert str(err.value) == "design is rank deficient in columns ['x1']"
