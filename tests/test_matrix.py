import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand import matrix
from logitdemand.errors import RankDeficientError
from logitdemand.estimators import design_matrix
from logitdemand.matrix import DEFAULT_RANK_TOL, _column_scale, solve_least_squares


def test_identity_design_recovers_y_exactly():
    y = np.array([1.0, 2.0, 3.0])
    sol = solve_least_squares(np.eye(3), y)
    assert np.allclose(sol.coefficients, [1.0, 2.0, 3.0])
    assert np.allclose(y - sol.coefficients, 0.0)
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


def test_residuals_orthogonal_to_design_columns():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, min(n, 6)))
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        sol = solve_least_squares(x, y)
        scale = np.max(np.abs(x)) * np.max(np.abs(y)) * n
        assert np.max(np.abs(x.T @ (y - x @ sol.coefficients))) <= 1e-8 * scale


def test_row_permutation_invariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    perm = rng.permutation(12)
    a = solve_least_squares(x, y)
    b = solve_least_squares(x[perm], y[perm])
    assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-12
    residuals = y - x @ a.coefficients
    assert np.max(np.abs(residuals[perm] - (y[perm] - x[perm] @ b.coefficients))) < 1e-12


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
    fitted = x @ base.coefficients
    assert np.max(np.abs(scaled @ other.coefficients - fitted)) <= 1e-8 * max(1.0, np.max(np.abs(fitted)))


def test_huge_columns_fit_as_at_scale_one():
    # Column norms near 1e160 square past the float range; the rank test must not see them so.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    base = solve_least_squares(x, y, ["a", "b"])
    huge = solve_least_squares(x * 1e160, y * 1e160, ["a", "b"])
    assert np.max(np.abs(huge.coefficients - base.coefficients)) <= 1e-12 * np.max(np.abs(base.coefficients))


@pytest.mark.filterwarnings("error")
def test_the_pivoted_qr_of_a_huge_factor_does_not_overflow():
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(16), rng.normal(size=(16, 2)), 1e160 * rng.normal(size=16)])
    diag, pivots = matrix._pivoted_diagonal(np.linalg.qr(x, mode="r"))
    assert np.isfinite(diag).all() and pivots[0] == 3
    assert np.sum(diag > DEFAULT_RANK_TOL * _column_scale(x)) == 1
    # A power-of-two scale of the whole factor scales its diagonal exactly and keeps its pivots.
    r = np.linalg.qr(rng.normal(size=(16, 4)), mode="r")
    diag, pivots = matrix._pivoted_diagonal(r)
    huge_diag, huge_pivots = matrix._pivoted_diagonal(r * 2.0**1000)
    assert np.array_equal(huge_diag, diag * 2.0**1000) and np.array_equal(huge_pivots, pivots)
    # Entries at the top of the float range, where no larger power of two exists.
    diag, _ = matrix._pivoted_diagonal(np.array([[1.7e308, 1.0], [0.0, 1e300]]))
    assert np.isfinite(diag).all()


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


def _householder_qr_pivoted(x, y):
    """The oracle: X P = Q R by Householder QR with column pivoting on all n rows, with Q'y.

    Returns (r, pivots, qty) where r holds the triangular factor in its upper
    part and pivots maps factor columns back to original columns.
    """
    r = x.copy()
    n, p = r.shape
    qty = y.copy()
    pivots = np.arange(p)

    for k in range(min(n, p)):
        # Exact remaining column norms each step.
        norms = np.einsum("ij,ij->j", r[k:, k:], r[k:, k:])
        j = k + int(np.argmax(norms))
        if j != k:
            r[:, [k, j]] = r[:, [j, k]]
            pivots[[k, j]] = pivots[[j, k]]

        col = r[k:, k]
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            continue
        v = col.copy()
        # Sign chosen to avoid cancellation in the leading entry.
        v[0] += math.copysign(norm, col[0]) if col[0] != 0.0 else norm
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])
        qty[k:] -= 2.0 * v * float(v @ qty[k:])

    return r, pivots, qty


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


@st.composite
def mixed_stacks(draw):
    """(kinds, X, y) for a stack of designs of one shape. Each entry is of its kind: "full"
    rank; exactly dependent, with a "zero" column or one a "multiple" of another; or "near"
    dependent, a multiple of another column plus 1e-9 of the largest column norm along a
    direction orthogonal to the other columns. Entries have at most one dependent column."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p + 1, 40))
    kinds = draw(st.lists(st.sampled_from(["full", "zero", "multiple", "near"]), min_size=1,
                          max_size=4))
    kinds = [kind if p > 1 or kind in ("full", "zero") else "full" for kind in kinds]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(len(kinds), n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    for entry, kind in zip(x, kinds):
        j, a = rng.permutation(p)[:2] if p > 1 else (0, 0)
        if kind == "zero":
            entry[:, j] = 0.0
        elif kind in ("multiple", "near"):
            entry[:, j] = rng.choice([-3.0, 0.5, 2.0]) * entry[:, a]
        if kind == "near":
            others = np.delete(entry, j, axis=1)
            e = rng.normal(size=n)
            e -= others @ np.linalg.lstsq(others, e, rcond=None)[0]
            entry[:, j] += 1e-9 * _column_scale(entry) * e / np.linalg.norm(e)
    return kinds, x, rng.normal(size=(len(kinds), n))


def _outcome(x, y):
    """(rank, dependent columns, message, coefficients) of one design's fit."""
    names = [f"c{j}" for j in range(x.shape[1])]
    try:
        sol = solve_least_squares(x, y, names)
    except RankDeficientError as err:
        return x.shape[1] - len(err.columns), err.columns, str(err), None
    return x.shape[1], (), None, sol.coefficients


@settings(max_examples=300, deadline=None)
@given(mixed_stacks())
def test_a_certified_stack_entry_is_full_rank_as_one_design(stack):
    # Each entry of a stack, and each entry fitted alone, against the full-n pivoted oracle:
    # certified exactly when the oracle finds rank p, with its fit; refused alone with its columns.
    kinds, x, y = stack
    p = x.shape[-1]
    sol = solve_least_squares(x, y)
    assert sol.certified.shape == (len(kinds),)
    for kind, xr, yr, certified, beta in zip(kinds, x, y, sol.certified, sol.coefficients):
        rank, dependent, oracle = _pivoted_fit(xr, yr, _column_scale(xr))
        assert (rank < p) == (kind in ("zero", "multiple"))
        assert certified == (rank == p)
        one = _outcome(xr, yr)
        if oracle is None:
            message = f"design is rank deficient in columns {[f'c{c}' for c in dependent]}"
            assert one[:3] == (rank, tuple(dependent), message)
            assert not beta.any()
            continue
        assert one[:3] == (p, (), None)
        # A near-dependent design has a condition number near 1e10, and two backward-stable
        # solvers then agree only to its multiple of the unit roundoff.
        tol = 1e-10 if kind != "near" else 1e4 * np.finfo(float).eps * np.linalg.cond(xr)
        for fit in (beta, one[3]):
            assert np.max(np.abs(fit - oracle)) <= tol * np.max(np.abs(oracle))


# --- the factor of one design, built over row blocks ------------------------------


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


def _reference_factor(x, y):
    """The factor of [X | Y] for a stack (R, n, p), (R, n, q), one LAPACK QR per row block of
    FACTOR_ROWS: each concatenates, row-major, the factor so far and the block's rows of X and Y."""
    factor = np.empty((len(x), 0, x.shape[-1] + y.shape[-1]))
    for start in range(0, x.shape[1], matrix.FACTOR_ROWS):
        rows = slice(start, start + matrix.FACTOR_ROWS)
        factor = np.linalg.qr(np.concatenate(
            [factor, np.concatenate([x[:, rows], y[:, rows]], axis=-1)], axis=1), mode="r")
    return factor


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def blocked_designs(draw):
    """(X, Y, stack): one design (n, p) or a stack (R, n, p), and Y with q >= 1 columns, where n is
    p, p + 1 or more; X is column-major, as `design_matrix` builds it, or row-major."""
    p, q = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    n = p + draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
    stack = draw(st.sampled_from([None, 1, 2, 3]))
    lead = () if stack is None else (stack,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(*lead, n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
    return x, rng.normal(size=(*lead, n, q)), stack


@settings(max_examples=300, deadline=None)
@given(blocked_designs(), st.sampled_from([3, 5, 7, 4096]))
def test_the_blocked_factor_is_the_row_major_reference_bit_for_bit(design, block_rows):
    x, ys, stack = design
    p = x.shape[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "FACTOR_ROWS", block_rows)
        fits = [(solve_least_squares(x, ys), ys), (solve_least_squares(x, ys[..., 0]), ys[..., :1])]
        references = [_reference_factor(x.reshape(-1, *x.shape[-2:]), y.reshape(-1, *y.shape[-2:]))
                      for _, y in fits]
    for (sol, y), reference in zip(fits, references):
        if stack is None:
            reference = reference[0]
        assert np.array_equal(_bits(sol.r), _bits(reference[..., :p, :p]))
        assert np.array_equal(_bits(sol.qty), _bits(reference[..., p:].reshape(sol.qty.shape)))


@pytest.mark.parametrize("shape", [(9,), (1, 9), (3, 9)])
@pytest.mark.parametrize("intercept", [False, True])
def test_design_matrix_is_column_major(shape, intercept):
    rng = np.random.default_rng(0)
    columns = {name: rng.normal(size=shape) for name in ("a", "b", "c")}
    x, names = design_matrix(columns, ("c", "a"), intercept, shape)
    assert names == ("const",) * intercept + ("c", "a")
    assert x.shape == (*shape, 2 + intercept)
    for matrix_ in x.reshape(-1, *x.shape[-2:]):
        assert matrix_.flags.f_contiguous
    assert np.array_equal(x[..., -2], columns["c"]) and np.array_equal(x[..., -1], columns["a"])


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


# --- nested sums of squares from Q'y ---------------------------------------------


@st.composite
def full_rank_stacks(draw):
    """(X, y, Y) for a stack of one to three full-rank designs, columns on scales 0.01 to 100,
    and Y with one to three columns on scales 0.01 to 100."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = draw(st.integers(1, 3))
    x = rng.normal(size=(stack, n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    q = draw(st.integers(1, 3))
    return x, rng.normal(size=(stack, n)), rng.normal(size=(stack, n, q)) * 10.0 ** rng.uniform(-2, 2, q)


def _lstsq_rss(x, y, k):
    """The residual sum of squares of y on the first k columns of x, by numpy's lstsq."""
    residuals = y - x[:, :k] @ np.linalg.lstsq(x[:, :k], y, rcond=None)[0]
    return residuals @ residuals


def _relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@settings(max_examples=200, deadline=None)
@given(full_rank_stacks(), st.sampled_from([3, 5, 7, matrix.FACTOR_ROWS]))
def test_qty_tails_are_the_nested_residual_sums_of_squares(stack, block_rows):
    x, y, ys = stack
    p, q = x.shape[-1], ys.shape[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "FACTOR_ROWS", block_rows)
        fits = [(solve_least_squares(x, y).qty, x, y)]
        fits += [(solve_least_squares(xr, yr).qty[None], xr[None], yr[None]) for xr, yr in zip(x, y)]
        # Y with q columns, as a stack (R, n, q) and as single designs (n, q), from one factor each.
        many = [(solve_least_squares(x, ys), x, ys, (len(x),))]
        many += [(solve_least_squares(xr, yr), xr[None], yr[None], ()) for xr, yr in zip(x, ys)]
        columns = [solve_least_squares(x, ys[..., j]) for j in range(q)]
    for qty, xs, ys_ in fits:
        assert qty.shape == (len(xs), p + 1)
        for q_, xr, yr in zip(qty, xs, ys_):
            for k in range(p + 1):
                assert abs(np.sum(q_[k:] ** 2) - _lstsq_rss(xr, yr, k)) <= 1e-10 * (yr @ yr)
    for sol, xs, yss, lead in many:
        assert sol.qty.shape == (*lead, min(xs.shape[1], p + q), q)
        assert sol.coefficients.shape == (*lead, p, q)
        assert sol.nested_rss.shape == (*lead, q, p + 1)
        rss = sol.nested_rss.reshape(len(xs), q, p + 1)
        for r, (xr, yr) in enumerate(zip(xs, yss)):
            for j in range(q):
                for k in range(p + 1):
                    assert abs(rss[r, j, k] - _lstsq_rss(xr, yr[:, j], k)) <= 1e-10 * (yr[:, j] @ yr[:, j])
    # Each column of a stack's Y is fitted as it is alone.
    for j, one in enumerate(columns):
        assert _relative(many[0][0].coefficients[..., j], one.coefficients) <= 1e-12
        assert _relative(many[0][0].nested_rss[..., j, :], one.nested_rss) <= 1e-12


def test_a_stack_entry_that_is_not_finite_is_not_certified():
    # One design with NaN or Inf raises ValueError (`test_nonfinite_inputs_rejected`); in a stack
    # the entry is left uncertified, with zero coefficients, and the others are fitted as alone.
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(4, 10, 3)), rng.normal(size=(4, 10, 2))
    x[1, 2, 0] = np.inf
    y[2, 5, 1] = -np.inf
    for target, certified in ((y, [True, False, False, True]), (y[..., 0], [True, False, True, True])):
        sol = solve_least_squares(x, target)
        assert sol.certified.tolist() == certified
        assert not sol.coefficients[~sol.certified].any()
        alone = solve_least_squares(x[sol.certified], target[sol.certified])
        assert np.array_equal(sol.coefficients[sol.certified], alone.coefficients)


def test_a_target_off_the_design_rows_is_refused():
    with pytest.raises(ValueError, match="need X"):
        solve_least_squares(np.ones((4, 2)), np.ones(3))
    with pytest.raises(ValueError, match="need X"):
        solve_least_squares(np.ones((2, 4, 2)), np.ones((2, 5)))


def test_a_y_whose_squares_overflow_has_every_nested_rss_infinite():
    # y'y beyond the float range makes every nested RSS inf, one design or a stack alike. Without
    # the finite y'y condition, inf <= tol^2 * inf would read each entry as an exact fit's 0.0.
    rng = np.random.default_rng(29)
    x, z = rng.normal(size=(2, 40, 3)), rng.normal(size=(2, 40))
    for sol in (solve_least_squares(x[0], 1e160 * z[0]), solve_least_squares(x, 1e160 * z)):
        assert sol.nested_rss.shape[-1] == 4
        assert np.all(sol.nested_rss == math.inf)
