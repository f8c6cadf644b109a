"""Dense least-squares kernel: LAPACK QR of [X | y], with rank detection.

Matrices are plain float64 ndarrays (row-major). The solver deliberately
avoids the normal equations: small econometric designs with near-collinear
dummies lose half the available precision under X'X. `solve_least_squares` takes
one design (n, p) or a stack of designs of one shape (R, n, p), and the shape
picks the kernel. One design is factored by LAPACK over row blocks of
`FACTOR_ROWS` (a sequential tall-skinny QR), and a pivoted Householder QR of
the p x p factor then finds the rank and names the dependent columns of a
rank-deficient design. A stack takes one LAPACK QR, which certifies full
rank per entry instead of pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError

#: Relative rank tolerance, applied against the largest column norm.
DEFAULT_RANK_TOL = 1e-10
#: Factor by which a stack's full-rank certificate must clear the rank tolerance,
#: leaving room for the rounding of two different factorizations.
CERTIFY_MARGIN = 1e3
#: Rows of one design that each LAPACK step stacks under the factor of the rows before.
FACTOR_ROWS = 4096


def as_matrix(a, name="matrix", ndim=2):
    """Validate and return an `ndim`-D float64 array with finite entries (2-D by default)."""
    out = np.asarray(a, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains NaN or Inf")
    return out


def as_vector(a, name="vector"):
    """Validate and return a 1-D float64 array with finite entries."""
    out = np.asarray(a, dtype=float).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains NaN or Inf")
    return out


@dataclass(frozen=True, eq=False)
class LeastSquaresSolution:
    """Full-rank least-squares fit of y on X; a stacked fit has a leading axis on every array.

    `certified` is True for one design, which is full rank or refused, and the
    (R,) mask of entries certified full rank for a stack.
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    certified: bool | np.ndarray
    xtx_inverse: np.ndarray


def _householder_qr_pivoted(x, y):
    """Factor X P = Q R with column pivoting and accumulate Q'y.

    Returns (r, pivots, qty) where r holds the triangular factor in its upper
    part and pivots maps factor columns back to original columns. The solver
    calls it on the p x p factor of a design only.
    """
    r = x.copy()
    n, p = r.shape
    qty = y.copy()
    pivots = np.arange(p)

    for k in range(min(n, p)):
        # Exact remaining column norms each step; p stays small here.
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


def _column_scale(x):
    """The largest column norm of X, one per design for a stack; 1 where it is 0."""
    scale = np.sqrt(np.einsum("...ij,...ij->...j", x, x)).max(axis=-1, initial=0.0)
    return np.where(scale > 0.0, scale, 1.0)


# Huge entries can overflow in the factorization; the rank check then refuses the design.
@np.errstate(over="ignore", invalid="ignore")
def solve_least_squares(x, y, names=None):
    """Minimize ||y - X b|| for one design, or for every entry of a stack of designs.

    Parameters
    ----------
    x : (n, p) array, or an (R, n, p) stack; n >= p
    y : (n,) array, or (R, n) for a stack
    names : sequence of p column names, optional
        The names under which a rank-deficient design's columns are reported.

    Returns
    -------
    LeastSquaresSolution
        Coefficients, fitted values, residuals, full-rank certificate and (X'X)^-1.

    Raises
    ------
    RankDeficientError
        When the numerical rank of one design is below p. Columns are
        reported, never silently dropped. A stack raises nothing: an entry
        that is not full rank is not certified (`_solve_stack`).
    """
    stacked = np.ndim(x) == 3
    x = as_matrix(x, "X", ndim=2 + stacked)
    y = as_matrix(y, "y") if stacked else as_vector(y, "y")
    n, p = x.shape[-2:]
    if y.shape != x.shape[:-1]:
        raise ValueError(f"X has shape {x.shape} but y has shape {y.shape}")
    if n < p:
        raise ValueError(f"need at least as many rows as columns, got {n} x {p}")
    if stacked:
        return _solve_stack(x, y)

    # Q is orthogonal, so the p x p factor of [X | y] has X's column norms, pivots and rank,
    # and the top of its last column is Q'y.
    factor = np.empty((0, p + 1))
    for start in range(0, n, FACTOR_ROWS):
        rows = slice(start, start + FACTOR_ROWS)
        factor = np.linalg.qr(np.vstack([factor, np.column_stack([x[rows], y[rows]])]), mode="r")
    r, pivots, qty = _householder_qr_pivoted(factor[:p, :p], factor[:p, p])
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > DEFAULT_RANK_TOL * _column_scale(x)))
    if rank < p:
        columns = sorted(int(c) for c in pivots[rank:])
        raise RankDeficientError(columns, None if names is None else
                                 f"design is rank deficient in columns {[names[c] for c in columns]}")

    beta = np.zeros(p)
    beta[pivots] = np.linalg.solve(r, qty)

    fitted = x @ beta
    residuals = y - fitted

    # (X'X)^-1 = P (R'R)^-1 P' with R from the pivoted factorization.
    rinv = np.linalg.inv(r)
    w = rinv @ rinv.T
    xtx_inv = np.zeros((p, p))
    xtx_inv[np.ix_(pivots, pivots)] = w

    return LeastSquaresSolution(
        coefficients=beta,
        fitted=fitted,
        residuals=residuals,
        certified=True,
        xtx_inverse=xtx_inv,
    )


def _solve_stack(x, y):
    """The fit of every entry r of a stack x (R, n, p), y (R, n), via one LAPACK QR of [X | y].

    Entry r is certified full rank when 1 / ||R_r^-1||_F > CERTIFY_MARGIN *
    DEFAULT_RANK_TOL * (largest column norm of X_r). Every |R_ii| of a pivoted
    QR is at least sigma_min(X) >= 1 / ||R^-1||_F, so a certified entry has
    rank p as one design too. The values of an entry that is not certified
    mean nothing: refit it as one design, which finds and names the dependent
    columns.
    """
    p = x.shape[-1]
    # Q'y is the top of the last column of the factor of [X | y].
    factor = np.linalg.qr(np.concatenate([x, y[..., None]], axis=-1), mode="r")
    upper, qty = factor[:, :p, :p], factor[:, :p, p]
    threshold = CERTIFY_MARGIN * DEFAULT_RANK_TOL * _column_scale(x)
    # 1 / ||R^-1||_F <= min |R_ii|, so an entry at or below the threshold there cannot be
    # certified; its factor is swapped for I so that the batched inverse meets no zero pivot.
    plausible = np.abs(np.diagonal(upper, axis1=1, axis2=2)).min(axis=-1, initial=np.inf) > threshold
    rinv = np.linalg.inv(np.where(plausible[:, None, None], upper, np.eye(p)))

    beta = np.matvec(rinv, qty)
    fitted = np.matvec(x, beta)
    return LeastSquaresSolution(
        coefficients=beta,
        fitted=fitted,
        residuals=y - fitted,
        certified=plausible & (np.linalg.norm(rinv, axis=(1, 2)) * threshold < 1.0),
        xtx_inverse=rinv @ rinv.mT,
    )
