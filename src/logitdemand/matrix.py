"""Dense least-squares kernel: LAPACK QR of [X | Y], with rank detection.

Matrices are plain float64 ndarrays (row-major). The solver deliberately
avoids the normal equations: small econometric designs with near-collinear
dummies lose half the available precision under X'X. `solve_least_squares` takes
a stack of designs of one shape (R, n, p), or one design (n, p), which it fits as
a stack of one, against y or the q columns of Y. Every entry is factored by LAPACK
over row blocks of `FACTOR_ROWS` (a sequential tall-skinny QR) and certified full
rank from its factor. Only a finite entry that is not certified goes through a
pivoted Householder QR of its p x p factor, which decides its rank and names the
dependent columns of a rank-deficient design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError

#: Relative rank tolerance, applied against the largest column norm.
DEFAULT_RANK_TOL = 1e-10
#: Factor by which the full-rank certificate must clear the rank tolerance, leaving room
#: for the rounding between the factor and its pivoted QR, which decides the rank.
CERTIFY_MARGIN = 1e3
#: Rows of one design that each LAPACK step stacks under the factor of the rows before.
FACTOR_ROWS = 4096


@dataclass(frozen=True, eq=False)
class LeastSquaresSolution:
    """Full-rank least-squares fit of y on X, nothing of length n; a stack's has a leading axis.

    `certified` is True for one design, which is full rank or refused, and the (R,) mask of
    entries of full rank for a stack. An entry that is not has zero coefficients. `r` is X's
    p x p factor. `qty` is Q'y, with p + 1 entries (p when n = p): sum(qty[k:]**2) is the residual
    sum of squares of y on the first k columns of X. For Y with q columns it is Q'Y, (p + q, q).
    """

    coefficients: np.ndarray
    certified: bool | np.ndarray
    xtx_inverse: np.ndarray
    qty: np.ndarray
    r: np.ndarray

    @property
    @np.errstate(over="ignore")
    def nested_rss(self):
        """Entry k <= p, (..., q, p + 1) for Y, is the RSS of y on the first k columns of X; entry 0
        is y'y, inf beyond the float range. An RSS at or below (DEFAULT_RANK_TOL * ||y||)^2 with y'y
        finite is an exact fit's rounding and reads 0, one design or a stack alike (an F of inf)."""
        qty = self.qty.reshape(*self.qty.shape[:self.r.ndim - 1], -1)  # a vector y is one column
        rss = np.cumsum(qty[..., ::-1, :] ** 2, axis=-2).mT[..., ::-1][..., :self.r.shape[-1] + 1]
        rss = np.where((rss <= DEFAULT_RANK_TOL**2 * rss[..., :1]) & (rss[..., :1] < np.inf), 0.0, rss)
        return rss if self.qty.ndim == self.r.ndim else rss[..., 0, :]


def _pivoted_diagonal(r):
    """|diag| and pivots of the Householder QR with column pivoting of the p x p factor `r`;
    pivots maps factor columns back to original columns. The factor is first divided by the
    power of two at or below its largest entry, so that no column's square overflows; neither
    the pivots nor the diagonal's ratios change under one scalar."""
    top = float(np.abs(r).max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < math.inf else 1.0
    r = r / scale
    p = r.shape[1]
    pivots = np.arange(p)

    for k in range(p):
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
        v /= np.linalg.norm(v)
        r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])

    return scale * np.abs(np.diag(r)), pivots


def _column_scale(a):
    """The largest column norm of `a`, a design or its factor, one per matrix of a stack; 1 where
    it is 0. Each column is scaled to a largest entry of 1 first, so that no square overflows;
    an entry that is not finite gives NaN, which no rank test passes."""
    top = np.abs(a).max(axis=-2, initial=0.0)
    top = np.where(top > 0.0, top, 1.0)
    scale = (top * np.linalg.norm(a / top[..., None, :], axis=-2)).max(axis=-1, initial=0.0)
    return np.where(scale == 0.0, 1.0, scale)


# Huge entries can overflow in the factorization; the rank check then refuses the design.
@np.errstate(over="ignore", invalid="ignore")
def solve_least_squares(x, y, names=None):
    """Minimize ||y - X b|| for one design, or for every entry of a stack of designs.

    Entry r is certified full rank when 1 / ||R_r^-1||_F > CERTIFY_MARGIN *
    DEFAULT_RANK_TOL * (largest column norm of X_r), with R_r the factor of X_r.
    Every |R_ii| of a pivoted QR is at least sigma_min(X) >= 1 / ||R^-1||_F, so a
    certified entry has rank p. An entry that is not certified has rank p when
    the pivoted QR of R_r finds every |R_ii| above DEFAULT_RANK_TOL times that
    column norm, and is then fitted like the others.

    Parameters
    ----------
    x : (n, p) array, or an (R, n, p) stack; n >= p
    y : (n,) or (n, q) array, or (R, n) or (R, n, q) for a stack
    names : sequence of p column names, optional
        The names under which a rank-deficient design's columns are reported.

    Returns
    -------
    LeastSquaresSolution
        Coefficients, full-rank certificate, (X'X)^-1, Q'y and X's factor.

    Raises
    ------
    RankDeficientError
        When the numerical rank of one design is below p. Columns are
        reported, never silently dropped. A stack raises nothing: an entry
        that is not full rank, or holds NaN or Inf, is not certified.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim not in (2, 3) or y.ndim > x.ndim or y.shape[:x.ndim - 1] != x.shape[:-1]:
        raise ValueError(f"need X (n, p) or (R, n, p) and y or Y on its rows, got {x.shape}, {y.shape}")
    one, vector = x.ndim == 2, y.ndim < x.ndim
    n, p = x.shape[-2:]
    if n < p:
        raise ValueError(f"need at least as many rows as columns, got {n} x {p}")
    if one:
        x, y = x[None], y[None]
    y = y.reshape(*x.shape[:-1], -1)  # a vector y is one column
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
    if one and not finite[0]:
        raise ValueError("X or y contains NaN or Inf")

    # Q is orthogonal, so the p x p factor of [X | Y] has X's column norms, pivots and rank,
    # and its last q columns are Q'Y.
    factor = np.empty((len(x), 0, p + y.shape[-1]))
    for start in range(0, n, FACTOR_ROWS):
        rows = slice(start, start + FACTOR_ROWS)
        factor = np.linalg.qr(np.concatenate(
            [factor, np.concatenate([x[:, rows], y[:, rows]], axis=-1)], axis=1), mode="r")
    upper, qty = factor[:, :p, :p], factor[:, :, p:]
    scale = _column_scale(upper)
    threshold = CERTIFY_MARGIN * DEFAULT_RANK_TOL * scale
    # 1 / ||R^-1||_F <= min |R_ii|, so an entry at or below the threshold there cannot be
    # certified; its factor is swapped for I so that the batched inverse meets no zero pivot.
    plausible = np.abs(np.diagonal(upper, axis1=1, axis2=2)).min(axis=-1, initial=np.inf) > threshold
    rinv = np.linalg.inv(np.where(plausible[:, None, None], upper, np.eye(p)))
    certified = finite & plausible & (np.linalg.norm(rinv, axis=(1, 2)) * threshold < 1.0)
    for r in np.flatnonzero(finite & ~certified):
        diag, pivots = _pivoted_diagonal(upper[r])
        rank = int(np.sum(diag > DEFAULT_RANK_TOL * scale[r]))
        if rank == p:
            rinv[r] = np.linalg.inv(upper[r])
            certified[r] = True
        elif one:
            columns = sorted(int(c) for c in pivots[rank:])
            raise RankDeficientError(columns, None if names is None else "design is rank deficient "
                                     f"in columns {[names[c] for c in columns]}")

    beta = np.where(certified[:, None, None], rinv @ qty[:, :p], 0.0)
    xtx_inverse = rinv @ rinv.mT
    if vector:
        beta, qty = beta[..., 0], qty[..., 0]
    if one:  # certified: a design that is not full rank has raised
        return LeastSquaresSolution(beta[0], True, xtx_inverse[0], qty[0], upper[0])
    return LeastSquaresSolution(beta, certified, xtx_inverse, qty, upper)
