"""Rank-tolerant least squares, its mean-squared residual, and the compressed
LS system (R, Q^T y and rho of one QR)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DatasetError

SVD_CUTOFF = 1e-12


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    residual: float       # (1/N) * ||phi @ xi - u_t||^2
    rank: int


def _svd_solve(phi: np.ndarray, u_t: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm LS solution with relative singular-value cutoff.

    Columns are equilibrated to unit norm internally, which leaves the
    full-rank solution unchanged while keeping the solve accurate on
    libraries whose raw column scales span many orders of magnitude. In the
    rank-deficient case the minimum-norm convention applies to the
    equilibrated variables.
    """
    scale = np.sqrt((phi * phi).sum(axis=0))
    scale[scale == 0] = 1.0
    u, s, vt = np.linalg.svd(phi / scale, full_matrices=False)
    cutoff = SVD_CUTOFF * s[0] if s.size and s[0] > 0 else 0.0
    inv = np.where(s > cutoff, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    rank = int((s > cutoff).sum())
    return (vt.T @ (inv * (u.T @ u_t))) / scale, rank


def compress(phi: np.ndarray, y: np.ndarray,
             rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """R, Q^T y and rho of phi = QR: the R factor of [phi | y], from an
    in-place "raw" QR of a column-major copy, so Q is never formed. An LS
    solve on columns of R, with or without ridge rows, has the solution of
    the tall one up to round-off. With `rows`, phi and y are the rows of
    that index array, gathered column by column into the copy.

    rho is the factor's last diagonal entry, and rho^2 the part of ||y||^2
    outside the span of phi, so for any xi
    ||phi xi - y||^2 = ||R xi - Q^T y||^2 + rho^2
    (Golub & Van Loan, Matrix Computations, sec. 5.3). With N <= M the
    factor has no row M, and rho is 0."""
    import scipy.linalg  # loaded at the first factorization, not with the package
    m = phi.shape[1]
    n = phi.shape[0] if rows is None else len(rows)
    aug = np.empty((n, m + 1), order="F")
    if rows is None:
        aug[:, :m] = phi
        aug[:, m] = y
    else:
        for j in range(m):
            np.take(phi[:, j], rows, out=aug[:, j])
        np.take(y, rows, out=aug[:, m])
    top = scipy.linalg.qr(aug, mode="raw", overwrite_a=True, check_finite=False)[1]
    return top[:m, :m], top[:m, m], float(top[m, m]) if n > m else 0.0


def _compressed_residual(r: np.ndarray, qty: np.ndarray, rho: float, xi: np.ndarray,
                         n: int) -> float:
    """(1/N) ||phi xi - y||^2 from the R columns of phi's terms and the Q^T y
    and rho of the same factor (`compress`), with K x K work."""
    misfit = r @ xi - qty
    return (float(misfit @ misfit) + rho * rho) / n


def least_squares(phi_active: np.ndarray, u_t: np.ndarray) -> FitResult:
    phi_active = np.asarray(phi_active, dtype=np.float64)
    u_t = np.asarray(u_t, dtype=np.float64)
    if phi_active.ndim != 2 or phi_active.shape[1] < 1:
        raise DatasetError("phi must be an N x K matrix with K >= 1")
    n, k = phi_active.shape
    if n < k:
        raise DatasetError(f"underdetermined system: N={n} < K={k}")
    if u_t.shape != (n,):
        raise DatasetError("target length must match row count")
    if not (np.isfinite(phi_active).all() and np.isfinite(u_t).all()):
        raise DatasetError("non-finite inputs")
    xi, rank = _svd_solve(phi_active, u_t)
    misfit = phi_active @ xi - u_t
    return FitResult(xi, float(misfit @ misfit) / n, rank)
