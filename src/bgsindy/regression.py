"""Rank-tolerant least squares and the mean-squared residual functional."""

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


def compress(phi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and Q^T y of phi = QR: the top of the R factor of [phi | y], from an
    in-place "raw" QR of a column-major copy, so Q is never formed. An LS
    solve on columns of R, with or without ridge rows, has the solution of
    the tall one up to round-off."""
    import scipy.linalg  # loaded at the first factorization, not with the package
    n, m = phi.shape
    aug = np.empty((n, m + 1), order="F")
    aug[:, :m] = phi
    aug[:, m] = y
    top = scipy.linalg.qr(aug, mode="raw", overwrite_a=True, check_finite=False)[1]
    return top[:m, :m], top[:m, m]


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
    res = residual(phi_active, xi, u_t)
    return FitResult(xi, res, rank)


def residual(phi_active: np.ndarray, xi: np.ndarray, u_t: np.ndarray) -> float:
    phi_active = np.asarray(phi_active)
    xi = np.asarray(xi)
    u_t = np.asarray(u_t)
    if phi_active.shape != (u_t.size, xi.size):
        raise DatasetError("shape mismatch between phi, xi, and target")
    r = phi_active @ xi - u_t
    return float(r @ r) / u_t.size
