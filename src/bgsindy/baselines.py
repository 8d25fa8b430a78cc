"""Coefficient-thresholding baselines: sequential thresholded least squares
and train/validation sequential thresholded ridge regression."""

from __future__ import annotations

import numpy as np

from .core import DatasetError, DiscoveredModel
from .library import Library
from .regression import least_squares


def _model_from_active(library: Library, active: list[int]) -> DiscoveredModel:
    if not active:
        y = library.target
        return DiscoveredModel((), np.array([]), library.target_field,
                               float(y @ y) / y.size)
    fit = least_squares(library.matrix[:, active], library.target)
    return DiscoveredModel(tuple(library.terms[j] for j in active),
                           fit.coefficients, library.target_field, fit.residual)


def stlsq(library: Library, threshold: float, max_iter: int = 25) -> DiscoveredModel:
    """Alternate least squares with hard thresholding of small coefficients.

    An all-thresholded result returns an empty model; that is the expected
    failure mode on libraries whose true coefficients sit below the threshold.
    """
    if threshold < 0:
        raise DatasetError("threshold must be >= 0")
    active = list(range(library.n_terms))
    for _ in range(max_iter):
        fit = least_squares(library.matrix[:, active], library.target)
        keep = np.abs(fit.coefficients) >= threshold
        if keep.all():
            break
        active = [a for a, k in zip(active, keep) if k]
        if not active:
            return _model_from_active(library, [])
    return _model_from_active(library, active)


def _ridge(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0:
        return np.linalg.lstsq(x, y, rcond=None)[0]
    k = x.shape[1]
    return np.linalg.lstsq(
        np.vstack([x, np.sqrt(lam) * np.eye(k)]),
        np.concatenate([y, np.zeros(k)]), rcond=None)[0]


def _stridge(x: np.ndarray, y: np.ndarray, lam: float, iters: int,
             tol: float) -> np.ndarray:
    """Inner ridge + hard-threshold loop; thresholds apply to the raw
    coefficients."""
    w = _ridge(x, y, lam)
    big = np.abs(w) >= tol
    for _ in range(iters):
        if not big.any():
            return np.zeros(x.shape[1])
        w = np.zeros(x.shape[1])
        w[big] = _ridge(x[:, big], y, lam)
        new_big = np.abs(w) >= tol
        if (new_big == big).all():
            break
        big = new_big
    if big.any():
        w = np.zeros(x.shape[1])
        w[big] = np.linalg.lstsq(x[:, big], y, rcond=None)[0]
    return w


def train_stridge(library: Library, lam: float = 1e-5, split: float = 0.8,
                  search_iters: int = 10, inner_iters: int = 10, seed: int = 0,
                  l0_penalty: float | None = None) -> DiscoveredModel:
    """Threshold search for STRidge scored on a held-out split.

    The validation score is the squared misfit plus an l0 penalty per active
    term (default 1e-3 times the condition number of the training matrix).
    The winning support is refit by plain least squares on all data.
    Thresholds act on raw coefficients, so terms whose true
    coefficients sit below the explored thresholds are discarded.
    """
    if not 0 < split < 1:
        raise DatasetError("split fraction must be in (0, 1)")
    n = library.n_samples
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    n_train = int(round(split * n))
    train, test = perm[:n_train], perm[n_train:]
    x_tr, y_tr = library.matrix[train], library.target[train]
    x_te, y_te = library.matrix[test], library.target[test]

    if l0_penalty is None:
        l0_penalty = 1e-3 * float(np.linalg.cond(x_tr))

    w_ls = np.linalg.lstsq(x_tr, y_tr, rcond=None)[0]
    d_tol = float(np.max(np.abs(w_ls))) / search_iters
    tol = d_tol

    def score(w):
        r = y_te - x_te @ w
        return float(r @ r) + l0_penalty * int(np.count_nonzero(w))

    w_best = _stridge(x_tr, y_tr, lam, inner_iters, 0.0)
    err_best = score(w_best)
    for it in range(search_iters):
        w = _stridge(x_tr, y_tr, lam, inner_iters, tol)
        err = score(w)
        if err <= err_best:
            err_best, w_best = err, w
            tol += d_tol
        else:
            tol = max(0.0, tol - 2 * d_tol)
            d_tol = 2 * d_tol / (search_iters - it)
            tol = tol + d_tol

    active = [j for j in range(library.n_terms) if w_best[j] != 0.0]
    return _model_from_active(library, active)
