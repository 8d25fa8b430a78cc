"""Coefficient-thresholding baselines: sequential thresholded least squares
and train/validation sequential thresholded ridge regression. Every solve
runs on one compression of the data: STLSQ reads the library's own
(`Library.compressed`, shared with the pruner and with every other STLSQ
fit of that library); TrainSTRidge compresses its training split once, and
its held-out score stays a tall product."""

from __future__ import annotations

import numpy as np

from .core import DatasetError, DiscoveredModel
from .library import Library
from .regression import _svd_solve, compress, least_squares


def _model_from_active(library: Library, active: list[int]) -> DiscoveredModel:
    if not active:
        y = library.target
        return DiscoveredModel((), np.array([]), library.target_field,
                               float(y @ y) / y.size)
    fit = least_squares(library.matrix[:, active], library.target)
    return DiscoveredModel(tuple(library.terms[j] for j in active),
                           fit.coefficients, library.target_field, fit.residual)


def stlsq(library: Library, threshold: float = 0.1, max_iter: int = 25) -> DiscoveredModel:
    """Alternate least squares with hard thresholding of small coefficients.

    An all-thresholded result returns an empty model; that is the expected
    failure mode on libraries whose true coefficients sit below the threshold.
    """
    if threshold < 0:
        raise DatasetError("threshold must be >= 0")
    if max_iter < 1:
        raise DatasetError("max_iter must be >= 1")
    r, qty = library.compressed
    active = list(range(library.n_terms))
    for _ in range(max_iter):
        keep = np.abs(_svd_solve(r[:, active], qty)[0]) >= threshold
        active = [a for a, k in zip(active, keep) if k]
        if keep.all() or not active:
            break
    return _model_from_active(library, active)


def _ridge(r: np.ndarray, qty: np.ndarray, lam: float) -> np.ndarray:
    """argmin ||x w - y||^2 + lam ||w||^2, solved as LS on [R; sqrt(lam) I]."""
    k = r.shape[1]
    return _svd_solve(np.vstack([r, np.sqrt(lam) * np.eye(k)]),
                      np.concatenate([qty, np.zeros(k)]))[0]


def _stridge(r: np.ndarray, qty: np.ndarray, lam: float, iters: int,
             tol: float) -> np.ndarray:
    """Inner ridge + hard-threshold loop on the compressed training system;
    thresholds apply to the raw coefficients."""
    big = np.abs(_ridge(r, qty, lam)) >= tol
    for _ in range(iters):
        if not big.any():
            break
        w = np.zeros(r.shape[1])
        w[big] = _ridge(r[:, big], qty, lam)
        new_big = np.abs(w) >= tol
        if (new_big == big).all():
            break
        big = new_big
    w = np.zeros(r.shape[1])
    if big.any():
        w[big] = _svd_solve(r[:, big], qty)[0]
    return w


def train_stridge(library: Library, lam: float = 1e-5, split: float = 0.8,
                  search_iters: int = 10, inner_iters: int = 10, seed: int = 0,
                  l0_penalty: float | None = None) -> DiscoveredModel:
    """Threshold search for STRidge scored on a held-out split.

    The training split is compressed once and each solve runs on its R. The
    score is the held-out squared misfit, a tall product, plus an l0 penalty
    per active term (default 1e-3 times cond(R), the training matrix's). The
    winning support is refit by plain least squares on all data.
    Thresholds act on raw coefficients, so terms whose true
    coefficients sit below the explored thresholds are discarded.
    """
    if not 0 < split < 1:
        raise DatasetError("split fraction must be in (0, 1)")
    if lam < 0:
        raise DatasetError("lam must be >= 0")
    if search_iters < 1:
        raise DatasetError("search_iters must be >= 1")
    n = library.n_samples
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    n_train = int(round(split * n))
    train, test = perm[:n_train], perm[n_train:]
    r, qty = compress(library.matrix[train], library.target[train])
    x_te, y_te = library.matrix[test], library.target[test]

    if l0_penalty is None:
        l0_penalty = 1e-3 * float(np.linalg.cond(r))

    d_tol = float(np.max(np.abs(_svd_solve(r, qty)[0]))) / search_iters
    tol = d_tol

    def score(w):
        misfit = y_te - x_te @ w
        return float(misfit @ misfit) + l0_penalty * int(np.count_nonzero(w))

    w_best = _stridge(r, qty, lam, inner_iters, 0.0)
    err_best = score(w_best)
    for it in range(search_iters):
        w = _stridge(r, qty, lam, inner_iters, tol)
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
