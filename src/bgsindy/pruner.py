"""Balance-guided progressive pruning with residual-ratio model selection.

Each iteration scores active terms by their sample-averaged share of the
rowwise dominant contribution, removes the least important term, and refits,
down to one term. The model selected is the one from the step before the
residual ratio first exceeds tau.

The score depends on the library only through |phi|, so it is computed from
|phi| stored as one contiguous row per library column: a running maximum over
the active rows gives one N-vector of row weights, and each term's score is
one dot product with it. The residual is read from the library's
compression (`Library.compressed`): ||phi xi - y||^2 = ||R xi - Q^T y||^2 +
rho^2, which is K x K work. So pruning keeps one N x K array beside the
library, |phi|, forms no N x K product, and reads no signed N-row array.

The running maximum reads only the terms that can set it. Each active term
has the bound b_j = max_i |phi_ij| |xi_j|, from column maxima taken once per
library; the terms are scanned in descending order of b_j, and the scan stops
once the next bound is at or below the smallest row maximum so far. Rounding
is monotone, so fl(|phi_ij| |xi_j|) <= fl(b_j) in every row, and no term left
unread could raise a row's maximum; a maximum is exact in any order, so the
row weights are bit for bit those of a full scan in library order. A balance
set by a few large terms (modified KS: about 3 of 61) costs a few passes; a
library that needs every term pays about log2 K extra reductions, the reads
of the smallest row maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DatasetError, DiscoveredModel, PruneIteration, PruneTrace
from .library import Library
from .regression import _compressed_residual, _svd_solve

RES_FLOOR = 1e-30
DOT_BLOCK = 16384       # rows per partial sum of an importance dot product


@dataclass(frozen=True)
class PrunerConfig:
    tau: float = 3.0
    epsilon_rel: float = 1e-12        # stabilizer, relative to max|phi_ij xi_j|

    def __post_init__(self):
        # written so that NaN fails too
        if not 1 < self.tau < np.inf:
            raise DatasetError(f"tau must be a finite number > 1, got {self.tau!r}")
        if not 0 < self.epsilon_rel < np.inf:
            raise DatasetError(f"epsilon_rel must be a finite number > 0, "
                               f"got {self.epsilon_rel!r}")


def _row_weights(absphi: np.ndarray, colmax: np.ndarray, active, absxi: np.ndarray,
                 epsilon_rel: float) -> np.ndarray:
    """r_i = 1 / (max_l |phi_il xi_l| + eps) over the active rows of |phi|^T.

    colmax holds the maximum of each row of |phi|^T. The active terms are
    scanned in descending order of their bounds colmax_j |xi_j|, until the
    next bound is at or below the smallest row maximum last read; that
    minimum is re-read after 1, 2, 4, ... scanned terms, and between reads it
    stays a lower bound, as the maxima only grow. The terms left unread
    cannot change any row maximum (see the module docstring).

    The stabilizer eps is epsilon_rel times the largest contribution in the
    active set, which keeps the scores invariant under paired
    column/coefficient rescaling.
    """
    bounds = colmax[active] * absxi
    # largest first; a NaN bound sorts to the front, and a NaN row maximum
    # then never lets the scan stop, so NaNs propagate as in a full scan
    order = np.argsort(bounds)[::-1]
    rowmax = absphi[active[order[0]]] * absxi[order[0]]
    contribution = np.empty_like(rowmax)
    floor, next_read = rowmax.min(), 2
    for scanned, i in enumerate(order[1:], start=2):
        if bounds[i] <= floor:
            break
        np.maximum(rowmax, np.multiply(absphi[active[i]], absxi[i], out=contribution),
                   out=rowmax)
        if scanned == next_read:
            floor, next_read = rowmax.min(), 2 * next_read
    gmax = rowmax.max()
    epsilon = epsilon_rel * gmax if gmax > 0 else 1.0
    if not epsilon * np.finfo(np.float64).max > 1.0:     # 1 / eps must be finite
        raise DatasetError("the stabilizer epsilon_rel * max|phi_ij xi_j| underflows")
    rowmax += epsilon
    return np.divide(1.0, rowmax, out=rowmax)


def _global_importance(absphi: np.ndarray, active, absxi: np.ndarray,
                       r: np.ndarray) -> np.ndarray:
    """W_j = |xi_j| (r . |phi_j|) / N: one dot product per active row of |phi|^T.

    Each dot product is a sum of DOT_BLOCK-row partial products, so its
    round-off does not grow with N: one BLAS accumulation over KdV's 780k
    rows errs by up to 8e-14 relative, the blocked sum by about 2e-15.
    """
    n = r.size
    head = n - n % DOT_BLOCK
    r_blocks = r[:head].reshape(-1, DOT_BLOCK)
    dots = np.array([np.vecdot(absphi[j, :head].reshape(-1, DOT_BLOCK), r_blocks).sum()
                     + absphi[j, head:] @ r[head:] for j in active])
    return dots * absxi / n


def importance(phi_active: np.ndarray, xi: np.ndarray, epsilon_rel: float = 1e-12
               ) -> tuple[np.ndarray, np.ndarray]:
    """Local and global term importance.

    w_ij = |phi_ij xi_j| / (max_l |phi_il xi_l| + eps), W_j = mean_i w_ij.
    Both lie in [0, 1]; eps is epsilon_rel times the largest |phi_ij xi_j|.
    W comes from the same row weights and dot products as the pruner's
    scores (`_row_weights`, `_global_importance`), so the two agree bit for
    bit; w is formed only for the caller.
    """
    phi_active = np.asarray(phi_active, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.size == 0 or phi_active.ndim != 2 or phi_active.shape[1] != xi.size:
        raise DatasetError("importance needs an N x K matrix and K coefficients")
    absphi = np.abs(phi_active.T, order="C")
    absxi = np.abs(xi)
    active = range(xi.size)
    r = _row_weights(absphi, absphi.max(axis=1), active, absxi, epsilon_rel)
    w = absphi.T * absxi        # column-major: each column is summed contiguously
    w *= r[:, np.newaxis]
    return w, _global_importance(absphi, active, absxi, r)


def _argmin_with_tie_break(W: np.ndarray) -> int:
    """Position of the minimal importance; ties remove the later term."""
    ties = np.flatnonzero(W == W.min())
    return int(ties[-1])   # library order is canonical order


class _ActiveSystem:
    """The LS refits and scores of active subsets of a library's columns.

    The library is never copied or written, and is not held. |phi| is kept
    once, as K x N with one contiguous row per library column, in library
    order, with the maximum of each row: the importances are read from them
    (`_row_weights`, `_global_importance`). Refits and residuals use the
    library's M x M system (`Library.compressed`), read before |phi| is
    taken, so a first compression's [phi | y] buffer is freed by then. The
    residual is read from R, Q^T y and rho (`_compressed_residual`), so no
    signed N-row array is kept or formed.
    """

    def __init__(self, library: Library):
        self.r, self.qty, self.rho = library.compressed
        self.n = library.n_samples
        self.absphi = np.abs(library.matrix.T, order="C")
        self.colmax = self.absphi.max(axis=1)

    def fit(self, active: list[int]) -> np.ndarray:
        return _svd_solve(self.r[:, active], self.qty)[0]

    def score(self, active: list[int], xi: np.ndarray,
              epsilon_rel: float) -> tuple[float, np.ndarray]:
        """Residual and global importances of the active set at xi."""
        absxi = np.abs(xi)
        r = _row_weights(self.absphi, self.colmax, active, absxi, epsilon_rel)
        return (_compressed_residual(self.r[:, active], self.qty, self.rho, xi, self.n),
                _global_importance(self.absphi, active, absxi, r))


def _select(residuals: list[float], tau: float) -> int:
    """The iteration before the first residual ratio above tau, or else before
    the largest ratio. A ratio from a residual at or below RES_FLOOR counts as
    infinite if the next residual is above it, and as 1 otherwise."""
    ratios = []
    for a, b in zip(residuals, residuals[1:]):
        if a <= RES_FLOOR:
            ratios.append(np.inf if b > RES_FLOOR else 1.0)
        else:
            ratios.append(b / a)
    over = [i for i, r in enumerate(ratios) if r > tau]
    if over:
        return over[0]
    return int(np.argmax(ratios)) if ratios else 0


def discover(library: Library, config: PrunerConfig = PrunerConfig()
             ) -> tuple[DiscoveredModel, PruneTrace]:
    """Prune progressively from the full active set down to one term, then
    select the model from the residual history (`_select`)."""
    if library.n_terms < 1:
        raise DatasetError("empty library")
    system = _ActiveSystem(library)
    active = list(range(library.n_terms))
    iterations: list[PruneIteration] = []
    while True:
        xi = system.fit(active)
        res, W = system.score(active, xi, config.epsilon_rel)
        if len(active) == 1:
            iterations.append(PruneIteration(tuple(active), xi, W, None, res))
            break
        j = _argmin_with_tie_break(W)
        iterations.append(PruneIteration(tuple(active), xi, W, active[j], res))
        del active[j]

    selected = _select([it.residual for it in iterations], config.tau)
    sel = iterations[selected]
    model = DiscoveredModel(
        tuple(library.terms[j] for j in sel.active),
        sel.coefficients, library.target_field, sel.residual)
    trace = PruneTrace(tuple(iterations), selected,
                       tuple(t.name for t in library.terms))
    return model, trace
