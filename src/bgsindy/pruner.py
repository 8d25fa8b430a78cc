"""Balance-guided progressive pruning with residual-ratio model selection.

Each iteration scores active terms by their sample-averaged share of the
rowwise dominant contribution, removes the least important term, and refits,
down to one term. The model selected is the one from the step before the
residual ratio first exceeds tau.

The score depends on the library only through |phi|, so it is computed from
|phi| stored as one contiguous row per library column: a running maximum over
the active rows gives one N-vector of row weights, and each term's score is
one dot product with it. The misfit is one product of the library itself with
the coefficients zero-filled at every dropped term. So pruning keeps one
N x K array beside the library, |phi|, and forms no N x K product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DatasetError, DiscoveredModel, PruneIteration, PruneTrace
from .library import Library
from .regression import _svd_solve

RES_FLOOR = 1e-30
DOT_BLOCK = 16384       # rows per partial sum of an importance dot product


@dataclass(frozen=True)
class PrunerConfig:
    tau: float = 3.0
    epsilon_rel: float = 1e-12        # stabilizer, relative to max|phi_ij xi_j|

    def __post_init__(self):
        if self.tau <= 1:
            raise DatasetError("tau must be > 1")
        if self.epsilon_rel <= 0:
            raise DatasetError("epsilon_rel must be > 0")


def _row_weights(absphi: np.ndarray, active, absxi: np.ndarray,
                 epsilon_rel: float) -> np.ndarray:
    """r_i = 1 / (max_l |phi_il xi_l| + eps) over the active rows of |phi|^T.

    The stabilizer eps is epsilon_rel times the largest contribution in the
    active set, which keeps the scores invariant under paired
    column/coefficient rescaling.
    """
    rowmax = absphi[active[0]] * absxi[0]
    contribution = np.empty_like(rowmax)
    for j, c in zip(active[1:], absxi[1:]):
        np.maximum(rowmax, np.multiply(absphi[j], c, out=contribution), out=rowmax)
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
    r = _row_weights(absphi, active, absxi, epsilon_rel)
    w = absphi.T * absxi        # column-major: each column is summed contiguously
    w *= r[:, np.newaxis]
    return w, _global_importance(absphi, active, absxi, r)


def _argmin_with_tie_break(W: np.ndarray) -> int:
    """Position of the minimal importance; ties remove the later term."""
    ties = np.flatnonzero(W == W.min())
    return int(ties[-1])   # library order is canonical order


class _ActiveSystem:
    """The LS refits and scores of active subsets of a library's columns.

    The library is never copied or written. |phi| is kept once, as K x N
    with one contiguous row per library column, in library order: the
    importances are read from it (`_row_weights`, `_global_importance`).
    The misfit is `library.matrix @ xi_full - y`, with xi_full zero at every
    dropped term, so no signed working copy is kept either. Refits solve on
    the library's M x M system (`Library.compressed`), read before |phi| is
    taken, so a first compression's [phi | y] buffer is freed by then.
    Residuals are always evaluated directly on the full data; the compressed
    form condenses large-magnitude rows and wobbles at the round-off floor.
    """

    def __init__(self, library: Library):
        self.r, self.qty = library.compressed
        self.phi = library.matrix
        self.y = library.target
        self.absphi = np.abs(self.phi.T, order="C")

    def fit(self, active: list[int]) -> np.ndarray:
        return _svd_solve(self.r[:, active], self.qty)[0]

    def score(self, active: list[int], xi: np.ndarray,
              epsilon_rel: float) -> tuple[float, np.ndarray]:
        """Residual and global importances of the active set at xi."""
        xi_full = np.zeros(self.phi.shape[1])
        xi_full[active] = xi
        misfit = self.phi @ xi_full - self.y
        absxi = np.abs(xi)
        r = _row_weights(self.absphi, active, absxi, epsilon_rel)
        return (float(misfit @ misfit) / misfit.size,
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
