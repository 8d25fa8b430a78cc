import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bgsindy import (DatasetError, Library, LibrarySpec, PrunerConfig,
                     TermDescriptor, discover, importance, least_squares)
from bgsindy.pruner import _ActiveSystem, _row_weights


def synthetic_library(n=400, m=8, k_true=3, seed=0, noise=0.0):
    """Random full-rank library with a known sparse generating model."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, m))
    true = np.zeros(m)
    true[:k_true] = rng.uniform(1.0, 3.0, k_true) * rng.choice([-1, 1], k_true)
    target = matrix @ true + noise * rng.standard_normal(n)
    terms = tuple(TermDescriptor((("u", p + 1),)) for p in range(m))
    from bgsindy import Axis, Dataset, subsample
    ds = Dataset((Axis(0, 1.0, 20),), Axis(0, 1.0, max(4, n // 20)),
                 {"u": np.zeros((20, max(4, n // 20)))}, {"u": "periodic"})
    samples = subsample(ds, min(n, ds.total_points), seed)
    return Library(terms, matrix, target, samples, "u",
                   LibrarySpec(poly_degree=m, deriv_order=0)), true


class TestImportance:
    def test_single_row_formula(self):
        phi = np.array([[3.0, -1.0, 0.5]])
        xi = np.ones(3)
        w, W = importance(phi, xi, epsilon_rel=1e-15)
        assert np.allclose(w[0], [1.0, 1 / 3, 1 / 6], atol=1e-12)
        assert np.allclose(W, w[0])

    def test_single_term_near_one(self, rng):
        phi = rng.uniform(1.0, 2.0, (50, 1))
        _, W = importance(phi, np.array([2.0]))
        assert 0.999999 < W[0] <= 1.0

    def test_all_zero_row(self):
        phi = np.array([[0.0, 0.0], [1.0, 2.0]])
        w, _ = importance(phi, np.ones(2))
        assert np.array_equal(w[0], [0.0, 0.0])

    def test_bounds_1000_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = rng.integers(1, 30)
            k = rng.integers(1, 8)
            phi = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 6)
            xi = rng.standard_normal(k) * 10.0 ** rng.integers(-6, 6)
            w, W = importance(phi, xi)
            assert (w >= 0).all() and (w <= 1.0).all()
            assert (W >= 0).all() and (W <= 1.0).all()

    def test_row_max_near_one(self, rng):
        phi = rng.standard_normal((200, 5)) + 2.0
        w, _ = importance(phi, np.ones(5))
        assert w.max(axis=1).min() > 1 - 1e-9

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            importance(np.ones((3, 0)), np.array([]))

    def test_dot_product_mean(self, rng):
        # W from one dot product per column against the mean of the returned w
        for n, k in ((7, 3), (1000, 15), (100_000, 30)):
            phi = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4, k)
            xi = rng.standard_normal(k)
            w, W = importance(phi, xi)
            mean = w.mean(axis=0)
            assert np.abs(W - mean).max() <= 1e-14 * np.abs(mean).max()
            assert (np.abs(W - mean) <= 1e-14 * mean).all()

    def test_stabilizer_underflow_raises(self, rng):
        # eps = epsilon_rel * 1e-300 is subnormal and 1 / eps overflows
        phi = rng.standard_normal((50, 3)) * 1e-300
        with pytest.raises(DatasetError, match="underflows"):
            importance(phi, np.ones(3))

    def test_stabilizer_check_at_the_reciprocal_boundary(self):
        # max|phi_ij xi_j| = 1, so eps = epsilon_rel: 1 / 2^-1024 overflows,
        # the reciprocal of the next double up is finite
        phi = np.array([[1.0, 0.5], [0.25, 1.0]])
        with pytest.raises(DatasetError, match="underflows"):
            importance(phi, np.ones(2), epsilon_rel=np.ldexp(1.0, -1024))
        w, W = importance(phi, np.ones(2),
                          epsilon_rel=np.nextafter(np.ldexp(1.0, -1024), 1.0))
        assert np.isfinite(w).all() and np.isfinite(W).all()
        # eps = 1e-6 * 3e6 > 1 is checked without an overflow (warnings are
        # errors in this suite)
        w, _ = importance(np.array([[2e6, 1.0], [1.0, 3e6]]), np.ones(2), epsilon_rel=1e-6)
        assert np.isclose(w[1, 1], 3e6 / (3e6 + 3.0))


def full_scan_row_weights(absphi, active, absxi, epsilon_rel):
    """The row weights from a running maximum over every active term, in
    library order."""
    rowmax = absphi[active[0]] * absxi[0]
    for j, c in zip(active[1:], absxi[1:]):
        rowmax = np.maximum(rowmax, absphi[j] * c)
    gmax = rowmax.max()
    return 1.0 / (rowmax + (epsilon_rel * gmax if gmax > 0 else 1.0))


class TestRowMaxScan:
    """`_row_weights` reads the terms in descending order of their bounds
    max_i |phi_ij| |xi_j| and stops once no unread term can raise a row
    maximum. The terms it may skip get NaN rows of |phi| (their column maxima
    stay finite): a NaN read would reach the row maxima, so these tests fail
    if the scan reads one."""

    @staticmethod
    def check(absphi, active, absxi, skippable):
        colmax = absphi.max(axis=1)
        poisoned = absphi.copy()
        poisoned[skippable] = np.nan
        r = _row_weights(poisoned, colmax, active, absxi, 1e-6)
        assert np.array_equal(r, full_scan_row_weights(absphi, active, absxi, 1e-6))

    def test_dominant_trio_and_small_coefficients(self, rng):
        # three terms set every row's maximum; 37 small-coefficient terms,
        # their bounds at most 1e-6, are never read
        absphi = rng.uniform(0.0, 1.0, (40, 5000))
        absphi[[4, 17, 31]] += 1.0
        absxi = 10.0 ** rng.uniform(-12, -6, 40)
        absxi[[4, 17, 31]] = rng.uniform(1.0, 2.0, 3)
        self.check(absphi, range(40), absxi, [j for j in range(40) if j not in (4, 17, 31)])
        # the same on an active subset, with its own coefficient order
        active = [2, 4, 9, 17, 23, 31, 38]
        self.check(absphi, active, absxi[active], [2, 9, 23, 38])

    def test_row_near_zero_in_every_column_reads_every_term(self, rng):
        absphi = rng.uniform(0.0, 1.0, (12, 3000)) * 10.0 ** rng.integers(-8, 3, (12, 1))
        absphi[:, 1234] = rng.uniform(0.0, 1e-200, 12)
        absxi = 10.0 ** rng.uniform(-6, 0, 12)
        self.check(absphi, range(12), absxi, [])

    def test_zero_coefficient_and_tied_bounds(self, rng):
        # columns 0 and 1 hold the same values in another order, so their
        # bounds tie; column 2's coefficient is 0, so its bound is 0
        absphi = rng.uniform(0.5, 1.0, (6, 2000))
        absphi[1] = absphi[0][::-1]
        absphi[3:] *= 1e-3
        absxi = np.array([2.0, 2.0, 0.0, 1.0, 1.0, 1.0])
        self.check(absphi, range(6), absxi, [2, 3, 4, 5])
        # every bound tied: each term sets some row's maximum, so all are read
        absphi = rng.permuted(np.tile(np.linspace(0.0, 1.0, 1000), (5, 1)), axis=1)
        self.check(absphi, range(5), np.ones(5), [])


def reference_prune(lib, config):
    """Plain reference loop: gather the active columns, score them with
    `importance`, drop the least important (ties: the later term), refit with
    `least_squares`; then the residual-ratio selection rule."""
    active = list(range(lib.n_terms))
    fit = least_squares(lib.matrix[:, active], lib.target)
    removed, residuals = [], [fit.residual]
    while len(active) > 1:
        _, W = importance(lib.matrix[:, active], fit.coefficients, config.epsilon_rel)
        removed.append(active.pop(int(np.flatnonzero(W == W.min())[-1])))
        fit = least_squares(lib.matrix[:, active], lib.target)
        residuals.append(fit.residual)
    ratios = [b / a if a > 1e-30 else (np.inf if b > 1e-30 else 1.0)
              for a, b in zip(residuals, residuals[1:])]
    over = [i for i, r in enumerate(ratios) if r > config.tau]
    selected = over[0] if over else int(np.argmax(ratios))
    return removed, selected, np.array(residuals)


class TestPruneStep:
    def test_zero_column_removed_first(self):
        lib, _ = synthetic_library(m=4, k_true=4)
        matrix = lib.matrix.copy()
        matrix[:, 2] = 1e-300      # effectively dead column -> xi ~ 0
        lib2 = replace(lib, matrix=matrix)
        _, trace = discover(lib2, PrunerConfig())
        assert trace.iterations[0].removed == 2
        assert trace.residuals[1] >= trace.residuals[0] - 1e-15

    def test_matches_discover_path(self):
        # one prune step at a time (the reference loop) reproduces
        # discover's removal order exactly
        lib, _ = synthetic_library(n=2000, m=10, k_true=3, noise=1e-4, seed=5)
        config = PrunerConfig()
        _, trace = discover(lib, config)
        removed_seq, _, _ = reference_prune(lib, config)
        trace_removed = [it.removed for it in trace.iterations if it.removed is not None]
        assert len(removed_seq) == lib.n_terms - 1
        assert removed_seq == trace_removed


class TestReferenceLoop:
    def test_discover_matches_reference_on_60_libraries(self):
        # tall (QR-compressed refits) and square-ish libraries, with dead
        # columns: one, or two for an exact tie at W = 0
        config = PrunerConfig()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 11))
            if seed % 4 == 0:
                n = int(rng.integers(m + 3, 2 * m + 1))
            else:
                n = int(rng.integers(200, 800))
            lib, _ = synthetic_library(n=n, m=m, k_true=int(rng.integers(1, m)),
                                       noise=1e-2, seed=seed)
            n_dead = seed % 3
            if n_dead:
                matrix = lib.matrix.copy()
                matrix[:, rng.choice(m, n_dead, replace=False)] = 0.0
                lib = replace(lib, matrix=matrix)
            removed, selected, residuals = reference_prune(lib, config)
            _, trace = discover(lib, config)
            assert [it.removed for it in trace.iterations[:-1]] == removed
            assert trace.selected_iteration == selected
            assert np.allclose(trace.residuals, residuals, rtol=1e-12, atol=0)

    def test_library_left_unchanged(self):
        for n in (2000, 15):
            lib, _ = synthetic_library(n=n, m=8, k_true=3, noise=1e-4, seed=5)
            matrix, target = lib.matrix.tobytes(), lib.target.tobytes()
            discover(lib, PrunerConfig())
            assert lib.matrix.tobytes() == matrix
            assert lib.target.tobytes() == target


class TestActiveSystem:
    def test_no_n_row_array_but_working_copy(self):
        # the R factor of [phi | y] is N x (M + 1); only a copy of its top
        # block may stay alive, not views into the whole factor; |phi| is
        # kept as M x N, and neither the library nor its target is held
        lib, _ = synthetic_library(n=3000, m=8, k_true=3, noise=1e-4, seed=4)
        system = _ActiveSystem(lib)
        n_row = {}
        for name, value in vars(system).items():
            if not isinstance(value, np.ndarray):
                continue
            root = value
            while isinstance(root.base, np.ndarray):
                root = root.base
            if root.shape[0] == lib.n_samples:
                n_row[name] = root
        assert n_row == {}
        assert system.absphi.shape == (lib.n_terms, lib.n_samples)
        assert system.absphi.flags.c_contiguous
        assert system.r.base.shape == (lib.n_terms + 1, lib.n_terms + 1)

    def test_discover_peak_memory_below_one_and_a_half_libraries(self):
        # the raw QR's [phi | y] buffer, then |phi|, are the only N x K
        # arrays discover allocates beside the library
        lib, _ = synthetic_library(n=200_000, m=10, k_true=3, noise=1e-4, seed=6)
        tracemalloc.start()
        try:
            discover(lib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * lib.matrix.nbytes


class TestDiscover:
    def test_exact_generating_terms_only(self):
        # every term essential: first removal triggers, full set returned
        lib, true = synthetic_library(m=4, k_true=4, noise=1e-9)
        model, trace = discover(lib)
        assert len(model.terms) == 4
        assert trace.selected_iteration == 0

    def test_recovers_planted_support(self):
        lib, true = synthetic_library(n=3000, m=10, k_true=3, noise=1e-6, seed=11)
        model, trace = discover(lib)
        support = {lib.terms[j] for j in np.flatnonzero(true)}
        assert set(model.terms) == support
        coef = dict(zip(model.terms, model.coefficients))
        for j in np.flatnonzero(true):
            assert abs(coef[lib.terms[j]] - true[j]) < 1e-4

    def test_residuals_non_decreasing(self):
        lib, _ = synthetic_library(n=1500, m=12, k_true=4, noise=1e-5, seed=3)
        _, trace = discover(lib, PrunerConfig())
        res = trace.residuals
        assert (np.diff(res) >= -1e-12 * np.maximum(res[:-1], 1e-300)).all()

    def test_full_trace_lengths(self):
        lib, _ = synthetic_library(m=6, k_true=2, noise=1e-6)
        _, trace = discover(lib, PrunerConfig())
        assert [len(it.active) for it in trace.iterations] == [6, 5, 4, 3, 2, 1]

    def test_determinism(self):
        lib, _ = synthetic_library(n=2000, m=9, k_true=3, noise=1e-5, seed=7)
        m1, t1 = discover(lib)
        m2, t2 = discover(lib)
        assert m1.terms == m2.terms
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert t1.selected_iteration == t2.selected_iteration

    def test_column_rescaling_invariance_100_libraries(self):
        # scaling any column leaves the removal order and selection unchanged
        for seed in range(100):
            lib, _ = synthetic_library(n=300, m=6, k_true=2, noise=1e-4, seed=seed)
            _, trace = discover(lib, PrunerConfig())
            rng = np.random.default_rng(seed + 5000)
            scales = 2.0 ** rng.integers(-8, 9, lib.n_terms)
            scaled = lib.matrix * scales[None, :]
            lib2 = replace(lib, matrix=scaled)
            _, trace2 = discover(lib2, PrunerConfig())
            assert [it.removed for it in trace.iterations] == \
                   [it.removed for it in trace2.iterations]
            assert trace.selected_iteration == trace2.selected_iteration

    def test_near_exact_data_recovers_support(self):
        # residual stays at the tiny noise floor until a true term is removed
        lib, true = synthetic_library(n=500, m=5, k_true=2, noise=1e-12, seed=1)
        model, _ = discover(lib)
        support = {lib.terms[j] for j in np.flatnonzero(true)}
        assert set(model.terms) == support

    def test_tau_close_to_one_over_triggers(self):
        # degenerate tau: selection fires during the junk-removal phase, long
        # before the true 3-term support is reached
        lib, _ = synthetic_library(n=2000, m=10, k_true=3, noise=1e-3, seed=2)
        model, trace = discover(lib, PrunerConfig(tau=1.0001))
        assert len(model.terms) > 3
        assert trace.selected_iteration < 10 - 3

    def test_importances_equal_importance_kernel(self):
        # columns spanning 24 orders of magnitude, rows spanning two full
        # dot-product blocks and a tail: every recorded score has the bits of
        # `importance` on that iteration's active columns
        lib, _ = synthetic_library(n=40_000, m=12, k_true=4, noise=1e-6, seed=9)
        scaled = replace(lib, matrix=lib.matrix * 10.0 ** np.arange(-12, 12, 2))
        config = PrunerConfig()
        _, trace = discover(scaled, config)
        for it in trace.iterations:
            _, W = importance(scaled.matrix[:, it.active], it.coefficients,
                              config.epsilon_rel)
            assert np.array_equal(it.importances, W)

    def test_stabilizer_underflow_raises(self):
        lib, _ = synthetic_library(n=500, m=5, k_true=2, noise=1e-6, seed=3)
        tiny = replace(lib, matrix=lib.matrix * 1e-300, target=lib.target * 1e-300)
        with pytest.raises(DatasetError, match="underflows"):
            discover(tiny)

    def test_trace_export(self, tmp_path):
        lib, _ = synthetic_library(m=5, k_true=2, noise=1e-6)
        _, trace = discover(lib, PrunerConfig())
        d = trace.to_json_dict()
        assert len(d["iterations"]) == len(trace.iterations)
        trace.to_csv(tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0].startswith("iteration,")
        assert all(f"W[{n}]" in lines[0] for n in trace.term_names)
        assert len(lines) == len(trace.iterations) + 1
        # every W cell parses back to the recorded importance
        first_w = lines[0].split(",").index(f"W[{trace.term_names[0]}]")
        for line, it in zip(lines[1:], trace.iterations):
            cells = line.split(",")[first_w:]
            assert [j for j, c in enumerate(cells) if c] == list(it.active)
            assert [float(cells[j]) for j in it.active] == list(it.importances)

    def test_config_validation(self):
        for entries in ({"tau": 1.0}, {"tau": np.nan}, {"tau": np.inf},
                        {"epsilon_rel": 0.0}, {"epsilon_rel": np.nan},
                        {"epsilon_rel": np.inf}):
            with pytest.raises(DatasetError, match=next(iter(entries))):
                PrunerConfig(**entries)
