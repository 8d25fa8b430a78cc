import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bgsindy import DatasetError, baselines, discover, least_squares, stlsq, train_stridge
from bgsindy.baselines import _ridge, _stridge
from bgsindy.regression import compress
from tests.test_pruner import synthetic_library


class TestStlsq:
    def test_two_by_two_thresholding(self):
        lib, _ = synthetic_library(n=2, m=2, k_true=0, seed=0)
        matrix = np.eye(2)
        lib = replace(lib, matrix=matrix, target=np.array([1.0, 0.01]))
        model = stlsq(lib, threshold=0.1)
        assert [t.name for t in model.terms] == [lib.terms[0].name]
        assert np.isclose(model.coefficients[0], 1.0)

    def test_threshold_zero_is_plain_least_squares(self):
        lib, _ = synthetic_library(n=300, m=6, k_true=3, noise=1e-3, seed=4)
        model = stlsq(lib, threshold=0.0)
        fit = least_squares(lib.matrix, lib.target)
        assert len(model.terms) == 6
        assert np.allclose(model.coefficients, fit.coefficients)
        assert np.isclose(model.residual, fit.residual)

    def test_all_thresholded_empty_model(self):
        lib, _ = synthetic_library(n=200, m=4, k_true=2, noise=1e-6, seed=0)
        model = stlsq(lib, threshold=1e9)
        assert model.empty
        assert model.residual > 0

    def test_active_set_shrinks_and_converges(self):
        lib, true = synthetic_library(n=1000, m=8, k_true=3, noise=1e-4, seed=9)
        model = stlsq(lib, threshold=0.5)
        support = {lib.terms[j] for j in np.flatnonzero(true) if abs(true[j]) >= 0.5}
        assert set(model.terms) == support

    def test_negative_threshold_rejected(self):
        lib, _ = synthetic_library()
        with pytest.raises(DatasetError):
            stlsq(lib, threshold=-1.0)


class TestTrainStridge:
    def test_recovers_clean_toy_system(self):
        lib, true = synthetic_library(n=2000, m=8, k_true=3, noise=1e-8, seed=12)
        model = train_stridge(lib, lam=1e-7, seed=0)
        support = {lib.terms[j] for j in np.flatnonzero(true)}
        assert set(model.terms) == support
        coef = dict(zip(model.terms, model.coefficients))
        for j in np.flatnonzero(true):
            assert abs(coef[lib.terms[j]] - true[j]) < 1e-5

    def test_deterministic_given_seed(self):
        lib, _ = synthetic_library(n=800, m=7, k_true=3, noise=1e-3, seed=2)
        a = train_stridge(lib, seed=5)
        b = train_stridge(lib, seed=5)
        assert a.terms == b.terms
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_split_validation(self):
        lib, _ = synthetic_library()
        with pytest.raises(DatasetError):
            train_stridge(lib, split=1.5)

    def test_peak_memory_below_one_and_a_half_libraries(self):
        # the training rows are gathered straight into the QR buffer (0.8 N x
        # (M + 1)), so no copy of the training split sits beside it; the
        # held-out rows add 0.2 N x M
        lib, _ = synthetic_library(n=200_000, m=10, k_true=3, noise=1e-4, seed=6)
        tracemalloc.start()
        try:
            train_stridge(lib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * lib.matrix.nbytes


class TestParameterChecks:
    def test_max_iter_below_one_rejected(self):
        lib, _ = synthetic_library()
        with pytest.raises(DatasetError, match="max_iter"):
            stlsq(lib, threshold=0.1, max_iter=0)

    @pytest.mark.parametrize("params, name", [({"lam": -1.0}, "lam"),
                                              ({"search_iters": 0}, "search_iters")])
    def test_stridge_values_rejected_before_factorizing(self, monkeypatch, params, name):
        def no_compress(*args):
            raise AssertionError("factorized before the parameters were checked")
        monkeypatch.setattr(baselines, "compress", no_compress)
        lib, _ = synthetic_library()
        with pytest.raises(DatasetError, match=name):
            train_stridge(lib, **params)


def wide_scale_library():
    """A synthetic library whose column norms span 6 decades."""
    lib, _ = synthetic_library(n=2000, m=8, k_true=8, noise=1e-3, seed=21)
    return replace(lib, matrix=lib.matrix * np.logspace(-3, 3, 8))


def tall_ridge(x, y, lam):
    """Reference ridge: one tall LS solve on [x; sqrt(lam) I]."""
    k = x.shape[1]
    return np.linalg.lstsq(np.vstack([x, np.sqrt(lam) * np.eye(k)]),
                           np.concatenate([y, np.zeros(k)]), rcond=None)[0]


def assert_refit_of_its_support(lib, model):
    """The model's coefficients and residual are the tall least-squares fit
    of its own terms, up to round-off (the residual's relative to the
    target's mean square, as a near-exact fit leaves only round-off)."""
    cols = [lib.terms.index(t) for t in model.terms]
    fit = least_squares(lib.matrix[:, cols], lib.target)
    assert np.allclose(model.coefficients, fit.coefficients, rtol=1e-10, atol=0)
    y = lib.target
    assert abs(model.residual - fit.residual) <= 1e-12 * (y @ y) / y.size


class TestSingleLeastSquaresPath:
    @pytest.fixture()
    def counts(self, monkeypatch):
        """Calls of the tall solvers, and the row count of every _svd_solve."""
        calls = {"least_squares": 0, "lstsq": 0, "svd_solve_rows": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        solve = baselines._svd_solve

        def svd_solve(phi, y):
            calls["svd_solve_rows"].append(phi.shape[0])
            return solve(phi, y)
        monkeypatch.setattr(baselines, "least_squares",
                            counted("least_squares", baselines.least_squares))
        monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(baselines, "_svd_solve", svd_solve)
        return calls

    def test_stlsq_refits_once_and_never_calls_lstsq(self, counts):
        lib, _ = synthetic_library(n=1000, m=8, k_true=3, noise=1e-4, seed=9)
        model = stlsq(lib, threshold=0.5)
        assert 0 < len(model.terms) < lib.n_terms
        assert (counts["least_squares"], counts["lstsq"]) == (0, 0)
        assert max(counts["svd_solve_rows"]) == lib.n_terms
        assert_refit_of_its_support(lib, model)

    def test_train_stridge_refits_once_and_never_calls_lstsq(self, counts):
        lib, _ = synthetic_library(n=2000, m=8, k_true=3, noise=1e-8, seed=12)
        model = train_stridge(lib, lam=1e-7, seed=0)
        assert 0 < len(model.terms) < lib.n_terms
        assert (counts["least_squares"], counts["lstsq"]) == (0, 0)
        # the ridge solves stack sqrt(lam) I under R
        assert max(counts["svd_solve_rows"]) == 2 * lib.n_terms
        assert_refit_of_its_support(lib, model)

    @pytest.mark.parametrize("lam", [0.0, 1e-5, 1e-2])
    def test_compressed_ridge_matches_tall_ridge(self, lam):
        lib = wide_scale_library()
        norms = np.linalg.norm(lib.matrix, axis=0)
        assert norms.max() / norms.min() > 1e6
        r, qty, _ = compress(lib.matrix, lib.target)
        for cols in (np.arange(lib.n_terms), np.array([0, 2, 5, 7])):
            ref = tall_ridge(lib.matrix[:, cols], lib.target, lam)
            w = _ridge(r[:, cols], qty, lam)
            assert (np.abs(w - ref) <= 1e-10 * np.abs(ref)).all()

    def test_condition_number_read_from_r(self):
        lib = wide_scale_library()
        r, _, _ = compress(lib.matrix, lib.target)
        cond = np.linalg.cond(lib.matrix)
        assert cond > 1e6
        assert abs(np.linalg.cond(r) - cond) <= 1e-8 * cond

    def test_nothing_above_tolerance_returns_zeros(self):
        lib, _ = synthetic_library(n=500, m=6, k_true=3, noise=1e-3, seed=5)
        r, qty, _ = compress(lib.matrix, lib.target)
        for iters in (0, 3):
            assert not _stridge(r, qty, 1e-5, iters, 1e9).any()


class TestOneCompressionPerLibrary:
    def test_discover_then_three_stlsq_fits_factor_the_library_once(self, monkeypatch):
        lib, _ = synthetic_library(n=3000, m=8, k_true=3, noise=1e-4, seed=4)
        tall = []
        qr = scipy.linalg.qr

        def counted(a, *args, **kwargs):
            if np.shape(a)[0] == lib.n_samples:
                tall.append(np.shape(a))
            return qr(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "qr", counted)
        discover(lib)
        for threshold in (1e-1, 1e-2, 1e-3):
            stlsq(lib, threshold)
        assert tall == [(lib.n_samples, lib.n_terms + 1)]

    def test_train_stridge_factors_no_n_row_matrix(self, monkeypatch):
        # the final refit stacks the training split's factor of [phi | y] on
        # the held-out rows, and leaves the library's own compression untaken
        lib, _ = synthetic_library(n=3000, m=8, k_true=3, noise=1e-4, seed=4)
        rows = []
        qr = scipy.linalg.qr

        def counted(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return qr(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "qr", counted)
        model = train_stridge(lib, seed=0)
        n_train = round(0.8 * lib.n_samples)
        assert rows == [n_train, lib.n_samples - n_train + lib.n_terms + 1]
        assert "compressed" not in vars(lib)
        assert_refit_of_its_support(lib, model)
