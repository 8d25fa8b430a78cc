import numpy as np
import pytest

from bgsindy import DatasetError, least_squares, stlsq, train_stridge
from tests.test_pruner import synthetic_library


class TestStlsq:
    def test_two_by_two_thresholding(self):
        lib, _ = synthetic_library(n=2, m=2, k_true=0, seed=0)
        from dataclasses import replace
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
