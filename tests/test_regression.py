import numpy as np
import pytest

from bgsindy import DatasetError, least_squares
from bgsindy.regression import compress
from tests.test_baselines import wide_scale_library
from tests.test_pruner import synthetic_library


class TestLeastSquares:
    def test_identity_matrix(self, rng):
        y = rng.standard_normal(6)
        fit = least_squares(np.eye(6), y)
        assert np.allclose(fit.coefficients, y)
        assert fit.residual < 1e-28
        assert fit.rank == 6

    def test_column_of_ones_closed_form(self):
        phi = np.ones((2, 1))
        fit = least_squares(phi, np.array([1.0, 3.0]))
        assert np.isclose(fit.coefficients[0], 2.0)
        assert np.isclose(fit.residual, 1.0)

    def test_normal_equations_oracle_100_systems(self):
        # independent oracle: solve (phi^T phi) xi = phi^T y directly
        rng = np.random.default_rng(99)
        for _ in range(100):
            phi = rng.standard_normal((50, 5))
            y = rng.standard_normal(50)
            xi_oracle = np.linalg.solve(phi.T @ phi, phi.T @ y)
            fit = least_squares(phi, y)
            assert np.abs(fit.coefficients - xi_oracle).max() < 1e-8

    def test_rank_deficient_minimum_norm(self):
        phi = np.column_stack([np.ones(8), np.ones(8)])
        fit = least_squares(phi, np.full(8, 2.0))
        # minimum-norm solution splits the coefficient equally
        assert np.allclose(fit.coefficients, [1.0, 1.0])
        assert fit.rank == 1

    def test_errors(self):
        with pytest.raises(DatasetError):
            least_squares(np.ones((3, 0)), np.ones(3))
        with pytest.raises(DatasetError):
            least_squares(np.ones((2, 5)), np.ones(2))
        bad = np.ones((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(DatasetError):
            least_squares(bad, np.ones(4))


class TestCompress:
    @staticmethod
    def assert_misfit_identity(phi, y, xi):
        """||R xi - Q^T y||^2 + rho^2 = ||phi xi - y||^2, to 1e-12 ||y||^2."""
        r, qty, rho = compress(phi, y)
        short = r @ xi - qty
        tall = phi @ xi - y
        assert abs(short @ short + rho * rho - tall @ tall) <= 1e-12 * (y @ y)

    @staticmethod
    def coefficient_sets(phi, y, rng):
        """Random coefficients, each term contributing about ||y||; zero; and
        the least-squares fit."""
        scale = np.linalg.norm(y) / np.linalg.norm(phi, axis=0)
        return (rng.standard_normal(phi.shape[1]) * scale, np.zeros(phi.shape[1]),
                least_squares(phi, y).coefficients)

    @pytest.mark.parametrize("n", [300, 9], ids=["tall", "one-row-past-the-columns"])
    def test_misfit_identity(self, rng, n):
        lib, _ = synthetic_library(n=n, m=8, k_true=3, noise=1e-2, seed=3)
        for xi in self.coefficient_sets(lib.matrix, lib.target, rng):
            self.assert_misfit_identity(lib.matrix, lib.target, xi)

    def test_misfit_identity_on_wide_column_scales(self, rng):
        lib = wide_scale_library()
        for xi in self.coefficient_sets(lib.matrix, lib.target, rng):
            self.assert_misfit_identity(lib.matrix, lib.target, xi)

    def test_rho_is_the_least_squares_misfit(self, rng):
        phi = rng.standard_normal((200, 5))
        y = rng.standard_normal(200)
        _, qty, rho = compress(phi, y)
        fit = least_squares(phi, y)
        assert np.isclose(rho * rho / y.size, fit.residual, rtol=1e-12)
        assert np.isclose(qty @ qty + rho * rho, y @ y, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_rho_zero_without_rows_past_the_columns(self, rng, n):
        phi = rng.standard_normal((n, 6))
        y = rng.standard_normal(n)
        r, qty, rho = compress(phi, y)
        assert rho == 0.0
        assert r.shape == (n, 6) and qty.shape == (n,)
        for xi in (rng.standard_normal(6), np.zeros(6)):
            self.assert_misfit_identity(phi, y, xi)


class TestProperties:
    def test_nested_monotonicity(self, rng):
        # dropping a column from an optimal fit never decreases the residual
        for trial in range(20):
            phi = rng.standard_normal((60, 6))
            y = rng.standard_normal(60)
            full = least_squares(phi, y)
            for j in range(6):
                sub = least_squares(np.delete(phi, j, axis=1), y)
                assert sub.residual >= full.residual - 1e-12

    def test_column_scaling(self, rng):
        phi = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        base = least_squares(phi, y)
        scaled = phi.copy()
        scaled[:, 2] *= 8.0
        fit = least_squares(scaled, y)
        expect = base.coefficients.copy()
        expect[2] /= 8.0
        assert np.allclose(fit.coefficients, expect, rtol=1e-9)
        assert np.isclose(fit.residual, base.residual, rtol=1e-9)
