import numpy as np
import pytest

from bgsindy import Axis, Dataset, DatasetError
from bgsindy.differentiation import (axis_spectrum, bump_filter, bump_kernel,
                                     central_weights, corner_half_width, fd_diff,
                                     fornberg_weights, sg_smooth, spectral_diff,
                                     spectral_diff_at, time_derivative)


def dataset_1d(values, dx=0.1, dt=0.1, boundary="dirichlet-homogeneous"):
    return Dataset((Axis(0.0, dx, values.shape[0]),),
                   Axis(0.0, dt, values.shape[1]),
                   {"u": values}, {"u": boundary})


class TestFornberg:
    def test_classic_central_second_derivative(self):
        w = fornberg_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2)
        assert np.allclose(w, [1.0, -2.0, 1.0])

    def test_fourth_order_first_derivative(self):
        w = fornberg_weights(0.0, np.arange(-2.0, 3.0), 1)
        assert np.allclose(w, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12])


def central_half_width(order, accuracy):
    """Half-width of the central stencil of the given order and accuracy."""
    return (order + 1) // 2 + accuracy // 2 - 1


class TestCentralWeights:
    DX = 0.037

    @pytest.mark.parametrize("accuracy", [2, 4, 6, 8])
    def test_single_order_column_is_scaled_fornberg(self, accuracy):
        for q in range(1, 11):
            h = central_half_width(q, accuracy)
            expect = fornberg_weights(0.0, np.arange(-h, h + 1, dtype=float), q) / self.DX**q
            table = central_weights([q], self.DX, accuracy)
            assert table.shape == (2 * h + 1, 1)
            assert np.array_equal(table[:, 0], expect)

    @pytest.mark.parametrize("accuracy", [2, 4, 6, 8])
    def test_multi_order_table_zero_outside_each_stencil(self, accuracy):
        orders = [3, 1, 4, 2]
        table = central_weights(orders, self.DX, accuracy)
        width = max(central_half_width(q, accuracy) for q in orders)
        assert table.shape == (2 * width + 1, len(orders))
        for i, q in enumerate(orders):
            h = central_half_width(q, accuracy)
            inside = slice(width - h, width + h + 1)
            assert np.array_equal(table[inside, i],
                                  central_weights([q], self.DX, accuracy)[:, 0])
            assert not table[:width - h, i].any() and not table[width + h + 1:, i].any()

    def test_no_orders_empty_table(self):
        assert central_weights([], self.DX).shape == (1, 0)


class TestFdDerivative:
    def test_constant_field_zero(self):
        d = fd_diff(np.full((32, 8), 3.7), 0, 0.1, 1)
        assert np.abs(d).max() < 1e-12

    def test_cubic_exact_second_derivative(self):
        # polynomial exactness: accuracy-4 stencils reproduce x^3 second
        # derivative 6x to round-off, including the one-sided boundary rows
        x = np.linspace(0.0, 1.0, 40)
        u = np.tile((x ** 3)[:, None], (1, 6))
        d = fd_diff(u, 0, x[1] - x[0], 2, accuracy=4)
        assert np.abs(d - 6 * x[:, None]).max() < 1e-10

    def test_sin_first_derivative_accuracy(self):
        n = 256
        dx = 2 * np.pi / n
        x = dx * np.arange(n)
        d = fd_diff(np.tile(np.sin(x)[:, None], (1, 4)), 0, dx, 1, accuracy=4)
        assert np.abs(d[2:-2, 0] - np.cos(x[2:-2])).max() < 1e-6

    def test_axis_too_short(self):
        with pytest.raises(DatasetError, match="too short"):
            fd_diff(np.zeros((5, 4)), 0, 0.1, 3, accuracy=4)

    def test_unsupported_accuracy(self):
        with pytest.raises(DatasetError):
            fd_diff(np.zeros((32, 4)), 0, 0.1, 1, accuracy=10)

    def test_linearity(self, rng):
        f = rng.standard_normal((48, 5))
        g = rng.standard_normal((48, 5))
        a, b = 2.3, -0.7
        d1 = fd_diff(a * f + b * g, 0, 0.1, 2, 4)
        d2 = a * fd_diff(f, 0, 0.1, 2, 4) + b * fd_diff(g, 0, 0.1, 2, 4)
        assert np.allclose(d1, d2, atol=1e-10)

    @pytest.mark.parametrize("accuracy", [2, 4, 6, 8])
    def test_periodic_matches_roll_reference(self, rng, accuracy):
        # the interior, h points from either end, holds the central stencil
        f = rng.standard_normal((24, 17))
        dx = 0.21
        for axis in (0, 1):
            for q in range(1, 5):
                h = central_half_width(q, accuracy)
                w = fornberg_weights(0.0, np.arange(-h, h + 1, dtype=float), q) / dx**q
                expect = sum(c * np.roll(f, -s, axis=axis) for s, c in zip(range(-h, h + 1), w))
                inner = np.arange(h, f.shape[axis] - h)
                got = fd_diff(f, axis, dx, q, accuracy).take(inner, axis)
                expect = expect.take(inner, axis)
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


class TestSpectralDerivative:
    def test_eigenfunction_exact(self):
        n = 64
        length = 2 * np.pi
        x = length * np.arange(n) / n
        for f, df in ((np.cos(3 * x), -3 * np.sin(3 * x)),
                      (np.sin(3 * x), 3 * np.cos(3 * x))):
            d = spectral_diff(np.tile(f[:, None], (1, 4)), 0, length / n, 1)
            assert np.abs(d[:, 0] - df).max() < 1e-12

    def test_cos_x16_fourth_derivative(self):
        # matches the hyperviscous Burgers initial condition layout
        n = 512
        length = 32 * np.pi
        x = length * np.arange(n) / n
        d = spectral_diff(np.tile(np.cos(x / 16)[:, None], (1, 4)), 0, length / n, 4)
        expect = (1 / 16) ** 4 * np.cos(x / 16)
        # round-off floor scales with the unit-amplitude input, not the output
        assert np.abs(d[:, 0] - expect).max() < 1e-10

    def test_order_zero_rejected(self):
        with pytest.raises(DatasetError):
            spectral_diff(np.zeros((32, 4)), 0, 0.1, 0)

    def test_agrees_with_fd_on_smooth_field(self):
        n = 128
        length = 2 * np.pi
        x = length * np.arange(n) / n
        u = np.tile(np.sin(2 * x)[:, None], (1, 4))
        sp = spectral_diff(u, 0, length / n, 1)
        fd = fd_diff(u, 0, length / n, 1, 4)
        assert np.abs(sp - fd)[2:-2].max() < 10 * (length / n) ** 4


class TestSpectralDerivativeAtPoints:
    """Fourier sums at chosen points against `spectral_diff` on the whole
    grid, then sampled."""

    @staticmethod
    def field(rng, n, nt):
        # every mode present, the Nyquist mode of even n included, with an
        # amplitude that keeps the high orders' columns Nyquist-dominated
        modes = np.arange(n // 2 + 1)
        amps = np.exp(-0.2 * modes) * (rng.standard_normal((nt, modes.size))
                                       + 1j * rng.standard_normal((nt, modes.size)))
        return np.fft.irfft(amps, n, axis=-1).T          # (n, nt)

    @pytest.mark.parametrize("n", [64, 63])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_orders_1_to_10_match_transform_then_sample(self, rng, n, axis):
        u = self.field(rng, n, 40)
        if axis == 1:
            u = np.ascontiguousarray(u.T)                 # the periodic axis second
        dx = 22.0 / n
        idx = rng.choice(u.size, 1500, replace=False)
        points = np.unravel_index(idx, u.shape)
        orders = list(range(1, 11))
        spectrum = axis_spectrum(u, axis)
        # imaginary parts in the mean and last modes, which the inverse real
        # transform drops for the mean and an even n's Nyquist mode
        spectrum[..., [0, -1]] += 1j * rng.standard_normal(spectrum.shape[:-1] + (2,))
        got = spectral_diff_at(spectrum, axis, n, dx, orders, points)
        assert got.shape == (10, idx.size)
        for row, q in zip(got, orders):
            ref = spectral_diff(u, axis, dx, q, spectrum).ravel()[idx]
            assert np.abs(row - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_orders_out_of_range_rejected(self):
        spectrum = axis_spectrum(np.zeros((8, 4)), 0)
        points = (np.array([0]), np.array([0]))
        for q in (0, 11):
            with pytest.raises(DatasetError):
                spectral_diff_at(spectrum, 0, 8, 0.1, [1, q], points)


class TestTimeDerivative:
    def test_quadratic_exact(self):
        dt = 0.1
        t = dt * np.arange(30)
        u = np.tile((t ** 2)[None, :], (8, 1))
        ds = dataset_1d(u, dt=dt)
        d = time_derivative(ds, "u")
        assert np.abs(d - 2 * t[None, :]).max() < 1e-10

    def test_constant_zero(self):
        ds = dataset_1d(np.full((8, 10), 2.5))
        assert np.abs(time_derivative(ds, "u")).max() < 1e-12

    def test_too_few_slices(self):
        with pytest.raises(DatasetError):
            Dataset((Axis(0, 0.1, 8),), Axis(0, 0.1, 3),
                    {"u": np.zeros((8, 3))}, {"u": "periodic"})

    @pytest.mark.parametrize("accuracy", [2, 4])
    @pytest.mark.parametrize("space", [(24,), (12, 10)])
    def test_at_samples_equals_full_grid_bit_for_bit(self, rng, space, accuracy):
        # values over six decades, so that summing the taps in another order
        # (a BLAS product, einsum) moves the last bits
        m = 40
        fields = {f: rng.standard_normal(space + (m,)) * 10.0 ** rng.uniform(-3, 3, space + (m,))
                  for f in "uv"[:len(space)]}
        ds = Dataset(tuple(Axis(0.0, 0.1, n) for n in space), Axis(0.0, 0.013, m),
                     fields, {f: "periodic" for f in fields})
        grid = np.arange(ds.total_points).reshape(ds.shape)
        lines = grid.reshape(-1, m)[rng.choice(grid.size // m, 5, replace=False)]
        indices = np.concatenate([lines[:, [0, 1, m - 2, m - 1]].ravel(),
                                  rng.choice(ds.total_points, ds.total_points // 3,
                                             replace=False)])
        for f in fields:
            full = time_derivative(ds, f, accuracy)
            assert np.array_equal(time_derivative(ds, f, accuracy, indices),
                                  full.ravel()[indices])
            everywhere = rng.permutation(ds.total_points)
            assert np.array_equal(time_derivative(ds, f, accuracy, everywhere),
                                  full.ravel()[everywhere])


class TestSmoothing:
    def test_polynomial_reproduction(self):
        x = np.linspace(0, 1, 50)
        u = np.tile((2 + x - 3 * x ** 2 + 0.5 * x ** 3)[:, None], (1, 20))
        sm = sg_smooth(sg_smooth(u, 0, 11, 3), 1, 11, 3)
        assert np.abs(sm - u).max() < 1e-10

    def test_white_noise_reduction(self, rng):
        sigma = 0.8
        noise = sigma * rng.standard_normal((4000,))
        sm = sg_smooth(noise, 0, 11, 3)
        assert sm.std() < 0.7 * sigma

    def test_window_one_identity(self, rng):
        u = rng.standard_normal((16, 8))
        for ax in (0, 1):
            assert np.array_equal(sg_smooth(u, ax, 1, 0), u)

    def test_window_exceeds_axis(self):
        with pytest.raises(DatasetError, match="exceeds"):
            sg_smooth(np.zeros((8, 6)), 0, 9, 2)

    def test_degree_must_be_less_than_window(self):
        with pytest.raises(DatasetError):
            sg_smooth(np.zeros(20), 0, 5, 5)


def direct_bump_filter(values, half_widths, degree, periodic):
    """Reference: the separable bump summed point by point over its support."""
    for ax, (m, wrap) in enumerate(zip(half_widths, periodic)):
        if wrap:
            values = np.concatenate([values.take(range(-m, 0), ax), values,
                                     values.take(range(m), ax)], axis=ax)
    kx, kt = (bump_kernel(m, degree) for m in half_widths)
    out = np.zeros([n - 2 * m for n, m in zip(values.shape, half_widths)])
    for i, wx in enumerate(kx):
        for j, wt in enumerate(kt):
            out += wx * wt * values[i:i + out.shape[0], j:j + out.shape[1]]
    return out


class TestBumpFilter:
    def test_kernel_normalized_symmetric_compact(self):
        k = bump_kernel(7, 4)
        assert k.size == 15
        assert abs(k.sum() - 1.0) < 1e-15
        assert np.array_equal(k, k[::-1])
        assert k[0] == 0.0 and k[-1] == 0.0 and (k[1:-1] > 0).all()

    @pytest.mark.parametrize("half_widths", [(3, 5), (4, 40), (30, 2)])
    @pytest.mark.parametrize("periodic", [(False, False), (True, False)])
    def test_matches_direct_sum(self, rng, half_widths, periodic):
        # short stencils are summed directly, long ones through the FFT
        values = rng.standard_normal((70, 90))
        out = bump_filter(values, half_widths, 4, periodic)
        ref = direct_bump_filter(values, half_widths, 4, periodic)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() < 1e-13

    def test_constant_preserved(self):
        out = bump_filter(np.full((40, 60), 2.5), (5, 25), 4, (False, False))
        assert out.shape == (30, 10)
        assert np.abs(out - 2.5).max() < 1e-13

    def test_half_width_must_fit(self):
        with pytest.raises(DatasetError):
            bump_filter(np.zeros((10, 10)), (5, 1), 4, (False, False))


class TestCornerHalfWidth:
    @staticmethod
    def band_limited(rng, n=512, top_mode=20, noise=0.01):
        # cosine modes: the slope vanishes at both ends, so a ramp is the
        # only thing that keeps the data from being periodic
        x = 2 * np.pi * np.arange(n) / n
        u = sum(np.cos(k * x)[:, None] * rng.uniform(0.5, 1.0, 64)
                for k in range(1, top_mode + 1))
        return u + noise * rng.standard_normal(u.shape)

    def test_corner_at_top_signal_mode(self, rng):
        # modes 1..20 over white noise: the corner is mode 20, and the rule
        # puts the bump's spectral standard deviation there
        u = self.band_limited(rng)
        k_star = 2 * np.pi * 20 / 512
        assert corner_half_width(u, 0, 4, periodic=True) == int(np.ceil(np.sqrt(11) / k_star))

    def test_endpoint_ramp_removed_on_non_periodic_axis(self, rng):
        u = self.band_limited(rng)
        ramp = 5.0 * np.linspace(0.0, 1.0, 512)[:, None] * rng.uniform(0.5, 1.0, 64)
        clean = corner_half_width(u, 0, 4, periodic=True)
        # left in, the jump between the ends leaks power over the whole
        # spectrum and the corner moves far up it
        assert corner_half_width(u + ramp, 0, 4, periodic=True) <= clean // 2
        assert abs(corner_half_width(u + ramp, 0, 4, periodic=False) - clean) <= 0.2 * clean
