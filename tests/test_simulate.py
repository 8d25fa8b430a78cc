import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import bgsindy
from bgsindy import (Axis, Dataset, DatasetError, DiscoveredModel, SolverInstability,
                     TermDescriptor, integrate_model, relative_l2, simulate)
from bgsindy.benchmarks import discovery_recipe
from bgsindy.differentiation import central_weights, fornberg_weights
from bgsindy.simulate import (BLOWUP_LIMIT, Etdrk4, default_config, generate_benchmark,
                              reference_model, _dense_dft, _dense_grid, _dense_rhs, _fd_rhs,
                              _fd_stability_step, _integrate, _spectral_grid,
                              _spectral_term_rhs)


def digests_at_blas_threads(script):
    """The output of `script`, run after the imports of hashlib, replace,
    default_config and generate_benchmark, at 1 and at 2 BLAS threads."""
    script = ("import hashlib; from dataclasses import replace; "
              "from bgsindy.simulate import default_config, generate_benchmark\n" + script)
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                              cwd=Path(bgsindy.__file__).resolve().parents[1])
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    return digests


def test_rk4_and_2d_data_independent_of_blas_threads():
    # the RK4 plan's coefficient and stencil products run on BLAS, and its
    # thread count must move no bit of the KdV or the coupled 2D data
    digests = digests_at_blas_threads(
        "d = generate_benchmark('kdv', replace(default_config('kdv'), t_final=0.1))\n"
        "print(hashlib.sha256(d.fields['u'].tobytes()).hexdigest())\n"
        "c = replace(default_config('rd2d'), counts=(64, 64), t_final=1.0)\n"
        "d = generate_benchmark('rd2d', c)\n"
        "print(hashlib.sha256(d.fields['u'].tobytes() + d.fields['v'].tobytes()).hexdigest())")
    assert digests[0] == digests[1]


class TestKdv:
    def test_initial_slice_is_ic(self, kdv_dataset):
        x = kdv_dataset.space_axes[0].points()
        expect = 0.9 / np.cosh(12.45 * (x - 0.5)) ** 2 + 0.3 / np.cosh(7.1875 * (x - 0.85)) ** 2
        assert np.array_equal(kdv_dataset.fields["u"][:, 0], expect)

    def test_mass_conservation(self, kdv_dataset):
        # conservation oracle: the integral of u is invariant for decaying
        # far fields; grid radiation reaches the walls by t ~ 0.3, so the
        # clean window closes earlier than the full pre-interaction estimate
        u = kdv_dataset.fields["u"]
        dx = kdv_dataset.space_axes[0].spacing
        mass = np.trapezoid(u, dx=dx, axis=0)
        m0 = mass[0]
        i025 = int(round(0.25 / kdv_dataset.time_axis.spacing))
        i05 = int(round(0.5 / kdv_dataset.time_axis.spacing))
        assert abs(mass[i025] - m0) / abs(m0) < 1e-3
        assert abs(mass[i05] - m0) / abs(m0) < 2e-3

    def test_dt_halving_small_change(self, kdv_dataset):
        c = default_config("kdv")
        fine = generate_benchmark("kdv", replace(c, dt=c.dt / 2,
                                                 output_stride=c.output_stride * 2))
        a = kdv_dataset.fields["u"][:, -1]
        b = fine.fields["u"][:, -1]
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-5

    def test_fourth_order_convergence(self):
        # order check in the small-step regime where truncation dominates
        c = default_config("kdv")
        finals = {}
        for dt, stride in ((1e-4, 10), (5e-5, 20), (2.5e-5, 40)):
            cfg = replace(c, dt=dt, output_stride=stride, t_final=0.25)
            finals[dt] = generate_benchmark("kdv", cfg).fields["u"][:, -1]
        e1 = np.linalg.norm(finals[1e-4] - finals[5e-5])
        e2 = np.linalg.norm(finals[5e-5] - finals[2.5e-5])
        assert e1 / e2 >= 8.0

    def test_blowup_aborts(self):
        c = replace(default_config("kdv"), dt=0.01, output_stride=1, t_final=1.0)
        with pytest.raises(SolverInstability):
            generate_benchmark("kdv", c)

    def test_generation_byte_identical(self):
        c = replace(default_config("kdv"), t_final=0.05)
        a, b = generate_benchmark("kdv", c), generate_benchmark("kdv", c)
        assert a.fields["u"].tobytes() == b.fields["u"].tobytes()

    def test_data_byte_identical_to_stored_digest(self):
        # the pieces' coefficient product is exact on the reference model
        # (one monomial per piece), so the data keep the bytes of the
        # per-term sums (numpy 2.4, x86-64)
        d = generate_benchmark("kdv", replace(default_config("kdv"), t_final=0.1))
        digest = hashlib.sha256(d.fields["u"].tobytes()).hexdigest()
        assert digest == "d7e6cbf90c33517fbd6ec0561a49d23739d9b30a6f71e1567825eaaba9e1b56b"


def ghost_matrix(n, dx, order, accuracy=4):
    """Central-difference matrix with odd-reflection ghosts about both walls:
    the dense reference for the Dirichlet integrator's stencils."""
    half = (order + 1) // 2 + (accuracy + 1) // 2 - 1
    w = fornberg_weights(0.0, np.arange(-half, half + 1, dtype=float), order) / dx**order
    d = np.zeros((n, n))
    for i in range(n):
        for s, c in zip(range(-half, half + 1), w):
            j = i + s
            if j < 0:
                d[i, -j] -= c
            elif j >= n:
                d[i, 2 * (n - 1) - j] -= c
            else:
                d[i, j] += c
    return d


class TestDirichletStencils:
    N = 260
    DX = 2.0 / 259      # the KdV benchmark's grid

    @pytest.mark.parametrize("n", [4, 5, 8, 260])
    def test_rhs_matches_ghost_matrix_oracle(self, rng, n):
        u = rng.standard_normal(n)
        derivs = [TermDescriptor((), ("u", (q,))) for q in (1, 2, 3, 4)]
        expects = []
        for q, term in enumerate(derivs, start=1):
            expect = ghost_matrix(n, self.DX, q) @ u
            expect[[0, -1]] = 0.0
            got = _fd_rhs(DiscoveredModel((term,), np.array([1.0]), "u", 0.0), n, self.DX)(u)
            # every row, the wall rows zeroed
            assert_close_to_scale(got, expect, rtol=1e-14)
            expects.append(expect)
        # all four orders in one product, each term reading its own order's row
        coefs = np.array([1.0, -0.3, 2e-3, -1e-5])
        got = _fd_rhs(DiscoveredModel(tuple(derivs), coefs, "u", 0.0), n, self.DX)(u)
        assert_close_to_scale(got, sum(c * e for c, e in zip(coefs, expects)), rtol=1e-14)

    def test_shared_first_derivative_matches_dense_rhs(self, rng):
        # u u_x and u^2 u_x share u_x; u_xxx brings a second order
        terms = (TermDescriptor((("u", 1),), ("u", (1,))),
                 TermDescriptor((("u", 2),), ("u", (1,))),
                 TermDescriptor((), ("u", (3,))))
        coefs = np.array([-1.0, 0.3, -4.84e-4])
        model = DiscoveredModel(terms, coefs, "u", 0.0)
        x = self.DX * np.arange(self.N)
        u = np.sin(np.pi * x / 2.0) * (1.0 + 0.1 * rng.standard_normal(self.N))
        d1 = ghost_matrix(self.N, self.DX, 1) @ u
        d3 = ghost_matrix(self.N, self.DX, 3) @ u
        expect = coefs[0] * u * d1 + coefs[1] * u**2 * d1 + coefs[2] * d3
        expect[[0, -1]] = 0.0
        got = _fd_rhs(model, self.N, self.DX)(u)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert_close_to_scale(got, expect)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("c", [0.7, -4.84e-4])
    def test_stability_step_from_integrator_stencil(self, q, c):
        model = DiscoveredModel((TermDescriptor((), ("u", (q,))),), np.array([c]), "u", 0.0)
        step = _fd_stability_step(model, self.DX)
        w = central_weights([q], self.DX)[:, 0]
        assert step == pytest.approx(2.5 / (abs(c) * np.abs(w).sum()), rel=1e-14)
        # |c| times the largest modulus of the stencil's symbol bounds the
        # eigenvalues of the semi-discrete operator
        theta = np.linspace(0.0, np.pi, 2001)
        offsets = np.arange(w.size) - w.size // 2
        symbol = np.exp(1j * np.outer(theta, offsets)) @ w
        assert step * abs(c) * np.abs(symbol).max() <= 2.5


class TestBurgersHyper:
    def test_initial_slice_is_ic(self, burgers_dataset):
        x = burgers_dataset.space_axes[0].points()
        assert np.array_equal(burgers_dataset.fields["u"][:, 0], np.cos(x / 16))

    def test_linear_decay_exact(self):
        # with the nonlinear term absent ETDRK4 propagates e^{L t} exactly
        n = 128
        length = 2 * np.pi
        k = 2 * np.pi * np.fft.rfftfreq(n, d=length / n)
        lin = -0.5 * k ** 2
        stepper = Etdrk4(lin, dt=0.1)
        x = length * np.arange(n) / n
        v = np.fft.rfft(np.cos(3 * x))
        for _ in range(50):
            v = stepper.step(v, lambda w: np.zeros_like(w))
        u = np.fft.irfft(v, n=n)
        expect = np.exp(-0.5 * 9 * 5.0) * np.cos(3 * x)
        assert np.abs(u - expect).max() < 1e-12

    def test_step_bit_equal_to_closed_form_stages(self, rng):
        # the in-place stage algebra against the closed-form stage
        # expressions with real coefficients, on random complex spectra
        n = 65
        lin = -rng.uniform(0.0, 50.0, n) + rng.uniform(0.0, 1.0, n)
        stepper = Etdrk4(lin, dt=0.01)
        e_full, e_half, q, f1, f2_twice, f3 = (
            getattr(stepper, a).real
            for a in ("e_full", "e_half", "q", "f1", "f2_twice", "f3"))
        mix = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def nonlin(w):
            return mix * w * np.conj(w[::-1]) - 0.3j * w

        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            nv = nonlin(v)
            a = e_half * v + q * nv
            na = nonlin(a)
            b = e_half * v + q * na
            nb = nonlin(b)
            c = e_half * a + q * (2 * nb - nv)
            nc = nonlin(c)
            expect = e_full * v + nv * f1 + (na + nb) * f2_twice + nc * f3
            got = stepper.step(v, nonlin)
            assert np.array_equal(got, expect)

    def test_bounded_run(self, burgers_dataset):
        # bound derived from a double-resolution reference run whose energy
        # history matches the default grid to round-off
        assert np.abs(burgers_dataset.fields["u"]).max() < 10.0
        assert np.abs(burgers_dataset.fields["u"]).max() <= 1.0 + 1e-9

    def test_data_byte_identical_to_stored_digest(self, burgers_dataset):
        # the flux is the one piece c * evaluate(u^2) and the 4048-point
        # grid transforms by FFT, so the data keep the bytes they had before
        # the term grouping and the dense transforms (numpy 2.4, x86-64)
        digest = hashlib.sha256(burgers_dataset.fields["u"].tobytes()).hexdigest()
        assert digest == "958d02e94143b3bf4b874c6f770965b5928bde702d46c743098785c93518758c"

    def test_dt_halving_small_change(self, burgers_dataset):
        c = default_config("burgers-hyper")
        fine = generate_benchmark("burgers-hyper", replace(c, dt=0.05, output_stride=2))
        a = burgers_dataset.fields["u"][:, -1]
        b = fine.fields["u"][:, -1]
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-6


class TestModifiedKs:
    def test_initial_slice_is_ic(self, ks_dataset):
        x = ks_dataset.space_axes[0].points()
        two_pi = 2 * np.pi / 22.0
        expect = np.cos(3 * two_pi * x) - 0.5 * np.sin(two_pi * x)
        assert np.array_equal(ks_dataset.fields["u"][:, 0], expect)

    def test_conservative_vs_expanded_identity(self, ks_dataset):
        # d/dx(u^k) evaluated spectrally equals k u^(k-1) u_x within the
        # dealiasing tolerance on attractor data
        u = ks_dataset.fields["u"][:, 25000]
        n = u.size
        k = 2 * np.pi * np.fft.rfftfreq(n, d=22.0 / n)
        ik = 1j * k
        ikn = ik.copy()
        ikn[-1] = 0.0
        ux = np.fft.irfft(ikn * np.fft.rfft(u), n=n)
        for kk in (3, 6):
            a = np.fft.irfft(ik * np.fft.rfft(u ** kk), n=n)
            b = kk * u ** (kk - 1) * ux
            assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-8

    def test_eps_zero_statistics_match_double_resolution(self):
        c = replace(default_config("modified-ks"), epsilon=0.0, t_final=150.0)
        coarse = generate_benchmark("modified-ks", c)
        fine = generate_benchmark("modified-ks", replace(c, counts=(256,)))
        skip = int(30.0 / coarse.time_axis.spacing)
        e_coarse = (coarse.fields["u"] ** 2).mean(axis=0)[skip:].mean()
        e_fine = (fine.fields["u"] ** 2).mean(axis=0)[skip:].mean()
        assert abs(e_coarse - e_fine) / e_fine < 0.05

    def test_data_byte_identical_to_stored_digest(self):
        # the dense plan's arithmetic reads the pieces in the order it read
        # its own grouping (numpy 2.4, x86-64)
        d = generate_benchmark("modified-ks", replace(default_config("modified-ks"), t_final=2.0))
        digest = hashlib.sha256(d.fields["u"].tobytes()).hexdigest()
        assert digest == "5554634421c930cdae1251663780be05d8e93050bc33070f0ee1e1295933ed4f"

    def test_data_independent_of_blas_threads(self):
        # the 128- and 256-point grids transform by matrix products inside the
        # integrator, so BLAS runs there; its thread count must not move a bit
        assert _dense_grid((256,))
        digests = digests_at_blas_threads(
            "c = replace(default_config('modified-ks'), t_final=2.0)\n"
            "for n in (128, 256):\n"
            "    d = generate_benchmark('modified-ks', replace(c, counts=(n,)))\n"
            "    print(hashlib.sha256(d.fields['u'].tobytes()).hexdigest())")
        assert digests[0] == digests[1]

    def test_fourth_order_convergence(self):
        c = default_config("modified-ks")
        finals = {}
        for dt, stride in ((0.004, 1), (0.002, 2), (0.001, 4)):
            finals[dt] = generate_benchmark(
                "modified-ks",
                replace(c, dt=dt, output_stride=stride, t_final=2.0)).fields["u"][:, -1]
        e1 = np.linalg.norm(finals[0.004] - finals[0.002])
        e2 = np.linalg.norm(finals[0.002] - finals[0.001])
        assert e1 / e2 >= 8.0


class TestRd2d:
    def test_zero_ic_stays_zero(self):
        # (0,0) is a fixed point of the reaction and of diffusion
        c = replace(default_config("rd2d"), counts=(32, 32), t_final=0.5)
        zero = rd2d_uniform(c, 0.0, 0.0)
        assert np.abs(zero.fields["u"]).max() < 1e-12
        assert np.abs(zero.fields["v"]).max() < 1e-12

    def test_uniform_ic_matches_reaction_ode(self):
        # diffusion of a uniform state vanishes; compare against a
        # high-accuracy two-variable ODE oracle
        c = replace(default_config("rd2d"), counts=(16, 16), t_final=2.0)
        u0, v0 = 0.3, -0.2
        ds = rd2d_uniform(c, u0, v0)
        sol = solve_ivp(lambda t, z: np.array(rd_reaction(z[0], z[1])),
                        (0, 2.0), [u0, v0], rtol=1e-11, atol=1e-12,
                        t_eval=ds.time_axis.points())
        for j in (10, 25, 40):
            assert abs(ds.fields["u"][3, 5, j] - sol.y[0, j]) < 1e-6
            assert abs(ds.fields["v"][3, 5, j] - sol.y[1, j]) < 1e-6
        assert np.ptp(ds.fields["u"][:, :, -1]) == 0.0

    def test_spiral_amplitude_bounded(self, rd_dataset):
        # bound verified against a tight-tolerance rerun during development
        assert np.abs(rd_dataset.fields["u"]).max() <= 1.05
        assert np.abs(rd_dataset.fields["v"]).max() <= 1.05

    def test_dt_halving_fourth_order_convergence(self):
        c = replace(default_config("rd2d"), counts=(64, 64), t_final=1.0)
        finals = [generate_benchmark("rd2d", replace(c, dt=dt, output_stride=stride))
                  .fields["u"][..., -1]
                  for dt, stride in ((0.05, 1), (0.025, 2), (0.0125, 4))]
        e1 = np.linalg.norm(finals[0] - finals[1])
        e2 = np.linalg.norm(finals[1] - finals[2])
        assert e1 / e2 >= 8.0

    def test_generation_byte_identical(self):
        c = replace(default_config("rd2d"), counts=(32, 32), t_final=1.0)
        a, b = generate_benchmark("rd2d", c), generate_benchmark("rd2d", c)
        for f in ("u", "v"):
            assert a.fields[f].tobytes() == b.fields[f].tobytes()

    def test_stacked_stepper_bit_equal_to_row_wise(self, rng):
        # coupled fields step as one stack under a stacked symbol; a stack of
        # two identical rows, as rd2d's, shares one contour evaluation
        m = 65
        same = -rng.uniform(0.0, 50.0, m)
        for lins in (np.stack([-rng.uniform(0.0, 50.0, m), rng.uniform(-1.0, 1.0, m)]),
                     np.stack([same, same])):
            stacked = Etdrk4(lins, dt=0.01)
            rows = [Etdrk4(lin, dt=0.01) for lin in lins]
            for a in ("e_full", "e_half", "q", "f1", "f2_twice", "f3"):
                assert np.array_equal(getattr(stacked, a),
                                      np.stack([getattr(r, a) for r in rows]))
            mix = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
            v = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
            got = stacked.step(v, lambda w: mix * w * w - 0.3j * w)
            expect = [r.step(v[i], lambda w, i=i: mix[i] * w * w - 0.3j * w)
                      for i, r in enumerate(rows)]
            assert np.array_equal(got, np.stack(expect))


def rd_reaction(u, v):
    return (u + 0.5 * v**3 - u * v**2 + 0.5 * u**2 * v - u**3,
            v - v**3 - 0.5 * u * v**2 - u**2 * v - 0.5 * u**3)


def rd2d_uniform(config, u0, v0):
    """Both rd2d reference models integrated from the uniform fields u0 and v0,
    on the config's grid, output times and step."""
    axes = tuple(Axis(lo, (hi - lo) / n, n) for (lo, hi), n in zip(config.bounds, config.counts))
    time_axis = Axis(0.0, config.output_dt, int(round(config.t_final / config.output_dt)) + 1)
    shape = config.counts + (time_axis.count,)
    initial = Dataset(axes, time_axis, {"u": np.full(shape, u0), "v": np.full(shape, v0)},
                      {"u": "periodic", "v": "periodic"})
    models = [reference_model("rd2d", f, epsilon=config.epsilon) for f in ("u", "v")]
    return integrate_model(models, initial, dt=config.dt)


class TestBenchmarkTable:
    def test_unknown_benchmark_raises(self):
        for accessor in (default_config, reference_model, generate_benchmark,
                         discovery_recipe):
            with pytest.raises(DatasetError, match="unknown benchmark 'kdw'"):
                accessor("kdw")

    def test_unknown_field_raises(self):
        with pytest.raises(DatasetError, match="no field 'w'"):
            reference_model("rd2d", "w")


class TestIntegrateModel:
    def test_kdv_true_model_self_consistency(self, kdv_dataset):
        model = reference_model("kdv")
        pred = integrate_model(model, kdv_dataset,
                               dt=kdv_dataset.metadata["config"]["dt"])
        assert relative_l2(pred, kdv_dataset, "u") < 1e-6

    def test_periodic_true_model_close(self, burgers_dataset):
        # same ETDRK4 scheme; only the nonlinear evaluation layout differs
        model = reference_model("burgers-hyper")
        pred = integrate_model(model, burgers_dataset)
        assert relative_l2(pred, burgers_dataset, "u") < 1e-8

    def test_output_alignment(self, kdv_dataset):
        model = reference_model("kdv")
        pred = integrate_model(model, kdv_dataset,
                               dt=kdv_dataset.metadata["config"]["dt"])
        assert pred.time_axis == kdv_dataset.time_axis
        assert pred.space_axes == kdv_dataset.space_axes

    def test_dirichlet_model_of_any_field_name(self):
        # w_t = -w w_x + 0.1 w_xx on 32 points runs exactly as the same model of u
        axis = Axis(0.0, 1.0 / 31, 32)
        u0 = np.sin(np.pi * axis.points())[:, None] * np.ones(5)
        runs = []
        for f in ("w", "u"):
            model = DiscoveredModel((TermDescriptor(((f, 1),), (f, (1,))),
                                     TermDescriptor((), (f, (2,)))),
                                    np.array([-1.0, 0.1]), f, 0.0)
            initial = Dataset((axis,), Axis(0.0, 0.01, 5), {f: u0},
                              {f: "dirichlet-homogeneous"})
            runs.append(integrate_model(model, initial).fields[f])
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet-homogeneous"])
    @pytest.mark.parametrize("term", [TermDescriptor((("v", 1),)),
                                      TermDescriptor((), ("v", (2,)))], ids=["v", "v_xx"])
    def test_term_of_a_field_no_model_targets_raises(self, boundary, term):
        # a u model reading v, integrated alone: at the parent the periodic
        # path raised a KeyError or ValueError and the Dirichlet path read
        # v_xx as u_xx
        axis = Axis(0.0, 1.0 / 32, 32)
        u0 = np.sin(2 * np.pi * axis.points())[:, None] * np.ones(4)
        initial = Dataset((axis,), Axis(0.0, 0.01, 4), {"u": u0}, {"u": boundary})
        model = DiscoveredModel((TermDescriptor((), ("u", (2,))), term),
                                np.array([1e-3, 1e-3]), "u", 0.0)
        with pytest.raises(DatasetError, match=f"term '{term.name}' reads field 'v'"):
            integrate_model(model, initial)

    def test_blowup_returns_diagnostic(self, burgers_dataset):
        # backward-diffusion model blows up immediately
        bad = DiscoveredModel((TermDescriptor((), ("u", (4,))),),
                              np.array([1.0]), "u", 0.0)
        # the symbol's ETDRK4 coefficients overflow: that overflow is the
        # blow-up at output step 1, not a RuntimeWarning, with or without a
        # given step
        for dt in (None, 0.1):
            with pytest.raises(SolverInstability, match="blow-up at output step 1$"):
                integrate_model(bad, burgers_dataset, dt=dt)

    def test_non_finite_output_raises(self):
        # a NaN or an infinity in an output slice fails the one-pass check
        axis = Axis(0.0, 2 * np.pi / 16, 16)
        time_axis = Axis(0.0, 0.1, 4)
        model = DiscoveredModel((TermDescriptor((), ("u", (2,))),), np.array([0.1]),
                                "u", 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            u0 = np.sin(axis.points())
            u0[3] = bad
            with (pytest.raises(SolverInstability, match="blow-up at output step 1"),
                  np.errstate(invalid="ignore")):
                _integrate([model], {"u": u0}, (axis,), time_axis, {"u": "periodic"}, 0.1)

    def test_blowup_stops_at_the_slice_by_slice_step(self):
        # u_t = +u_xxxx on 16 points: the Nyquist mode grows by e^4.1 per
        # step and would overflow within the run's one output block. The
        # spectral screen flushes the block in time, so the step named is the
        # one a slice-by-slice check finds, and no RuntimeWarning is raised
        n, dt, count = 16, 1e-3, 300
        axis = Axis(0.0, 2 * np.pi / n, n)
        u0 = np.sin(axis.points()) + 1e-3 * np.cos(8 * axis.points())
        model = DiscoveredModel((TermDescriptor((), ("u", (4,))),), np.array([1.0]), "u", 0.0)
        (k,), _ = _spectral_grid((axis,))
        stepper = Etdrk4(k**4, dt)
        v = np.fft.rfft(u0)
        for j in range(1, count):
            v = stepper.step(v, lambda w: np.zeros_like(w))
            if not np.abs(np.fft.irfft(v, n=n)).max() <= BLOWUP_LIMIT:
                break
        assert 1 < j < count - 1
        with pytest.raises(SolverInstability, match=f"blow-up at output step {j}$"):
            _integrate([model], {"u": u0}, (axis,), Axis(0.0, dt, count), {"u": "periodic"},
                       dt)

    def test_blowup_2d_raises(self):
        # u_t = 20 u grows by e^20 over t = 1: past the blow-up limit, far
        # from overflow
        axes = (Axis(0.0, 0.25, 16), Axis(0.0, 0.25, 16))
        x, y = np.meshgrid(axes[0].points(), axes[1].points(), indexing="ij")
        u0 = np.sin(np.pi * x / 2)[..., None] * np.ones(11)
        initial = Dataset(axes, Axis(0.0, 0.1, 11), {"u": u0}, {"u": "periodic"})
        growth = DiscoveredModel((TermDescriptor((("u", 1),)),), np.array([20.0]), "u", 0.0)
        with pytest.raises(SolverInstability, match="blow-up"):
            integrate_model(growth, initial)

    def test_rk4_overflow_within_an_output_interval_raises(self):
        # u_t = +u_xxxx over the Dirichlet stencils at the stability stride
        # overflows before the first output slice; the overflow is the
        # blow-up, not a RuntimeWarning
        data = generate_benchmark("kdv", replace(default_config("kdv"), t_final=0.05))
        bad = DiscoveredModel((TermDescriptor((), ("u", (4,))),), np.array([1.0]), "u", 0.0)
        with pytest.raises(SolverInstability, match="blow-up at output step 1$"):
            integrate_model(bad, data)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["kdv", "burgers-hyper"])
    def test_step_that_is_not_positive_and_finite_raises(self, kdv_dataset, burgers_dataset,
                                                        name, dt):
        data = kdv_dataset if name == "kdv" else burgers_dataset
        with pytest.raises(DatasetError, match="dt must be a positive finite number"):
            integrate_model(reference_model(name), data, dt=dt)


def assert_close_to_scale(got, ref, rtol=1e-13):
    """max |got - ref| within rtol of max |ref|: pointwise relative error is
    meaningless where a sum of terms cancels."""
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def power_formula_rhs(models, ks, mask, shapes, spectra):
    """The spectral right-hand side with `**` powers and the derivative
    multipliers built on every call. A term f^p f_a is differentiated as the
    flux f^(p+1) / (p+1)."""
    ndim = len(shapes)
    irfft = ((lambda g: np.fft.irfft(g, n=shapes[0])) if ndim == 1
             else (lambda g: np.fft.irfft2(g, s=shapes)))
    rfft = np.fft.rfft if ndim == 1 else np.fft.rfft2
    spectra = {m.target_field: v * mask for m, v in zip(models, spectra)}
    fields = {f: irfft(v) for f, v in spectra.items()}
    outs = []
    for m in models:
        acc = np.zeros(shapes)
        flux_spectrum = 0.0
        for t, c in zip(m.terms, m.coefficients):
            if (t.deriv is not None and len(t.powers) == 1
                    and t.powers[0][0] == t.deriv[0] and sum(t.deriv[1]) == 1):
                (f, p), = t.powers
                ik = 1j * ks[t.deriv[1].index(1)]
                flux_spectrum = flux_spectrum + c * ik * rfft(fields[f] ** (p + 1)) / (p + 1)
                continue
            term = np.ones(shapes)
            for f, p in t.powers:
                term = term * fields[f] ** p
            if t.deriv is not None:
                f, orders = t.deriv
                g = spectra[f]
                for k, o in zip(ks, orders):
                    g = g * (1j * k) ** o
                term = term * irfft(g)
            acc = acc + c * term
        outs.append((rfft(acc) + flux_spectrum) * mask)
    return outs


def one_field_rhs(model, ks, mask, n, v):
    """The right-hand side of a 1D model at the spectrum v, by the grid's own
    plan: on a `_dense_grid`, `_dense_rhs` on v's real state."""
    if _dense_grid((n,)):
        return _dense_rhs(model, ks, mask, n)(v.view(float)).view(complex)
    return _spectral_term_rhs([model], ks, mask, (n,))([v])[0]


class TestMultiplyOnlyPowers:
    """Powers by repeated products against the `**` formulas, on random fields."""

    def test_spectral_rhs_1d_powers_to_6_orders_1_to_4(self, rng):
        n = 64      # a dense grid: its right-hand side on the real state
        ks, mask = _spectral_grid((Axis(0.0, 22.0 / n, n),))
        terms = [TermDescriptor((("u", p),), ("u", (o,)))
                 for p in range(7) for o in range(1, 5)]
        model = DiscoveredModel(tuple(terms), rng.standard_normal(len(terms)), "u", 0.0)
        v = np.fft.rfft(rng.uniform(-1.5, 1.5, n))
        got = one_field_rhs(model, ks, mask, n, v)
        ref = power_formula_rhs([model], ks, mask, (n,), [v])
        assert_close_to_scale(got, ref[0])

    def test_spectral_rhs_coupled_rd2d(self, rng):
        nx, ny = 32, 24
        ks, mask = _spectral_grid((Axis(0.0, 3.0 / nx, nx), Axis(0.0, 3.0 / ny, ny)))
        # plus odd-order derivative factors along each axis, and a flux
        extra = {"u": (TermDescriptor((("v", 2),), ("u", (1, 0))),
                       TermDescriptor((("u", 2),), ("u", (0, 1)))),
                 "v": (TermDescriptor((("u", 1),), ("v", (1, 3))),)}
        models = []
        for f in ("u", "v"):
            ref = reference_model("rd2d", f)
            models.append(DiscoveredModel(ref.terms + extra[f],
                                          np.append(ref.coefficients, [0.3] * len(extra[f])),
                                          f, 0.0))
        spectra = [np.fft.rfft2(rng.uniform(-1.0, 1.0, (nx, ny))) for _ in models]
        got = _spectral_term_rhs(models, ks, mask, (nx, ny))(spectra)
        ref = power_formula_rhs(models, ks, mask, (nx, ny), spectra)
        for g, r in zip(got, ref):
            assert_close_to_scale(g, r)


def _flux(f, p, axis=0, ndim=1):
    """f^p f_a."""
    orders = [0] * ndim
    orders[axis] = 1
    return TermDescriptor(((f, p),), (f, tuple(orders)))


class TestLeanSpectralStep:
    """The dense transforms of small 1D grids and the flux pieces against
    numpy's FFT and the `**` formulas."""

    @pytest.mark.parametrize("n", [64, 127, 128])
    def test_dense_pair_matches_numpy_fft(self, rng, n):
        # the plain pair on the kept modes, and the pair with a derivative
        # multiplier folded into each side
        (k,), mask = _spectral_grid((Axis(0.0, 1.0 / n, n),))
        kept = int(mask.sum())
        for mult in (np.ones(k.size), (1j * k) ** 3):
            to_grid, to_modes = _dense_dft(n, kept, [mult], [mult * mask])
            for _ in range(5):
                v = rng.standard_normal(kept) + 1j * rng.standard_normal(kept)
                assert_close_to_scale(v.view(float) @ to_grid,
                                      np.fft.irfft(v * mult[:kept], n=n), 1e-14)
                u = rng.standard_normal(n)
                assert_close_to_scale((u @ to_modes).view(complex),
                                      np.fft.rfft(u) * mult * mask, 1e-14)

    def test_dense_only_on_small_1d_grids(self):
        assert _dense_grid(default_config("modified-ks").counts)
        assert not _dense_grid(default_config("burgers-hyper").counts)
        for counts in ((32, 32), (16, 16), default_config("rd2d").counts):
            assert not _dense_grid(counts)

    @pytest.mark.parametrize("n", [64, 256], ids=["dense", "fft"])
    def test_gapped_flux_polynomial(self, rng, n):
        # u u_x + u^4 u_x: the flux u^2/2 + u^5/5 skips the powers 3 and 4
        ks, mask = _spectral_grid((Axis(0.0, 22.0 / n, n),))
        model = DiscoveredModel((_flux("u", 1), _flux("u", 4), TermDescriptor((), ("u", (3,)))),
                                np.array([-1.0, 0.3, 0.05]), "u", 0.0)
        v = np.fft.rfft(rng.uniform(-1.5, 1.5, n))
        got = one_field_rhs(model, ks, mask, n, v)
        ref = power_formula_rhs([model], ks, mask, (n,), [v])
        assert_close_to_scale(got, ref[0])

    def test_dense_rhs_of_every_term_kind(self, rng):
        # a constant, powers, fluxes, a bare u_x and derivative factors with
        # and without powers; modes above the mask come back zero, and an
        # input that differs only there gives the same state
        n = 64
        ks, mask = _spectral_grid((Axis(0.0, 22.0 / n, n),))
        model = DiscoveredModel(
            (TermDescriptor(()), TermDescriptor((("u", 3),)), _flux("u", 1), _flux("u", 2),
             TermDescriptor((), ("u", (1,))), TermDescriptor((), ("u", (3,))),
             TermDescriptor((("u", 2),), ("u", (3,))), TermDescriptor((("u", 1),), ("u", (2,)))),
            rng.standard_normal(8), "u", 0.0)
        v = np.fft.rfft(rng.uniform(-1.5, 1.5, n))
        rhs = _dense_rhs(model, ks, mask, n)
        got = rhs(v.view(float))
        assert_close_to_scale(got.view(complex), power_formula_rhs([model], ks, mask, (n,), [v])[0])
        assert not got.view(complex)[~mask].any()
        w = v.copy()
        w[~mask] = rng.standard_normal((~mask).sum())
        assert np.array_equal(rhs(w.view(float)), got)
        # a model of linear terms only has no pieces: its right-hand side is 0
        linear = DiscoveredModel((), np.array([]), "u", 0.0)
        assert np.array_equal(_dense_rhs(linear, ks, mask, n)(v.view(float)), np.zeros(2 * v.size))

    def test_dense_steps_match_the_fft_plan(self, monkeypatch):
        # whole steps of a bounded model with fluxes, a non-flux derivative
        # term and local power terms: the dense plan against the FFT plan on
        # the same 64-point grid
        n, dt, count = 64, 0.01, 301
        axis = Axis(0.0, 22.0 / n, n)
        x = axis.points()
        u0 = np.cos(6 * np.pi * x / 22.0) - 0.5 * np.sin(2 * np.pi * x / 22.0)
        model = DiscoveredModel(
            (_flux("u", 1), _flux("u", 4), TermDescriptor((), ("u", (3,))),
             TermDescriptor((), ("u", (2,))), TermDescriptor((), ("u", (4,))),
             TermDescriptor((("u", 3),)), TermDescriptor((("u", 2),), ("u", (2,)))),
            np.array([-1.0, 0.3, 0.05, -1.0, -1.0, -0.1, 0.02]), "u", 0.0)
        runs = []
        for max_points in (simulate.DENSE_DFT_MAX_POINTS, 0):
            monkeypatch.setattr(simulate, "DENSE_DFT_MAX_POINTS", max_points)
            assert _dense_grid((n,)) == (max_points >= n)
            out, _ = _integrate([model], {"u": u0}, (axis,), Axis(0.0, dt, count),
                                {"u": "periodic"}, dt)
            runs.append(out["u"])
        dense, fft = runs
        assert 0.5 < np.abs(fft).max() < 10.0
        assert_close_to_scale(dense, fft, 1e-12)

    def test_coupled_2d_fluxes_of_two_fields(self, rng):
        # the u model's fluxes along x read u and v and are summed before
        # their one transform; u^2 u_y is a flux along y
        nx, ny = 32, 24
        ks, mask = _spectral_grid((Axis(0.0, 3.0 / nx, nx), Axis(0.0, 3.0 / ny, ny)))
        u_model = DiscoveredModel(
            (_flux("u", 1, 0, 2), _flux("v", 1, 0, 2), _flux("u", 3, 0, 2),
             _flux("u", 2, 1, 2), TermDescriptor((("u", 1), ("v", 1)))),
            np.array([-1.0, 0.7, 0.2, -0.4, 0.5]), "u", 0.0)
        models = [u_model, reference_model("rd2d", "v")]
        spectra = [np.fft.rfft2(rng.uniform(-1.0, 1.0, (nx, ny))) for _ in models]
        got = _spectral_term_rhs(models, ks, mask, (nx, ny))(spectra)
        ref = power_formula_rhs(models, ks, mask, (nx, ny), spectra)
        for g, r in zip(got, ref):
            assert_close_to_scale(g, r)


def hand_written_etdrk4(config, u0, lin, flux):
    """A periodic 1D benchmark stepped with its own closure: the spectral
    x-derivative of flux(u), dealiased before and after."""
    n = config.counts[0]
    length = config.bounds[0][1] - config.bounds[0][0]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    mask = np.arange(n // 2 + 1) <= (2 * (n // 2)) // 3
    stepper = Etdrk4(lin(k), config.dt)

    def nonlin(v):
        u = np.fft.irfft(v * mask, n=n)
        return 1j * k * (np.fft.rfft(flux(u)) * mask)

    out = [u0]
    v = np.fft.rfft(u0)
    for _ in range(int(round(config.t_final / config.dt))):
        v = stepper.step(v, nonlin)
        out.append(np.fft.irfft(v, n=n))
    return np.stack(out, axis=-1)


class TestHandWrittenOracles:
    """The generators against the benchmarks' hand-written right-hand sides,
    on short horizons."""

    def test_burgers_hyper(self):
        c = replace(default_config("burgers-hyper"), t_final=2.0)
        ds = generate_benchmark("burgers-hyper", c)
        x = ds.space_axes[0].points()
        ref = hand_written_etdrk4(c, np.cos(x / 16.0),
                                  lambda k: -0.5 * k**2 - c.epsilon * k**4,
                                  lambda u: -0.5 * u**2)
        assert_close_to_scale(ds.fields["u"], ref, 1e-12)

    def test_modified_ks(self):
        c = replace(default_config("modified-ks"), t_final=2.0)
        ds = generate_benchmark("modified-ks", c)
        x = ds.space_axes[0].points()
        eps = c.epsilon
        ref = hand_written_etdrk4(
            c, np.cos(3 * 2 * np.pi / 22.0 * x) - 0.5 * np.sin(2 * np.pi / 22.0 * x),
            lambda k: k**2 - k**4,
            lambda u: -(0.5 * u**2 + eps * (u**3 + u**4 + u**5 + u**6)))
        assert_close_to_scale(ds.fields["u"], ref, 1e-12)

    def test_rd2d(self):
        c = replace(default_config("rd2d"), counts=(32, 32), t_final=2.0)
        ds = generate_benchmark("rd2d", c)
        (nx, ny), eps = c.counts, c.epsilon
        lx, ly = (hi - lo for lo, hi in c.bounds)
        kx = 2 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
        ky = 2 * np.pi * np.fft.rfftfreq(ny, d=ly / ny)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        mask = ((np.abs(kx) <= (2.0 / 3.0) * np.abs(kx).max())[:, None]
                & (ky <= (2.0 / 3.0) * ky.max())[None, :])

        stepper = Etdrk4(-eps * k2, c.dt)

        def nonlin(z):
            u, v = np.fft.irfft2(z * mask, s=(nx, ny))
            return np.stack([np.fft.rfft2(f) * mask for f in rd_reaction(u, v)])

        xx, yy = np.meshgrid(*(a.points() for a in ds.space_axes), indexing="ij")
        r = np.sqrt(xx**2 + yy**2)
        theta = np.angle(xx + 1j * yy)
        u0, v0 = np.tanh(r) * np.cos(2 * theta - r), np.tanh(r) * np.sin(2 * theta - r)
        z = np.stack([np.fft.rfft2(u0), np.fft.rfft2(v0)])
        out = [z]
        for _ in range(ds.time_axis.count - 1):
            for _ in range(c.output_stride):
                z = stepper.step(z, nonlin)
            out.append(z)
        ref = np.stack(out, axis=-1)
        for i, f in enumerate(("u", "v")):
            assert_close_to_scale(ds.fields[f],
                                  np.fft.irfft2(ref[i], s=(nx, ny), axes=(0, 1)), 1e-12)
