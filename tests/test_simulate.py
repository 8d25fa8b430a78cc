from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bgsindy import (Axis, Dataset, DiscoveredModel, SolverInstability, TermDescriptor,
                     integrate_model, relative_l2)
from bgsindy.simulate import (Etdrk4, default_config, generate_benchmark,
                              kdv_initial_condition, rd2d_initial_condition,
                              reference_model, solve_burgers_hyper, solve_kdv,
                              solve_modified_ks, solve_rd2d, _spectral_grid,
                              _spectral_term_rhs)


class TestKdv:
    def test_initial_slice_is_ic(self, kdv_dataset):
        x = kdv_dataset.space_axes[0].points()
        assert np.array_equal(kdv_dataset.fields["u"][:, 0], kdv_initial_condition(x))

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
        fine = solve_kdv(replace(c, dt=c.dt / 2, output_stride=c.output_stride * 2))
        a = kdv_dataset.fields["u"][:, -1]
        b = fine.fields["u"][:, -1]
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-5

    def test_fourth_order_convergence(self):
        # order check in the small-step regime where truncation dominates
        c = default_config("kdv")
        finals = {}
        for dt, stride in ((1e-4, 10), (5e-5, 20), (2.5e-5, 40)):
            cfg = replace(c, dt=dt, output_stride=stride, t_final=0.25)
            finals[dt] = solve_kdv(cfg).fields["u"][:, -1]
        e1 = np.linalg.norm(finals[1e-4] - finals[5e-5])
        e2 = np.linalg.norm(finals[5e-5] - finals[2.5e-5])
        assert e1 / e2 >= 8.0

    def test_blowup_aborts(self):
        c = replace(default_config("kdv"), dt=0.01, output_stride=1, t_final=1.0)
        with pytest.raises(SolverInstability):
            solve_kdv(c)


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

    def test_bounded_run(self, burgers_dataset):
        # bound derived from a double-resolution reference run whose energy
        # history matches the default grid to round-off
        assert np.abs(burgers_dataset.fields["u"]).max() < 10.0
        assert np.abs(burgers_dataset.fields["u"]).max() <= 1.0 + 1e-9

    def test_dt_halving_small_change(self, burgers_dataset):
        c = default_config("burgers-hyper")
        fine = solve_burgers_hyper(replace(c, dt=0.05, output_stride=2))
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
        coarse = solve_modified_ks(c)
        fine = solve_modified_ks(replace(c, counts=(256,)))
        skip = int(30.0 / coarse.time_axis.spacing)
        e_coarse = (coarse.fields["u"] ** 2).mean(axis=0)[skip:].mean()
        e_fine = (fine.fields["u"] ** 2).mean(axis=0)[skip:].mean()
        assert abs(e_coarse - e_fine) / e_fine < 0.05

    def test_fourth_order_convergence(self):
        c = default_config("modified-ks")
        finals = {}
        for dt, stride in ((0.004, 1), (0.002, 2), (0.001, 4)):
            finals[dt] = solve_modified_ks(
                replace(c, dt=dt, output_stride=stride, t_final=2.0)).fields["u"][:, -1]
        e1 = np.linalg.norm(finals[0.004] - finals[0.002])
        e2 = np.linalg.norm(finals[0.002] - finals[0.001])
        assert e1 / e2 >= 8.0


class TestRd2d:
    def test_zero_ic_stays_zero(self):
        # (0,0) is a fixed point of the reaction and of diffusion
        c = replace(default_config("rd2d"), counts=(32, 32), t_final=0.5)
        zero = solve_rd2d_zero(c)
        assert np.abs(zero.fields["u"]).max() < 1e-12
        assert np.abs(zero.fields["v"]).max() < 1e-12

    def test_uniform_ic_matches_reaction_ode(self):
        # diffusion of a uniform state vanishes; compare against a
        # high-accuracy two-variable ODE oracle at matching tolerances
        c = replace(default_config("rd2d"), counts=(16, 16), t_final=2.0,
                    rtol=1e-10, atol=1e-12)
        u0, v0 = 0.3, -0.2
        ds = solve_rd2d_uniform(c, u0, v0)
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

    def test_tolerance_tightening_self_convergence(self):
        c = replace(default_config("rd2d"), t_final=1.0)
        a = solve_rd2d(c)
        b = solve_rd2d(replace(c, rtol=1e-8, atol=1e-10))
        d = (np.linalg.norm(a.fields["u"][:, :, -1] - b.fields["u"][:, :, -1])
             / np.linalg.norm(b.fields["u"][:, :, -1]))
        assert d < 1e-6


def rd_reaction(u, v):
    return (u + 0.5 * v**3 - u * v**2 + 0.5 * u**2 * v - u**3,
            v - v**3 - 0.5 * u * v**2 - u**2 * v - 0.5 * u**3)


def solve_rd2d_zero(config):
    import bgsindy.simulate as sim
    orig = sim.rd2d_initial_condition
    sim.rd2d_initial_condition = lambda x, y: (np.zeros((x.size, y.size)),
                                               np.zeros((x.size, y.size)))
    try:
        return solve_rd2d(config)
    finally:
        sim.rd2d_initial_condition = orig


def solve_rd2d_uniform(config, u0, v0):
    import bgsindy.simulate as sim
    orig = sim.rd2d_initial_condition
    sim.rd2d_initial_condition = lambda x, y: (np.full((x.size, y.size), u0),
                                               np.full((x.size, y.size), v0))
    try:
        return solve_rd2d(config)
    finally:
        sim.rd2d_initial_condition = orig


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

    def test_blowup_returns_diagnostic(self, burgers_dataset):
        # backward-diffusion model blows up immediately
        bad = DiscoveredModel((TermDescriptor((), ("u", (4,))),),
                              np.array([1.0]), "u", 0.0)
        with pytest.raises((SolverInstability, FloatingPointError, OverflowError)):
            with np.errstate(over="raise"):
                integrate_model(bad, burgers_dataset)

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


class TestMultiplyOnlyPowers:
    """Powers by repeated products against the `**` formulas, on random fields."""

    def test_spectral_rhs_1d_powers_to_6_orders_1_to_4(self, rng):
        n = 64
        ks, mask = _spectral_grid((Axis(0.0, 22.0 / n, n),))
        terms = [TermDescriptor((("u", p),), ("u", (o,)))
                 for p in range(7) for o in range(1, 5)]
        model = DiscoveredModel(tuple(terms), rng.standard_normal(len(terms)), "u", 0.0)
        v = np.fft.rfft(rng.uniform(-1.5, 1.5, n))
        got = _spectral_term_rhs([model], ks, mask, (n,))([v])
        ref = power_formula_rhs([model], ks, mask, (n,), [v])
        assert_close_to_scale(got[0], ref[0])

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

        def rhs(_t, z):
            uh, vh = z.reshape(2, nx, ny // 2 + 1)
            u, v = (np.fft.irfft2(w * mask, s=(nx, ny)) for w in (uh, vh))
            fu, fv = rd_reaction(u, v)
            return np.concatenate([(np.fft.rfft2(fu) * mask - eps * k2 * uh).ravel(),
                                   (np.fft.rfft2(fv) * mask - eps * k2 * vh).ravel()])

        u0, v0 = rd2d_initial_condition(*(a.points() for a in ds.space_axes))
        z0 = np.concatenate([np.fft.rfft2(u0).ravel(), np.fft.rfft2(v0).ravel()])
        t = ds.time_axis.points()
        sol = solve_ivp(rhs, (0.0, c.t_final), z0, method="RK45", t_eval=t,
                        rtol=c.rtol, atol=c.atol)
        ref = sol.y.reshape(2, nx, ny // 2 + 1, t.size)
        for i, f in enumerate(("u", "v")):
            assert_close_to_scale(ds.fields[f],
                                  np.fft.irfft2(ref[i], s=(nx, ny), axes=(0, 1)), 1e-12)
