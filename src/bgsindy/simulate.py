"""Benchmark dataset generation and forward integration of models.

A benchmark dataset is its reference model integrated from its initial
condition by the code that reintegrates discovered models (`integrate_model`).
Periodic fields use Fourier pseudo-spectral space discretization with 2/3-rule
dealiasing, and ETDRK4 (update coefficients by contour quadrature) for one 1D
field or adaptive RK45 for coupled 2D fields. Bounded fields (KdV) use RK4 over
4th-order central differences with an antisymmetric ghost closure consistent
with homogeneous Dirichlet walls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .core import Axis, Dataset, DatasetError, DiscoveredModel
from .differentiation import fornberg_weights
from .library import TermDescriptor, power_degrees, power_table, power_tables

BLOWUP_LIMIT = 1e6


class SolverInstability(RuntimeError):
    """Numerical blow-up or integrator failure."""


@dataclass(frozen=True)
class BenchmarkConfig:
    benchmark: str
    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    dt: float                      # solver step (output step for adaptive runs)
    output_stride: int
    epsilon: float
    t_final: float
    integrator: str
    ic: str
    rtol: float = 1e-6
    atol: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0 or self.output_stride < 1:
            raise DatasetError("time parameters must be positive")
        if any(c < 4 for c in self.counts):
            raise DatasetError("grid counts must be >= 4")

    @property
    def output_dt(self) -> float:
        return self.dt * self.output_stride

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(d: dict) -> "BenchmarkConfig":
        d = dict(d)
        d["bounds"] = tuple(tuple(b) for b in d["bounds"])
        d["counts"] = tuple(d["counts"])
        return BenchmarkConfig(**d)


def default_config(benchmark: str, resolution: str = "half") -> BenchmarkConfig:
    """Published benchmark parameterizations (Burgers/KS grid halved by default)."""
    if benchmark == "kdv":
        # RK4 stability over the ghost-closure stencil needs |lambda| dt < 2*sqrt(2);
        # dt=5e-4 with stride 2 keeps the published 0.001 output cadence.
        return BenchmarkConfig("kdv", ((0.0, 2.0),), (260,), 5e-4, 2,
                               4.84e-4, 3.0, "rk4", "double-sech2")
    if benchmark == "burgers-hyper":
        n = 2048 if resolution == "half" else 4048
        return BenchmarkConfig("burgers-hyper", ((0.0, 32 * math.pi),), (n,),
                               0.1, 1, 1e-3, 100.0, "etdrk4", "cos-x16")
    if benchmark == "modified-ks":
        return BenchmarkConfig("modified-ks", ((0.0, 22.0),), (128,),
                               0.004, 1, 1e-6, 200.0, "etdrk4", "cos3-sin")
    if benchmark == "rd2d":
        return BenchmarkConfig("rd2d", ((-1.5, 1.5), (-1.5, 1.5)), (256, 256),
                               0.05, 1, 1e-3, 5.0, "rk45", "spiral")
    raise DatasetError(f"unknown benchmark {benchmark!r}")


def reference_model(benchmark: str, field_name: str = "u",
                    epsilon: float | None = None) -> DiscoveredModel:
    """Exact governing-equation terms and coefficients for a benchmark."""
    def t(powers=(), deriv=None):
        return TermDescriptor(powers, deriv)

    if benchmark == "kdv":
        eps = 4.84e-4 if epsilon is None else epsilon
        terms = [t((("u", 1),), ("u", (1,))), t((), ("u", (3,)))]
        coefs = [-1.0, -eps]
    elif benchmark == "burgers-hyper":
        eps = 1e-3 if epsilon is None else epsilon
        terms = [t((("u", 1),), ("u", (1,))), t((), ("u", (2,))), t((), ("u", (4,)))]
        coefs = [-1.0, 0.5, -eps]
    elif benchmark == "modified-ks":
        eps = 1e-6 if epsilon is None else epsilon
        terms = [t((("u", 1),), ("u", (1,))), t((), ("u", (2,))), t((), ("u", (4,)))]
        coefs = [-1.0, -1.0, -1.0]
        for k in range(3, 7):
            terms.append(t((("u", k - 1),), ("u", (1,))))
            coefs.append(-k * eps)
    elif benchmark == "rd2d":
        eps = 1e-3 if epsilon is None else epsilon
        if field_name == "u":
            terms = [t((("u", 1),)), t((("v", 3),)), t((("u", 1), ("v", 2))),
                     t((("u", 2), ("v", 1))), t((("u", 3),)),
                     t((), ("u", (2, 0))), t((), ("u", (0, 2)))]
            coefs = [1.0, 0.5, -1.0, 0.5, -1.0, eps, eps]
        else:
            terms = [t((("v", 1),)), t((("v", 3),)), t((("u", 1), ("v", 2))),
                     t((("u", 2), ("v", 1))), t((("u", 3),)),
                     t((), ("v", (2, 0))), t((), ("v", (0, 2)))]
            coefs = [1.0, -1.0, -0.5, -1.0, -0.5, eps, eps]
    else:
        raise DatasetError(f"unknown benchmark {benchmark!r}")
    pairs = sorted(zip(terms, coefs), key=lambda tc: tc[0].canonical_key())
    return DiscoveredModel(tuple(t for t, _ in pairs),
                           np.array([c for _, c in pairs], dtype=float),
                           field_name, 0.0)


# ---------------------------------------------------------------------------
# pointwise model terms, shared by both integrators

def _grouped(pairs):
    """The (term, c) pairs as (c, terms) groups of the terms that share a
    coefficient, in order of first appearance."""
    groups = {}
    for t, c in pairs:
        groups.setdefault(float(c), []).append(t)
    return list(groups.items())


def _weighted_sum(groups, powers, derivs):
    """Pointwise sum over (c, terms) groups of c times the summed terms: a
    group is summed before it is scaled, which saves a product per term."""
    acc = None
    for c, terms in groups:
        total = terms[0].evaluate(powers, derivs)
        for t in terms[1:]:
            total = total + t.evaluate(powers, derivs)
        acc = c * total if acc is None else acc + c * total
    return acc


# ---------------------------------------------------------------------------
# bounded FD machinery (KdV and Dirichlet model integration)

def _ghost_matrix(n: int, dx: float, order: int, accuracy: int = 4) -> np.ndarray:
    """Central-difference matrix with odd-reflection ghosts about both walls."""
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


def _fd_rhs(terms, coefs, mats):
    def rhs(u):
        powers = power_tables({"u": u}, degrees)
        derivs = {key: mats[key[1][0]] @ u for key in mats_keys}
        out = _weighted_sum(groups, powers, derivs) if groups else np.zeros_like(u)
        out[0] = 0.0
        out[-1] = 0.0
        return out

    mats_keys = [t.deriv for t in terms if t.deriv is not None]
    degrees = power_degrees(terms)
    groups = _grouped(zip(terms, coefs))
    return rhs


def _fd_stability_step(model: DiscoveredModel, dx: float) -> float:
    """Conservative RK4 step bound from worst-case stencil symbols."""
    bound = 0.0
    for t, c in zip(model.terms, model.coefficients):
        if t.deriv is None:
            bound += abs(c)
            continue
        q = t.deriv[1][0]
        half = (q + 1) // 2 + 2
        w = fornberg_weights(0.0, np.arange(-half, half + 1, dtype=float), q)
        amp = np.abs(w).sum() / dx**q
        scale = 1.0
        for _, p in t.powers:
            scale *= 1.5 ** p    # crude bound on |u|^p near unit-amplitude data
        bound += abs(c) * amp * scale
    return 2.5 / bound if bound > 0 else np.inf


def _fd_slices(models, initial, space_axes, time_axis, dt):
    """RK4 over ghost-closure stencils: an iterator over the output slices
    after the first, and the step settings."""
    if len(models) != 1 or len(space_axes) != 1:
        raise DatasetError("bounded integration supports a single 1D field")
    model = models[0]
    dx = space_axes[0].spacing
    if dt is None:
        stride = max(1, int(math.ceil(time_axis.spacing / _fd_stability_step(model, dx))))
    else:
        stride = max(1, int(round(time_axis.spacing / dt)))
    dt = time_axis.spacing / stride
    return _fd_rk4_steps(model, initial[model.target_field], dx, dt, stride,
                         time_axis.count - 1), {"dt": dt, "stride": stride}


def _fd_rk4_steps(model, u, dx, dt, stride, count):
    orders = sorted({t.deriv[1][0] for t in model.terms if t.deriv is not None})
    mats = {q: _ghost_matrix(u.size, dx, q) for q in orders}
    rhs = _fd_rhs(model.terms, model.coefficients, mats)
    for _ in range(count):
        for _ in range(stride):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield (u,)


# ---------------------------------------------------------------------------
# periodic spectral machinery

class Etdrk4:
    """Fourth-order exponential time differencing for v_t = L v + N(v)."""

    def __init__(self, lin: np.ndarray, dt: float, n_contour: int = 64):
        lr = dt * lin[:, None] + np.exp(
            1j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)[None, :]
        elr = np.exp(lr)
        self.e_full = np.exp(dt * lin)
        self.e_half = np.exp(0.5 * dt * lin)
        self.q = dt * ((np.exp(lr / 2) - 1) / lr).mean(1).real
        self.f1 = dt * ((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3).mean(1).real
        self.f2_twice = 2 * dt * ((2 + lr + elr * (lr - 2)) / lr**3).mean(1).real
        self.f3 = dt * ((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3).mean(1).real

    def step(self, v: np.ndarray, nonlin) -> np.ndarray:
        nv = nonlin(v)
        ev = self.e_half * v
        a = ev + self.q * nv
        na = nonlin(a)
        b = ev + self.q * na
        nb = nonlin(b)
        c = self.e_half * a + self.q * (2 * nb - nv)
        nc = nonlin(c)
        return self.e_full * v + nv * self.f1 + (na + nb) * self.f2_twice + nc * self.f3


def _spectral_grid(space_axes):
    """Wavenumbers per axis and the 2/3-rule dealias mask, over the real-FFT
    spectrum: a full transform along every axis but the last, a half one
    along the last. Each wavenumber array is shaped to broadcast over it."""
    ndim = len(space_axes)
    ks = []
    mask = True
    for ax, a in enumerate(space_axes):
        n = a.count
        freq = np.fft.rfftfreq if ax == ndim - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(n, d=n * a.spacing / n)
        i = np.arange(k.size)
        shape = [1] * ndim
        shape[ax] = k.size
        ks.append(k.reshape(shape))
        mask = mask & (np.minimum(i, n - i) <= (2 * (n // 2)) // 3).reshape(shape)
    return ks, mask


def _split_linear(model: DiscoveredModel, ks):
    """Diagonal spectral symbol of the pure even-order self-derivative terms,
    and the model of the remaining terms."""
    lin = np.zeros(np.broadcast_shapes(*(k.shape for k in ks)))
    rest = []
    for t, c in zip(model.terms, model.coefficients):
        if (not t.powers and t.deriv is not None and t.deriv[0] == model.target_field
                and all(o % 2 == 0 for o in t.deriv[1])):
            symbol = 1.0
            for k, o in zip(ks, t.deriv[1]):
                symbol = symbol * (-1) ** (o // 2) * k**o    # (ik)^o, o even
            lin = lin + c * symbol
        else:
            rest.append((t, c))
    return lin, DiscoveredModel(tuple(t for t, _ in rest),
                                np.array([c for _, c in rest]), model.target_field, 0.0)


def _flux_axis(term: TermDescriptor) -> int | None:
    """Axis a when the term is f^p f_a: powers of one field f times a single
    first derivative of f itself. Otherwise None."""
    if (term.deriv is None or len(term.powers) != 1 or sum(term.deriv[1]) != 1
            or term.powers[0][0] != term.deriv[0]):
        return None
    return term.deriv[1].index(1)


def _spectral_term_rhs(models, ks, mask, shape):
    """Right-hand side of periodic models in real-FFT space.

    It maps the fields' spectra, in model order, to each model's spectrum.
    A term f^p f_a (`_flux_axis`) is a flux: its monomial f^(p+1) / (p+1) is
    evaluated pointwise, the fluxes of a model are summed per axis, and the
    sum is differentiated once, by i k_a on its spectrum. Every other term
    is evaluated pointwise, its derivative factor taken through the spectral
    multiplier (i k)^o. All multipliers, with the dealias mask folded in, are
    built once here.
    """
    if len(shape) == 1:
        forward, inverse = np.fft.rfft, partial(np.fft.irfft, n=shape[0])
    else:
        forward, inverse = np.fft.rfft2, partial(np.fft.irfft2, s=shape)
    fields = [m.target_field for m in models]
    plans = []
    deriv_mults = {}
    evaluated = []
    for m in models:
        local, fluxes = [], {}
        for t, c in zip(m.terms, m.coefficients):
            axis = _flux_axis(t)
            if axis is None:
                local.append((t, c))
                if t.deriv is not None and t.deriv not in deriv_mults:
                    mult = mask
                    for k, o in zip(ks, t.deriv[1]):
                        if o:
                            mult = mult * (1j * k) ** o
                    deriv_mults[t.deriv] = (fields.index(t.deriv[0]), mult)
            else:
                (f, p), = t.powers
                fluxes.setdefault(axis, []).append((TermDescriptor(((f, p + 1),)), c / (p + 1)))
        evaluated += [t for t, _ in local] + [t for pairs in fluxes.values() for t, _ in pairs]
        plans.append((_grouped(local), [(1j * ks[axis] * mask, _grouped(pairs))
                                        for axis, pairs in sorted(fluxes.items())]))
    degrees = power_degrees(evaluated)
    no_derivs = {}

    def rhs(vs):
        powers = {f: power_table(inverse(v * mask), degrees.get(f, 1))
                  for f, v in zip(fields, vs)}
        derivs = ({key: inverse(vs[i] * mult) for key, (i, mult) in deriv_mults.items()}
                  if deriv_mults else no_derivs)
        outs = []
        for v, (local, flux_plans) in zip(vs, plans):
            out = forward(_weighted_sum(local, powers, derivs)) * mask if local else None
            for mult, groups in flux_plans:
                g = forward(_weighted_sum(groups, powers, no_derivs)) * mult
                out = g if out is None else out + g
            outs.append(np.zeros_like(v) if out is None else out)
        return outs

    return rhs


def _spectral_slices(models, initial, space_axes, time_axis, dt, rtol, atol):
    """Pseudo-spectral integration of periodic fields: an iterator over the
    output slices after the first, and the step settings. One 1D field steps
    with ETDRK4 on its even pure-derivative terms; coupled 2D fields with
    adaptive RK45, where those terms act on the unmasked spectrum so that
    above-cutoff content is damped rather than frozen."""
    shape = tuple(a.count for a in space_axes)
    if len(shape) == 1 and len(models) != 1:
        raise DatasetError("1D integration expects a single model")
    ks, mask = _spectral_grid(space_axes)
    lins, rest = zip(*(_split_linear(m, ks) for m in models))
    nonlin = _spectral_term_rhs(rest, ks, mask, shape)
    if len(shape) == 1:
        stride = 1 if dt is None else max(1, int(round(time_axis.spacing / dt)))
        dt = time_axis.spacing / stride
        v0 = np.fft.rfft(initial[models[0].target_field])
        return (_etdrk4_steps(Etdrk4(lins[0], dt), lambda v: nonlin([v])[0], v0, shape[0],
                              stride, time_axis.count - 1), {"dt": dt})

    def rhs(_t, z):
        vs = [w.reshape(mask.shape) for w in np.split(z, len(models))]
        return np.concatenate([(o + lin * v).ravel()
                               for o, lin, v in zip(nonlin(vs), lins, vs)])

    z0 = np.concatenate([np.fft.rfft2(initial[m.target_field]).ravel() for m in models])
    t_eval = time_axis.spacing * np.arange(time_axis.count)
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), z0, method="RK45", t_eval=t_eval,
                    rtol=rtol, atol=atol)
    if sol.status != 0 or sol.y.shape[1] != time_axis.count:
        raise SolverInstability(f"adaptive integration failed: {sol.message}")
    slices = ([np.fft.irfft2(w.reshape(mask.shape), s=shape)
               for w in np.split(sol.y[:, j], len(models))]
              for j in range(1, time_axis.count))
    return slices, {"nfev": int(sol.nfev)}


def _etdrk4_steps(stepper, nonlin, v, n, stride, count):
    for _ in range(count):
        for _ in range(stride):
            v = stepper.step(v, nonlin)
        yield (np.fft.irfft(v, n=n),)


# ---------------------------------------------------------------------------
# forward integration, shared by the benchmark solvers and discovered models

def _integrate(models, initial, space_axes, time_axis, boundary, dt, rtol, atol):
    """Integrate the models from their initial fields over the time axis.

    `initial` maps each model's target field to its values on the space
    grid, and `boundary` to its boundary kind. `dt` is the step of the
    stepping integrators, rounded so that whole steps span each output
    interval; adaptive RK45 takes `rtol` and `atol` instead. Returns the
    trajectories, shaped space + time with `initial` as the first slice, and
    the step settings. Raises SolverInstability when a value at an output
    time is non-finite or beyond BLOWUP_LIMIT.
    """
    fields = [m.target_field for m in models]
    if all(boundary[f] == "periodic" for f in fields):
        slices, info = _spectral_slices(models, initial, space_axes, time_axis,
                                        dt, rtol, atol)
    else:
        slices, info = _fd_slices(models, initial, space_axes, time_axis, dt)
    out = {}
    for f in fields:
        out[f] = np.empty(initial[f].shape + (time_axis.count,))
        out[f][..., 0] = initial[f]
    for j, values in enumerate(slices, start=1):
        for f, u in zip(fields, values):
            if not np.isfinite(u).all() or np.abs(u).max() > BLOWUP_LIMIT:
                raise SolverInstability(f"blow-up at output step {j}")
            out[f][..., j] = u
    return out, info


def integrate_model(models, initial: Dataset, integrator: str = "auto",
                    dt: float | None = None, rtol: float = 1e-6,
                    atol: float = 1e-8) -> Dataset:
    """Method-of-lines integration of one or more discovered models.

    The initial condition and the output time axis come from `initial`; the
    returned Dataset is aligned with it slice for slice. Periodic single-field
    1D models use ETDRK4 on the even pure-derivative subset; coupled 2D systems
    use adaptive RK45; Dirichlet fields use RK4 over ghost-closure stencils.
    """
    if isinstance(models, DiscoveredModel):
        models = [models]
    for m in models:
        if m.target_field not in initial.fields:
            raise DatasetError(f"initial dataset lacks field '{m.target_field}'")
    u0 = {m.target_field: initial.fields[m.target_field][..., 0] for m in models}
    fields, info = _integrate(models, u0, initial.space_axes, initial.time_axis,
                              initial.boundary, dt, rtol, atol)
    return Dataset(initial.space_axes, initial.time_axis, fields,
                   {f: initial.boundary[f] for f in fields},
                   {"integrated_model": [m.to_json_dict() for m in models], **info})


# ---------------------------------------------------------------------------
# benchmark solvers: the reference models, integrated

def _space_axes(config: BenchmarkConfig, periodic: bool) -> tuple[Axis, ...]:
    axes = []
    for (lo, hi), n in zip(config.bounds, config.counts):
        spacing = (hi - lo) / (n if periodic else n - 1)
        axes.append(Axis(lo, spacing, n))
    return tuple(axes)


def _reference_run(config: BenchmarkConfig, axes, initial: dict, boundary: str,
                   stability: dict) -> Dataset:
    """The benchmark's reference models integrated from `initial`, with the run's
    provenance; an adaptive run adds its right-hand-side count to `stability`."""
    models = [reference_model(config.benchmark, f, epsilon=config.epsilon) for f in initial]
    time_axis = Axis(0.0, config.output_dt, int(round(config.t_final / config.output_dt)) + 1)
    boundaries = {f: boundary for f in initial}
    fields, info = _integrate(models, initial, axes, time_axis, boundaries,
                              config.dt, config.rtol, config.atol)
    if "nfev" in info:
        stability = {**stability, "nfev": info["nfev"]}
    meta = {"benchmark": config.benchmark, "config": config.to_json_dict(),
            "stability": stability}
    return Dataset(axes, time_axis, fields, boundaries, meta)


def kdv_initial_condition(x: np.ndarray) -> np.ndarray:
    return (0.9 / np.cosh(12.45 * (x - 0.5)) ** 2
            + 0.3 / np.cosh(7.1875 * (x - 0.85)) ** 2)


def solve_kdv(config: BenchmarkConfig | None = None) -> Dataset:
    """Small-dispersion KdV on [0, 2] with homogeneous Dirichlet walls."""
    config = config or default_config("kdv")
    axes = _space_axes(config, periodic=False)
    lam_dt = config.epsilon * 4.61 / axes[0].spacing**3 * config.dt
    return _reference_run(config, axes, {"u": kdv_initial_condition(axes[0].points())},
                          "dirichlet-homogeneous",
                          {"dispersive_lambda_dt": lam_dt, "rk4_imag_limit": 2.828})


def solve_burgers_hyper(config: BenchmarkConfig | None = None) -> Dataset:
    """Viscous Burgers with a vanishing hyperviscosity term, periodic."""
    config = config or default_config("burgers-hyper")
    axes = _space_axes(config, periodic=True)
    (k,), mask = _spectral_grid(axes)
    return _reference_run(config, axes, {"u": np.cos(axes[0].points() / 16.0)}, "periodic",
                          {"advective_cfl": float(config.dt * k[mask].max())})


def solve_modified_ks(config: BenchmarkConfig | None = None) -> Dataset:
    """KS equation augmented with conservative small-coefficient nonlinearities.

    The published initial condition cos(3x) - sin(x)/2 is not periodic on the
    stated domain as written; its wavenumbers are rescaled to the domain.
    """
    config = config or default_config("modified-ks")
    axes = _space_axes(config, periodic=True)
    (k,), mask = _spectral_grid(axes)
    x = axes[0].points()
    two_pi = 2.0 * np.pi / (axes[0].count * axes[0].spacing)
    u0 = np.cos(3 * two_pi * x) - 0.5 * np.sin(two_pi * x)
    return _reference_run(config, axes, {"u": u0}, "periodic",
                          {"advective_cfl": float(3.5 * config.dt * k[mask].max())})


def rd2d_initial_condition(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xx, yy = np.meshgrid(x, y, indexing="ij")
    r = np.sqrt(xx**2 + yy**2)
    theta = np.angle(xx + 1j * yy)
    return np.tanh(r) * np.cos(2 * theta - r), np.tanh(r) * np.sin(2 * theta - r)


def solve_rd2d(config: BenchmarkConfig | None = None) -> Dataset:
    """Coupled cubic reaction-diffusion system on a periodic square grid."""
    config = config or default_config("rd2d")
    axes = _space_axes(config, periodic=True)
    (kx, ky), _ = _spectral_grid(axes)
    u0, v0 = rd2d_initial_condition(axes[0].points(), axes[1].points())
    return _reference_run(config, axes, {"u": u0, "v": v0}, "periodic",
                          {"diffusion_lambda_max": float(config.epsilon
                                                         * (kx**2 + ky**2).max())})


def generate_benchmark(benchmark: str, config: BenchmarkConfig | None = None) -> Dataset:
    solver = {"kdv": solve_kdv, "burgers-hyper": solve_burgers_hyper,
              "modified-ks": solve_modified_ks, "rd2d": solve_rd2d}.get(benchmark)
    if solver is None:
        raise DatasetError(f"unknown benchmark {benchmark!r}")
    if config is not None and config.benchmark != benchmark:
        raise DatasetError(f"config is for {config.benchmark!r}, not {benchmark!r}")
    return solver(config)
