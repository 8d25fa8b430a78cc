"""Benchmark dataset generation and forward integration of discovered models.

Periodic benchmarks use Fourier pseudo-spectral space discretization with
2/3-rule dealiasing and exponential time differencing (ETDRK4, with the
update coefficients evaluated by the standard contour-quadrature trick).
The bounded KdV benchmark uses RK4 over 4th-order central differences with
an antisymmetric ghost closure consistent with homogeneous Dirichlet walls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import Axis, Dataset, DatasetError, DiscoveredModel
from .differentiation import fornberg_weights
from .library import TermDescriptor, power_degrees, power_table, power_tables

BLOWUP_LIMIT = 1e6


class SolverInstability(RuntimeError):
    """Numerical blow-up or integrator failure; carries any partial trajectory."""

    def __init__(self, message, partial: Dataset | None = None):
        super().__init__(message)
        self.partial = partial


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
        out = np.zeros_like(u)
        for t, c in zip(terms, coefs):
            out += c * t.evaluate(powers, derivs)
        out[0] = 0.0
        out[-1] = 0.0
        return out

    mats_keys = [t.deriv for t in terms if t.deriv is not None]
    degrees = power_degrees(terms)
    return rhs


def _integrate_fd_rk4(model: DiscoveredModel, u0: np.ndarray, dx: float,
                      dt: float, stride: int, n_out: int) -> np.ndarray:
    n = u0.size
    orders = sorted({t.deriv[1][0] for t in model.terms if t.deriv is not None})
    mats = {q: _ghost_matrix(n, dx, q) for q in orders}
    rhs = _fd_rhs(model.terms, model.coefficients, mats)
    u = u0.copy()
    out = np.empty((n, n_out))
    out[:, 0] = u
    for j in range(1, n_out):
        for _ in range(stride):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(u).all() or np.abs(u).max() > BLOWUP_LIMIT:
            raise SolverInstability(f"blow-up at output step {j}", None)
        out[:, j] = u
    return out


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


# ---------------------------------------------------------------------------
# periodic spectral machinery

class Etdrk4:
    """Fourth-order exponential time differencing for v_t = L v + N(v)."""

    def __init__(self, lin: np.ndarray, dt: float, n_contour: int = 64):
        self.dt = dt
        lr = dt * lin[:, None] + np.exp(
            1j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)[None, :]
        elr = np.exp(lr)
        self.e_full = np.exp(dt * lin)
        self.e_half = np.exp(0.5 * dt * lin)
        self.q = dt * ((np.exp(lr / 2) - 1) / lr).mean(1).real
        self.f1 = dt * ((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3).mean(1).real
        self.f2 = dt * ((2 + lr + elr * (lr - 2)) / lr**3).mean(1).real
        self.f3 = dt * ((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3).mean(1).real

    def step(self, v: np.ndarray, nonlin) -> np.ndarray:
        nv = nonlin(v)
        a = self.e_half * v + self.q * nv
        na = nonlin(a)
        b = self.e_half * v + self.q * na
        nb = nonlin(b)
        c = self.e_half * a + self.q * (2 * nb - nv)
        nc = nonlin(c)
        return self.e_full * v + nv * self.f1 + (na + nb) * 2 * self.f2 + nc * self.f3


def _rfft_wavenumbers(n: int, length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)


def _dealias_mask(n: int) -> np.ndarray:
    return np.arange(n // 2 + 1) <= (2 * (n // 2)) // 3


def _run_etdrk4(lin, nonlin, u0, dt, stride, n_out):
    stepper = Etdrk4(lin, dt)
    v = np.fft.rfft(u0)
    n = u0.size
    out = np.empty((n, n_out))
    out[:, 0] = u0
    for j in range(1, n_out):
        for _ in range(stride):
            v = stepper.step(v, nonlin)
        u = np.fft.irfft(v, n=n)
        if not np.isfinite(u).all() or np.abs(u).max() > BLOWUP_LIMIT:
            raise SolverInstability(f"blow-up at output step {j}", None)
        out[:, j] = u
    return out


# ---------------------------------------------------------------------------
# benchmark solvers

def _output_counts(config: BenchmarkConfig) -> int:
    return int(round(config.t_final / config.output_dt)) + 1


def _space_axes(config: BenchmarkConfig, periodic: bool) -> tuple[Axis, ...]:
    axes = []
    for (lo, hi), n in zip(config.bounds, config.counts):
        spacing = (hi - lo) / (n if periodic else n - 1)
        axes.append(Axis(lo, spacing, n))
    return tuple(axes)


def kdv_initial_condition(x: np.ndarray) -> np.ndarray:
    return (0.9 / np.cosh(12.45 * (x - 0.5)) ** 2
            + 0.3 / np.cosh(7.1875 * (x - 0.85)) ** 2)


def solve_kdv(config: BenchmarkConfig | None = None) -> Dataset:
    """Small-dispersion KdV on [0, 2] with homogeneous Dirichlet walls."""
    config = config or default_config("kdv")
    axes = _space_axes(config, periodic=False)
    x = axes[0].points()
    dx = axes[0].spacing
    u0 = kdv_initial_condition(x)
    model = reference_model("kdv", epsilon=config.epsilon)
    n_out = _output_counts(config)
    u = _integrate_fd_rk4(model, u0, dx, config.dt, config.output_stride, n_out)
    lam_dt = config.epsilon * 4.61 / dx**3 * config.dt
    meta = {"benchmark": "kdv", "config": config.to_json_dict(),
            "stability": {"dispersive_lambda_dt": lam_dt, "rk4_imag_limit": 2.828}}
    return Dataset(axes, Axis(0.0, config.output_dt, n_out), {"u": u},
                   {"u": "dirichlet-homogeneous"}, meta)


def solve_burgers_hyper(config: BenchmarkConfig | None = None) -> Dataset:
    """Viscous Burgers with a vanishing hyperviscosity term, periodic."""
    config = config or default_config("burgers-hyper")
    axes = _space_axes(config, periodic=True)
    n = axes[0].count
    length = n * axes[0].spacing
    x = axes[0].points()
    k = _rfft_wavenumbers(n, length)
    mask = _dealias_mask(n)
    ik = 1j * k
    lin = -0.5 * k**2 - config.epsilon * k**4

    def nonlin(v):
        u = np.fft.irfft(v * mask, n=n)
        return -0.5 * ik * (np.fft.rfft(u * u) * mask)

    u0 = np.cos(x / 16.0)
    n_out = _output_counts(config)
    u = _run_etdrk4(lin, nonlin, u0, config.dt, config.output_stride, n_out)
    meta = {"benchmark": "burgers-hyper", "config": config.to_json_dict(),
            "stability": {"advective_cfl": float(config.dt * k[mask].max())}}
    return Dataset(axes, Axis(0.0, config.output_dt, n_out), {"u": u},
                   {"u": "periodic"}, meta)


def _modified_ks_flux(u, eps):
    """u^2/2 + eps (u^3 + u^4 + u^5 + u^6), whose x-derivative is the
    modified-KS nonlinearity in conservative form."""
    u2, u3, u4, u5, u6 = power_table(u, 6)[1:]
    return 0.5 * u2 + eps * (u3 + u4 + u5 + u6)


def solve_modified_ks(config: BenchmarkConfig | None = None) -> Dataset:
    """KS equation augmented with conservative small-coefficient nonlinearities.

    The published initial condition cos(3x) - sin(x)/2 is not periodic on the
    stated domain as written; its wavenumbers are rescaled to the domain.
    """
    config = config or default_config("modified-ks")
    axes = _space_axes(config, periodic=True)
    n = axes[0].count
    length = n * axes[0].spacing
    x = axes[0].points()
    k = _rfft_wavenumbers(n, length)
    mask = _dealias_mask(n)
    ik = 1j * k
    lin = k**2 - k**4
    eps = config.epsilon
    two_pi = 2.0 * np.pi / length

    def nonlin(v):
        u = np.fft.irfft(v * mask, n=n)
        return -ik * (np.fft.rfft(_modified_ks_flux(u, eps)) * mask)

    u0 = np.cos(3 * two_pi * x) - 0.5 * np.sin(two_pi * x)
    n_out = _output_counts(config)
    u = _run_etdrk4(lin, nonlin, u0, config.dt, config.output_stride, n_out)
    meta = {"benchmark": "modified-ks", "config": config.to_json_dict(),
            "stability": {"advective_cfl": float(3.5 * config.dt * k[mask].max())}}
    return Dataset(axes, Axis(0.0, config.output_dt, n_out), {"u": u},
                   {"u": "periodic"}, meta)


def rd2d_initial_condition(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xx, yy = np.meshgrid(x, y, indexing="ij")
    r = np.sqrt(xx**2 + yy**2)
    theta = np.angle(xx + 1j * yy)
    return np.tanh(r) * np.cos(2 * theta - r), np.tanh(r) * np.sin(2 * theta - r)


def _rd_reaction(u, v):
    u, u2, u3 = power_table(u, 3)
    v, v2, v3 = power_table(v, 3)
    fu = u + 0.5 * v3 - u * v2 + 0.5 * u2 * v - u3
    fv = v - v3 - 0.5 * u * v2 - u2 * v - 0.5 * u3
    return fu, fv


def solve_rd2d(config: BenchmarkConfig | None = None) -> Dataset:
    """Coupled cubic reaction-diffusion system on a periodic square grid."""
    config = config or default_config("rd2d")
    axes = _space_axes(config, periodic=True)
    nx, ny = axes[0].count, axes[1].count
    lx = nx * axes[0].spacing
    ly = ny * axes[1].spacing
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
    ky = 2 * np.pi * np.fft.rfftfreq(ny, d=ly / ny)
    k2 = kx[:, None] ** 2 + ky[None, :] ** 2
    mx = np.abs(kx) <= (2.0 / 3.0) * np.abs(kx).max()
    my = ky <= (2.0 / 3.0) * ky.max()
    mask = mx[:, None] & my[None, :]
    eps = config.epsilon
    nh = nx * (ny // 2 + 1)

    def rhs(_t, z):
        uh = z[:nh].reshape(nx, ny // 2 + 1)
        vh = z[nh:].reshape(nx, ny // 2 + 1)
        u = np.fft.irfft2(uh * mask, s=(nx, ny))
        v = np.fft.irfft2(vh * mask, s=(nx, ny))
        fu, fv = _rd_reaction(u, v)
        du = np.fft.rfft2(fu) * mask - eps * k2 * uh
        dv = np.fft.rfft2(fv) * mask - eps * k2 * vh
        return np.concatenate([du.ravel(), dv.ravel()])

    u0, v0 = rd2d_initial_condition(axes[0].points(), axes[1].points())
    z0 = np.concatenate([np.fft.rfft2(u0).ravel(), np.fft.rfft2(v0).ravel()])
    n_out = _output_counts(config)
    t_eval = config.output_dt * np.arange(n_out)
    sol = solve_ivp(rhs, (0.0, config.t_final), z0, method="RK45",
                    t_eval=t_eval, rtol=config.rtol, atol=config.atol)
    if sol.status != 0 or sol.y.shape[1] != n_out:
        raise SolverInstability(f"adaptive integration failed: {sol.message}", None)
    u = np.empty((nx, ny, n_out))
    v = np.empty((nx, ny, n_out))
    for j in range(n_out):
        u[:, :, j] = np.fft.irfft2(sol.y[:nh, j].reshape(nx, ny // 2 + 1), s=(nx, ny))
        v[:, :, j] = np.fft.irfft2(sol.y[nh:, j].reshape(nx, ny // 2 + 1), s=(nx, ny))
    if np.abs(u).max() > BLOWUP_LIMIT or np.abs(v).max() > BLOWUP_LIMIT:
        raise SolverInstability("blow-up in reaction-diffusion run", None)
    meta = {"benchmark": "rd2d", "config": config.to_json_dict(),
            "stability": {"diffusion_lambda_max": float(eps * k2.max()),
                          "nfev": int(sol.nfev)}}
    return Dataset(axes, Axis(0.0, config.output_dt, n_out), {"u": u, "v": v},
                   {"u": "periodic", "v": "periodic"}, meta)


def generate_benchmark(benchmark: str, config: BenchmarkConfig | None = None) -> Dataset:
    solver = {"kdv": solve_kdv, "burgers-hyper": solve_burgers_hyper,
              "modified-ks": solve_modified_ks, "rd2d": solve_rd2d}.get(benchmark)
    if solver is None:
        raise DatasetError(f"unknown benchmark {benchmark!r}")
    return solver(config)


# ---------------------------------------------------------------------------
# forward integration of discovered models

def _split_linear(model: DiscoveredModel, k: np.ndarray):
    """Diagonal spectral symbol from pure even-order self-derivative terms."""
    lin = np.zeros_like(k)
    nonlinear = []
    for t, c in zip(model.terms, model.coefficients):
        if (not t.powers and t.deriv is not None and t.deriv[0] == model.target_field
                and len(t.deriv[1]) == 1 and t.deriv[1][0] % 2 == 0):
            q = t.deriv[1][0]
            lin = lin + c * ((1j * k) ** q).real
        else:
            nonlinear.append((t, c))
    return lin, nonlinear


def _spectral_term_rhs(models, k_list, masks, shapes):
    """RHS evaluator for coupled periodic fields in rfft space.

    The derivative multipliers (ik)^o, odd orders with the Nyquist mode
    zeroed, are built once here, per axis of each derivative factor.
    """
    fields = [m.target_field for m in models]
    terms = [t for m in models for t in m.terms]
    degrees = power_degrees(terms)
    multipliers = {}
    for t in terms:
        if t.deriv is None or t.deriv in multipliers:
            continue
        mults = []
        for ax, o in enumerate(t.deriv[1]):
            if o == 0:
                continue
            mult = (1j * k_list[ax]) ** o
            if o % 2 == 1:
                mult = _zero_nyquist(mult, ax, shapes)
            mults.append(_broadcast(mult, ax, len(shapes)))
        multipliers[t.deriv] = mults

    def _irfft(g):
        if len(shapes) == 1:
            return np.fft.irfft(g, n=shapes[0])
        return np.fft.irfft2(g, s=shapes)

    def rhs(vs):
        vs = [v * masks for v in vs]
        powers = power_tables({f: _irfft(v) for f, v in zip(fields, vs)}, degrees)
        derivs = {}
        for key, mults in multipliers.items():
            g = vs[fields.index(key[0])]
            for mult in mults:
                g = g * mult
            derivs[key] = _irfft(g)
        outs = []
        for m in models:
            acc = np.zeros(shapes)
            for t, c in zip(m.terms, m.coefficients):
                acc = acc + c * t.evaluate(powers, derivs)
            g = np.fft.rfft(acc) if len(shapes) == 1 else np.fft.rfft2(acc)
            outs.append(g * masks)
        return outs

    return rhs


def _broadcast(mult, axis, ndim):
    if ndim == 1:
        return mult
    return mult[:, None] if axis == 0 else mult[None, :]


def _zero_nyquist(mult, axis, shapes):
    mult = mult.copy()
    if len(shapes) == 1:
        mult[-1] = 0.0
    else:
        n = shapes[axis]
        if n % 2 == 0:
            if axis == 0:
                mult[n // 2] = 0.0
            else:
                mult[-1] = 0.0
    return mult


def integrate_model(models, initial: Dataset, integrator: str = "auto",
                    dt: float | None = None, rtol: float = 1e-6,
                    atol: float = 1e-8) -> Dataset:
    """Method-of-lines integration of one or more discovered models.

    The initial condition and the output time axis come from `initial`; the
    returned Dataset is aligned with it slice for slice. Periodic single-field
    models use ETDRK4 on the even pure-derivative subset; coupled 2D systems
    use adaptive RK45; Dirichlet fields use RK4 over ghost-closure stencils.
    On blow-up the partial trajectory is attached to the raised error.
    """
    if isinstance(models, DiscoveredModel):
        models = [models]
    fields = [m.target_field for m in models]
    for f in fields:
        if f not in initial.fields:
            raise DatasetError(f"initial dataset lacks field '{f}'")
    periodic = all(initial.boundary[f] == "periodic" for f in fields)
    n_out = initial.time_axis.count
    out_dt = initial.time_axis.spacing

    if not periodic:
        if len(models) != 1 or initial.ndim_space != 1:
            raise DatasetError("bounded integration supports a single 1D field")
        model = models[0]
        dx = initial.space_axes[0].spacing
        if dt is None:
            bound = _fd_stability_step(model, dx)
            stride = max(1, int(math.ceil(out_dt / bound)))
            dt = out_dt / stride
        else:
            stride = max(1, int(round(out_dt / dt)))
            dt = out_dt / stride
        u0 = initial.fields[model.target_field][..., 0]
        u = _integrate_fd_rk4(model, u0, dx, dt, stride, n_out)
        return Dataset(initial.space_axes, initial.time_axis,
                       {model.target_field: u},
                       {model.target_field: initial.boundary[model.target_field]},
                       {"integrated_model": [m.to_json_dict() for m in models],
                        "dt": dt, "stride": stride})

    if initial.ndim_space == 1:
        if len(models) != 1:
            raise DatasetError("1D integration expects a single model")
        model = models[0]
        axis = initial.space_axes[0]
        n = axis.count
        length = n * axis.spacing
        k = _rfft_wavenumbers(n, length)
        mask = _dealias_mask(n)
        lin, nonlinear = _split_linear(model, k)
        nl_model = DiscoveredModel(tuple(t for t, _ in nonlinear),
                                   np.array([c for _, c in nonlinear]),
                                   model.target_field, 0.0) if nonlinear else None
        rhs = (_spectral_term_rhs([nl_model], [k], mask, (n,))
               if nl_model is not None else None)

        def nonlin(v):
            if rhs is None:
                return np.zeros_like(v)
            return rhs([v])[0]

        if dt is None:
            dt = out_dt
        stride = max(1, int(round(out_dt / dt)))
        u0 = initial.fields[model.target_field][..., 0]
        u = _run_etdrk4(lin, nonlin, u0, out_dt / stride, stride, n_out)
        return Dataset(initial.space_axes, initial.time_axis,
                       {model.target_field: u}, {model.target_field: "periodic"},
                       {"integrated_model": [m.to_json_dict() for m in models],
                        "dt": out_dt / stride})

    # coupled 2D periodic system via adaptive RK45 in spectral space; pure
    # even self-derivative terms act diagonally on the unmasked spectrum so
    # above-cutoff content is damped rather than frozen
    nx, ny = (a.count for a in initial.space_axes)
    lx = nx * initial.space_axes[0].spacing
    ly = ny * initial.space_axes[1].spacing
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
    ky = 2 * np.pi * np.fft.rfftfreq(ny, d=ly / ny)
    mx = np.abs(kx) <= (2.0 / 3.0) * np.abs(kx).max()
    my = ky <= (2.0 / 3.0) * ky.max()
    mask = mx[:, None] & my[None, :]
    nh = nx * (ny // 2 + 1)
    lins = []
    nl_models = []
    for m in models:
        lin = np.zeros((nx, ny // 2 + 1))
        rest = []
        for t, c in zip(m.terms, m.coefficients):
            if (not t.powers and t.deriv is not None and t.deriv[0] == m.target_field
                    and all(o % 2 == 0 for o in t.deriv[1])):
                ox, oy = t.deriv[1]
                lin = lin + c * (((1j * kx) ** ox).real[:, None]
                                 * ((1j * ky) ** oy).real[None, :])
            else:
                rest.append((t, c))
        lins.append(lin)
        nl_models.append(DiscoveredModel(tuple(t for t, _ in rest),
                                         np.array([c for _, c in rest]),
                                         m.target_field, 0.0))
    rhs2 = _spectral_term_rhs(nl_models, [kx, ky], mask, (nx, ny))

    def rhs(_t, z):
        vs = [z[i * nh:(i + 1) * nh].reshape(nx, ny // 2 + 1) for i in range(len(models))]
        outs = rhs2(vs)
        return np.concatenate([(o + lin * v).ravel()
                               for o, lin, v in zip(outs, lins, vs)])

    z0 = np.concatenate([np.fft.rfft2(initial.fields[f][..., 0]).ravel() for f in fields])
    t_eval = out_dt * np.arange(n_out)
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), z0, method="RK45", t_eval=t_eval,
                    rtol=rtol, atol=atol)
    if sol.status != 0 or sol.y.shape[1] != n_out:
        raise SolverInstability(f"adaptive integration failed: {sol.message}", None)
    out_fields = {}
    for i, f in enumerate(fields):
        arr = np.empty((nx, ny, n_out))
        for j in range(n_out):
            arr[:, :, j] = np.fft.irfft2(
                sol.y[i * nh:(i + 1) * nh, j].reshape(nx, ny // 2 + 1), s=(nx, ny))
        out_fields[f] = arr
    return Dataset(initial.space_axes, initial.time_axis, out_fields,
                   {f: "periodic" for f in fields},
                   {"integrated_model": [m.to_json_dict() for m in models]})
