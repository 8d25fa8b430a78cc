"""Benchmark dataset generation and forward integration of models.

Every fact about a benchmark sits in its `BENCHMARKS` entry. A benchmark
dataset is its reference models integrated from its initial fields by the
code that reintegrates discovered models (`integrate_model`).
Periodic fields, one 1D field or coupled 2D fields, use Fourier pseudo-spectral
space discretization with 2/3-rule dealiasing and ETDRK4 (update coefficients
by contour quadrature); a small 1D grid steps on the real and imaginary parts
of its spectrum, with a right-hand side folded into real DFT matrices.
Bounded fields (KdV) use RK4 over 4th-order central
differences with an antisymmetric ghost closure consistent with homogeneous
Dirichlet walls: each right-hand side pads u with its odd reflection about
both walls and applies the central stencils of every derivative order a
model needs (`differentiation.central_weights`) in one windowed product.
Each integrator is a plan (an initial state, one step, a per-output screen
and the map to fields), and one loop (`_integrate`) steps both: it owns the
stride rule, the output blocks and the blow-up check, and reports an
overflow or invalid operation on the way to an output step as a blow-up at
that step.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Axis, Dataset, DatasetError, DiscoveredModel, from_entries, json_entry
from .differentiation import central_weights
from .library import TermDescriptor, power_degrees, power_table, power_tables

BLOWUP_LIMIT = 1e6
N_CONTOUR = 64          # contour points per ETDRK4 coefficient
# 1D grids of up to this many points step on `_dense_rhs`. The limit is where
# an earlier complex-state dense step stopped beating numpy's FFT (224
# points); the real-state step still beats the FFT plan at 256
DENSE_DFT_MAX_POINTS = 192
# output spectra (or grids) held per batched inverse transform and copy
OUTPUT_BLOCK_BYTES = 1 << 20


class SolverInstability(RuntimeError):
    """Numerical blow-up or integrator failure."""


@dataclass(frozen=True)
class BenchmarkConfig:
    benchmark: str
    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    dt: float                      # solver step
    output_stride: int
    epsilon: float
    t_final: float

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
        c = from_entries(BenchmarkConfig, d, "benchmark config")
        return replace(c, bounds=tuple(tuple(b) for b in c.bounds), counts=tuple(c.counts))


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

def _fd_rhs(model: DiscoveredModel, n: int, dx: float):
    """Right-hand side of a Dirichlet model on n points. A call pads u with
    its odd reflection about both walls (u_-j = -u_j, the ghost closure of
    homogeneous Dirichlet walls), applies the central stencils of every
    derivative order the terms use in one windowed product, so each order is
    evaluated once, and sets the wall values to zero."""
    def rhs(u):
        padded[h:h + n] = u
        np.negative(u[h:0:-1], out=padded[:h])
        np.negative(u[-2:-h - 2:-1], out=padded[h + n:])
        du = stencils @ columns
        powers = power_tables({field: u}, degrees)
        derivs = {key: du[row] for key, row in rows.items()}
        out = _weighted_sum(groups, powers, derivs) if groups else np.zeros_like(u)
        out[0] = 0.0
        out[-1] = 0.0
        return out

    field = model.target_field
    keys = {t.deriv for t in model.terms if t.deriv is not None}
    orders = sorted({key[1][0] for key in keys})
    rows = {key: orders.index(key[1][0]) for key in keys}
    stencils = central_weights(orders, dx).T
    h = stencils.shape[1] // 2
    padded = np.empty(n + 2 * h)
    # a view of padded: column i holds the points of u_i's stencils
    columns = sliding_window_view(padded, 2 * h + 1).T
    degrees = power_degrees(model.terms)
    groups = _grouped(zip(model.terms, model.coefficients))
    return rhs


def _fd_stability_step(model: DiscoveredModel, dx: float) -> float:
    """Conservative RK4 step bound from the worst-case symbols of the
    integrator's stencils."""
    orders = sorted({t.deriv[1][0] for t in model.terms if t.deriv is not None})
    amps = dict(zip(orders, np.abs(central_weights(orders, dx)).sum(axis=0)))
    bound = 0.0
    for t, c in zip(model.terms, model.coefficients):
        if t.deriv is None:
            bound += abs(c)
            continue
        scale = 1.0
        for _, p in t.powers:
            scale *= 1.5 ** p    # crude bound on |u|^p near unit-amplitude data
        bound += abs(c) * amps[t.deriv[1][0]] * scale
    return 2.5 / bound if bound > 0 else np.inf


def _fd_plan(models, initial, space_axes, dt):
    """RK4 over ghost-closure stencils: the initial field, the step, the
    per-output screen (the blow-up check itself) and `to_fields`."""
    model, = models
    u0 = initial[model.target_field]
    rhs = _fd_rhs(model, u0.size, space_axes[0].spacing)

    def step(u):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    return u0, step, lambda u: np.abs(u).max() <= BLOWUP_LIMIT, lambda block: (block,)


# ---------------------------------------------------------------------------
# periodic spectral machinery

class Etdrk4:
    """Fourth-order exponential time differencing for v_t = L v + N(v), with
    a diagonal symbol L of any shape."""

    def __init__(self, lin: np.ndarray, dt: float):
        # one contour per distinct value: stacked and 2D symbols repeat theirs
        values, index = np.unique(lin, return_inverse=True)
        lr = dt * values[:, None] + np.exp(
            1j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR)
        elr = np.exp(lr)
        coefficients = (
            np.exp(dt * values),
            np.exp(0.5 * dt * values),
            dt * ((np.exp(lr / 2) - 1) / lr).mean(-1).real,
            dt * ((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3).mean(-1).real,
            2 * dt * ((2 + lr + elr * (lr - 2)) / lr**3).mean(-1).real,
            dt * ((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3).mean(-1).real)
        index = index.reshape(lin.shape)
        # stored real: a complex spectrum casts them to the complex values
        # x + 0j on each product, bit for bit as if they were stored so
        (self.e_full, self.e_half, self.q, self.f1, self.f2_twice,
         self.f3) = (c[index] for c in coefficients)

    def step(self, v: np.ndarray, nonlin) -> np.ndarray:
        """One step. The stage algebra runs in place on the step's own
        buffers, in the operation order of the closed-form stages:
        a = e_half v + q N(v), b = e_half v + q N(a),
        c = e_half a + q (2 N(b) - N(v)), and
        e_full v + f1 N(v) + 2 f2 (N(a) + N(b)) + f3 N(c).
        `nonlin` must return a new array and keep no reference to its input."""
        e_half, q = self.e_half, self.q
        nv = nonlin(v)
        ev = e_half * v
        a = q * nv
        a += ev
        na = nonlin(a)
        b = q * na
        b += ev
        nb = nonlin(b)
        c = 2 * nb
        c -= nv
        c *= q
        np.multiply(e_half, a, out=a)
        c += a
        nc = nonlin(c)
        out = self.e_full * v
        out += np.multiply(nv, self.f1, out=a)
        np.add(na, nb, out=b)
        b *= self.f2_twice
        out += b
        out += np.multiply(nc, self.f3, out=c)
        return out


def _transforms(shape):
    """The real FFT over the space axes of `shape` and its inverse, both
    writing to `out=` (numpy's irfft2 drops it; irfftn is the same transform).
    Both act on the trailing axes, so they also transform a stack of spectra
    or fields in one call."""
    if len(shape) == 1:
        return np.fft.rfft, partial(np.fft.irfft, n=shape[0])
    return np.fft.rfft2, partial(np.fft.irfftn, s=shape, axes=(-2, -1))


def _dense_grid(shape) -> bool:
    """Does the right-hand side transform by matrix products on this grid?
    Only a small 1D grid does: there numpy's per-call FFT overhead exceeds
    the products' flops (the crossover is at DENSE_DFT_MAX_POINTS)."""
    return len(shape) == 1 and shape[0] <= DENSE_DFT_MAX_POINTS


def _dense_dft(n: int, kept: int, grid_mults, mode_mults):
    """Real DFT matrices of an n-point grid, for row-vector products with the
    interleaved real and imaginary parts of its half spectrum. `to_grid` maps
    the first `kept` modes v to np.fft.irfft(v * m) for each m of
    `grid_mults`, side by side; `to_modes` maps a stack of grids g, one per m
    of `mode_mults`, to the sum of np.fft.rfft(g) * m over the whole half
    spectrum. Their rows are the transforms of unit spectra and unit grids."""
    modes = n // 2 + 1
    unit = np.eye(kept, modes, dtype=complex)[:, None, None]
    to_grid = np.fft.irfft(np.concatenate([unit, 1j * unit], axis=1)
                           * np.reshape(grid_mults, (-1, modes)), n=n)
    to_modes = np.fft.rfft(np.eye(n)) * np.reshape(mode_mults, (-1, 1, modes))
    return to_grid.reshape(2 * kept, -1), to_modes.view(float).reshape(-1, 2 * modes)


def _dense_rhs(model: DiscoveredModel, ks, mask, n: int):
    """Right-hand side of a periodic 1D model on a `_dense_grid`, on the real
    state: the interleaved real and imaginary parts of the half spectrum.

    A term u^p u_x is a flux, as in `_spectral_term_rhs`. Every other term
    u^p d is grouped by its derivative factor d (of one order, or none), so
    the model is a sum of pieces P(u) d and one flux polynomial F(u), whose
    derivative is taken spectrally. The plan is built once: `to_grid` maps
    the kept modes to each factor and to u, with (i k)^o folded in;
    `to_modes` maps the pieces and the flux back to the half spectrum, with
    the dealias mask and, for the flux, i k folded in (`_dense_dft`); and the
    coefficients of every polynomial form one matrix over the rows
    u, u^2, ..., u^D, 1. A call is one product to the grid, the powers of u
    by repeated products, one product for the polynomials, one for the
    factors and one product back to a new state, zero above the mask."""
    (k,), kept = ks, int(mask.sum())
    polynomials = {}    # derivative order (0: no factor; None: the flux) -> {p: coefficient}
    for t, c in zip(model.terms, model.coefficients):
        p = sum(q for _, q in t.powers)
        if _flux_axis(t) is not None:
            key, p, c = None, p + 1, c / (p + 1)
        else:
            key = t.deriv[1][0] if t.deriv is not None else 0
        polynomials.setdefault(key, {})[p] = float(c)
    orders = sorted(o for o in polynomials if o)    # the factored pieces come first
    keys = orders + [o for o in (0, None) if o in polynomials]
    degree = max([1] + [p for poly in polynomials.values() for p in poly])
    exponents = [*range(1, degree + 1), 0]
    coefficients = np.reshape([[polynomials[o].get(p, 0.0) for p in exponents] for o in keys],
                              (-1, degree + 1))
    to_grid, to_modes = _dense_dft(n, kept, [(1j * k) ** o for o in orders + [0]],
                                   [mask * (1j * k if o is None else 1) for o in keys])
    to_modes = np.asfortranarray(to_modes)      # each output mode one contiguous dot
    rows = np.empty((len(orders) + degree + 1, n))
    rows[-1] = 1.0
    factors, powers = rows[:len(orders)], rows[len(orders):]
    u = powers[0]
    grid = rows[:len(orders) + 1].reshape(-1)
    steps = tuple(zip(powers[:degree - 1], powers[1:degree]))
    values = np.empty((len(keys), n))
    factored, flat, width = values[:len(orders)], values.reshape(-1), 2 * kept

    def rhs(s):
        np.dot(s[:width], to_grid, out=grid)
        for lower, higher in steps:
            np.multiply(lower, u, out=higher)
        np.dot(coefficients, powers, out=values)
        if orders:
            np.multiply(factored, factors, out=factored)
        return np.dot(flat, to_modes)

    return rhs


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


def _flux_polynomial(field: str, coefficients: dict):
    """The flux sum_m a_m f^m of one field, from its {m: a_m}, as its lowest
    monomial f^lo and the coefficients a_hi, ..., a_lo of its Horner tail
    (zeros in the gaps)."""
    lo, hi = min(coefficients), max(coefficients)
    return (TermDescriptor(((field, lo),)),
            [coefficients.get(m, 0.0) for m in range(hi, lo - 1, -1)])


def _horner(polynomial, powers):
    """Pointwise value of a `_flux_polynomial`: evaluate(f^lo) times the
    tail a_lo + a_(lo+1) f + ... + a_hi f^(hi-lo), formed by Horner's rule in
    place. A one-term flux is a_lo * evaluate(f^lo)."""
    lowest, coefficients = polynomial
    value = lowest.evaluate(powers, {})
    if len(coefficients) == 1:
        return coefficients[0] * value
    f = powers[lowest.powers[0][0]][0]
    tail = coefficients[0] * f
    for a in coefficients[1:-1]:
        if a:
            tail += a
        tail *= f
    tail += coefficients[-1]
    tail *= value
    return tail


def _spectral_term_rhs(models, ks, mask, shape):
    """Right-hand side of periodic models in real-FFT space.

    It maps the fields' spectra, in model order, to each model's spectrum.
    A term f^p f_a (`_flux_axis`) is a flux: its monomial f^(p+1) / (p+1)
    joins the polynomial in f of the model's fluxes along axis a, evaluated
    by `_horner`; the polynomials of each axis are summed over the fields,
    and the sum is differentiated once, by i k_a on its spectrum. Every other
    term is evaluated pointwise, its derivative factor taken through the
    spectral multiplier (i k)^o. The plan is built once here: the
    multipliers with the dealias mask folded in, each field's power-table
    degree, and the buffers the transforms write into, so a call builds one
    power table per field; the returned spectra are new arrays. Spectra are
    dealiased on the way to grid space by cutting the half-spectrum axis at
    the mask's last mode (the inverse transform zero-pads it, which is
    bit-identical to the mask there) and by the rest of the mask across the
    other axes. A `_dense_grid` steps on `_dense_rhs` instead.
    """
    kept = int(mask.reshape(-1, mask.shape[-1]).any(axis=0).sum())
    low = None if mask[..., :kept].all() else mask[..., :kept]
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
                    deriv_mults[t.deriv] = (fields.index(t.deriv[0]), mult[..., :kept],
                                            np.empty(shape))
            else:
                (f, p), = t.powers
                fluxes.setdefault(axis, {}).setdefault(f, {})[p + 1] = float(c) / (p + 1)
        flux_plans = [(1j * ks[axis] * mask,
                       [_flux_polynomial(f, coefs) for f, coefs in sorted(per_field.items())])
                      for axis, per_field in sorted(fluxes.items())]
        evaluated += [t for t, _ in local] + [lowest for _, polys in flux_plans
                                              for lowest, _ in polys]
        plans.append((_grouped(local), flux_plans))
    degrees = power_degrees(evaluated)
    field_plans = [(f, degrees.get(f, 1), np.empty(shape)) for f in fields]

    forward, inverse = _transforms(shape)
    spectrum = np.empty(mask.shape, dtype=complex)

    def dealiased(v):
        v = v[..., :kept]
        return v if low is None else v * low

    def rhs(vs):
        powers = {f: power_table(inverse(dealiased(v), out=grid), d)
                  for (f, d, grid), v in zip(field_plans, vs)}
        derivs = {key: inverse(vs[i][..., :kept] * mult, out=grid)
                  for key, (i, mult, grid) in deriv_mults.items()}
        outs = []
        for v, (local, flux_plans) in zip(vs, plans):
            out = (forward(_weighted_sum(local, powers, derivs), out=spectrum) * mask
                   if local else None)
            for mult, polynomials in flux_plans:
                flux = _horner(polynomials[0], powers)
                for polynomial in polynomials[1:]:
                    flux += _horner(polynomial, powers)
                g = forward(flux, out=spectrum) * mult
                out = g if out is None else out + g
            outs.append(np.zeros_like(v) if out is None else out)
        return outs

    return rhs


def _spectral_plan(models, initial, space_axes, dt):
    """Pseudo-spectral integration of periodic fields by ETDRK4 on their even
    pure-derivative terms: the initial spectrum, the step, the per-output
    screen and `to_fields`. One field steps on its spectrum, as a real state
    on a `_dense_grid`; coupled fields step as one stack of their spectra,
    under the stack of their symbols."""
    shape = tuple(a.count for a in space_axes)
    if len(shape) == 1 and len(models) != 1:
        raise DatasetError("1D integration expects a single model")
    ks, mask = _spectral_grid(space_axes)
    lins, rest = zip(*(_split_linear(m, ks) for m in models))
    forward, inverse = _transforms(shape)
    spectra = [forward(initial[m.target_field]) for m in models]
    if _dense_grid(shape):
        lin, v0, step_rhs = (np.repeat(lins[0], 2), spectra[0].view(float),
                             _dense_rhs(rest[0], ks, mask, shape[0]))
    else:
        nonlin = _spectral_term_rhs(rest, ks, mask, shape)
        if len(models) == 1:
            lin, v0, step_rhs = lins[0], spectra[0], lambda v: nonlin([v])[0]
        else:
            lin, v0, step_rhs = (np.stack(lins), np.stack(spectra),
                                 lambda v: np.stack(nonlin(list(v))))
    # 2 sum|v| / prod(n) bounds max|u| over the grid, and the sum over a real
    # state is no smaller: a state whose bound is within BLOWUP_LIMIT / 2
    # holds no slice that fails the blow-up check
    screen = 0.25 * BLOWUP_LIMIT * math.prod(shape)

    def to_fields(block):
        u = inverse(block.view(complex)).reshape((len(block), -1) + shape)
        return tuple(np.moveaxis(u, 1, 0))

    return (v0, partial(Etdrk4(lin, dt).step, nonlin=step_rhs),
            lambda v: np.abs(v).sum() <= screen, to_fields)


# ---------------------------------------------------------------------------
# forward integration, shared by the benchmark solvers and discovered models

def _integrate(models, initial, space_axes, time_axis, boundary, dt):
    """Integrate the models from their initial fields over the time axis.

    `initial` maps each model's target field to its values on the space
    grid, and `boundary` to its boundary kind. `dt` is the time step, rounded
    so that whole steps span each output interval; None takes one step per
    output interval on periodic grids and the stencils' stability step
    (`_fd_stability_step`) on bounded ones, and a dt that is not a positive
    finite number raises a DatasetError. Returns the trajectories, shaped
    space + time with `initial` as the first slice, and the step settings.
    The trajectories are read-only, so a Dataset holds them without a copy.

    Each integrator is a plan: an initial state, one step, a per-output
    screen and `to_fields`, which turns a stack of states into one stack of
    slices per field. This loop steps every plan: up to OUTPUT_BLOCK_BYTES
    of consecutive output states are held, and a state that the screen does
    not clear ends its block at once. Each block is checked before the next
    step runs: a value that is non-finite or beyond BLOWUP_LIMIT raises
    SolverInstability, naming the first such output step. The plan and the
    loop run under np.errstate(over="raise", invalid="raise"), so an
    overflow or an invalid operation on the way to output step k raises
    SolverInstability("blow-up at output step k"), at no cost per step.
    """
    fields = [m.target_field for m in models]
    if all(boundary[f] == "periodic" for f in fields):
        plan, stable_dt = _spectral_plan, math.inf
    elif len(models) != 1 or len(space_axes) != 1:
        raise DatasetError("bounded integration supports a single 1D field")
    else:
        plan, stable_dt = _fd_plan, _fd_stability_step(models[0], space_axes[0].spacing)
    if dt is None:
        stride = max(1, math.ceil(time_axis.spacing / stable_dt))
    elif dt > 0 and math.isfinite(dt):
        stride = max(1, int(round(time_axis.spacing / dt)))
    else:
        raise DatasetError(f"dt must be a positive finite number, got {dt}")
    dt = time_axis.spacing / stride
    out = {}
    for f in fields:
        out[f] = np.empty(initial[f].shape + (time_axis.count,))
        out[f][..., 0] = initial[f]
    j = k = 1       # the first output step held, the output step on the way
    try:
        with np.errstate(over="raise", invalid="raise"):
            state, step, screen, to_fields = plan(models, initial, space_axes, dt)
            store = np.empty((max(1, OUTPUT_BLOCK_BYTES // state.nbytes),) + state.shape,
                             state.dtype)
            for k in range(1, time_axis.count):
                for _ in range(stride):
                    state = step(state)
                store[k - j] = state
                if k - j + 1 < len(store) and k + 1 < time_axis.count and screen(state):
                    continue
                block = to_fields(store[:k - j + 1])
                peaks = np.max([np.abs(u).reshape(len(u), -1).max(axis=1) for u in block], axis=0)
                failed = np.flatnonzero(~(peaks <= BLOWUP_LIMIT))    # NaN fails it too
                if failed.size:
                    raise SolverInstability(f"blow-up at output step {j + failed[0]}")
                for f, u in zip(fields, block):
                    out[f][..., j:k + 1] = np.moveaxis(u, 0, -1)
                j = k + 1
    except FloatingPointError:
        raise SolverInstability(f"blow-up at output step {k}") from None
    for values in out.values():
        values.flags.writeable = False
    return out, {"dt": dt, "stride": stride}


def integrate_model(models, initial: Dataset, dt: float | None = None) -> Dataset:
    """Method-of-lines integration of one or more discovered models.

    The initial condition and the output time axis come from `initial`; the
    returned Dataset is aligned with it slice for slice. Periodic fields, a 1D
    field or coupled 2D fields, use ETDRK4 on the even pure-derivative subset,
    one step per output interval when `dt` is None; Dirichlet fields use RK4
    over ghost-closure stencils, at their stability step when `dt` is None.
    A `dt` that is not a positive finite number, or a term that reads a field
    no model targets, raises a DatasetError.
    """
    if isinstance(models, DiscoveredModel):
        models = [models]
    targets = {m.target_field for m in models}
    for m in models:
        if m.target_field not in initial.fields:
            raise DatasetError(f"initial dataset lacks field '{m.target_field}'")
        for t in m.terms:
            for f in [f for f, _ in t.powers] + ([t.deriv[0]] if t.deriv else []):
                if f not in targets:
                    raise DatasetError(f"term '{t.name}' reads field '{f}', which no "
                                       f"integrated model targets")
    u0 = {m.target_field: initial.fields[m.target_field][..., 0] for m in models}
    fields, info = _integrate(models, u0, initial.space_axes, initial.time_axis,
                              initial.boundary, dt)
    return Dataset(initial.space_axes, initial.time_axis, fields,
                   {f: initial.boundary[f] for f in fields},
                   {"integrated_model": [m.to_json_dict() for m in models], **info})




# ---------------------------------------------------------------------------
# the benchmark table: each benchmark's reference models, integrated

@dataclass(frozen=True)
class Benchmark:
    """Every fact about one of the paper's benchmarks. `equations(eps)` maps
    each field to its (term, coefficient) pairs at the small coefficient eps,
    `initial(axes)` to its values on the space grid; `recipe` holds the
    `discovery_recipe` entries that differ from the common recipe."""
    config: BenchmarkConfig
    boundary: str
    equations: Callable[[float], dict]
    initial: Callable[[tuple[Axis, ...]], dict]
    recipe: dict


def _flux(p: int) -> TermDescriptor:
    """u^p u_x."""
    return TermDescriptor((("u", p),), ("u", (1,)))


def _deriv(field: str, *orders: int) -> TermDescriptor:
    return TermDescriptor((), (field, orders))


def _kdv_initial(axes):
    x = axes[0].points()
    return {"u": 0.9 / np.cosh(12.45 * (x - 0.5)) ** 2
                 + 0.3 / np.cosh(7.1875 * (x - 0.85)) ** 2}


def _modified_ks_initial(axes):
    """The published cos(3x) - sin(x)/2 is not periodic on the stated domain
    as written; its wavenumbers are rescaled to the domain."""
    x = axes[0].points()
    two_pi = 2.0 * np.pi / (axes[0].count * axes[0].spacing)
    return {"u": np.cos(3 * two_pi * x) - 0.5 * np.sin(two_pi * x)}


def _rd2d_equations(eps):
    """u_t = u + v^3/2 - u v^2 + u^2 v/2 - u^3 + eps (u_xx + u_yy), and
    v_t = v - v^3 - u v^2/2 - u^2 v - u^3/2 + eps (v_xx + v_yy)."""
    reaction = [TermDescriptor(p) for p in ((("v", 3),), (("u", 1), ("v", 2)),
                                            (("u", 2), ("v", 1)), (("u", 3),))]
    return {f: list(zip([TermDescriptor(((f, 1),)), *reaction, _deriv(f, 2, 0),
                         _deriv(f, 0, 2)], coefs + [eps, eps]))
            for f, coefs in (("u", [1.0, 0.5, -1.0, 0.5, -1.0]),
                             ("v", [1.0, -1.0, -0.5, -1.0, -0.5]))}


def _rd2d_initial(axes):
    xx, yy = np.meshgrid(axes[0].points(), axes[1].points(), indexing="ij")
    r = np.sqrt(xx**2 + yy**2)
    theta = np.angle(xx + 1j * yy)
    return {"u": np.tanh(r) * np.cos(2 * theta - r), "v": np.tanh(r) * np.sin(2 * theta - r)}


BENCHMARKS = {
    # Small-dispersion KdV on [0, 2] with homogeneous Dirichlet walls. RK4
    # stability over the ghost-closure stencil needs |lambda| dt < 2*sqrt(2);
    # dt=5e-4 with stride 2 keeps the published 0.001 output cadence.
    "kdv": Benchmark(
        config=BenchmarkConfig("kdv", ((0.0, 2.0),), (260,), 5e-4, 2, 4.84e-4, 3.0),
        boundary="dirichlet-homogeneous",
        equations=lambda eps: {"u": [(_flux(1), -1.0), (_deriv("u", 3), -eps)]},
        initial=_kdv_initial,
        recipe={"library": {"poly_degree": 2, "deriv_order": 4},
                "smooth": [{"axis": "t", "window": 31, "degree": 3},
                           {"axis": "x", "window": 7, "degree": 3}],
                "sample": {"n": None}}),
    # Viscous Burgers with a vanishing hyperviscosity term.
    "burgers-hyper": Benchmark(
        config=BenchmarkConfig("burgers-hyper", ((0.0, 32 * math.pi),), (4048,),
                               0.1, 1, 1e-3, 100.0),
        boundary="periodic",
        equations=lambda eps: {"u": [(_flux(1), -1.0), (_deriv("u", 2), 0.5),
                                     (_deriv("u", 4), -eps)]},
        initial=lambda axes: {"u": np.cos(axes[0].points() / 16.0)},
        recipe={"library": {"poly_degree": 2, "deriv_order": 4, "time_accuracy": 6}}),
    # KS augmented with the conservative small-coefficient nonlinearities
    # -k eps u^(k-1) u_x, k = 3..6.
    "modified-ks": Benchmark(
        config=BenchmarkConfig("modified-ks", ((0.0, 22.0),), (128,), 0.004, 1, 1e-6, 200.0),
        boundary="periodic",
        equations=lambda eps: {"u": [(_flux(1), -1.0), (_deriv("u", 2), -1.0),
                                     (_deriv("u", 4), -1.0)]
                                    + [(_flux(k - 1), -k * eps) for k in range(3, 7)]},
        initial=_modified_ks_initial,
        recipe={"library": {"poly_degree": 10, "deriv_order": 10}}),
    # Coupled cubic reaction-diffusion system on a periodic square grid.
    "rd2d": Benchmark(
        config=BenchmarkConfig("rd2d", ((-1.5, 1.5), (-1.5, 1.5)), (256, 256),
                               0.025, 2, 1e-3, 5.0),
        boundary="periodic",
        equations=_rd2d_equations,
        initial=_rd2d_initial,
        recipe={"library": {"poly_degree": 3, "deriv_order": 2},
                "sample": {"time_window": [10, None]}}),
}


def _benchmark(benchmark: str) -> Benchmark:
    """The table entry of a benchmark."""
    if benchmark not in BENCHMARKS:
        raise DatasetError(f"unknown benchmark {benchmark!r}")
    return BENCHMARKS[benchmark]


def default_config(benchmark: str) -> BenchmarkConfig:
    """The published parameterization of a benchmark."""
    return _benchmark(benchmark).config


def reference_model(benchmark: str, field_name: str = "u",
                    epsilon: float | None = None) -> DiscoveredModel:
    """Exact governing-equation terms and coefficients of a benchmark field, at
    the published epsilon unless one is given. Terms whose coefficient is
    exactly zero (the epsilon terms at epsilon = 0) are left out."""
    entry = _benchmark(benchmark)
    equations = entry.equations(entry.config.epsilon if epsilon is None else epsilon)
    if field_name not in equations:
        raise DatasetError(f"benchmark {benchmark!r} has no field {field_name!r}")
    pairs = sorted(((t, c) for t, c in equations[field_name] if c != 0),
                   key=lambda tc: tc[0].canonical_key())
    return DiscoveredModel(tuple(t for t, _ in pairs),
                           np.array([c for _, c in pairs], dtype=float),
                           field_name, 0.0)


def generate_benchmark(benchmark: str, config: BenchmarkConfig | None = None) -> Dataset:
    """The benchmark's reference models integrated from its initial fields
    (at its published config by default), with the run's provenance."""
    entry = _benchmark(benchmark)
    config = config or entry.config
    if config.benchmark != benchmark:
        raise DatasetError(f"config is for {config.benchmark!r}, not {benchmark!r}")
    ndim = len(entry.config.counts)
    for name in ("bounds", "counts"):
        if len(getattr(config, name)) != ndim:
            raise DatasetError(f"benchmark config entry {name!r} needs one item per space "
                               f"axis of {benchmark!r} ({ndim}), got {getattr(config, name)}")
    periodic = entry.boundary == "periodic"
    axes = tuple(Axis(lo, (hi - lo) / (n if periodic else n - 1), n)
                 for (lo, hi), n in zip(config.bounds, config.counts))
    initial = entry.initial(axes)
    models = [reference_model(benchmark, f, epsilon=config.epsilon) for f in initial]
    time_axis = Axis(0.0, config.output_dt, int(round(config.t_final / config.output_dt)) + 1)
    boundaries = {f: entry.boundary for f in initial}
    fields, _ = _integrate(models, initial, axes, time_axis, boundaries, config.dt)
    meta = {"benchmark": benchmark, "config": config.to_json_dict()}
    return Dataset(axes, time_axis, fields, boundaries, meta)


def dataset_config(dataset: Dataset) -> BenchmarkConfig:
    """The config a benchmark dataset was generated with: its metadata's
    `config` entry (`generate_benchmark`). A dataset without one, or with a
    malformed one, raises a DatasetError that names the entry."""
    return BenchmarkConfig.from_json_dict(
        json_entry(dataset.metadata, "config", dict, "dataset provenance"))
