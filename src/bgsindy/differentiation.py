"""Grid-based derivative estimation and local-polynomial smoothing.

Finite-difference stencils of arbitrary order and accuracy are generated by
the Fornberg recursion; periodic axes can instead be differentiated spectrally.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Dataset, DatasetError

MAX_ORDER = 10
MAX_ACCURACY = 8
DIRECT_TAPS = 48      # direct sums beat the FFT up to here (260 x 3001 grid)
SAMPLE_CHUNK = 1024   # points per block in `spectral_diff_at`


def fornberg_weights(x0: float, nodes, order: int) -> np.ndarray:
    """Weights approximating the order-th derivative at x0 from the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if n < order + 1:
        raise DatasetError(f"need at least {order + 1} nodes for derivative {order}")
    c = np.zeros((n, order + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def central_weights(orders, spacing: float, accuracy: int = 4) -> np.ndarray:
    """Central finite-difference weights, one column per derivative order q:
    the Fornberg weights at the given accuracy divided by spacing**q, centred
    on the middle row and zero-padded to the widest stencil."""
    halves = [(q + 1) // 2 + (accuracy + 1) // 2 - 1 for q in orders]
    width = max(halves, default=0)
    table = np.zeros((2 * width + 1, len(halves)))
    for i, (q, half) in enumerate(zip(orders, halves)):
        offs = np.arange(-half, half + 1, dtype=float)
        table[width - half:width + half + 1, i] = fornberg_weights(0.0, offs, q) / spacing**q
    return table


def fd_diff(values: np.ndarray, axis: int, spacing: float, order: int,
            accuracy: int = 4, indices: np.ndarray | None = None) -> np.ndarray:
    """Finite-difference derivative along one axis of an array.

    Central stencils in the interior, one-sided stencils of the same
    accuracy at both ends.

    With flat `indices` into `values`, the derivative at those points only,
    bit for bit the full result there. When they are fewer than the points of
    `values`, an interior point gathers its central taps and adds their
    products one by one from zero, in the order in which the sliding-window
    product sums them, and a point in an end row reads that row, formed as
    for the full grid. Otherwise the full result is sampled.
    """
    if order < 1 or order > MAX_ORDER:
        raise DatasetError(f"derivative order must be in 1..{MAX_ORDER}")
    if accuracy < 2 or accuracy % 2 or accuracy > MAX_ACCURACY:
        raise DatasetError(f"accuracy must be even and in 2..{MAX_ACCURACY}")
    m = values.shape[axis]
    width = order + accuracy
    if m < width:
        raise DatasetError(f"axis of length {m} too short for order {order} accuracy {accuracy}")
    wc = central_weights([order], spacing, accuracy)[:, 0]
    half = wc.size // 2

    f = np.moveaxis(values, axis, -1)
    nodes = np.arange(width, dtype=float)
    ends = {}       # end row -> its values on every line along the axis
    for i in range(half):
        wl = fornberg_weights(float(i), nodes, order)
        ends[i] = f[..., :width] @ (wl / spacing**order)
        wr = fornberg_weights(float(width - 1 - i), nodes, order)
        ends[m - 1 - i] = f[..., m - width:] @ (wr / spacing**order)
    if indices is None or indices.size >= values.size:
        out = np.empty_like(f, dtype=np.float64)
        out[..., half:m - half] = sliding_window_view(f, wc.size, axis=-1) @ wc
        for row, line_values in ends.items():
            out[..., row] = line_values
        out = np.moveaxis(out, -1, axis)
        return out if indices is None else out.ravel()[indices]

    # in C order, a tap k steps from its point lies k * stride further on
    stride = math.prod(values.shape[axis + 1:])
    flat = values.reshape(-1)
    t = indices // stride % m
    out = np.empty(t.size)
    inner = (t >= half) & (t < m - half)
    first = indices[inner] - half * stride
    total = np.zeros(first.size)
    for k, w in enumerate(wc):
        total += flat[first + k * stride] * w
    out[inner] = total
    for row, line_values in ends.items():
        hit = t == row
        lines = np.unravel_index(indices[hit], values.shape)
        out[hit] = line_values[lines[:axis] + lines[axis + 1:]]
    return out


def axis_spectrum(values: np.ndarray, axis: int) -> np.ndarray:
    """Real FFT along `axis`, moved to the last axis: the forward transform
    that `spectral_diff` takes, for derivatives of several orders to share."""
    return np.fft.rfft(np.moveaxis(values, axis, -1), axis=-1)


def spectral_diff(values: np.ndarray, axis: int, spacing: float, order: int,
                  spectrum: np.ndarray | None = None) -> np.ndarray:
    """Spectral derivative on a periodic axis: rfft, multiply by (ik)^q, irfft.

    For even point counts and odd orders the Nyquist mode is zeroed.
    `spectrum`, when given, is `axis_spectrum(values, axis)`, and the
    forward transform is not taken again.
    """
    if order < 1 or order > MAX_ORDER:
        raise DatasetError(f"derivative order must be in 1..{MAX_ORDER}")
    m = values.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(m, d=spacing)
    mult = (1j * k) ** order
    if m % 2 == 0 and order % 2 == 1:
        mult[-1] = 0.0
    if spectrum is None:
        spectrum = axis_spectrum(values, axis)
    out = np.fft.irfft(spectrum * mult, n=m, axis=-1)
    return np.moveaxis(out, -1, axis)


def spectral_diff_at(spectrum: np.ndarray, axis: int, n: int, spacing: float, orders,
                     points) -> np.ndarray:
    """Spectral derivatives of several orders at chosen grid points, one row
    per order.

    `spectrum` is `axis_spectrum(values, axis)` of an array whose `axis` has
    n points, and `points` holds one index array per axis of that array (as
    `np.unravel_index` gives them). Each point's value is the Fourier series
    of its grid line summed at the point:
    sum_k w_k Re((ik)^q S_k e^{i k x}) / n, with w = 1 at the mean and
    Nyquist modes and 2 elsewhere, and the Nyquist mode zeroed for odd orders
    as in `spectral_diff`. Points go in fixed-size chunks; each chunk gathers
    its block of modes once, and every order is summed from it by a numpy
    reduction, not BLAS, so the result does not depend on the thread count.
    """
    if any(q < 1 or q > MAX_ORDER for q in orders):
        raise DatasetError(f"derivative order must be in 1..{MAX_ORDER}")
    modes = n // 2 + 1
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=spacing)
    weight = np.full(modes, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        weight[-1] = 1.0 / n
    # Re(i^q z) is Re z, -Im z, -Re z, Im z for q = 0, 1, 2, 3 (mod 4)
    coefs = []
    for q in orders:
        c = weight * k**q * (1.0, -1.0, -1.0, 1.0)[q % 4]
        if n % 2 == 0 and q % 2:
            c[-1] = 0.0
        coefs.append(c)
    # e^{i k x} for each distinct position along the axis, from the n-th
    # roots of unity; the modes of a line are gathered from C order, where
    # they are adjacent
    positions, position_row = np.unique(points[axis], return_inverse=True)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    phases = roots[np.multiply.outer(positions, np.arange(modes)) % n]
    spectrum = np.ascontiguousarray(spectrum)
    lines = tuple(points[:axis]) + tuple(points[axis + 1:])
    out = np.empty((len(orders), position_row.size))
    for start in range(0, position_row.size, SAMPLE_CHUNK):
        rows = slice(start, start + SAMPLE_CHUNK)
        z = spectrum[tuple(c[rows] for c in lines)]
        z *= phases[position_row[rows]]
        for i, q in enumerate(orders):
            # einsum without `optimize` runs numpy's own loops, never BLAS
            out[i, rows] = np.einsum("sk,k->s", z.imag if q % 2 else z.real, coefs[i])
    return out


def time_derivative(dataset: Dataset, field: str, accuracy: int = 2,
                    indices: np.ndarray | None = None) -> np.ndarray:
    """Time derivative of a field at the given accuracy order: central
    interior, one-sided at the ends; with flat grid `indices`, at those
    points only (`fd_diff`)."""
    ax = len(dataset.space_axes)
    return fd_diff(dataset.fields[field], ax, dataset.time_axis.spacing, 1,
                   accuracy=accuracy, indices=indices)


def _sg_kernel(offsets: np.ndarray, degree: int, position: float) -> np.ndarray:
    """Row mapping window samples to the local LS polynomial fit value at position."""
    V = np.vander(offsets - position, degree + 1, increasing=True)
    return np.linalg.pinv(V)[0]


def sg_smooth(values: np.ndarray, axis: int, window: int, degree: int) -> np.ndarray:
    """Moving local least-squares polynomial smoothing along one axis.

    Boundary windows shrink one-sidedly, with the fit degree capped at the
    shrunken window size minus one. window == 1 is the identity.
    """
    if window % 2 == 0 or window < 1:
        raise DatasetError("window must be odd and >= 1")
    if window == 1:
        return np.array(values, dtype=np.float64)
    if degree >= window:
        raise DatasetError("degree must be < window")
    m = values.shape[axis]
    if window > m:
        raise DatasetError(f"window {window} exceeds axis length {m}")
    h = (window - 1) // 2
    f = np.moveaxis(values, axis, -1)
    out = np.empty_like(f, dtype=np.float64)
    kern = _sg_kernel(np.arange(-h, h + 1, dtype=float), degree, 0.0)
    out[..., h:m - h] = sliding_window_view(f, window, axis=-1) @ kern
    for i in range(h):
        size = i + h + 1
        d = min(degree, size - 1)
        kb = _sg_kernel(np.arange(size, dtype=float), d, float(i))
        out[..., i] = f[..., :size] @ kb
        kb = _sg_kernel(np.arange(size, dtype=float), d, float(size - 1 - i))
        out[..., m - 1 - i] = f[..., m - size:] @ kb
    return np.moveaxis(out, -1, axis)


def bump_kernel(half_width: int, degree: int) -> np.ndarray:
    """Test-function weights (1 - (j/m)^2)^p at offsets j = -m..m, summing to 1."""
    if half_width < 1 or degree < 1:
        raise DatasetError("test function half-width and degree must be >= 1")
    s = np.arange(-half_width, half_width + 1) / half_width
    w = (1.0 - s * s) ** degree
    return w / w.sum()


def _two_segment_break(c: np.ndarray) -> int:
    """Index j minimizing the summed squared residual of least-squares lines
    fitted to c[:j+1] and c[j:]."""
    n = c.size
    k = np.arange(n, dtype=float)
    sums = [np.concatenate([[0.0], np.cumsum(a)])
            for a in (np.ones(n), k, k * k, c, k * c, c * c)]

    def sse(lo, hi):
        m, sk, skk, sc, skc, scc = (s[hi] - s[lo] for s in sums)
        vxy = skc - sk * sc / m
        return scc - sc * sc / m - vxy * vxy / (skk - sk * sk / m)

    j = np.arange(2, n - 2)
    return int(j[np.argmin(sse(0, j + 1) + sse(j, n))])


def corner_half_width(values: np.ndarray, axis: int, degree: int,
                      periodic: bool) -> int:
    """Half-width m of the bump test function along one axis, from the data.

    The rule follows the spectral-corner choice of WSINDy (Messenger & Bortz,
    J. Comput. Phys. 443:110525, 2021). The corner k* (radians per grid step)
    is where the mean amplitude spectrum along the axis stops falling with
    the signal and flattens onto the noise (or round-off) floor: the break
    of the best two-segment linear fit to the cumulative sum of its log.
    Non-periodic data first lose the line through their endpoints, so that
    the jump between the ends does not leak power over the whole spectrum.
    The bump (1 - (j/m)^2)^p has standard deviation m / sqrt(2p + 3) grid
    steps, so its transform is close to a Gaussian of standard deviation
    sqrt(2p + 3) / m, and m = ceil(sqrt(2p + 3) / k*) puts that standard
    deviation at the corner: the filter passes the band the signal holds and
    damps the floor above it.
    """
    f = np.moveaxis(np.asarray(values, dtype=np.float64), axis, -1)
    n = f.shape[-1]
    if n < 16:
        raise DatasetError(f"axis of length {n} too short for a spectral corner")
    nfft = n
    if not periodic:
        ramp = np.linspace(0.0, 1.0, n)
        f = f - f[..., :1] - (f[..., -1:] - f[..., :1]) * ramp
        # zero padding to a fast length adds no jump to data that vanish
        # at both ends
        nfft = _fft_length(n)
    amp = np.abs(np.fft.rfft(f, nfft, axis=-1)).reshape(-1, nfft // 2 + 1).mean(axis=0)
    amp = np.maximum(amp, np.finfo(float).tiny)
    k_corner = 2.0 * np.pi * _two_segment_break(np.cumsum(np.log(amp))) / nfft
    return math.ceil(math.sqrt(2 * degree + 3) / k_corner)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the lengths the FFT handles fastest."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def bump_filter(values: np.ndarray, half_widths, degree: int, periodic) -> np.ndarray:
    """Convolve with the separable bump test function, one axis at a time.

    Periodic axes wrap and keep their length. Non-periodic axes keep only
    the points whose whole support lies inside the grid, so an axis of
    length n with half-width m comes out with n - 2m points, the first of
    which is centred on input point m. Short stencils are summed directly
    and long ones through the FFT, whichever is faster for the length.
    """
    out = np.asarray(values, dtype=np.float64)
    # the last (contiguous) axis first
    for ax in reversed(range(out.ndim)):
        m, wrap = half_widths[ax], periodic[ax]
        if wrap:
            n = out.shape[ax]
            out = np.concatenate([out.take(range(n - m, n), ax), out,
                                  out.take(range(m), ax)], axis=ax)
        n = out.shape[ax]
        if n <= 2 * m:
            raise DatasetError(f"test function half-width {m} does not fit an "
                               f"axis of length {n}")
        kernel = bump_kernel(m, degree)
        if kernel.size <= DIRECT_TAPS:
            windows = sliding_window_view(out, kernel.size, axis=ax)
            out = np.einsum("...j,j->...", windows, kernel)
            continue
        # a circular convolution of length >= n leaves the valid part
        # [2m, n) free of wraparound
        nfft = _fft_length(n)
        shape = [1] * out.ndim
        shape[ax] = nfft // 2 + 1
        spec = np.fft.rfft(out, nfft, axis=ax)
        spec *= np.fft.rfft(kernel, nfft).reshape(shape)
        valid = [slice(None)] * out.ndim
        valid[ax] = slice(2 * m, n)
        out = np.fft.irfft(spec, nfft, axis=ax)[tuple(valid)]
    return out

