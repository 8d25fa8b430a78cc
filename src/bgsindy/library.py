"""Candidate-term construction and the evaluated regression library.

Terms are monomials in the state fields optionally multiplied by a single
derivative factor. The evaluated library is an N x M matrix over sample
points together with the time-derivative target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .core import Dataset, DatasetError, SampleSet, check_entry, json_entry
from .differentiation import (axis_spectrum, bump_filter, corner_half_width, fd_diff,
                              spectral_diff, spectral_diff_at, time_derivative)
from .regression import compress

AXIS_LETTERS = ("x", "y")
INDEPENDENCE_TOL = 1e-10    # pivoted-QR diagonal, relative to the largest


@dataclass(frozen=True, order=False)
class TermDescriptor:
    """Monomial exponents per field with at most one derivative factor."""
    powers: tuple[tuple[str, int], ...] = ()
    deriv: tuple[str, tuple[int, ...]] | None = None

    def __post_init__(self):
        powers = tuple(sorted((f, int(p)) for f, p in self.powers if p != 0))
        if any(p < 0 for _, p in powers):
            raise DatasetError("negative monomial exponent")
        if self.deriv is not None:
            f, orders = self.deriv
            orders = tuple(int(o) for o in orders)
            if any(o < 0 for o in orders) or sum(orders) < 1:
                raise DatasetError("derivative factor must have total order >= 1")
            object.__setattr__(self, "deriv", (f, orders))
        object.__setattr__(self, "powers", powers)

    def canonical_key(self) -> tuple:
        if self.deriv is None:
            dkey = (0, "", 0, ())
        else:
            f, orders = self.deriv
            dkey = (1, f, sum(orders), tuple(-o for o in orders))
        pkey = (sum(p for _, p in self.powers),
                tuple((f, -p) for f, p in self.powers))
        return dkey + pkey

    def __lt__(self, other: "TermDescriptor") -> bool:
        return self.canonical_key() < other.canonical_key()

    @property
    def name(self) -> str:
        return render_term(self)

    def evaluate(self, powers: dict, deriv_values: dict) -> np.ndarray:
        """Pointwise term value from per-field power tables (`power_tables`)
        and derivative arrays. The result may be one of the input arrays."""
        out = None
        for f, p in self.powers:
            v = powers[f][p - 1]
            out = v if out is None else out * v
        if self.deriv is not None:
            d = deriv_values[self.deriv]
            out = d if out is None else out * d
        if out is None:
            out = np.ones_like(next(iter(powers.values()))[0])
        return out

    def to_json_dict(self) -> dict:
        d = {"powers": {f: p for f, p in self.powers}}
        if self.deriv is not None:
            d["deriv"] = {"field": self.deriv[0], "orders": list(self.deriv[1])}
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "TermDescriptor":
        """The term of a `to_json_dict` object; `powers` may be absent and
        `deriv` absent or null. A mistyped entry raises a DatasetError."""
        if not isinstance(d, dict):
            raise DatasetError(f"term must be a JSON object, got {d!r}")
        powers = json_entry(d, "powers", dict, "term") if "powers" in d else {}
        for f, p in powers.items():
            check_entry("term power", f, p, int)
        deriv = None
        if d.get("deriv") is not None:
            deriv = (json_entry(d["deriv"], "field", str, "term deriv"),
                     tuple(json_entry(d["deriv"], "orders", tuple[int, ...], "term deriv")))
        return TermDescriptor(tuple(powers.items()), deriv)


def power_table(values, degree: int) -> list:
    """[u, u^2, ..., u^degree] by repeated products; entry p - 1 holds u^p.

    `u ** p` with p > 2 goes through pow() and costs tens of times a
    product; u^2 by product is bit-identical to `u ** 2`, higher powers agree
    to round-off.
    """
    table = [values]
    for _ in range(degree - 1):
        table.append(table[-1] * values)
    return table


def power_degrees(terms) -> dict:
    """Per field, the highest exponent any of the terms needs."""
    degrees = {}
    for t in terms:
        for f, p in t.powers:
            degrees[f] = max(degrees.get(f, 1), p)
    return degrees


def power_tables(fields: dict, degrees: dict) -> dict:
    """Per field, the power table up to its degree (`power_degrees`)."""
    return {f: power_table(v, degrees.get(f, 1)) for f, v in fields.items()}


def render_term(term: TermDescriptor) -> str:
    """Canonical display form, e.g. "u u_x", "u^2 u_{xxx}", "v_yy", "1"."""
    parts = []
    for f, p in term.powers:
        parts.append(f if p == 1 else f"{f}^{p}")
    if term.deriv is not None:
        f, orders = term.deriv
        letters = "".join(AXIS_LETTERS[i] * o for i, o in enumerate(orders))
        sub = letters if len(letters) < 3 else "{" + letters + "}"
        parts.append(f"{f}_{sub}")
    return " ".join(parts) if parts else "1"


@dataclass(frozen=True)
class LibrarySpec:
    """Library construction rules. The grid picks the family of terms
    (`terms_for_spec`): on a 1D grid, powers of the target field up to
    poly_degree times its derivatives up to deriv_order, (P+1)(Q+1) terms
    with the constant first; on a 2D grid, all monomials in the dataset's two
    fields up to total degree poly_degree, plus every space derivative of
    each field of total order 1 to deriv_order, (P+1)(P+2)/2 + Q(Q+3) terms.

    test_function_degree None gives grid-local rows: each row is every
    column's value at one grid point. A degree p gives test-function rows:
    every evaluated column and the u_t target are convolved with the
    separable bump (1 - (j/m)^2)^p before sampling, so a row is a local
    weighted average centred on its grid point. The PDE is linear in its
    coefficients, so the averaged rows satisfy it with the same
    coefficients, while the average damps the noise that differentiation
    amplifies. The half-widths m come from the data (`row_half_widths`).
    """
    poly_degree: int = 2
    deriv_order: int = 4
    time_accuracy: int = 2
    test_function_degree: int | None = None

    def __post_init__(self):
        if self.poly_degree < 0 or self.deriv_order < 0:
            raise DatasetError("library bounds must be non-negative")
        if self.test_function_degree is not None and self.test_function_degree < 1:
            raise DatasetError("test function degree must be >= 1")


@dataclass(frozen=True)
class Library:
    """Evaluated candidate terms at the samples, and the target there.

    `matrix` and `target` are never written once the library is built:
    `compressed` is taken from them once, on first use, and every least-
    squares consumer of the library (the pruner, STLSQ) solves on it. A
    library from `dataclasses.replace` or `reduce_independent` is a new
    object and compresses afresh.
    """
    terms: tuple[TermDescriptor, ...]
    # N x M, column-major: each tall factorization (the pivoted QR and SVD
    # of `reduce_independent`, the QR of `compressed`) runs LAPACK on a
    # column-major copy, which a row-major matrix would first transpose
    matrix: np.ndarray
    target: np.ndarray            # N
    sample_set: SampleSet
    target_field: str
    spec: LibrarySpec
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.matrix.shape[1] != len(self.terms):
            raise DatasetError("column count must equal term count")
        if self.matrix.shape[0] != self.target.size:
            raise DatasetError("matrix rows must match target length")
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.target).all()):
            raise DatasetError("library contains non-finite entries")

    @cached_property
    def compressed(self) -> tuple[np.ndarray, np.ndarray]:
        """R and Q^T y of matrix = QR (`regression.compress`): M x M and M,
        so the cache holds no N-row array."""
        return compress(self.matrix, self.target)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[1]

    def term_names(self) -> list[str]:
        return [t.name for t in self.terms]


def terms_for_spec(spec: LibrarySpec, fields: list[str],
                   ndim_space: int) -> list[TermDescriptor]:
    """Deterministic, canonically ordered term list for a library spec on a
    grid of `ndim_space` space axes, over the `library_fields` of the grid:
    the target field alone in 1D, the two fields of the dataset in 2D."""
    if ndim_space == 1:
        (f,) = fields
        return sorted(TermDescriptor(((f, p),), (f, (q,)) if q else None)
                      for q in range(spec.deriv_order + 1)
                      for p in range(spec.poly_degree + 1))
    fa, fb = sorted(fields)
    terms = [TermDescriptor(((fa, i), (fb, d - i)))
             for d in range(spec.poly_degree + 1) for i in range(d + 1)]
    terms += [TermDescriptor((), (f, (q - i, i)))
              for f in (fa, fb) for q in range(1, spec.deriv_order + 1) for i in range(q + 1)]
    return sorted(terms)


def library_fields(dataset: Dataset, target_field: str) -> list[str]:
    """The fields a library's terms read, by the grid: the target field alone
    on a 1D grid, the dataset's two fields on a 2D one. A 2D dataset that
    does not hold exactly two fields raises a DatasetError."""
    if target_field not in dataset.fields:
        raise DatasetError(f"unknown target field '{target_field}'")
    if dataset.ndim_space == 1:
        return [target_field]
    if len(dataset.fields) != 2:
        raise DatasetError(f"a 2D library reads exactly two fields, the dataset holds "
                           f"{len(dataset.fields)}: {dataset.field_names()}")
    return dataset.field_names()


def _sums_at_points_cheaper(n_points: int, shape, axis: int) -> bool:
    """Does summing a periodic derivative's Fourier series at n_points take
    fewer operations (points x modes) than inverse-transforming the grid
    (grid points x log2(axis length)) and sampling it?"""
    n = shape[axis]
    return n_points * (n // 2 + 1) < math.prod(shape) * math.log2(n)


def _space_derivatives(dataset: Dataset, keys, indices: np.ndarray | None = None) -> dict:
    """{(field, orders): derivative} for the given (field, orders) keys.

    A field that is not periodic gets 4th-order finite differences. A
    periodic one is differentiated spectrally, one axis after the other. The
    keys are grouped by the source of their last step: the field, or in 2D
    its full-grid derivative along the earlier axis. Each group, in order of
    field and axis, transforms its source once along its axis, takes there
    every order its keys end on and the full-grid derivatives that later
    groups start from, and frees its spectrum before the next group takes
    its own: one transform of u along x serves u_x, u_xx, ..., and the (1, 1)
    order of a 2D field is the transform of u_x along y.

    With flat grid `indices`, each derivative is returned at those points
    only. A periodic group's orders are then summed directly at the points
    (`spectral_diff_at`, every order from one gathered block) wherever that
    takes fewer operations than the inverse transforms
    (`_sums_at_points_cheaper`).
    """
    groups = {}     # (field, axis, source orders) -> (keys ending there, keys fed on)
    for fname, orders in keys:
        axes = [ax for ax, o in enumerate(orders) if o]
        for ax in axes:
            zeros = (0,) * (len(orders) - ax - 1)
            ends, feeds = groups.setdefault((fname, ax, orders[:ax] + (0,) + zeros), ([], set()))
            if ax == axes[-1]:
                ends.append((fname, orders))
            else:
                feeds.add((fname, orders[:ax + 1] + zeros))

    def grid(values, ax, key, spectrum):
        """The full-grid derivative `key`, whose last step is along ax."""
        if key in fed:
            return fed[key]
        spacing = dataset.space_axes[ax].spacing
        if spectrum is None:
            return fd_diff(values, ax, spacing, key[1][ax], accuracy=4)
        return spectral_diff(values, ax, spacing, key[1][ax], spectrum)

    def at_samples(full):
        return full if indices is None else full.ravel()[indices]

    shape = dataset.shape
    fed, out = {}, {}
    for (fname, ax, source), (ends, feeds) in sorted(groups.items()):
        values = fed.pop((fname, source)) if any(source) else dataset.fields[fname]
        # the last use of the spectrum takes it from the list, so that the
        # contiguous copy `spectral_diff_at` makes replaces it
        spectrum = [axis_spectrum(values, ax) if dataset.boundary[fname] == "periodic" else None]
        fed.update((key, grid(values, ax, key, spectrum[0])) for key in sorted(feeds))
        if (indices is not None and spectrum[0] is not None and ends
                and _sums_at_points_cheaper(indices.size, shape, ax)):
            out.update(zip(ends, spectral_diff_at(spectrum.pop(), ax, shape[ax],
                                                  dataset.space_axes[ax].spacing,
                                                  [key[1][ax] for key in ends],
                                                  np.unravel_index(indices, shape))))
        else:
            out.update((key, at_samples(grid(values, ax, key, spectrum[0]))) for key in ends)
        del spectrum    # before the next group takes its own
    return out


def _periodic_axes(dataset: Dataset, fname: str) -> tuple[bool, ...]:
    """Per grid axis (space axes, then time): does the field wrap around?"""
    return (dataset.boundary[fname] == "periodic",) * dataset.ndim_space + (False,)


def row_half_widths(dataset: Dataset, target_field: str,
                    spec: LibrarySpec) -> tuple[int, ...]:
    """Test-function half-widths per grid axis (space axes, then time).

    Each comes from the spectral corner of the target field along that axis
    (`corner_half_width`); all are 0 for grid-local rows.
    """
    if spec.test_function_degree is None:
        return (0,) * len(dataset.shape)
    values = dataset.fields[target_field]
    return tuple(corner_half_width(values, ax, spec.test_function_degree, wrap)
                 for ax, wrap in enumerate(_periodic_axes(dataset, target_field)))


def row_margins(dataset: Dataset, target_field: str,
                half_widths: tuple[int, ...]) -> tuple[int, ...]:
    """Grid points at each end of each axis that no row may be centred on:
    the half-width on non-periodic axes, where the support must stay inside
    the grid, and 0 on periodic ones, where it wraps."""
    return tuple(0 if wrap else m for m, wrap
                 in zip(half_widths, _periodic_axes(dataset, target_field)))


def build_library(dataset: Dataset, sample_set: SampleSet, spec: LibrarySpec,
                  target_field: str,
                  half_widths: tuple[int, ...] | None = None) -> Library:
    """Evaluate the candidate terms and the time-derivative target at samples.

    Grid-local rows take the space derivatives (`_space_derivatives`) and
    the time target (`time_derivative`) at the samples. With a test function
    (spec.test_function_degree), `half_widths` defaults to
    `row_half_widths`, and every sample must lie `row_margins` away from the
    ends of each axis, as `subsample(..., margins=row_margins(...))` draws
    them. Columns and the time target are then filtered one at a time on the
    full grid.
    """
    if sample_set.shape != dataset.shape:
        raise DatasetError("sample set was drawn from a different grid")
    idx = sample_set.indices
    names = library_fields(dataset, target_field)
    terms = terms_for_spec(spec, names, dataset.ndim_space)
    needed = sorted({t.deriv for t in terms if t.deriv is not None})
    diagnostics = {}
    matrix = np.empty((idx.size, len(terms)), order="F")
    if spec.test_function_degree is None:
        powers = power_tables({f: dataset.fields[f].ravel()[idx] for f in names},
                              power_degrees(terms))
        sampled_derivs = _space_derivatives(dataset, needed, idx)
        for j, t in enumerate(terms):
            matrix[:, j] = t.evaluate(powers, sampled_derivs)
        target = time_derivative(dataset, target_field, spec.time_accuracy, idx)
    else:
        if half_widths is None:
            half_widths = row_half_widths(dataset, target_field, spec)
        margins = row_margins(dataset, target_field, half_widths)
        coords = np.unravel_index(idx, dataset.shape)
        for c, m, n in zip(coords, margins, dataset.shape):
            if ((c < m) | (c >= n - m)).any():
                raise DatasetError("a sample's test-function support leaves the grid")
        inner = tuple(c - m for c, m in zip(coords, margins))
        periodic = _periodic_axes(dataset, target_field)

        def rows(full):
            return bump_filter(full, half_widths, spec.test_function_degree,
                               periodic)[inner]

        powers = power_tables({f: dataset.fields[f] for f in names}, power_degrees(terms))
        derivs = _space_derivatives(dataset, needed)
        for j, t in enumerate(terms):
            matrix[:, j] = rows(t.evaluate(powers, derivs))
        target = rows(time_derivative(dataset, target_field, spec.time_accuracy))
        diagnostics["test_function"] = {"degree": spec.test_function_degree,
                                        "half_widths": [int(m) for m in half_widths]}

    return Library(tuple(terms), matrix, target, sample_set, target_field, spec,
                   diagnostics)


def reduce_independent(library: Library) -> Library:
    """Drop columns until a maximal numerically independent subset remains.

    Pivoted-QR diagonals below INDEPENDENCE_TOL times the largest are treated
    as dependent; the numerical rank is cross-checked against the SVD of the
    full matrix.
    """
    import scipy.linalg  # loaded at the first factorization, not with the package
    if library.n_terms < 1:
        raise DatasetError("library has no columns")
    # "raw" mode returns R as the top M x M block alone, not an N-row triu;
    # the N-row Householder factor it also returns is dropped at once. LAPACK
    # factors one private column-major copy in place: without overwrite_a,
    # scipy's workspace query and the factorization each copy the matrix
    R, piv = scipy.linalg.qr(np.array(library.matrix, order="F"), overwrite_a=True,
                             mode="raw", pivoting=True)[1:]
    diag = np.abs(np.diag(R))
    dmax = diag.max()
    if dmax == 0:
        raise DatasetError("degenerate data: all columns below tolerance")
    rank = int((diag >= INDEPENDENCE_TOL * dmax).sum())
    kept = np.sort(piv[:rank])
    dropped = np.sort(piv[rank:])
    sv = np.linalg.svd(library.matrix, compute_uv=False)
    svd_rank = int((sv >= INDEPENDENCE_TOL * sv.max()).sum())
    diagnostics = dict(library.diagnostics)
    diagnostics["independence"] = {
        "tol": INDEPENDENCE_TOL,
        "qr_rank": rank,
        "svd_rank": svd_rank,
        "dropped": [library.terms[j].name for j in dropped],
    }
    if rank == library.n_terms:
        return replace(library, diagnostics=diagnostics)
    return Library(tuple(library.terms[j] for j in kept), library.matrix[:, kept],
                   library.target, library.sample_set, library.target_field,
                   library.spec, diagnostics)
