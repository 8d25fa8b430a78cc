"""Grid datasets, persistence, sampling, noise injection, and shared result types.

A Dataset is an immutable spatiotemporal grid (1 or 2 uniform space axes plus
time) carrying one or more real fields. Persistence uses a JSON header next to
a raw little-endian float64 binary so round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

BOUNDARY_KINDS = ("periodic", "dirichlet-homogeneous")


class DatasetError(ValueError):
    """Malformed dataset construction or persistence."""


def _fits(value, kind) -> bool:
    """Does a JSON value fit a declared type? An int is an integer but no
    bool; a float is any finite integer or float; a tuple is an array, of the
    declared length unless it ends in `...`."""
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):
        return any(_fits(value, k) for k in args)
    if kind is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    return type(value) is (typing.get_origin(kind) or kind)


def _kind_name(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(_kind_name(k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        return "[" + ", ".join("..." if k is Ellipsis else _kind_name(k)
                               for k in typing.get_args(kind)) + "]"
    return {int: "an integer", float: "a finite number", str: "a string", list: "an array",
            dict: "an object", type(None): "null"}.get(kind, f"a {kind.__name__}")


def check_entry(what: str, name: str, value, kind) -> None:
    """Raise a DatasetError naming the entry unless `value`, read from JSON,
    fits its declared type `kind` (an annotation such as `int | None`)."""
    if not _fits(value, kind):
        raise DatasetError(f"{what} {name!r} must be {_kind_name(kind)}, got {value!r}")


def json_entry(entries, name: str, kind, what: str):
    """The entry `name` of a JSON object, with a DatasetError naming it when
    `entries` is no object, lacks it, or its value does not fit `kind`
    (`check_entry`)."""
    if not isinstance(entries, dict):
        raise DatasetError(f"{what} must be a JSON object, got {entries!r}")
    if name not in entries:
        raise DatasetError(f"{what} lacks entry {name!r}")
    check_entry(f"{what} entry", name, entries[name], kind)
    return entries[name]


def from_entries(cls, entries: dict, what: str):
    """`cls(**entries)` for a dataclass, with a DatasetError naming the first
    unknown or missing entry, or the first whose value does not fit its
    field's declared type (`check_entry`), instead of a TypeError."""
    if not isinstance(entries, dict):
        raise DatasetError(f"{what} must be a JSON object, got {entries!r}")
    unknown = sorted(set(entries) - {f.name for f in fields(cls)})
    if unknown:
        raise DatasetError(f"unknown {what} entry {unknown[0]!r}")
    missing = [f.name for f in fields(cls) if f.name not in entries
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise DatasetError(f"{what} lacks entry {missing[0]!r}")
    kinds = typing.get_type_hints(cls)
    for name, value in entries.items():
        check_entry(f"{what} entry", name, value, kinds[name])
    return cls(**entries)


@dataclass(frozen=True)
class Axis:
    origin: float
    spacing: float
    count: int

    def __post_init__(self):
        if self.spacing <= 0:
            raise DatasetError(f"axis spacing must be positive, got {self.spacing}")
        if self.count < 4:
            raise DatasetError(f"axis count must be >= 4, got {self.count}")

    def points(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float64 array of arr's values. A read-only
    array that needs no conversion is kept; a writeable one is copied, so the
    caller can still write to it and the dataset does not see those writes."""
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.flags.writeable and np.may_share_memory(out, arr):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    space_axes: tuple[Axis, ...]
    time_axis: Axis
    fields: dict[str, np.ndarray]
    boundary: dict[str, str]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= len(self.space_axes) <= 2:
            raise DatasetError("expected 1 or 2 space axes")
        if not self.fields:
            raise DatasetError("dataset has no fields")
        shape = self.shape
        frozen = {}
        for name, arr in self.fields.items():
            arr = np.asarray(arr)
            if arr.shape != shape:
                raise DatasetError(
                    f"field '{name}' has shape {arr.shape}, axes imply {shape}")
            if not np.isfinite(arr).all():
                raise DatasetError(f"field '{name}' contains non-finite values")
            frozen[name] = _freeze(arr)
            kind = self.boundary.get(name)
            if kind not in BOUNDARY_KINDS:
                raise DatasetError(f"field '{name}' boundary kind {kind!r} invalid")
        object.__setattr__(self, "fields", frozen)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.space_axes) + (self.time_axis.count,)

    @property
    def total_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def ndim_space(self) -> int:
        return len(self.space_axes)

    def field_names(self) -> list[str]:
        return list(self.fields)

    def with_field(self, name: str, values: np.ndarray, metadata: dict | None = None) -> "Dataset":
        """Copy of the dataset with one field replaced."""
        fields = dict(self.fields)
        if name not in fields:
            raise DatasetError(f"unknown field '{name}'")
        fields[name] = values
        return Dataset(self.space_axes, self.time_axis, fields, dict(self.boundary),
                       dict(metadata if metadata is not None else self.metadata))


def save_dataset(dataset: Dataset, path) -> None:
    """Write `<path>.json` header and `<path>.bin` payload (row-major f64le)."""
    base = Path(path)
    if base.suffix in (".json", ".bin"):
        base = base.with_suffix("")
    names = dataset.field_names()
    header = {
        "dtype": "f64le",
        "order": "row-major",
        "axes": {
            "space": [vars(a) for a in dataset.space_axes],
            "time": vars(dataset.time_axis),
        },
        "fields": [
            {"name": n, "shape": list(dataset.shape),
             "offset_bytes": i * dataset.total_points * 8}
            for i, n in enumerate(names)
        ],
        "boundary": {n: dataset.boundary[n] for n in names},
        "metadata": dataset.metadata,
    }
    base.with_suffix(".json").write_text(json.dumps(header, indent=1, sort_keys=True))
    with open(base.with_suffix(".bin"), "wb") as fh:
        for n in names:
            fh.write(np.ascontiguousarray(dataset.fields[n], dtype="<f8").tobytes())


@dataclass(frozen=True)
class _FieldEntry:
    """An entry of a dataset header's `fields`: a field's grid shape and the
    byte where its row-major values start in the payload."""
    name: str
    shape: tuple[int, ...]
    offset_bytes: int


def load_dataset(path) -> Dataset:
    """The dataset `save_dataset` wrote. A header entry that is missing or
    not of its type, or a field that does not fit the axes or the payload,
    raises a DatasetError that names it."""
    base = Path(path)
    if base.suffix in (".json", ".bin"):
        base = base.with_suffix("")
    try:
        header = json.loads(base.with_suffix(".json").read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed header: {exc}") from exc
    what = "dataset header"
    for name, value in (("dtype", "f64le"), ("order", "row-major")):
        if json_entry(header, name, str, what) != value:
            raise DatasetError(f"{what} entry {name!r} must be {value!r}, "
                               f"got {header[name]!r}")
    axes = json_entry(header, "axes", dict, what)
    space = tuple(from_entries(Axis, a, "dataset space axis")
                  for a in json_entry(axes, "space", list, "dataset axes"))
    time = from_entries(Axis, json_entry(axes, "time", dict, "dataset axes"),
                        "dataset time axis")
    entries = [from_entries(_FieldEntry, f, "dataset field")
               for f in json_entry(header, "fields", list, what)]
    boundary = json_entry(header, "boundary", dict, what)
    metadata = json_entry(header, "metadata", dict, what)
    shape = tuple(a.count for a in space) + (time.count,)
    for e in entries:
        if tuple(e.shape) != shape:
            raise DatasetError(f"dataset field {e.name!r} has shape {list(e.shape)}, "
                               f"axes imply {list(shape)}")
    payload = base.with_suffix(".bin").read_bytes()
    count = math.prod(shape)
    size = 8 * count
    if len(payload) != size * len(entries):
        raise DatasetError(f"payload size mismatch: {len(payload)} bytes, "
                           f"header implies {size * len(entries)}")
    fields = {}
    for e in entries:
        if not 0 <= e.offset_bytes <= len(payload) - size:
            raise DatasetError(f"dataset field {e.name!r} at offset_bytes {e.offset_bytes} "
                               f"leaves the {len(payload)}-byte payload")
        fields[e.name] = np.frombuffer(payload, "<f8", count, e.offset_bytes).reshape(shape)
    return Dataset(space, time, fields, boundary, metadata)


@dataclass(frozen=True)
class SampleSet:
    """Flat spatiotemporal indices into a dataset's row-major grid."""
    indices: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        # a private copy: freezing the caller's own array would freeze it for them
        idx = np.array(self.indices, dtype=np.int64)
        total = int(np.prod(self.shape))
        if idx.size == 0:
            raise DatasetError("empty sample set")
        # a sort and a neighbour compare: np.unique hashes, which costs
        # tens of times more on the 780k indices of a full KdV grid
        ordered = np.sort(idx)
        if ordered[0] < 0 or ordered[-1] >= total:
            raise DatasetError("sample index out of range")
        if (ordered[1:] == ordered[:-1]).any():
            raise DatasetError("duplicate sample indices")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return int(self.indices.size)


def sample_box(shape: tuple[int, ...],
               time_window: tuple[int | None, int | None] | None = None,
               margins: tuple[int, ...] | None = None) -> list[tuple[int, int]]:
    """Per-axis [lo, hi) ranges of the grid points a sample may be drawn from.

    `time_window` (lo, hi) restricts the time axis to output slices [lo, hi);
    a None end is the start or the end of the axis. `margins` (one count per
    axis, space axes then time) drops that many points at both ends of each
    axis.
    """
    box = [(0, n) for n in shape]
    if time_window is not None:
        lo, hi = time_window
        lo, hi = 0 if lo is None else lo, shape[-1] if hi is None else hi
        if not (0 <= lo < hi <= shape[-1]):
            raise DatasetError(f"invalid time window {time_window}")
        box[-1] = (lo, hi)
    if margins is not None:
        if len(margins) != len(shape) or any(m < 0 for m in margins):
            raise DatasetError(f"need one non-negative margin per axis, got {margins}")
        box = [(max(lo, m), min(hi, n - m)) for (lo, hi), n, m in zip(box, shape, margins)]
        if any(lo >= hi for lo, hi in box):
            raise DatasetError(f"margins {tuple(margins)} leave no grid point to sample")
    return box


def subsample(dataset: Dataset, n: int | None = None, seed: int = 0,
              time_window: tuple[int | None, int | None] | None = None,
              margins: tuple[int, ...] | None = None) -> SampleSet:
    """Grid points of the box `sample_box(shape, time_window, margins)`: all
    of them in grid order when n is None, else n distinct ones drawn
    uniformly, deterministically in (inputs, seed). The stored indices
    address the full grid.
    """
    shape = dataset.shape
    box = sample_box(shape, time_window, margins)
    if n is None:
        full = np.arange(dataset.total_points, dtype=np.int64).reshape(shape)
        return SampleSet(full[tuple(slice(lo, hi) for lo, hi in box)].ravel(), shape)
    box_total = math.prod(hi - lo for lo, hi in box)
    if not 1 <= n <= box_total:
        raise DatasetError(f"n={n} out of range (window holds {box_total} points)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flat_box = rng.choice(box_total, size=n, replace=False)
    return SampleSet(_box_to_full(flat_box, shape, box), shape)


def _box_to_full(flat_box, shape, box):
    coords = np.unravel_index(flat_box, [hi - lo for lo, hi in box])
    full = tuple(c + lo for c, (lo, _) in zip(coords, box))
    return np.ravel_multi_index(full, shape).astype(np.int64)


def add_noise(dataset: Dataset, field_name: str, gamma: float, seed: int = 0) -> Dataset:
    """Gaussian noise scaled by gamma times the field's population std."""
    if gamma < 0:
        raise DatasetError("gamma must be >= 0")
    if field_name not in dataset.fields:
        raise DatasetError(f"unknown field '{field_name}'")
    if gamma == 0:
        return dataset
    u = dataset.fields[field_name]
    sigma = float(u.std())  # population (1/N) convention
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noisy = u + gamma * sigma * rng.standard_normal(u.shape)
    noisy.flags.writeable = False       # handed over: the dataset copies nothing
    meta = dict(dataset.metadata)
    meta["noise"] = {"field": field_name, "gamma": gamma, "seed": seed,
                     "std": sigma, "std_convention": "population"}
    return dataset.with_field(field_name, noisy, meta)


@dataclass(frozen=True)
class DiscoveredModel:
    """Sparse model: active terms with fitted coefficients for one target field."""
    terms: tuple
    coefficients: np.ndarray
    target_field: str
    residual: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.float64)
        if len(self.terms) != coef.size:
            raise DatasetError("terms and coefficients must have equal length")
        if len(set(self.terms)) != len(self.terms):
            raise DatasetError("duplicate terms in model")
        if self.residual < 0:
            raise DatasetError("residual must be >= 0")
        coef.flags.writeable = False
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "coefficients", coef)

    @property
    def empty(self) -> bool:
        return len(self.terms) == 0

    def coefficient_of(self, term) -> float:
        return float(self.coefficients[self.terms.index(term)])

    def equation_string(self) -> str:
        if self.empty:
            return f"{self.target_field}_t = 0"
        parts = [f"{c:+.6g} {t.name}" for t, c in zip(self.terms, self.coefficients)]
        return f"{self.target_field}_t = " + " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "target_field": self.target_field,
            "residual": self.residual,
            "empty": self.empty,
            "terms": [
                {**t.to_json_dict(), "coefficient": float(c)}
                for t, c in zip(self.terms, self.coefficients)
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "DiscoveredModel":
        """The model of a `to_json_dict` object; a missing or mistyped entry
        raises a DatasetError that names it."""
        from .library import TermDescriptor
        entries = json_entry(d, "terms", list, "model")
        coefs = np.array([json_entry(t, "coefficient", float, "model term") for t in entries],
                         dtype=float)
        terms = tuple(TermDescriptor.from_json_dict(t) for t in entries)
        return DiscoveredModel(terms, coefs, json_entry(d, "target_field", str, "model"),
                               json_entry(d, "residual", float, "model"))


@dataclass(frozen=True)
class PruneIteration:
    active: tuple[int, ...]
    coefficients: np.ndarray
    importances: np.ndarray     # global importance per active term
    removed: int | None         # library term index removed after this iteration
    residual: float


@dataclass(frozen=True)
class PruneTrace:
    """Per-iteration pruning record; iteration k has M - k active terms."""
    iterations: tuple[PruneIteration, ...]
    selected_iteration: int
    term_names: tuple[str, ...]

    def __post_init__(self):
        sizes = [len(it.active) for it in self.iterations]
        for a, b in zip(sizes, sizes[1:]):
            if b != a - 1:
                raise DatasetError("active-set size must decrease by exactly 1")
        if not 0 <= self.selected_iteration < len(self.iterations):
            raise DatasetError("selected iteration out of range")

    @property
    def residuals(self) -> np.ndarray:
        return np.array([it.residual for it in self.iterations])

    def to_json_dict(self) -> dict:
        return {
            "selected_iteration": self.selected_iteration,
            "term_names": list(self.term_names),
            "iterations": [
                {
                    "active": list(it.active),
                    "coefficients": [float(c) for c in it.coefficients],
                    "importances": [float(w) for w in it.importances],
                    "removed": it.removed,
                    "removed_name": None if it.removed is None else self.term_names[it.removed],
                    "residual": it.residual,
                }
                for it in self.iterations
            ],
        }

    def to_csv(self, path) -> None:
        """One row per iteration: residual history plus the global importance
        of every still-active term (blank once pruned), heatmap-ready."""
        header = ["iteration", "active_size", "residual", "removed_term",
                  "selected"] + [f"W[{n}]" for n in self.term_names]
        lines = [",".join(header)]
        for k, it in enumerate(self.iterations):
            name = "" if it.removed is None else self.term_names[it.removed]
            sel = 1 if k == self.selected_iteration else 0
            w = {j: repr(float(v)) for j, v in zip(it.active, it.importances)}
            cells = [w.get(j, "") for j in range(len(self.term_names))]
            lines.append(",".join([str(k), str(len(it.active)), repr(it.residual),
                                   name, str(sel)] + cells))
        Path(path).write_text("\n".join(lines) + "\n")
