"""Span tracing for the benchmark's traced run.

The tracer wraps public names of the bgsindy modules at the lookup site the
program uses (for example ``bgsindy.benchmarks.build_library``, the name
``run_discovery`` calls), so no file of the package changes. Every wrapped
call records one span: name, start, end, parent span and op id. Spans live in
memory as columns and are written out once, at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

WRAPPED = "__perfbench_wrapped__"

# Spans whose callees are classified by the innermost open one: evaluation of
# library terms is split into "build" and "integrate", and an SVD/QR counts as
# a tall library factorization only inside build, reduce or discover, and only
# on a matrix with the library's row count.
SCOPES = {
    "library.build": lambda args: args[1].n,
    "library.reduce": lambda args: args[0].n_samples,
    "pruner.discover": lambda args: args[0].n_samples,
    "simulate.solve": lambda args: None,
    "simulate.integrate": lambda args: None,
}


def _evaluate_name(tracer, args):
    scope = tracer.scope()
    kind = "build" if scope is not None and scope[0] == "library.build" else "integrate"
    return "library.term_evaluate_" + kind


def _factorization_name(tracer, args):
    scope = tracer.scope()
    if scope is None or scope[1] is None or np.ndim(args[0]) != 2:
        return None
    return "library.factorize" if np.shape(args[0])[0] == scope[1] else None


def _sweep_cell_name(tracer, args):
    return "benchmarks.sweep_cell_" + f"{args[3]:.0e}".replace("e+0", "e").replace("e+", "e")


def _array_points(args):
    return np.size(args[0])


def _field_points(args):
    return args[0].fields[args[1]].size


def targets():
    """(owner, attribute, span name or naming function, points probe)."""
    import numpy.linalg
    import scipy.linalg

    from bgsindy import baselines, benchmarks, core, library, metrics, pruner, simulate

    return [
        (simulate, "generate_benchmark", "simulate.solve", None),
        (simulate, "integrate_model", "simulate.integrate", None),
        (simulate.Etdrk4, "step", "simulate.etdrk4_step", None),
        (core, "save_dataset", "core.save", None),
        (core, "load_dataset", "core.load", None),
        (benchmarks, "run_discovery", "benchmarks.run_discovery", None),
        (benchmarks, "sweep_cell", _sweep_cell_name, None),
        (benchmarks, "add_noise", "core.add_noise", None),
        (benchmarks, "subsample", "core.subsample", None),
        (benchmarks, "sg_smooth", "differentiation.smooth", _array_points),
        (benchmarks, "build_library", "library.build", None),
        (benchmarks, "reduce_independent", "library.reduce", None),
        (benchmarks, "discover", "pruner.discover", None),
        (benchmarks, "structure_match", "metrics.score", None),
        (benchmarks, "coefficient_error", "metrics.score", None),
        (library, "fd_diff", "differentiation.fd", _array_points),
        (library, "spectral_diff", "differentiation.spectral", _array_points),
        (library, "time_derivative", "differentiation.fd", _field_points),
        (library.TermDescriptor, "evaluate", _evaluate_name, None),
        (pruner, "importance", "pruner.importance", None),
        (baselines, "least_squares", "regression.least_squares", None),
        (baselines, "stlsq", "baselines.stlsq", None),
        (baselines, "train_stridge", "baselines.stridge", None),
        (metrics, "coefficient_error", "metrics.score", None),
        (metrics, "relative_l2", "metrics.score", None),
        (metrics, "structure_match", "metrics.score", None),
        (numpy.linalg, "svd", _factorization_name, None),
        (numpy.linalg, "qr", _factorization_name, None),
        (scipy.linalg, "qr", _factorization_name, None),
    ]


def installed_wrappers(target_list=None) -> list[str]:
    """Names of targets that currently hold a tracing wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in (target_list or targets())
            if getattr(vars(owner)[attr], WRAPPED, False)]


class Tracer:
    """Records spans around wrapped calls; install() and uninstall() swap the
    wrappers in and restore the original attributes by identity."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.points = Counter()
        self.op_id = -1
        self._open: list[int] = []
        self._scopes: list[tuple[str, int | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._begin(name)
        try:
            yield
        finally:
            self._finish(i)

    def scope(self):
        return self._scopes[-1] if self._scopes else None

    def _wrap(self, original, naming, probe):
        tracer = self

        def wrapper(*args, **kwargs):
            name = naming(tracer, args) if callable(naming) else naming
            if name is None:
                return original(*args, **kwargs)
            scope_rows = SCOPES.get(name)
            if scope_rows is not None:
                tracer._scopes.append((name, scope_rows(args)))
            if probe is not None:
                tracer.points[name] += probe(args)
            i = tracer._begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._finish(i)
                if scope_rows is not None:
                    tracer._scopes.pop()

        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, target_list=None) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, naming, probe in (target_list or targets()):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, naming, probe))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; returns those not restored by identity."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
               if vars(o)[a] is not orig]
        self._saved.clear()
        return bad

    # -- summaries -------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "op": np.frombuffer(self.op, dtype=np.int64).copy()}

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.names, self.columns())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part covered by its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def summarize(names, cols) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    dur = cols["end"] - cols["start"]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    n = len(names)
    calls = np.bincount(cols["name"], minlength=n)
    incl = np.bincount(cols["name"], weights=dur, minlength=n)
    self_s = np.bincount(cols["name"], weights=own, minlength=n)
    return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                   "self_s": float(self_s[i])} for i, name in enumerate(names)}
