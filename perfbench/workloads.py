"""Benchmark workloads: the paper's pipelines run through the public bgsindy
API, one op at a time (closed loop, one client), every op checked against the
acceptance tolerances of tests/test_acceptance.py.

A cycle is a generate op, then a pipeline op on its dataset (save/load
round trip, discover, reintegrate, score).

ks-pipeline  modified KS at its default config. Its time goes to the 1D
             ETDRK4 solver with u^3..u^6 powers, the 100k x 121 library and
             121 prune iterations.
kdv-study    KdV cycles (780k x 15 full-data library, finite differences,
             Savitzky-Golay smoothing), then one pass over a fixed mix of
             noise-sweep cells; the traced pass also fits the four baselines
             on the library (criterion 5). The library is tall and narrow or
             tiny, and each n = 1e3 cell's time goes to full-grid smoothing,
             noise and differentiation, not to rows. It is the only workload
             that runs the baselines, and it has no ETDRK4 or spectral work.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bgsindy import baselines, benchmarks, core, metrics, simulate

clock = time.perf_counter

# Criteria 1 and 3 of the acceptance gate; never loosened here.
TOLERANCES = {"kdv": {"coef_err": 0.05, "rel_l2": 0.02},
              "modified-ks": {"coef_err": 0.01, "rel_l2": 1e-3}}
STLSQ_THRESHOLDS = (1e-1, 1e-2, 1e-3)
CELL_GAMMAS = (0.0, 0.05, 0.25)
CELL_SAMPLES = (1000, 100_000)
CELL_REPEATS = 2
CRITERION_6A_SAMPLES = 100_000


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Op:
    kind: str                   # "generate", "pipeline", "baselines" or "cell"
    key: str                    # identity of the op's inputs; repeats share it
    ok: bool
    detail: str
    times: dict = field(default_factory=dict)
    digest: str | None = None
    values: dict = field(default_factory=dict)
    output: object = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "key": self.key, "ok": self.ok, "detail": self.detail,
                "times": self.times, "digest": self.digest, "values": self.values}


class Runner:
    """Runs ops one at a time and keeps their results; with a tracer, each op
    is a root span and its spans carry the op's id."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer = None
        self.ops: list[Op] = []

    def run(self, kind: str, key: str, fn) -> Op:
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
        span = self.tracer.span("op." + kind) if self.tracer is not None else nullcontext()
        t0 = clock()
        try:
            with span:
                op = fn()
        except Exception as exc:  # a failed op is counted and the run goes on
            traceback.print_exc()
            op = Op(kind, key, False, f"raised {type(exc).__name__}: {exc}")
        op.times["op_s"] = clock() - t0
        self.ops.append(op)
        return op

    def check_determinism(self) -> dict[str, list[str]]:
        """Digests of every repeated op; an op whose repeats disagree fails."""
        groups: dict[tuple[str, str], list[Op]] = {}
        for op in self.ops:
            if op.digest is not None:
                groups.setdefault((op.kind, op.key), []).append(op)
        repeated = {}
        for (kind, key), ops in groups.items():
            if len(ops) < 2:
                continue
            digests = sorted({op.digest for op in ops})
            repeated[f"{kind}:{key}"] = digests
            if len(digests) > 1:
                for op in ops:
                    op.ok = False
                    op.detail += "; digest differs across repeats"
        return repeated


def generate(runner: Runner, benchmark: str):
    """What `bgsindy generate` costs; returns the dataset, or None if it raised."""

    def op():
        t0 = clock()
        data = simulate.generate_benchmark(benchmark)
        return Op("generate", benchmark, True, "ok", {"generate_s": clock() - t0},
                  output=data)

    op = runner.run("generate", benchmark, op)
    data, op.output = op.output, None
    return data


def pipeline(runner: Runner, benchmark: str, seed: int, dataset) -> Op:
    """save/load round trip -> discover -> reintegrate and score. The op's
    output is the discovered library."""

    def op():
        t0 = clock()
        path = runner.workdir / benchmark
        core.save_dataset(dataset, path)
        loaded = core.load_dataset(path)
        t1 = clock()
        recipe = benchmarks.discovery_recipe(benchmark)
        recipe["sample"]["seed"] = seed
        model, trace, lib = benchmarks.run_discovery(loaded, recipe)
        t2 = clock()
        ref = simulate.reference_model(benchmark)
        # the KdV criterion reintegrates at the generator's step
        kwargs = {"dt": loaded.metadata["config"]["dt"]} if benchmark == "kdv" else {}
        pred = simulate.integrate_model(model, loaded, **kwargs)
        structure_ok, report = metrics.structure_match(model, ref)
        err = metrics.coefficient_error(model, ref)
        l2 = metrics.relative_l2(pred, loaded, "u")
        t3 = clock()

        tol = TOLERANCES[benchmark]
        checks = {
            "round trip bit-exact": all(np.array_equal(loaded.fields[f], dataset.fields[f])
                                        for f in dataset.fields),
            f"structure {report}": structure_ok,
            f"coef_err {err:.3e} <= {tol['coef_err']:g}": err <= tol["coef_err"],
            f"rel_l2 {l2:.3e} <= {tol['rel_l2']:g}": l2 <= tol["rel_l2"],
        }
        failed = [name for name, ok in checks.items() if not ok]
        values = {
            "coef_err": err, "rel_l2": l2, "structure_ok": bool(structure_ok),
            "rows": lib.n_samples, "cols": lib.n_terms,
            "rank": lib.diagnostics["independence"]["qr_rank"],
            "iterations": len(trace.iterations),
            "selected_iteration": trace.selected_iteration,
            "io_mb": 2 * sum(v.nbytes for v in dataset.fields.values()) / 1e6,
            "equation": model.equation_string(),
        }
        return Op("pipeline", f"{benchmark}:seed={seed}", not failed,
                  "; ".join(failed) or "ok",
                  {"io_s": t1 - t0, "discover_s": t2 - t1, "validate_s": t3 - t2},
                  digest(model.to_json_dict()), values, lib)

    return runner.run("pipeline", f"{benchmark}:seed={seed}", op)


def baseline_fits(runner: Runner, benchmark: str, lib) -> Op:
    """Criterion 5: STLSQ at three thresholds and TrainSTRidge with defaults
    all miss the exact structure."""

    def op():
        t0 = clock()
        fits = {f"stlsq(th={th:g})": baselines.stlsq(lib, th) for th in STLSQ_THRESHOLDS}
        fits["train_stridge(defaults)"] = baselines.train_stridge(lib, seed=0)
        t1 = clock()
        ref = simulate.reference_model(benchmark)
        recovered = [name for name, m in fits.items()
                     if metrics.structure_match(m, ref)[0]]
        detail = f"unexpected recoveries: {recovered}" if recovered else "all miss"
        return Op("baselines", benchmark, not recovered, detail, {"baseline_s": t1 - t0},
                  digest([m.to_json_dict() for m in fits.values()]))

    return runner.run("baselines", benchmark, op)


def cell_mix(base_seed: int) -> list[tuple[float, int, int]]:
    return [(g, n, benchmarks.cell_seed(base_seed, ig, i_n, rep))
            for ig, g in enumerate(CELL_GAMMAS)
            for i_n, n in enumerate(CELL_SAMPLES)
            for rep in range(CELL_REPEATS)]


def sweep_pass(runner: Runner, dataset, base_seed: int) -> None:
    """One pass over the cell mix. A clean cell at n = 1e5, the sample count
    of criterion 6a, must recover the structure. Every other cell's structure
    is recorded, not gated: 6a is red at gamma = 0.05, and clean cells at
    n = 1e3 miss the structure for some seeds (no criterion covers them)."""
    recipe = benchmarks.sweep_recipe("kdv")
    for gamma, n, seed in cell_mix(base_seed):
        key = f"gamma={gamma:g},n={n},seed={seed}"

        def op(gamma=gamma, n=n, seed=seed, key=key):
            t0 = clock()
            r = benchmarks.sweep_cell(dataset, recipe, gamma, n, seed)
            dt = clock() - t0
            in_6a_scope = n == CRITERION_6A_SAMPLES
            ok = r["structure_ok"] or gamma > 0 or not in_6a_scope
            return Op("cell", key, ok, "ok" if ok else "clean cell missed the structure",
                      {"cell_s": dt}, digest(r),
                      {"gamma": gamma, "n": n, "structure_ok": r["structure_ok"],
                       "coef_err": r["coefficient_error"], "in_6a_scope": in_6a_scope})

        runner.run("cell", key, op)


def repeat_until(deadline: float, minimum: int, fn) -> None:
    """Closed loop: start another op while the last one's duration still fits."""
    done, last = 0, 0.0
    while done < minimum or clock() + last <= deadline:
        t0 = clock()
        fn()
        last = clock() - t0
        done += 1


class Workload:
    """Cycles of a generate op and a pipeline op on its dataset. A study
    workload then makes one pass over the sweep cells; its traced pass also
    fits the baselines on the pipeline op's library."""

    def __init__(self, name: str, benchmark: str, min_cycles: int, study: bool):
        self.name = name
        self.benchmark = benchmark
        self.min_cycles = min_cycles
        self.study = study

    def cycle(self, runner: Runner, seed: int):
        """Returns the dataset and the pipeline op, or None for each that failed."""
        data = generate(runner, self.benchmark)
        if data is None:
            return None, None
        return data, pipeline(runner, self.benchmark, seed, data)

    def measure(self, runner: Runner, seed: int, seconds: float) -> None:
        last = [None]

        def one():
            data, op = self.cycle(runner, seed)
            if op is not None:
                op.output = None
            last[0] = data

        repeat_until(clock() + seconds, self.min_cycles, one)
        if self.study and last[0] is not None:
            sweep_pass(runner, last[0], seed)

    def unit(self, runner: Runner, seed: int):
        """One traced pass; returns the dataset for the untraced repeat."""
        data, op = self.cycle(runner, seed)
        if op is not None and op.output is not None:
            if self.study:
                baseline_fits(runner, self.benchmark, op.output)
            op.output = None
        if self.study and data is not None:
            sweep_pass(runner, data, seed)
        return data


# A modified-KS cycle takes about a minute, so a run is one cycle. A KdV
# cycle is short, so its medians take four samples at least. The baselines
# run only in the traced pass: baseline_s applies to kdv-study alone, so it
# is no bounded metric, and its time goes to more pipeline samples instead.
WORKLOADS = {w.name: w for w in (Workload("ks-pipeline", "modified-ks", 1, study=False),
                                 Workload("kdv-study", "kdv", 4, study=True))}
