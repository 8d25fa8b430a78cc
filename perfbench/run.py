"""Benchmark of the bgsindy discovery pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload ks-pipeline --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, measured with no tracing installed. With --trace 1 they are the
per-layer ones, from one pass over the workload's ops with the program's
public names wrapped (see tracer.py); the pass's pipeline op is then repeated
untraced on the same dataset, and the difference is the tracing overhead.
The lines before it
give every metric by name and unit, and a JSON report with the environment,
the op log with model digests, and the warnings raised. Reports and span files
are also written to .perfbench_out/ in the working directory.

The sources are imported from ./src, so the program is always built from the
checkout it runs in. BLAS threads are pinned to min(nproc, 2) before numpy is
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"

# name -> (unit, better); the order and names match BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "generate_s": ("s", "lower"),
    "discover_s": ("s", "lower"),
    "validate_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "structure_ok_frac": ("1", "higher"),
}
# name -> (unit, span name, statistic); "self" and "calls" come from the
# span summary, "incl_per_call" is inclusive seconds per call, None marks a
# value computed from the op outputs or the tracer's own counters
PER_LAYER = {
    "simulate.solve_s": ("s", "simulate.solve", "self"),
    "simulate.etdrk4_step_s": ("s", "simulate.etdrk4_step", "self"),
    "simulate.steps": ("count", "simulate.etdrk4_step", "calls"),
    "simulate.step_us": ("us", None, None),
    "simulate.integrate_s": ("s", "simulate.integrate", "self"),
    "library.build_s": ("s", "library.build", "self"),
    "library.reduce_s": ("s", "library.reduce", "self"),
    "library.factorize_s": ("s", "library.factorize", "self"),
    "library.tall_factorizations": ("count", None, None),
    "library.rows": ("count", None, None),
    "library.cols": ("count", None, None),
    "library.rank": ("count", None, None),
    "library.term_evaluate_build_s": ("s", "library.term_evaluate_build", "self"),
    "library.term_evaluate_build_calls": ("count", "library.term_evaluate_build", "calls"),
    "library.term_evaluate_integrate_s": ("s", "library.term_evaluate_integrate", "self"),
    "library.term_evaluate_integrate_calls": ("count", "library.term_evaluate_integrate",
                                              "calls"),
    "pruner.iterations": ("count", None, None),
    "pruner.selected_iteration": ("count", None, None),
    "pruner.importance_s": ("s", "pruner.importance", "self"),
    "pruner.refit_s": ("s", "pruner.discover", "self"),
    "differentiation.smooth_s": ("s", "differentiation.smooth", "self"),
    "differentiation.fd_s": ("s", "differentiation.fd", "self"),
    "differentiation.spectral_s": ("s", "differentiation.spectral", "self"),
    "differentiation.points": ("count", None, None),
    "core.add_noise_s": ("s", "core.add_noise", "self"),
    "core.subsample_s": ("s", "core.subsample", "self"),
    "core.save_s": ("s", "core.save", "self"),
    "core.load_s": ("s", "core.load", "self"),
    "core.io_mb": ("MB", None, None),
    "regression.least_squares_calls": ("count", "regression.least_squares", "calls"),
    "regression.least_squares_s": ("s", "regression.least_squares", "self"),
    "baselines.stlsq_s": ("s", "baselines.stlsq", "self"),
    "baselines.stridge_s": ("s", "baselines.stridge", "self"),
    "benchmarks.sweep_cell_1e3_s": ("s", "benchmarks.sweep_cell_1e3", "incl_per_call"),
    "benchmarks.sweep_cell_1e5_s": ("s", "benchmarks.sweep_cell_1e5", "incl_per_call"),
    "metrics.score_s": ("s", "metrics.score", "self"),
    "trace.overhead_s": ("s", None, None),
    "trace.spans": ("count", None, None),
}


def pin_blas_threads() -> int:
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


class WarningLog:
    """Counts every warning by category and source line; each distinct warning
    is still shown once per location, as Python's default filter shows it."""

    def __init__(self, root: Path):
        self.root = root
        self.counts: Counter = Counter()
        self._shown: set = set()
        self._show = warnings.showwarning

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        try:
            where = Path(filename).resolve().relative_to(self.root / "src")
        except ValueError:
            where = Path(filename).name
        self.counts[f"{category.__name__} {where}:{lineno}"] += 1
        key = (category, filename, lineno, str(message))
        if key not in self._shown:
            self._shown.add(key)
            self._show(message, category, filename, lineno, file, line)


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bgsindy"], env=env, cwd=root, check=True)
    return time.perf_counter() - t0


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def stage_seconds(op) -> float:
    """io + discover + validate of a pipeline op."""
    return op.times["io_s"] + op.times["discover_s"] + op.times["validate_s"]


def end_to_end(ops, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    pipes = [op for op in ops if op.kind == "pipeline" and "discover_s" in op.times]
    cells = [op for op in ops if op.kind == "cell" and "cell_s" in op.times]
    generate_s = median(op.times.get("generate_s") for op in ops if op.kind == "generate")
    rest_s = median(stage_seconds(op) for op in pipes)
    # distinct discoveries within the acceptance criteria's scope: pipeline
    # ops and the cells at criterion 6a's sample count
    first: dict = {}
    for op in pipes + cells:
        if op.kind == "pipeline" or op.values["in_6a_scope"]:
            first.setdefault((op.kind, op.key), op.values["structure_ok"])
    small = {op.key: op.values["structure_ok"] for op in cells
             if not op.values["in_6a_scope"]}
    values = {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "discover_s": median(op.times["discover_s"] for op in pipes),
        "validate_s": median(op.times["validate_s"] for op in pipes),
        "pipeline_s": generate_s + rest_s if None not in (generate_s, rest_s) else None,
        "peak_rss_mb": peak_rss_mb,
        "structure_ok_frac": (sum(first.values()) / len(first)) if first else None,
    }
    baseline = [op.times["baseline_s"] for op in ops if "baseline_s" in op.times]
    info = {
        "coef_err": median(op.values["coef_err"] for op in pipes),
        "rel_l2": median(op.values["rel_l2"] for op in pipes),
        "baseline_s": median(baseline),
        "sweep_cells_per_s": (len(cells) / sum(op.times["cell_s"] for op in cells)
                              if cells else None),
        "cells": len(cells),
        "structure_ok_frac_small_cells": sum(small.values()) / len(small) if small else None,
    }
    return values, info


def per_layer(summary: dict, points: Counter, pipe, overhead_s: float) -> dict:
    def stat(span, kind):
        s = summary.get(span, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        if kind == "incl_per_call":
            return s["incl_s"] / s["calls"] if s["calls"] else 0.0
        return s["calls"] if kind == "calls" else s["self_s"]

    values = {name: stat(span, kind) for name, (_, span, kind) in PER_LAYER.items()
              if span is not None}
    found = pipe.values if pipe is not None else {}
    steps = stat("simulate.etdrk4_step", "calls")
    discoveries = stat("pruner.discover", "calls")
    step_incl = summary.get("simulate.etdrk4_step", {}).get("incl_s", 0.0)
    values.update({
        "simulate.step_us": 1e6 * step_incl / steps if steps else 0.0,
        "library.tall_factorizations": (stat("library.factorize", "calls") / discoveries
                                        if discoveries else 0.0),
        "library.rows": found.get("rows"),
        "library.cols": found.get("cols"),
        "library.rank": found.get("rank"),
        "pruner.iterations": found.get("iterations"),
        "pruner.selected_iteration": found.get("selected_iteration"),
        "differentiation.points": sum(v for k, v in points.items()
                                      if k.startswith("differentiation.")),
        "core.io_mb": found.get("io_mb"),
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(s["calls"] for s in summary.values()),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "bgsindy" / "__init__.py").is_file():
        print("perfbench: no package sources at ./src/bgsindy; run from the "
              "repository root", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    log = WarningLog(root)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = log
        result, report = run(args, root, threads)
    report["warnings"] = dict(sorted(log.counts.items()))

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"report-{tag}.json").write_text(json.dumps({**report, "result": result},
                                                       indent=1))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run(args, root: Path, threads: int) -> tuple[dict, dict]:
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    report = {"environment": environment(args.workload, args.seed, threads)}
    (root / OUT_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / OUT_DIR) as tmp:
        runner = workloads.Runner(Path(tmp))
        problems = []
        if args.trace == 0:
            imports = [import_seconds(root) for _ in range(SETUP_REPEATS)]
            workload.measure(runner, args.seed, args.seconds)
            problems += [f"wrapper installed: {w}" for w in tracing.installed_wrappers()]
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values, info = end_to_end(runner.ops, median(imports), peak)
            units = {k: u for k, (u, _) in END_TO_END.items()}
            report.update(setup={"import_s": imports}, info=info)
        else:
            tracer = tracing.Tracer()
            runner.tracer = tracer
            tracer.install()
            try:
                data = workload.unit(runner, args.seed)
            finally:
                problems += [f"not restored: {w}" for w in tracer.uninstall()]
                runner.tracer = None
            pipes = [op for op in runner.ops if op.kind == "pipeline"]
            overhead = None
            if data is not None and pipes and pipes[0].ok:
                # the same op untraced on the same dataset
                reference = workloads.pipeline(runner, workload.benchmark, args.seed, data)
                reference.output = None
                if reference.ok:
                    overhead = stage_seconds(pipes[0]) - stage_seconds(reference)
            summary = tracer.summary()
            values = per_layer(summary, tracer.points, pipes[0] if pipes else None, overhead)
            units = {k: u for k, (u, *_) in PER_LAYER.items()}
            tracer.save(root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            report["spans"] = summary

    repeated = runner.check_determinism()
    failed = sum(not op.ok for op in runner.ops)
    report.update(ops=[op.to_json_dict() for op in runner.ops], repeated_digests=repeated,
                  problems=problems, failed_frac=failed / max(len(runner.ops), 1))
    correct = (not failed and not problems and runner.ops != []
               and all(v is not None for v in values.values()))
    result = {"correct": correct, "attempted": len(runner.ops), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
