"""Batch driver: generate benchmarks, discover models, run baselines,
validate against references, and sweep noise robustness.

Exit codes: 0 success, 2 structure-recovery failure in validate,
3 numerical abort, 4 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .baselines import stlsq, train_stridge
from .benchmarks import (build_reduced_library, discovery_recipe, override_recipe,
                         run_discovery, run_sweep)
from .core import (DatasetError, DiscoveredModel, check_entry, json_entry, load_dataset,
                   save_dataset)
from .metrics import coefficient_error, relative_l2, structure_match
from .simulate import (BENCHMARKS, BenchmarkConfig, SolverInstability, dataset_config,
                       default_config, generate_benchmark, integrate_model, reference_model)

EXIT_OK = 0
EXIT_STRUCTURE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

BASELINES = {"stlsq": stlsq, "stridge": train_stridge}


class CliError(Exception):
    pass


def _check_baseline_params(method: str, params) -> None:
    """Reject --params that are not a JSON object of the baseline's keyword
    parameters, each of its declared type (`check_entry`), with the seed
    non-negative."""
    if not isinstance(params, dict):
        raise CliError("--params must hold a JSON object")
    fit = BASELINES[method]
    names = list(inspect.signature(fit).parameters)[1:]     # all but the library
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise CliError(f"unknown {method} parameter {unknown[0]!r}")
    kinds = typing.get_type_hints(fit)
    for name, value in params.items():
        check_entry(f"{method} parameter", name, value, kinds[name])
    if params.get("seed", 0) < 0:
        raise CliError(f"{method} parameter 'seed' must be a non-negative integer, "
                       f"got {params['seed']!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# The BLAS thread count moves round-off in the factorizations, so artifacts
# are byte-identical only between runs with the same settings.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numerical_environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def _write_manifest(outdir: Path, command: str, config: dict):
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(_canonical(config).encode()).hexdigest(),
        "environment": _numerical_environment(),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _dump_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))


def cmd_generate(args) -> int:
    config = (BenchmarkConfig.from_json_dict(_read_json(args.config)) if args.config
              else default_config(args.benchmark))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dataset = generate_benchmark(args.benchmark, config)
    save_dataset(dataset, outdir / args.benchmark)
    _write_manifest(outdir, "generate", config.to_json_dict())
    print(f"wrote {outdir / args.benchmark}.json/.bin "
          f"shape={dataset.shape}", file=sys.stdout)
    return EXIT_OK


def _load_recipe(args) -> dict:
    recipe = discovery_recipe(args.benchmark) if args.benchmark else None
    if args.library_spec:
        overrides = _read_json(args.library_spec)
        if recipe is None:
            recipe = discovery_recipe(json_entry(overrides, "benchmark", str,
                                                 "library spec without --benchmark"))
        recipe = override_recipe(recipe, overrides)
    if recipe is None:
        raise CliError("discover needs --benchmark and/or --library-spec")
    if args.target:
        recipe["target_field"] = args.target
    return recipe


def cmd_discover(args) -> int:
    recipe = _load_recipe(args)
    if args.tau is not None:
        recipe["pruner"] = {**recipe["pruner"], "tau": args.tau}
    dataset = load_dataset(args.data)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model, trace, lib = run_discovery(dataset, recipe)
    _dump_json(outdir / "model.json", model.to_json_dict())
    _dump_json(outdir / "trace.json", trace.to_json_dict())
    trace.to_csv(outdir / "trace.csv")
    _write_manifest(outdir, "discover", recipe)
    if len(model.terms) == lib.n_terms:
        print("warning: selection kept the full library (no pruning achieved); "
              "tau may be too close to 1", file=sys.stderr)
    print(model.equation_string())
    return EXIT_OK


def cmd_baseline(args) -> int:
    recipe = _load_recipe(args)
    params = _read_json(args.params) if args.params else {}
    _check_baseline_params(args.method, params)
    dataset = load_dataset(args.data)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lib = build_reduced_library(dataset, recipe)
    model = BASELINES[args.method](lib, **params)
    _dump_json(outdir / "model.json", model.to_json_dict())
    _write_manifest(outdir, f"baseline-{args.method}", {**recipe, "params": params})
    if model.empty:
        print("warning: all coefficients thresholded away (empty model)",
              file=sys.stderr)
    print(model.equation_string())
    return EXIT_OK


def cmd_validate(args) -> int:
    model = DiscoveredModel.from_json_dict(_read_json(args.model))
    reference = load_dataset(args.reference)
    config = dataset_config(reference)
    benchmark, eps = config.benchmark, config.epsilon
    ref_model = reference_model(benchmark, model.target_field, epsilon=eps)
    ok, report = structure_match(model, ref_model)
    try:
        coeff = coefficient_error(model, ref_model)
    except DatasetError:
        coeff = None
    out = {"benchmark": benchmark, "structure": report,
           "coefficient_error": coeff}
    if not args.no_integrate:
        # coupled to the reference models of the dataset's other fields
        models = [model] + [reference_model(benchmark, f, epsilon=eps)
                            for f in reference.field_names() if f != model.target_field]
        predicted = integrate_model(models, reference, dt=config.dt)
        out["relative_l2"] = {
            model.target_field: relative_l2(predicted, reference, model.target_field)}
    if args.out:
        _dump_json(Path(args.out), out)
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK if ok else EXIT_STRUCTURE


def _parse_noise(spec: str):
    """`count` noise levels evenly spaced from lo to hi, both finite and >= 0."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise CliError(f"bad --noise spec {spec!r} (want lo:hi:count)") from exc
    if count < 1:
        raise CliError(f"bad --noise spec {spec!r} (count must be positive)")
    if not all(np.isfinite(g) and g >= 0 for g in (lo, hi)):
        raise CliError(f"bad --noise spec {spec!r} (levels must be finite and >= 0)")
    return np.linspace(lo, hi, count)


def _parse_samples(spec: str) -> list[int]:
    """Comma-separated positive sample counts; integral spellings such as 1e3
    are accepted."""
    try:
        counts = [float(s) for s in spec.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --samples spec {spec!r} (want n1,n2,...)") from exc
    if not all(c.is_integer() and c > 0 for c in counts):
        raise CliError(f"bad --samples spec {spec!r} (counts must be positive integers)")
    return [int(c) for c in counts]


def cmd_sweep(args) -> int:
    gammas = _parse_noise(args.noise)
    ns = _parse_samples(args.samples)
    if args.seeds < 1:
        raise CliError(f"--seeds must be a positive integer, got {args.seeds}")
    if args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    dataset = load_dataset(args.data)
    results = run_sweep(dataset, gammas, ns, args.seeds, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(outdir / "sweep.json", results)
    lines = ["gamma," + ",".join(f"n={n}" for n in ns)]
    for g in gammas:
        row = [f"{g:g}"]
        for n in ns:
            cells = [r for r in results if r["gamma"] == g and r["n"] == n]
            oks = [c for c in cells if c["structure_ok"]]
            errs = [c["coefficient_error"] for c in cells
                    if np.isfinite(c["coefficient_error"])]
            mean = float(np.mean(errs)) if errs else float("nan")
            tag = f"{mean:.6g}" if oks else f"FAIL({mean:.3g})"
            row.append(tag)
        lines.append(",".join(row))
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(outdir, "sweep", {"noise": args.noise, "samples": args.samples,
                                      "seeds": args.seeds, "seed": args.seed})
    print("\n".join(lines))
    return EXIT_OK


def cmd_report(args) -> int:
    rundir = Path(args.run)
    out = {}
    model_path = rundir / "model.json"
    if model_path.exists():
        model = DiscoveredModel.from_json_dict(_read_json(model_path))
        out["equation"] = model.equation_string()
        out["n_terms"] = len(model.terms)
        out["residual"] = model.residual
    trace_path = rundir / "trace.json"
    if trace_path.exists():
        trace = _read_json(trace_path)
        iterations = json_entry(trace, "iterations", list, "trace")
        out["residual_history"] = [json_entry(it, "residual", float, "trace iteration")
                                   for it in iterations]
        out["selected_iteration"] = json_entry(trace, "selected_iteration", int, "trace")
        removed = [json_entry(it, "removed_name", str | None, "trace iteration")
                   for it in iterations]
        out["removed_terms"] = [name for name in removed if name]
    if not out:
        raise CliError(f"no artifacts found under {rundir}")
    _dump_json(rundir / "report.json", out)
    if "residual_history" in out:
        lines = ["iteration,residual"] + [
            f"{k},{r!r}" for k, r in enumerate(out["residual_history"])]
        (rundir / "report.csv").write_text("\n".join(lines) + "\n")
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="bgsindy", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a benchmark dataset")
    g.add_argument("benchmark", choices=list(BENCHMARKS))
    g.add_argument("--config", help="BenchmarkConfig JSON overriding defaults")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("discover", help="run balance-guided discovery")
    d.add_argument("--data", required=True)
    d.add_argument("--benchmark")
    d.add_argument("--library-spec")
    d.add_argument("--target", help="target field (default: the recipe's, u)")
    d.add_argument("--tau", type=float, default=None)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_discover)

    b = sub.add_parser("baseline", help="run a thresholding baseline")
    b.add_argument("--method", choices=list(BASELINES), required=True)
    b.add_argument("--data", required=True)
    b.add_argument("--benchmark")
    b.add_argument("--library-spec")
    b.add_argument("--target", help="target field (default: the recipe's, u)")
    b.add_argument("--params", help="JSON with method parameters")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_baseline)

    v = sub.add_parser("validate", help="compare a model against its reference")
    v.add_argument("--model", required=True)
    v.add_argument("--reference", required=True)
    v.add_argument("--out")
    v.add_argument("--no-integrate", action="store_true")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("sweep", help="noise/sample-count robustness sweep")
    s.add_argument("--data", required=True)
    s.add_argument("--noise", default="0:0.25:6")
    s.add_argument("--samples", default="1000,10000,100000")
    s.add_argument("--seeds", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="consolidate run artifacts")
    r.add_argument("--run", required=True)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverInstability as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
