"""End-to-end discovery recipes for the benchmark problems.

A recipe bundles the preprocessing (optional smoothing passes), sampling
plan, library spec, and pruner settings that turn a benchmark dataset into
a discovered model. Recipes are plain dicts so CLI config files can override
any entry.
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (Dataset, DatasetError, add_noise, check_entry, from_entries, sample_box,
                   subsample)
from .differentiation import sg_smooth
from .library import (AXIS_LETTERS, LibrarySpec, build_library, library_fields,
                      reduce_independent, row_half_widths, row_margins)
from .metrics import coefficient_error, structure_match
from .pruner import PrunerConfig, discover
from .simulate import _benchmark, dataset_config, reference_model


@dataclass(frozen=True)
class _SamplePlan:
    """The recipe's `sample` entry: the arguments of `subsample`. n None
    takes every point of the box; time_window is [lo, hi] with None ends."""
    n: int | None
    seed: int = 0
    time_window: tuple[int | None, int | None] | None = None


@dataclass(frozen=True)
class _SmoothPass:
    """One entry of the recipe's `smooth` list: an `sg_smooth` pass along
    the axis named by its letter."""
    axis: str
    window: int
    degree: int


def discovery_recipe(benchmark: str, target_field: str = "u") -> dict:
    """Default discovery settings per benchmark: one common recipe, with the
    library bounds, time accuracy, smoothing and sampling that differ.

    The KdV grid radiates marginally resolved dispersive waves whose
    frequencies alias at the output cadence, so its recipe smooths lightly in
    t and x before differentiating, and it uses every grid point. Periodic
    benchmarks differentiate the raw spectra directly. The reaction-diffusion
    recipe samples after the Gibbs transient of the published non-periodic
    initial condition has decayed. Every call returns fresh dicts.
    """
    common = {
        "benchmark": benchmark,
        "target_field": target_field,
        "library": {"time_accuracy": 4},
        "smooth": [],
        "sample": {"n": 100_000, "seed": 0, "time_window": None},
        "pruner": {"tau": 3.0, "epsilon_rel": 1e-6},
    }
    return override_recipe(common, copy.deepcopy(_benchmark(benchmark).recipe))


def override_recipe(recipe: dict, overrides: dict) -> dict:
    """The recipe with its entries overridden: a dict updates the recipe's
    dict entry key by key, any other value replaces the entry. An entry the
    recipe lacks, or a `benchmark` or `target_field` that is no string,
    raises DatasetError."""
    if not isinstance(overrides, dict):
        raise DatasetError(f"recipe overrides must be a JSON object, got {overrides!r}")
    unknown = sorted(set(overrides) - set(recipe))
    if unknown:
        raise DatasetError(f"unknown recipe entry {unknown[0]!r}")
    for name in ("benchmark", "target_field"):
        if name in overrides:
            check_entry("recipe entry", name, overrides[name], str)
    out = dict(recipe)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(recipe[key], dict):
            val = {**recipe[key], **val}
        out[key] = val
    return out


def apply_smoothing(dataset: Dataset, field: str, passes) -> Dataset:
    """Apply local-polynomial smoothing passes ({axis, window, degree}) to a
    field; the axis is a space letter of the dataset or t."""
    if not isinstance(passes, list):
        raise DatasetError(f"smooth must be a JSON array of passes, got {passes!r}")
    if not passes:
        return dataset
    letters = AXIS_LETTERS[:dataset.ndim_space] + ("t",)
    values = dataset.fields[field]
    for entries in passes:
        p = from_entries(_SmoothPass, entries, "smooth pass")
        if p.axis not in letters:
            raise DatasetError(f"smooth pass 'axis' must be one of {letters} "
                               f"on this dataset, got {p.axis!r}")
        values = sg_smooth(values, letters.index(p.axis), p.window, p.degree)
    values.flags.writeable = False      # handed over: the dataset copies nothing
    return dataset.with_field(field, values)


def build_reduced_library(dataset: Dataset, recipe: dict):
    """Smooth, sample, build, and reduce to independent columns.

    With a test function in the library spec, samples are drawn only where
    its support fits inside the grid (`row_margins`). The recipe's sample
    count is capped at the points that box holds.
    """
    target = recipe["target_field"]
    spec = from_entries(LibrarySpec, recipe["library"], "library")
    plan = from_entries(_SamplePlan, recipe["sample"], "sample")
    work = dataset
    for f in library_fields(dataset, target):
        work = apply_smoothing(work, f, recipe.get("smooth", []))

    half_widths = row_half_widths(work, target, spec)
    margins = row_margins(work, target, half_widths)
    n = plan.n
    if n is not None:
        box = sample_box(work.shape, plan.time_window, margins)
        n = min(n, math.prod(hi - lo for lo, hi in box))
    samples = subsample(work, n, plan.seed, plan.time_window, margins)

    lib = build_library(work, samples, spec, target, half_widths)
    return reduce_independent(lib)


def run_discovery(dataset: Dataset, recipe: dict):
    """Smooth, sample, build, reduce, and prune. Returns (model, trace, library)."""
    config = from_entries(PrunerConfig, recipe.get("pruner", {}), "pruner")
    lib = build_reduced_library(dataset, recipe)
    model, trace = discover(lib, config)
    return model, trace, lib


def sweep_cell(dataset: Dataset, recipe: dict, gamma: float, n: int,
               cell_seed: int) -> dict:
    """One noise-robustness cell: perturb, rediscover, score against the
    reference model of the dataset's own benchmark and epsilon. It writes to
    nothing it is given, so cells can run on concurrent threads."""
    config = dataset_config(dataset)
    ref = reference_model(config.benchmark, recipe["target_field"], epsilon=config.epsilon)
    noisy = add_noise(dataset, recipe["target_field"], gamma, cell_seed)
    r = {**recipe, "sample": {**recipe["sample"], "n": n, "seed": cell_seed}}
    model, _, _ = run_discovery(noisy, r)
    ok, report = structure_match(model, ref)
    try:
        err = coefficient_error(model, ref)
    except DatasetError:
        err = float("nan")
    return {"gamma": gamma, "n": n, "seed": cell_seed, "structure_ok": bool(ok),
            "coefficient_error": err, "n_terms": len(model.terms)}


def sweep_recipe(benchmark: str = "kdv") -> dict:
    """Noise-sweep variant of the discovery recipe: test-function rows.

    Derivatives are taken by finite differences of the raw noisy field, and
    every column and the u_t target are then averaged against the bump
    (1 - (j/m)^2)^4 with half-widths from the spectral corner of the data
    (`LibrarySpec`, `corner_half_width`). Grid-local rows cannot carry the
    third derivative at 5% noise, and smoothing the field before the
    nonlinear products biases them; averaging the evaluated products does
    not, because the PDE is linear in its coefficients.
    """
    return override_recipe(discovery_recipe(benchmark), {
        "smooth": [], "library": {"time_accuracy": 2, "test_function_degree": 4}})


def cell_seed(base_seed: int, i_gamma: int, i_n: int, rep: int) -> int:
    ss = np.random.SeedSequence((base_seed, i_gamma, i_n, rep))
    return int(ss.generate_state(1)[0])


def run_sweep(dataset: Dataset, gammas, sample_counts, n_seeds: int = 3,
              base_seed: int = 0, recipe: dict | None = None) -> list[dict]:
    """Full noise/sample-count sweep, by default with the `sweep_recipe` of
    the dataset's benchmark. The cells run on one thread per CPU the process
    may use; their time goes to numpy and LAPACK, which release the GIL.
    Every cell's seed is fixed before the pool starts and `map` keeps job
    order, so the cells are deterministic in base_seed."""
    recipe = recipe or sweep_recipe(dataset_config(dataset).benchmark)
    jobs = []
    for ig, g in enumerate(gammas):
        for i_n, n in enumerate(sample_counts):
            for rep in range(n_seeds):
                jobs.append((float(g), int(n), cell_seed(base_seed, ig, i_n, rep)))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(cpus) as pool:
        return list(pool.map(lambda job: sweep_cell(dataset, recipe, *job), jobs))
