import copy
import dataclasses

from bgsindy import generate_benchmark
from bgsindy import coefficient_error, structure_match
from bgsindy.benchmarks import (cell_seed, discovery_recipe, run_discovery, run_sweep,
                                sweep_cell, sweep_recipe)
from bgsindy.simulate import default_config, reference_model


class TestKdvRecipe:
    def test_default_recipe_resolves_the_small_dispersion_term(self, kdv_dataset):
        # the paper's headline case: u_xxx enters with the coefficient
        # -4.84e-4. On test-function rows the fit is good to about 1e-6 and
        # the residual rises about 1e6-fold at the step after the selected one
        model, trace, _ = run_discovery(kdv_dataset, discovery_recipe("kdv"))
        ref = reference_model("kdv")
        ok, report = structure_match(model, ref)
        assert ok, report
        assert coefficient_error(model, ref) <= 1e-4
        residuals, k = trace.residuals, trace.selected_iteration
        assert residuals[k + 1] / residuals[k] >= 1e5


class TestRunSweep:
    def test_worker_pool_returns_the_serial_cells(self, kdv_dataset):
        # the docstring's claim: each cell's seed is fixed before the pool
        # starts and the pool keeps job order; a cell writes to no recipe dict
        gammas, ns = [0.0, 0.05], [1000]
        recipe = sweep_recipe("kdv")
        before = copy.deepcopy(recipe)
        pooled = run_sweep(kdv_dataset, gammas, ns, n_seeds=2, base_seed=7, recipe=recipe)
        one_by_one = [sweep_cell(kdv_dataset, recipe, g, n, cell_seed(7, ig, i_n, rep))
                      for ig, g in enumerate(gammas) for i_n, n in enumerate(ns)
                      for rep in range(2)]
        assert len(pooled) == 4
        assert repr(pooled) == repr(one_by_one)
        assert recipe == before

    def test_default_recipe_is_the_datasets_benchmarks(self):
        # the recipe and the reference both come from the dataset's provenance
        config = dataclasses.replace(default_config("burgers-hyper"), t_final=5.0)
        dataset = generate_benchmark("burgers-hyper", config)
        args = (dataset, [0.0], [1000])
        default = run_sweep(*args, n_seeds=1)
        explicit = run_sweep(*args, n_seeds=1, recipe=sweep_recipe("burgers-hyper"))
        assert repr(default) == repr(explicit)
