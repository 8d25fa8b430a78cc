import copy
import dataclasses

from bgsindy import generate_benchmark
from bgsindy.benchmarks import cell_seed, run_sweep, sweep_cell, sweep_recipe
from bgsindy.simulate import default_config


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
