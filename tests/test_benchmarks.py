from bgsindy.benchmarks import run_sweep


class TestRunSweep:
    def test_worker_pool_returns_the_serial_cells(self, kdv_dataset):
        # the docstring's claim: deterministic in base_seed whatever the
        # worker count; each cell's seed is fixed before the pool starts
        args = (kdv_dataset, [0.0, 0.05], [1000])
        serial = run_sweep(*args, n_seeds=2, workers=1)
        pooled = run_sweep(*args, n_seeds=2, workers=2)
        assert len(serial) == 4
        assert repr(pooled) == repr(serial)
