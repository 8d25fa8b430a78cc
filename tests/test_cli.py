import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import bgsindy
from bgsindy.cli import main

TINY_KDV = {
    "benchmark": "kdv", "bounds": [[0.0, 2.0]], "counts": [260],
    "dt": 5e-4, "output_stride": 2, "epsilon": 4.84e-4, "t_final": 0.3,
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """generate + discover on a short KdV horizon, reused across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "kdv.json"
    cfg.write_text(json.dumps(TINY_KDV))
    data = root / "data"
    run = root / "run"
    assert main(["generate", "kdv", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["discover", "--data", str(data / "kdv"), "--benchmark", "kdv",
                 "--out", str(run)]) == 0
    return root, data, run


class TestGenerateDiscover:
    def test_artifacts_written(self, tiny_run):
        root, data, run = tiny_run
        assert (data / "kdv.json").exists() and (data / "kdv.bin").exists()
        for name in ("model.json", "trace.json", "trace.csv", "manifest.json"):
            assert (run / name).exists()
        model = json.loads((run / "model.json").read_text())
        assert model["target_field"] == "u"

    def test_manifest_records_numerical_environment(self, tiny_run, tmp_path,
                                                     monkeypatch):
        root, _, _ = tiny_run
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        assert main(["generate", "kdv", "--config", str(root / "kdv.json"),
                     "--out", str(tmp_path)]) == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
                        "MKL_NUM_THREADS": ""}}

    def test_discovered_structure_on_short_horizon(self, tiny_run):
        _, _, run = tiny_run
        model = json.loads((run / "model.json").read_text())
        got = {(tuple(sorted(t["powers"].items())),
                tuple(t["deriv"]["orders"]) if t.get("deriv") else None)
               for t in model["terms"]}
        assert got == {((("u", 1),), (1,)), ((), (3,))}

    def test_validate_good_model_exit_zero(self, tiny_run, capsys):
        _, data, run = tiny_run
        code = main(["validate", "--model", str(run / "model.json"),
                     "--reference", str(data / "kdv")])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["structure"]["match"] is True
        assert report["coefficient_error"] < 0.05
        assert report["relative_l2"]["u"] < 0.02

    def test_baseline_stlsq_fails_structure_exit_two(self, tiny_run, tmp_path):
        root, data, run = tiny_run
        bdir = tmp_path / "stlsq"
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"threshold": 0.1}))
        assert main(["baseline", "--method", "stlsq", "--data", str(data / "kdv"),
                     "--benchmark", "kdv", "--params", str(params),
                     "--out", str(bdir)]) == 0
        code = main(["validate", "--model", str(bdir / "model.json"),
                     "--reference", str(data / "kdv"), "--no-integrate"])
        assert code == 2

    def test_validate_coupled_rd2d_exit_zero(self, tmp_path, capsys):
        # the v model is integrated together with the reference u model
        cfg = tmp_path / "rd2d.json"
        cfg.write_text(json.dumps({
            "benchmark": "rd2d", "bounds": [[-1.5, 1.5], [-1.5, 1.5]], "counts": [32, 32],
            "dt": 0.025, "output_stride": 2, "epsilon": 1e-3, "t_final": 1.0}))
        data = tmp_path / "data"
        assert main(["generate", "rd2d", "--config", str(cfg), "--out", str(data)]) == 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(bgsindy.reference_model("rd2d", "v").to_json_dict()))
        capsys.readouterr()
        assert main(["validate", "--model", str(model), "--reference", str(data / "rd2d")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structure"]["match"] is True
        assert report["relative_l2"]["v"] <= 0.01

    def test_validate_exact_model_at_epsilon_zero(self, tmp_path, capsys):
        # at epsilon = 0 the four u^k u_x fluxes have coefficient -0.0; they
        # are not reference terms, so the exact model matches with no
        # division by a zero coefficient
        reference = bgsindy.reference_model("modified-ks", epsilon=0.0)
        assert len(reference.terms) == 3
        assert np.all(reference.coefficients != 0)
        cfg = tmp_path / "ks.json"
        cfg.write_text(json.dumps({
            "benchmark": "modified-ks", "bounds": [[0.0, 22.0]], "counts": [64],
            "dt": 0.004, "output_stride": 1, "epsilon": 0.0, "t_final": 1.0}))
        data = tmp_path / "data"
        assert main(["generate", "modified-ks", "--config", str(cfg), "--out", str(data)]) == 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(reference.to_json_dict()))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["validate", "--model", str(model),
                         "--reference", str(data / "modified-ks")])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["structure"] == {"match": True, "missing": [], "spurious": []}
        assert report["coefficient_error"] == 0.0
        assert report["relative_l2"]["u"] < 1e-12

    def test_report(self, tiny_run, capsys):
        _, _, run = tiny_run
        assert main(["report", "--run", str(run)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "equation" in out and "residual_history" in out
        assert (run / "report.json").exists()
        assert (run / "report.csv").read_text().startswith("iteration,residual")

    def test_sweep_samples_in_exponent_notation(self, tiny_run, tmp_path):
        _, data, _ = tiny_run
        out = tmp_path / "o"
        assert main(["sweep", "--data", str(data / "kdv"), "--noise", "0:0:1",
                     "--samples", "1e3", "--seeds", "1", "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_text().splitlines()[0] == "gamma,n=1000"


class TestDeterminism:
    def test_discover_byte_identical(self, tiny_run, tmp_path):
        _, data, run = tiny_run
        rerun = tmp_path / "rerun"
        assert main(["discover", "--data", str(data / "kdv"), "--benchmark", "kdv",
                     "--out", str(rerun)]) == 0
        for name in ("model.json", "trace.json", "trace.csv", "manifest.json"):
            assert (rerun / name).read_bytes() == (run / name).read_bytes()

    def test_sweep_byte_identical(self, tiny_run, tmp_path):
        _, data, _ = tiny_run
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["sweep", "--data", str(data / "kdv"),
                         "--noise", "0:0.05:2", "--samples", "300,600",
                         "--seeds", "1", "--seed", "7", "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "sweep.json").read_bytes() == (outs[1] / "sweep.json").read_bytes()
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()


class TestErrors:
    def test_unknown_flag_exit_four(self):
        assert main(["discover", "--nonsense"]) == 4

    def test_removed_resolution_option_exit_four(self, tmp_path):
        assert main(["generate", "burgers-hyper", "--resolution", "full",
                     "--out", str(tmp_path)]) == 4
        assert not (tmp_path / "burgers-hyper.json").exists()

    def test_sweep_without_benchmark_provenance_exit_four(self, tmp_path, capsys):
        # a plain periodic dataset, long enough for a sweep cell to run
        axis, time_axis = bgsindy.Axis(0.0, 2 * np.pi / 32, 32), bgsindy.Axis(0.0, 0.05, 64)
        u = np.sin(axis.points())[:, None] * np.exp(-time_axis.points())
        bgsindy.save_dataset(bgsindy.Dataset((axis,), time_axis, {"u": u}, {"u": "periodic"}),
                             tmp_path / "plain")
        assert main(["sweep", "--data", str(tmp_path / "plain"), "--noise", "0:0:1",
                     "--samples", "100", "--seeds", "1", "--out", str(tmp_path / "o")]) == 4
        assert "provenance" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("samples", ["100,abc", "0", "100,2.5"])
    def test_bad_samples_exit_four(self, tiny_run, tmp_path, capsys, samples):
        _, data, _ = tiny_run
        assert main(["sweep", "--data", str(data / "kdv"), "--noise", "0:0:1",
                     "--samples", samples, "--seeds", "1", "--out", str(tmp_path / "o")]) == 4
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--seeds", "0"),
                                               ("--noise", "0:0.1:0"), ("--noise", "0:inf:2"),
                                               ("--noise", "nan:0.1:2"),
                                               ("--noise", "0.2:-0.1:4")])
    def test_bad_sweep_argument_exit_four(self, tiny_run, tmp_path, capsys, option, value):
        # each is refused before any cell runs, so no sweep.csv is written
        _, data, _ = tiny_run
        args = {"--noise": "0:0:1", "--samples": "300", "--seeds": "1", "--seed": "0",
                option: value}
        argv = ["sweep", "--data", str(data / "kdv"), "--out", str(tmp_path / "o")]
        assert main(argv + [a for kv in args.items() for a in kv]) == 4
        assert option in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("boundary", ["spectral", "dirichlet"])
    @pytest.mark.parametrize("model, named", [
        ({}, "'terms'"),
        ({"terms": [{"powers": {"v": 1}, "coefficient": 1e-3}]}, "term 'v' reads field 'v'"),
        ({"terms": [{"powers": {}, "deriv": {"field": "v", "orders": [2]},
                     "coefficient": 1e-3}]}, "term 'v_xx' reads field 'v'")],
        ids=["no-terms", "v", "v_xx"])
    def test_validate_model_it_cannot_integrate_exit_four(self, tiny_run, tmp_path, capsys,
                                                          boundary, model, named):
        # a u model whose term reads a field the u-only dataset lacks
        _, data, _ = tiny_run
        reference = data / "kdv"
        if boundary == "spectral":
            cfg = tmp_path / "burgers.json"
            cfg.write_text(json.dumps({
                "benchmark": "burgers-hyper", "bounds": [[0.0, 32 * np.pi]], "counts": [256],
                "dt": 0.1, "output_stride": 1, "epsilon": 1e-3, "t_final": 1.0}))
            assert main(["generate", "burgers-hyper", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
            reference = tmp_path / "burgers-hyper"
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**model, "target_field": "u", "residual": 0.0}
                                   if model else model))
        capsys.readouterr()
        assert main(["validate", "--model", str(path), "--reference", str(reference)]) == 4
        assert named in capsys.readouterr().err

    def test_unreadable_config_exit_four(self, tmp_path):
        assert main(["generate", "kdv", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 4

    def test_mismatched_config_exit_four(self, tmp_path, capsys):
        cfg = tmp_path / "kdv.json"
        cfg.write_text(json.dumps(TINY_KDV))
        assert main(["generate", "burgers-hyper", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 4
        assert "'kdv'" in capsys.readouterr().err
        assert not (tmp_path / "burgers-hyper.json").exists()

    def test_malformed_benchmark_config_exit_four(self, tmp_path, capsys):
        # an unknown entry (here knobs of older configs), a missing one, or
        # not one bound and one count per space axis of the benchmark
        rd2d = {"benchmark": "rd2d", "bounds": [[-1.5, 1.5]], "counts": [16, 16],
                "dt": 0.025, "output_stride": 2, "epsilon": 1e-3, "t_final": 0.1}
        cases = [("integrator", {**TINY_KDV, "integrator": "rk4"}, "'integrator'"),
                 ("rtol", {**TINY_KDV, "rtol": 1e-6}, "'rtol'"),
                 ("missing", {k: v for k, v in TINY_KDV.items() if k != "dt"}, "'dt'"),
                 ("counts", {**TINY_KDV, "counts": [260, 7]}, "'counts'"),
                 ("bounds", rd2d, "'bounds'")]
        for name, cfg, named in cases:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert main(["generate", cfg["benchmark"], "--config", str(path),
                         "--out", str(tmp_path / name)]) == 4
            assert named in capsys.readouterr().err
            assert not (tmp_path / name / "manifest.json").exists()

    def test_malformed_dataset_provenance_exit_four(self, tiny_run, tmp_path, capsys):
        # validate and sweep read the dataset's config before any work: a
        # dataset that names its benchmark but lacks the config, or holds a
        # mistyped one, exits 4 naming the entry
        _, data, run = tiny_run
        dataset = bgsindy.load_dataset(data / "kdv")
        config = dataset.metadata["config"]
        for name, metadata in (("config", {"benchmark": "kdv"}),
                               ("epsilon", {"benchmark": "kdv",
                                            "config": {**config, "epsilon": "small"}})):
            bgsindy.save_dataset(bgsindy.Dataset(dataset.space_axes, dataset.time_axis,
                                                 dataset.fields, dataset.boundary, metadata),
                                 tmp_path / name)
            assert main(["validate", "--model", str(run / "model.json"),
                         "--reference", str(tmp_path / name),
                         "--out", str(tmp_path / f"{name}-validate.json")]) == 4
            assert f"'{name}'" in capsys.readouterr().err
            assert not (tmp_path / f"{name}-validate.json").exists()
            assert main(["sweep", "--data", str(tmp_path / name), "--noise", "0:0:1",
                         "--samples", "300", "--seeds", "1",
                         "--out", str(tmp_path / f"{name}-sweep")]) == 4
            assert f"'{name}'" in capsys.readouterr().err
            assert not (tmp_path / f"{name}-sweep").exists()

    def test_unknown_library_spec_entry_exit_four(self, tiny_run, tmp_path, capsys):
        # an unknown entry, or a known one with a malformed value; the error
        # names the entry
        _, data, _ = tiny_run
        specs = [({"pruner": {"tua": 3}}, "'tua'"),
                 ({"library": {"methd": "spectral"}}, "'methd'"),
                 ({"independence_tol": 1e-10}, "'independence_tol'"),
                 ({"smooth": [{"axis": "z", "window": 5, "degree": 2}]}, "'axis'"),
                 ({"smooth": [{"axis": "t", "window": 5}]}, "'degree'"),
                 ({"sample": {"time_window": [5]}}, "'time_window'"),
                 ({"pruner": {"tau": "3"}}, "'tau'"),
                 ({"library": {"poly_degree": "2"}}, "'poly_degree'"),
                 ({"smooth": 5}, "smooth"),
                 ({"target_field": "w"}, "'w'"),
                 ({"library": {"kind": "rd-2d"}}, "'kind'"),
                 (["smooth"], "JSON object"),
                 ({"target_field": ["u"]}, "'target_field'"),
                 ({"benchmark": ["kdv"]}, "'benchmark'")]
        runs = [(["discover", "--benchmark", "kdv"], spec, name) for spec, name in specs]
        runs += [(["baseline", "--method", "stlsq", "--benchmark", "kdv"],
                  {"target_field": {"u": 1}}, "'target_field'"),
                 (["discover"], {"benchmark": ["kdv"]}, "'benchmark'")]
        for i, (command, spec, name) in enumerate(runs):
            path = tmp_path / f"spec{i}.json"
            path.write_text(json.dumps(spec))
            out = tmp_path / f"o{i}"
            assert main([*command, "--data", str(data / "kdv"), "--library-spec", str(path),
                         "--out", str(out)]) == 4, (command, spec)
            assert name in capsys.readouterr().err, (command, spec)
            assert not (out / "manifest.json").exists()

    def test_library_spec_benchmark_must_match_flag(self, tiny_run, tmp_path, capsys,
                                                     monkeypatch):
        # a spec naming another benchmark than --benchmark is refused before
        # the data is read; the same name still runs, and the manifest names it
        _, data, run = tiny_run
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"benchmark": "kdv"}))
        out = tmp_path / "same"
        assert main(["discover", "--data", str(data / "kdv"), "--benchmark", "kdv",
                     "--library-spec", str(path), "--out", str(out)]) == 0
        assert (out / "model.json").read_bytes() == (run / "model.json").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["config"]["benchmark"] == "kdv"

        def no_load(path):
            raise AssertionError("the data was loaded before the recipe was checked")
        monkeypatch.setattr(bgsindy.cli, "load_dataset", no_load)
        path.write_text(json.dumps({"benchmark": "rd2d"}))
        for i, command in enumerate((["discover"], ["baseline", "--method", "stlsq"])):
            out = tmp_path / f"o{i}"
            assert main([*command, "--data", str(data / "kdv"), "--benchmark", "kdv",
                         "--library-spec", str(path), "--out", str(out)]) == 4, command
            assert "'benchmark'" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exit_four(self, tiny_run, tmp_path, capsys, tau):
        _, data, _ = tiny_run
        out = tmp_path / "o"
        assert main(["discover", "--data", str(data / "kdv"), "--benchmark", "kdv",
                     "--tau", tau, "--out", str(out)]) == 4
        assert "tau" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_malformed_trace_exit_four(self, tiny_run, tmp_path, capsys):
        # every trace entry report prints is read by its type
        _, _, run = tiny_run
        trace = json.loads((run / "trace.json").read_text())
        first = trace["iterations"][0]
        bad = [({**trace, "iterations": [{k: v for k, v in first.items() if k != "residual"}]},
                "'residual'"),
               ({**trace, "iterations": [{**first, "removed_name": 3}]}, "'removed_name'"),
               ({**trace, "selected_iteration": "0"}, "'selected_iteration'"),
               ({**trace, "iterations": {}}, "'iterations'")]
        for i, (doc, name) in enumerate(bad):
            rundir = tmp_path / f"r{i}"
            rundir.mkdir()
            (rundir / "trace.json").write_text(json.dumps(doc))
            assert main(["report", "--run", str(rundir)]) == 4
            assert name in capsys.readouterr().err
            assert not (rundir / "report.json").exists()

    def test_unknown_sample_entry_exit_four(self, tiny_run, tmp_path, capsys):
        _, data, _ = tiny_run
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"sample": {"sede": 3}}))
        out = tmp_path / "o"
        assert main(["discover", "--data", str(data / "kdv"), "--benchmark", "kdv",
                     "--library-spec", str(path), "--out", str(out)]) == 4
        assert "'sede'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    # (method, params, the parameter the error names, whether the data is
    # loaded first): names and JSON types are checked before the data is
    # read, values by the baselines themselves
    BAD_BASELINE_PARAMS = [
        pytest.param("stlsq", {"thresold": 0.5}, "thresold", False, id="thresold"),
        pytest.param("stlsq", 5, "--params", False, id="params-number"),
        pytest.param("stlsq", {"threshold": "a"}, "threshold", False, id="threshold-str"),
        pytest.param("stlsq", {"threshold": True}, "threshold", False, id="threshold-bool"),
        pytest.param("stlsq", {"max_iter": 2.5}, "max_iter", False, id="max_iter-float"),
        pytest.param("stlsq", {"max_iter": 0}, "max_iter", True, id="max_iter-0"),
        pytest.param("stridge", {"split": "x"}, "split", False, id="split-str"),
        pytest.param("stridge", {"lam": float("nan")}, "lam", False, id="lam-nan"),
        pytest.param("stridge", {"lam": -1}, "lam", True, id="lam-negative"),
        pytest.param("stridge", {"search_iters": 0}, "search_iters", True,
                     id="search_iters-0"),
        pytest.param("stridge", {"inner_iters": "3"}, "inner_iters", False,
                     id="inner_iters-str"),
        pytest.param("stridge", {"seed": -1}, "seed", False, id="seed-negative"),
        pytest.param("stridge", {"l0_penalty": False}, "l0_penalty", False,
                     id="l0_penalty-bool"),
    ]

    @pytest.mark.parametrize("method, values, name, loads", BAD_BASELINE_PARAMS)
    def test_unknown_baseline_param_exit_four(self, tiny_run, tmp_path, capsys,
                                              monkeypatch, method, values, name, loads):
        _, data, _ = tiny_run
        if not loads:
            def no_load(path):
                raise AssertionError("the data was loaded before the parameters were checked")
            monkeypatch.setattr(bgsindy.cli, "load_dataset", no_load)
        params = tmp_path / "p.json"
        params.write_text(json.dumps(values))
        out = tmp_path / "b"
        assert main(["baseline", "--method", method, "--data", str(data / "kdv"),
                     "--benchmark", "kdv", "--params", str(params),
                     "--out", str(out)]) == 4
        assert name in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_missing_data_exit_four(self, tmp_path):
        assert main(["discover", "--data", str(tmp_path / "missing"),
                     "--benchmark", "kdv", "--out", str(tmp_path / "o")]) == 4

    def test_console_script_wiring(self, tmp_path):
        # run from the directory holding the package, installed or not
        proc = subprocess.run([sys.executable, "-m", "bgsindy.cli", "generate",
                               "kdv", "--config", "/nonexistent.json",
                               "--out", str(tmp_path)],
                              capture_output=True, text=True,
                              cwd=Path(bgsindy.__file__).resolve().parents[1])
        assert proc.returncode == 4
        assert "error" in proc.stderr


class TestImport:
    def test_import_leaves_scipy_sparse_unloaded(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys, bgsindy; print('scipy.sparse' in sys.modules)"],
                              capture_output=True, text=True,
                              cwd=Path(bgsindy.__file__).resolve().parents[1])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_scipy_linalg_loads_only_with_the_first_factorization(self):
        script = """
import sys
from dataclasses import replace
import bgsindy, bgsindy.cli
from bgsindy import benchmarks, simulate
print("scipy.linalg" in sys.modules)
config = replace(simulate.default_config("modified-ks"), t_final=2.0)
data = simulate.generate_benchmark("modified-ks", config)
simulate.integrate_model(simulate.reference_model("modified-ks"), data)
print("scipy.linalg" in sys.modules)
recipe = benchmarks.discovery_recipe("modified-ks")
recipe["library"].update(poly_degree=2, deriv_order=3)
recipe["sample"]["n"] = 2000
benchmarks.run_discovery(data, recipe)
print("scipy.linalg" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=Path(bgsindy.__file__).resolve().parents[1])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "True"]
