import json
import subprocess
import sys

import numpy as np
import pytest

from bgsindy.cli import main

TINY_KDV = {
    "benchmark": "kdv", "bounds": [[0.0, 2.0]], "counts": [260],
    "dt": 5e-4, "output_stride": 2, "epsilon": 4.84e-4, "t_final": 0.3,
    "integrator": "rk4", "ic": "double-sech2", "rtol": 1e-6, "atol": 1e-8,
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
        names = sorted(t["deriv"]["orders"][0] if "deriv" in t else 0
                       for t in model["terms"])
        assert model["target_field"] == "u"

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

    def test_report(self, tiny_run, capsys):
        _, _, run = tiny_run
        assert main(["report", "--run", str(run)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "equation" in out and "residual_history" in out
        assert (run / "report.json").exists()
        assert (run / "report.csv").read_text().startswith("iteration,residual")


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

    def test_missing_data_exit_four(self, tmp_path):
        assert main(["discover", "--data", str(tmp_path / "missing"),
                     "--benchmark", "kdv", "--out", str(tmp_path / "o")]) == 4

    def test_console_script_wiring(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "bgsindy.cli", "generate",
                               "kdv", "--config", "/nonexistent.json",
                               "--out", str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 4
        assert "error" in proc.stderr
