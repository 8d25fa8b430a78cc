"""Self-tests of the benchmark harness: span arithmetic, installing and
removing the tracing wrappers, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np

import run
import tracer as tracing
import workloads
from bgsindy import benchmarks, simulate

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_on_hand_built_span_tree():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3)
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]
    names = ["root", "leaf"]
    cols = {"name": np.array([0, 1, 1, 1]), "start": np.array(start),
            "end": np.array(end), "parent": np.array(parent)}
    summary = tracing.summarize(names, cols)
    assert summary["root"] == {"calls": 1, "incl_s": 10.0, "self_s": 3.0}
    assert summary["leaf"] == {"calls": 3, "incl_s": 8.0, "self_s": 7.0}


def test_traced_op_restores_every_wrapped_attribute():
    targets = tracing.targets()
    originals = [vars(owner)[attr] for owner, attr, *_ in targets]
    t = tracing.Tracer()
    t.install(targets)
    try:
        assert len(tracing.installed_wrappers(targets)) == len(targets)
        config = replace(simulate.default_config("burgers-hyper"), t_final=5.0)
        data = simulate.generate_benchmark("burgers-hyper", config)
        recipe = benchmarks.discovery_recipe("burgers-hyper")
        recipe["sample"]["n"] = 5000
        model, _, lib = benchmarks.run_discovery(data, recipe)
        simulate.integrate_model(model, data)
    finally:
        not_restored = t.uninstall()
    assert not_restored == []
    assert all(vars(owner)[attr] is orig
               for (owner, attr, *_), orig in zip(targets, originals))
    assert tracing.installed_wrappers(targets) == []
    summary = t.summary()
    assert summary["library.factorize"]["calls"] == 3
    spec = lib.spec
    built = summary["library.term_evaluate_build"]["calls"]
    assert built == (spec.poly_degree + 1) * (spec.deriv_order + 1)
    assert summary["simulate.etdrk4_step"]["calls"] > 0
    assert summary["library.term_evaluate_integrate"]["calls"] > 0


def test_untraced_run_installs_no_wrapper(monkeypatch):
    seen = []

    class Probe:
        name, benchmark = "probe", "kdv"

        def measure(self, runner, seed, seconds):
            seen.append(tracing.installed_wrappers())
            runner.run("probe", "p", lambda: workloads.Op("probe", "p", True, "ok"))

    monkeypatch.setitem(workloads.WORKLOADS, "probe", Probe())
    args = Namespace(workload="probe", seed=0, seconds=1.0, trace=0)
    result, report = run.run(args, ROOT, 1)
    assert seen == [[]]
    assert report["problems"] == []
    assert result["attempted"] == 1 and result["failed"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v[0] for k, v in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
