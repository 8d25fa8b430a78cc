"""The verdict rule, the workload selection and the bad-run handling of
tools/bench_pairs.py."""

import json

import pytest

from tools.bench_pairs import main, selected_workloads, verdict, wins

PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.8, 10.8, 11.2, 10.6]   # spread 18%


def test_gain_needs_nine_wins_and_medians_apart_by_the_parents_iqr():
    assert verdict(PARENT, [p - 3.0 for p in PARENT], 0.24, "lower") == "gain"
    # 8 of 10 pairs won
    eight = [p - 3.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert wins(PARENT, eight, "lower") == 8
    assert verdict(PARENT, eight, 0.24, "lower") == "same"
    # every pair won, by less than the inter-quartile range (0.9)
    assert verdict(PARENT, [p - 0.05 for p in PARENT], 0.24, "lower") == "same"
    # ties count for neither side
    assert wins(PARENT, PARENT, "lower") == 0


def test_worse_by_more_than_the_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], 0.24, "lower") == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], 0.24, "lower") == "same"
    assert verdict([1.0] * 10, [0.7] * 10, 0.24, "higher") == "worse"
    assert verdict([1.0] * 10, [1.0] * 10, 0.24, "higher") == "same"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [10.0, 14.0, 11.0, 10.5, 12.0, 10.2, 13.0, 10.8, 11.2, 10.6]   # spread 35%
    assert verdict(wide, [w * 1.05 for w in wide], 0.24, "lower") == "unresolved"
    # unless every change run beats every parent run
    skewed = [10.0, 10.1, 10.2, 10.3, 10.4, 20.0, 21.0, 22.0, 23.0, 24.0]
    assert verdict(skewed, [9.9] * 10, 0.24, "lower") == "same"
    assert verdict(skewed, [10.05] * 10, 0.24, "lower") == "unresolved"


def test_every_workload_in_file_order_unless_one_is_named():
    benchmark = {"workloads": [{"name": "ks-pipeline"}, {"name": "kdv-study"}, {"name": "b"}]}
    assert selected_workloads(benchmark, None) == ["ks-pipeline", "kdv-study", "b"]
    assert selected_workloads(benchmark, "kdv-study") == ["kdv-study"]
    with pytest.raises(ValueError, match="unknown workload 'rd2d'"):
        selected_workloads(benchmark, "rd2d")


def stub_checkout(root, second_run):
    """A checkout whose perfbench/run.py logs its arguments and prints a
    result line, except on its second run, which runs `second_run`."""
    result = {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": 0.5}}}
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        "with open('runs.log', 'a') as fh:\n"
        "    fh.write(' '.join(sys.argv[1:]) + '\\n')\n"
        "if len(open('runs.log').readlines()) == 2:\n"
        f"    {second_run}\n"
        f"print({json.dumps(result)!r})\n")
    return root


@pytest.mark.parametrize("second_run, why", [
    ("sys.exit('boom\\nlast words')", "exit 1, last stderr line 'last words'"),
    ("sys.exit(3)", "exit 3, last stderr line ''"),
    ("print('{\"cut'); sys.exit()", "no JSON result line, exit 0, last stderr line ''"),
], ids=["exit-1-with-stderr", "exit-3", "malformed-line"])
def test_a_bad_run_is_recorded_and_the_other_runs_go_on(tmp_path, capsys, second_run, why):
    parent = stub_checkout(tmp_path / "parent", "pass")
    (parent / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}],
         "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    change = stub_checkout(tmp_path / "change", second_run)
    assert main([str(parent), str(change), "--pairs", "3"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("bad run")] == \
        [f"bad run: w pair 2 change: {why}"]
    assert "w seed 0, 2 of 3 pairs complete" in out
    assert "change won 0/2" in out
    for side in (parent, change):
        assert (side / "runs.log").read_text() == "--workload w --seed 0\n" * 3
