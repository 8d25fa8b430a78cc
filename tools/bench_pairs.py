"""Alternating benchmark pairs of two checkouts, and a verdict per metric.

    python3 tools/bench_pairs.py PARENT CHANGE [--workload W] [--seed S] [--pairs N]

Runs `python3 perfbench/run.py --workload W --seed S` in the checkout PARENT
and in the checkout CHANGE, N times each (default 10), alternating which
side runs first. Without --workload it does so for every workload of
BENCHMARK.json (read from PARENT), in file order. For every end-to-end
metric of BENCHMARK.json it prints, in one block per workload, each run's
value, each side's median and quartiles, the pairs the change won, and a
verdict (`verdict`). A run that exits non-zero or ends on a line that is not
a JSON object is a bad run: it is recorded with its exit code and last
stderr line, its pair is left out of the metrics, and the other runs go on.
It exits 1 if any run was bad, not correct or had failed ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs, by index, in which the change reads better; ties count for
    neither side."""
    return sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))


def spread(values: list[float]) -> float:
    """(max - min) / |median|."""
    med = abs(statistics.median(values))
    return (max(values) - min(values)) / med if med else float("inf")


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, linearly interpolated."""
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """The verdict on one metric from runs paired by index.

    - gain: the change wins at least 9/10 of the pairs, and its median is
      better than the parent's by more than the parent's inter-quartile range;
    - worse: the change's median is worse than the parent's by more than
      `bound`, relative to the parent's median;
    - unresolved: the parent's spread (`spread`) exceeds `bound`, unless
      every change run beats every parent run;
    - same: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0     # sign * (parent - change) > 0: better
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    if wins(parent, change, better) >= 0.9 * len(parent) and sign * (med_p - med_c) > q3 - q1:
        return "gain"
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "worse"
    beats_all = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    if spread(parent) > bound and not beats_all:
        return "unresolved"
    return "same"


def selected_workloads(benchmark: dict, workload: str | None) -> list[str]:
    """The workloads to run: the one named, or every workload of the
    BENCHMARK.json object, in file order. An unknown name raises ValueError."""
    names = [w["name"] for w in benchmark["workloads"]]
    if workload is None:
        return names
    if workload not in names:
        raise ValueError(f"unknown workload {workload!r}; BENCHMARK.json has {names}")
    return [workload]


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict | None, str]:
    """The result line of one perfbench run in the checkout and "", or None
    and why the run is bad: its exit code and last stderr line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, capture_output=True,
                          text=True)
    stderr = proc.stderr.strip().splitlines()
    why = f"exit {proc.returncode}, last stderr line {stderr[-1] if stderr else ''!r}"
    if proc.returncode != 0:
        return None, why
    stdout = proc.stdout.strip().splitlines()
    try:
        result = json.loads(stdout[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        return None, f"no JSON result line, {why}"
    return result, ""


def run_pairs(sides: dict, metrics: list, workload: str, seed: int, pairs: int) -> list[str]:
    """Runs and prints one workload's block; returns its bad runs. The metrics
    read the pairs in which both sides gave a result line."""
    results = {side: [] for side in sides}
    bad = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, why = run_once(sides[side], workload, seed)
            results[side].append(result)
            if result is None:
                bad.append(f"{workload} pair {i + 1} {side}: {why}")
            elif not result.get("correct") or result.get("failed"):
                bad.append(f"{workload} pair {i + 1} {side}: correct={result.get('correct')} "
                           f"failed={result.get('failed')}")
        print(f"{workload} pair {i + 1}/{pairs} done ({order[0]} first)", file=sys.stderr,
              flush=True)

    both = [i for i in range(pairs) if all(results[side][i] is not None for side in sides)]
    print(f"{workload} seed {seed}, {len(both)} of {pairs} pairs complete "
          "(odd pairs run the parent first)")
    for m in metrics:
        name = m["name"]
        if len(both) < 2:
            print(f"{name}: fewer than 2 complete pairs")
            continue
        values = {side: [results[side][i]["metrics"][name]["value"] for i in both]
                  for side in sides}
        if any(v is None for vs in values.values() for v in vs):
            print(f"{name}: missing values {values}")
            continue
        p, c = values["parent"], values["change"]
        summary = []
        for side, vs in values.items():
            q1, med, q3 = quartiles(vs)
            summary.append(f"{side} {med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name} ({m['unit']}, bound {m['bound']:.0%}): {'; '.join(summary)}; "
              f"change won {wins(p, c, m['better'])}/{len(p)}; "
              f"parent spread {spread(p):.1%}; {verdict(p, c, m['bound'], m['better'])}")
        for side, vs in values.items():
            print(f"  {side}: {', '.join(f'{v:.4g}' for v in vs)}")
    print(flush=True)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    try:
        workloads = selected_workloads(benchmark, args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    bad = []
    for workload in workloads:
        bad += run_pairs(sides, benchmark["end_to_end"], workload, args.seed, args.pairs)
    for line in bad:
        print(f"bad run: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
