"""Alternating benchmark pairs of two checkouts, and a verdict per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N]

Runs `python3 perfbench/run.py --workload W --seed S` in the checkout PARENT
and in the checkout CHANGE, N times each (default 10), alternating which
side runs first. For every end-to-end metric of BENCHMARK.json (read from
PARENT) it prints each run's value, each side's median and quartiles, the
pairs the change won, and a verdict (`verdict`). It exits 1 if any run was
not correct or had failed ops.
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


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one perfbench run in the checkout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    results = {side: [] for side in sides}
    bad = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed)
            results[side].append(result)
            if not result["correct"] or result["failed"]:
                bad.append(f"pair {i + 1} {side}: correct={result['correct']} "
                           f"failed={result['failed']}")
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr,
              flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs "
          f"(odd pairs run the parent first)")
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
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
    for line in bad:
        print(f"bad run: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
