"""Compare two source trees with the same benchmark code and settings.

    python3 bench/compare.py PARENT_TREE CHANGE_TREE [--pairs 10] [--seed 1000]

Each pair runs every workload once on each tree with one seed, alternating
which tree runs first; the seed changes from pair to pair.  Every run lasts
``run_seconds`` of BENCHMARK.json, the length the bounds were set for.  For every
end-to-end metric and workload it prints both medians and quartiles, the
change in the median, how many pairs the change won, and a verdict against
the bound in BENCHMARK.json:

* ``regression``: the change's median is worse than the parent's by more than the bound;
* ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the bound, unless every run of the change beat every run of the parent;
* ``gain``: at least ten pairs, the change won at least nine tenths of them,
  and the medians differ by more than the parent's spread;
* ``no change`` otherwise.

A tree is a directory holding ``src/dnumbers``, ``tests/helpers.py`` and
``scenarios/``, such as an unpacked ``git archive`` of a commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

from run import BENCH, OUT, WORK_COUNTS, spawn
from workloads import WORKLOADS


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(parent: list[float], change: list[float], wins: int, bound: float) -> str:
    base, new = median(parent), median(change)
    noise = spread(parent)
    if new > base * (1 + bound):
        return "regression"
    if noise > bound and not max(change) < min(parent):
        return "unresolved"
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and base - new > noise * base:
        return "gain"
    return "no change"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs per tree")
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    names = list(WORKLOADS)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {side: {name: [] for name in names} for side in sides}
    for k in range(args.pairs):
        order = list(sides) if k % 2 == 0 else list(reversed(sides))
        for name in names:
            for side in order:
                print(f"pair {k + 1}/{args.pairs}: {name} on {side}", file=sys.stderr, flush=True)
                result = spawn(name, args.seed + k, seconds, 0, False, sides[side])
                if not result["correct"]:
                    print(f"  {side} gave wrong outputs on {name}: {result.get('detail')}")
                runs[side][name].append(result)
    print(f"{'workload':14s} {'metric':12s} {'parent [q1, q3]':>30s} {'change [q1, q3]':>30s} {'delta':>8s} wins  verdict")
    for name in names:
        for metric in bounds:
            parent = [r["metrics"][metric]["value"] for r in runs["parent"][name]]
            change = [r["metrics"][metric]["value"] for r in runs["change"][name]]
            wins = sum(c < p for p, c in zip(parent, change))
            cells = []
            for values in (parent, change):
                q1, _, q3 = quantiles(values, n=4)
                cells.append(f"{median(values):10.5g} [{q1:.5g}, {q3:.5g}]")
            delta = 100 * (median(change) / median(parent) - 1)
            print(
                f"{name:14s} {metric:12s} {cells[0]:>30s} {cells[1]:>30s} {delta:+7.2f}% "
                f"{wins:2d}/{len(parent)}  {verdict(parent, change, wins, bounds[metric])}"
            )
        failed = {side: sum(r["failed"] for r in runs[side][name]) for side in sides}
        print(f"{name:14s} failed ops: parent {failed['parent']}, change {failed['change']}")
    same_work = True
    for name in names:
        counts = {}
        for side in sides:
            print(f"traced run: {name} on {side}", file=sys.stderr, flush=True)
            metrics = spawn(name, args.seed, seconds, 1, False, sides[side])["metrics"]
            counts[side] = {c: metrics[c]["value"] for c in WORK_COUNTS}
        differ = [c for c in WORK_COUNTS if counts["parent"][c] != counts["change"][c]]
        same_work &= not differ
        for c in differ:
            print(f"{name:14s} {c} differs: {counts['parent'][c]} -> {counts['change'][c]}")
    print("work counts identical on both trees" if same_work else "THE TWO TREES DID DIFFERENT WORK")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"compare-seed{args.seed}.json"
    path.write_text(json.dumps({"sides": {k: str(v) for k, v in sides.items()}, "runs": runs}, indent=1))
    print(f"runs written to {path}")
    return 0 if same_work else 1


if __name__ == "__main__":
    sys.exit(main())
