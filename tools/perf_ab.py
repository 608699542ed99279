#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark between two checkouts.

usage: python3 tools/perf_ab.py TREE_A TREE_B --workload W --pairs N
                                [--seed S] [--seconds T]

Runs `python3 perfbench/run.py --workload W --seed S --seconds T` in each
checkout, N pairs of runs, alternating which side goes first so a drift in
host speed falls on both sides alike. Each checkout builds its own program
on its first run (perfbench/attach.cmake). For every end-to-end metric of
TREE_A's BENCHMARK.json it prints the median and inter-quartile range of
each side, the ratio of the medians (B / A) and in how many pairs B beat A
in the metric's better direction (and how many tied). Exits 1 when any run
fails or prints `correct: false`, 2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, opts):
    """The metrics JSON line of one run.py invocation in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", opts.workload,
           "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{tree}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(xs):
    """(q1, median, q3) of xs; every one is xs[0] for a single sample."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    opts = ap.parse_args()
    if opts.pairs < 1:
        ap.error("--pairs must be at least 1")
    for tree in (opts.tree_a, opts.tree_b):
        if not (tree / "perfbench" / "run.py").exists():
            ap.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((opts.tree_a / "BENCHMARK.json").read_text())

    runs = {"A": [], "B": []}
    trees = {"A": opts.tree_a, "B": opts.tree_b}
    incorrect = 0
    for i in range(opts.pairs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            try:
                out = run_once(trees[side], opts)
            except RuntimeError as e:
                print(f"perf_ab: {e}", file=sys.stderr)
                return 1
            if not out["correct"]:
                incorrect += 1
                print(f"perf_ab: pair {i + 1} side {side} printed correct: false",
                      file=sys.stderr)
            runs[side].append(out["metrics"])
            print(f"# pair {i + 1}/{opts.pairs} side {side} done", file=sys.stderr)

    print(f"A = {opts.tree_a}, B = {opts.tree_b}; workload {opts.workload}, "
          f"seed {opts.seed}, {opts.seconds:g} s, {opts.pairs} pairs")
    print("| metric | A median | A IQR | B median | B IQR | B/A | B wins |")
    print("|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r[name]["value"] for r in runs["A"]]
        b = [r[name]["value"] for r in runs["B"]]
        a1, a2, a3 = quartiles(a)
        b1, b2, b3 = quartiles(b)
        lower = m["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        ratio = f"{b2 / a2:.3f}" if a2 else "-"
        tied = f" ({ties} tied)" if ties else ""
        print(f"| {name} ({m['unit']}) | {a2:.6g} | {a3 - a1:.3g} | {b2:.6g} | "
              f"{b3 - b1:.3g} | {ratio} | {wins}/{opts.pairs}{tied} |")
    if incorrect:
        print(f"perf_ab: {incorrect} run(s) printed correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
