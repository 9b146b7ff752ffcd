#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on one workload.

    python3 perfbench/ab.py OLD_CHECKOUT NEW_CHECKOUT --workload build \
        [--pairs 10] [--seconds 25] [--trace 0]

Each checkout must contain `perfbench/`. Both are built first (each into
its own `.bench_build`), then the pairs run alternately, the side that
goes first swapping every pair, with a fresh seed per pair shared by both
sides. For every metric the script prints each side's median and
quartiles, how many pairs the new side won, and whether the change clears
the rule the benchmark documents: it wins at least nine tenths of the
pairs and the medians differ by more than the old side's own spread
(the distance between its quartiles).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BETTER = {}


def load_better(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        BETTER[m["name"]] = m["better"]


def run(checkout, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: outputs wrong on seed {seed}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1000)
    a = ap.parse_args()
    load_better(a.new)
    sides = {"old": [], "new": []}
    for i in range(a.pairs):
        seed = a.first_seed + i
        order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
        for side in order:
            sides[side].append(run(getattr(a, side), a.workload, seed, a.seconds, a.trace))
        print(f"pair {i + 1}/{a.pairs} done", file=sys.stderr)
    for name in sides["old"][0]:
        old = [r[name] for r in sides["old"]]
        new = [r[name] for r in sides["new"]]
        lower = BETTER.get(name, "lower") == "lower"
        wins = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
        q_old = statistics.quantiles(old, n=4)
        q_new = statistics.quantiles(new, n=4)
        m_old, m_new = statistics.median(old), statistics.median(new)
        spread = q_old[2] - q_old[0]
        improved = (m_old - m_new) if lower else (m_new - m_old)
        gain = wins >= 0.9 * len(old) and improved > spread
        print(f"{name:32} old {m_old:.4g} [{q_old[0]:.4g}, {q_old[2]:.4g}]  "
              f"new {m_new:.4g} [{q_new[0]:.4g}, {q_new[2]:.4g}]  "
              f"new wins {wins}/{len(old)}{'  GAIN' if gain else ''}")


if __name__ == "__main__":
    main()
