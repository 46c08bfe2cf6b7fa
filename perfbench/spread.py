#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload paper-glr-50m --seeds 1-10 --seconds 30

For every metric of the final result line it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median. Comparing a parent and a change means
running this in both checkouts on the same seeds and settings (see
README.md in this directory).
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run not correct:\n{out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>11.4f}")


if __name__ == "__main__":
    main()
