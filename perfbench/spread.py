#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads engine,campaign,fleet]
                                [--seeds 1,2,3,4,5] [--seconds 20] [--trace 0]

For every workload it prints each metric's median over the runs, its
quartiles, the spread (interquartile range as a share of the median, the
statistic BENCHMARK.json's bounds are set against), and the attempted and
failed operation counts summed over the runs, and the reason for every
failed operation. It exits non-zero if any run fails or reports incorrect
output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if res["failed"]:
        sys.stderr.write(f"{workload} seed {seed}:\n" + "".join(
            line + "\n" for line in out.stderr.splitlines() if "FAILED" in line))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="engine,campaign,fleet")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in args.workloads.split(","):
        values, units = {}, {}
        attempted = failed = 0
        for seed in seeds:
            res = run(workload, seed, args.seconds, args.trace)
            ok = ok and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(seeds)} runs, attempted {attempted}, failed {failed}")
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32s} {med:12.5g} {units[name]:8s} q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
