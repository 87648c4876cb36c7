#!/usr/bin/env python3
"""Steadiness mode: run one workload N times, each with another seed, and
print each end-to-end metric's median, quartiles and spread.

The spread is the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median;
it is compared with the metric's ``bound`` from ``BENCHMARK.json``. A
metric is ``ok`` below a third of its bound, ``WIDE`` up to the bound and
``FAIL`` beyond it; ``setup_s`` is judged like every other metric.

    python3 perfbench/steady.py --workload hot_reads --runs 10 [--first-seed 1]

Run it from the repository root; it runs the ``command`` in
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in specs}
    for i in range(args.runs):
        seed = args.first_seed + i
        argv = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        out = subprocess.run(argv, capture_output=True, text=True)
        wall = time.monotonic() - start
        if out.returncode != 0:
            print(out.stdout, out.stderr, file=sys.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in specs:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{name}={values[name][-1]:.6g}" for name in specs)
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, {shown}",
              file=sys.stderr)

    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for name, spec in specs.items():
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = spec["bound"]
        worst = max(worst, spread / bound)
        flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
        print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6} {flag}")
    print(f"largest spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
